(** Window-shifting breadth-first checking.

    Breadth-first's counting pass followed by a windowed reconstruction
    pass: learned records are processed in windows of a configured size,
    and when a window fills every clause still alive is evicted from
    the arena — learned clauses spill byte-for-byte through a frozen
    arena view ({!Proof.Clause_db.freeze}) into a temp file, originals
    simply drop (the formula backs them).  Later references reload the
    clause transiently for the one chain that needs it, so the arena
    never holds more than the window size in learned clauses plus one
    chain's operands.

    The schedule is invisible to the checker proper: verdicts, cores
    (empty), built sets, resolution step counts and diagnostics are
    identical to {!Bf.check} on every trace.  Deletion-hinted traces
    (format version 2) are refused like every non-hinted strategy. *)

(** Per-run scheduler counters, also exported as the
    [window.resident_clauses] / [window.spilled_clauses] gauges. *)
type stats = {
  windows : int;      (** boundaries crossed *)
  spilled : int;      (** learned clauses written to the spill file *)
  reloaded : int;     (** transient reloads from the spill file *)
  max_resident : int; (** high-water arena-resident learned clauses
                          between records — never exceeds the configured
                          window size *)
}

(** [check ~window formula source] checks the trace with window-shifted
    reconstruction; [on_stats] receives the scheduler counters on every
    exit, failures and escaping exceptions included, once the spill file
    is gone.
    @raise Invalid_argument when [window < 1]; pass [max_int] for an
    unbounded window (plain breadth-first scheduling). *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?first_pass:Trace.Source.t ->
  ?on_stats:(stats -> unit) ->
  window:int ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Proof.Diagnostics.failure) result
