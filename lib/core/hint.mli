(** Hinted one-pass forward checking (trace format version 2).

    Breadth-first checking ({!Bf}) reads the trace twice because it must
    learn each clause's last use before it can free eagerly.  A hinted
    trace carries that information inline as [Event.Delete] records
    (written by [rescheck hint] or emitted natively by the solver), so
    this checker validates and rebuilds the whole proof in one forward
    pass, defining each learned clause at its record and releasing
    clauses exactly where the hints say their uses are drained.

    Hints are memory advice, never validity input: a wrong, permuted or
    dangling hint makes the check fail with a positioned
    {!Proof.Diagnostics.Bad_delete_hint}, and can never change a verdict.
    A version-1 trace (no hints) is accepted too — the pass simply never
    frees — so verdicts, cores and diagnostics agree with breadth-first
    on every trace both can read. *)

(** [check formula source] validates the trace in a single forward pass.
    With [first_pass] the events are drained from that source instead of
    decoding [source] — the whole check rides an already-open tee'd
    parse, and [source] is never read.  The report matches {!Bf.check}
    field for field (every learned clause built, empty core).
    @raise nothing — failures are returned, parse errors included. *)
val check :
  ?mem_limit:int ->
  ?format:Trace.Writer.format ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Proof.Diagnostics.failure) result
