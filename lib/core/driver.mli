(** The checker driver: every step the checking strategies share, so
    {!Df}, {!Bf}, {!Hybrid}, {!Hint}, {!Window}, {!Par} and
    {!Proof_stats} each keep only their schedule — what to build, when
    to release it, and whether to count uses first.

    A strategy creates its kernel ([Proof.Kernel.create ?meter], whose
    default meter is unlimited), then runs its schedule inside {!run}:
    pass one over {!source} inside {!pass_one}, the final-conflict
    lookup with {!conflict}, pass two inside {!pass_two} ending in
    {!final_chain}, and the verdict from {!report}.  {!run} is the one
    epilogue: it maps a refuted proof or an unparsable trace to
    [Error], and runs the strategy's cleanup on {e every} exit — an
    escaping exception such as {!Harness.Meter.Out_of_memory_simulated}
    included, which then still propagates. *)

(** [run ?cleanup body] is [Ok (body ())], or [Error] when [body] raises
    [Proof.Diagnostics.Check_failed] or fails to parse the trace.
    [cleanup] runs on every exit; any other exception propagates after
    it. *)
val run :
  ?cleanup:(unit -> unit) ->
  (unit -> 'a) ->
  ('a, Proof.Diagnostics.failure) result

(** {2 Passes} *)

(** [source ?format ?io ?first_pass source] is pass one's event source:
    [first_pass] when given (a single-shot stream, a tee of a live pipe
    say), else a fresh cursor over [source]. *)
val source :
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?first_pass:Trace.Source.t ->
  Trace.Reader.source ->
  Trace.Source.t

(** [pass_one ~cat src f] is [f src] inside the [check.pass_one] span
    (or [name]) of category [cat]; [src] is closed on every exit. *)
val pass_one :
  cat:string -> ?name:string -> Trace.Source.t -> (Trace.Source.t -> 'a) -> 'a

(** [pass_two ~cat f] is [f ()] inside the [check.pass_two] span. *)
val pass_two : cat:string -> (unit -> 'a) -> 'a

(** [conflict c] is the final conflicting clause pass one recorded.
    @raise Proof.Diagnostics.Check_failed when there is none. *)
val conflict : int option -> int

(** [final_chain k ~l0 ?fetch conflict_id] resolves the final conflict
    down to the empty clause (Proposition 3) and returns the chain
    length.  [fetch] defaults to [Proof.Kernel.find]. *)
val final_chain :
  Proof.Kernel.t ->
  l0:Proof.Level0.t ->
  ?fetch:(int -> Proof.Clause_db.handle) ->
  int ->
  int

(** [report k ~total_learned] is the verdict of a completed check, from
    the kernel's counters and meter, published as the [checker.*] (and,
    for a parallel schedule, [par.*]) telemetry gauges.  With [core]
    the report carries the unsat core (depth-first and hybrid);
    [jobs]/[wavefronts]/[max_wavefront_width] describe a parallel
    schedule (default: one job, no wavefronts). *)
val report :
  ?core:bool ->
  ?jobs:int ->
  ?wavefronts:int ->
  ?max_wavefront_width:int ->
  Proof.Kernel.t ->
  total_learned:int ->
  Report.t

(** {2 Use counts}

    The paper's "temporary file": how many times each clause is still
    to be used, so a clause is released the moment its last use drains.
    In memory by default; {!count_to_file} moves the totals into a real
    temp file, keeping in memory only the counters of live clauses. *)

type uses

val uses : unit -> uses

(** [count_uses u e] records one use of every clause [e] references:
    resolve sources, level-0 antecedents and the final conflict. *)
val count_uses : uses -> Trace.Event.t -> unit

val count : uses -> int -> int

(** [release u k id] drops one use of [id], releasing it from [k] when
    that was the last. *)
val release : uses -> Proof.Kernel.t -> int -> unit

(** [count_to_file u ~chunk source] counts [source]'s uses into a temp
    file, one streaming pass per [chunk] clause ids (the paper's
    multi-pass counting), and switches [u] to read totals from it. *)
val count_to_file :
  uses ->
  chunk:int ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  Trace.Reader.source ->
  unit

(** [remove_file u] closes and deletes {!count_to_file}'s temp file, if
    any. *)
val remove_file : uses -> unit

(** [mark_needed u ~defs ~antes conflict_id] counts, into [u], every use
    of a clause reachable from the final conflict — the conflict, each
    level-0 antecedent, and the sources of each reachable definition —
    in one reverse sweep over [defs] (stream order, so no forward
    references).  Returns the number of learned clauses reached. *)
val mark_needed :
  uses ->
  defs:(int * int array) Sat.Vec.t ->
  antes:int Sat.Vec.t ->
  int ->
  int

(** {2 The stream-order rebuild pass} *)

(** [rebuild k u ~context source] replays [source] in stream order,
    rebuilding each learned clause by its resolution chain — every
    source is already built, because pass one enforced stream order.  A
    clause with recorded uses is defined, others are checked and
    dropped; each of its sources then drops one use and is released
    when that was the last.  With [needed_only], clauses without
    recorded uses are skipped rather than checked.  [fetch] looks up
    operands (default [Proof.Kernel.find]), [drained id] releases a
    clause whose uses drained (default [Proof.Kernel.release_id]), and
    [on_record id] runs after each rebuilt clause. *)
val rebuild :
  Proof.Kernel.t ->
  uses ->
  context:string ->
  ?needed_only:bool ->
  ?fetch:(int -> Proof.Clause_db.handle) ->
  ?drained:(int -> unit) ->
  ?on_record:(int -> unit) ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  Trace.Reader.source ->
  unit
