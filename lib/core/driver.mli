(** The checker driver: every step the checking strategies share, so
    {!Df}, {!Bf}, {!Hybrid}, {!Hint}, {!Window} and {!Proof_stats} each
    keep only their schedule — what to build, when to release it, and
    whether to count uses first.

    A strategy creates its kernel ([Proof.Kernel.create ?mem_limit],
    unlimited by default), then runs its schedule inside {!run}:
    pass one over {!source} inside {!pass_one}, the final-conflict
    lookup with {!conflict}, pass two inside {!pass_two} ending in
    {!final_chain}, and the verdict from {!report}.  {!run} is the one
    epilogue: it maps a refuted proof or an unparsable trace to
    [Error], and runs the strategy's cleanup on {e every} exit — an
    escaping exception such as {!Proof.Clause_db.Out_of_memory_simulated}
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

(** [source ?format ?first_pass source] is pass one's event source:
    [first_pass] when given (a single-shot stream, a tee of a live pipe
    say), else a fresh cursor over [source]. *)
val source :
  ?format:Trace.Writer.format ->
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

(** [final_chain k ~l0 ?miss conflict_id] resolves the final conflict
    down to the empty clause (Proposition 3) and returns the chain
    length.  [miss] supplies the clauses the kernel's id table does not
    bind, as in [Proof.Kernel.chain]; it defaults to
    [Proof.Kernel.find]. *)
val final_chain :
  Proof.Kernel.t ->
  l0:Proof.Level0.t ->
  ?miss:(int -> Proof.Clause_db.handle) ->
  int ->
  int

(** [report k ~total_learned] is the verdict of a completed check, from
    the kernel's counters and its store's simulated peak, published as
    the [checker.*] telemetry gauges.  With [core] the report carries
    the unsat core (depth-first and hybrid). *)
val report : ?core:bool -> Proof.Kernel.t -> total_learned:int -> Report.t

(** {2 Use counts}

    The paper's "temporary file", kept in memory: how many times each
    clause is still to be used, so a clause is released the moment its
    last use drains. *)

type uses

(** [uses k] is an empty count table, its ids bounded by [k]'s
    {!Proof.Kernel.id_range}. *)
val uses : Proof.Kernel.t -> uses

(** [count_uses u e] records one use of every clause [e] references:
    resolve sources, level-0 antecedents and the final conflict. *)
val count_uses : uses -> Trace.Event.t -> unit

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
    recorded uses are skipped rather than checked.  [miss] supplies the
    operands the kernel's id table does not bind (default
    [Proof.Kernel.find]), [drained id] releases a clause whose uses
    drained (default [Proof.Kernel.release_id]), and [on_record id] runs
    after each rebuilt clause. *)
val rebuild :
  Proof.Kernel.t ->
  uses ->
  context:string ->
  ?needed_only:bool ->
  ?miss:(int -> Proof.Clause_db.handle) ->
  ?drained:(int -> unit) ->
  ?on_record:(int -> unit) ->
  ?format:Trace.Writer.format ->
  Trace.Reader.source ->
  unit
