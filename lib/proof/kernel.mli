(** The shared resolution kernel: one checked resolution step plus the
    proof-DAG traversal machinery every checker is built on.

    A kernel owns a {!Clause_db}, the formula's original clauses
    (materialised into the store on first use, which also marks them as
    unsat-core members), an id → handle table for clauses the proof has
    defined, and the counters every checker reports uniformly.

    Two traversal styles drive the checkers, both fed by a
    {!Trace.Reader.cursor}:

    - {!stream_pass} / {!load}: validated one-pass forward streaming, the
      §3.3 breadth-first discipline (and the load phase of §3.2);
    - {!builder} / {!build}: on-demand recursive reconstruction through
      the resolve-source DAG with cycle detection, the §3.2 depth-first
      discipline.

    Every resolution the checkers perform enforces the paper's side
    condition — exactly one variable in opposite phases, no tautological
    resolvents — in one place, {!Resolvent.step}: {!chain} folds a
    learned clause's sources through a {!Resolvent} accumulator, and
    {!final_chain} resolves the final conflict down to the empty clause
    through a second one.  Both record each step's pivot ({!pivot},
    {!final_pivot}), so a caller that annotates clauses (interpolation's
    McMillan rule) folds its own rule over them. *)

type t

(** [create ?mem_limit formula] is a kernel over a fresh store, with
    [mem_limit] as in {!Clause_db.create}. *)
val create : ?mem_limit:int -> Sat.Cnf.t -> t

val db : t -> Clause_db.t
val num_original : t -> int
val is_original : t -> int -> bool

(** {2 The id → clause table} *)

(** [id_range t] bounds the dense part of every id table of the check
    ({!Trace.Idtab}): [num_original], widened by 2 per learned record the
    kernel's streams read. *)
val id_range : t -> Trace.Idtab.range

(** [define t id h] binds [id] to [h], transferring one reference to the
    table. *)
val define : t -> int -> Clause_db.handle -> unit

val defined : t -> int -> bool

(** [find t ~context id] looks [id] up; original clauses are materialised
    into the store on demand (and recorded in the unsat core).
    @raise Diagnostics.Check_failed with [Unknown_clause] otherwise. *)
val find : t -> context:string -> int -> Clause_db.handle

(** [peek t id] is the read-only id lookup: [None] when [id] is unbound,
    never materialises an original clause, never mutates. *)
val peek : t -> int -> Clause_db.handle option

(** [release_id t id] drops the table's binding and its reference; a
    no-op when [id] is not bound (the clause was never stored or has
    already drained). *)
val release_id : t -> int -> unit

(** {2 Resolution} *)

(** [chain t ~context ~miss ~learned_id ids] folds checked resolution
    left-to-right over the clauses named by [ids] and returns the final
    clause (a handle owned by the caller — for a single-element chain, a
    retained alias of the source).  Each id is looked up in the id table
    as its step comes; [miss id] supplies the handle of an id the table
    does not bind (an original on first use, say, or a clause a strategy
    keeps elsewhere) or raises the strategy's diagnostic.  Counts one
    built clause, and records the pivot of its [i]-th step (from 1) as
    [pivot t (i - 1)]; nothing is allocated per step.  The running
    resolvent lives in the kernel's {!Resolvent} accumulator and is
    written to the store once, at the end, straight into its slot; each
    intermediate is still booked ({!Clause_db.rebook}), so the simulated
    account and the live/resident counts move exactly as if every
    intermediate were allocated and released.  [c1_id] in a
    diagnostic is [ids.(0)] at the first step and [learned_id] after.
    Not re-entrant: [miss] must not chain on the same kernel.
    @raise Diagnostics.Check_failed on any invalid step, and with
    [Empty_source_list] when [ids] is empty. *)
val chain :
  t ->
  context:string ->
  miss:(int -> Clause_db.handle) ->
  learned_id:int ->
  int array ->
  Clause_db.handle

(** [pivot t i] is the pivot of step [i + 1] of the last {!chain}, for
    [i] from 0 to its step count less one; the next chain overwrites
    it. *)
val pivot : t -> int -> Sat.Lit.var

(** {2 Streaming traversal (breadth-first style)} *)

type pass = {
  total_learned : int;
  final_conflict : int option;
}

(** What a streaming pass charges to the store's simulated account as
    it goes: the full parsed-trace residency (§3.2 depth-first holds the
    whole trace), just the resolve-source lists (the hybrid's pass one),
    or nothing. *)
type residency = [ `Full | `Defs | `None ]

(** The validating pass as an incremental state machine, so it can be
    driven by pulling from a source ({!stream_pass}) or by pushing events
    into it live from the solver (the online validator).  Both drivers
    run the identical per-event validation and memory charges. *)
type stream

val stream_start :
  t ->
  ?stream_order:bool ->
  ?l0:Level0.t ->
  ?charge:residency ->
  ?accept_hints:bool ->
  unit ->
  stream

(** [stream_feed st e] validates one event: header matching the formula,
    no learned id shadowing an original or defined twice, no empty source
    list — and, with [stream_order] (default), no forward references.
    Deletion-hint records ([Event.Delete]) fail with
    {!Diagnostics.Hints_unsupported} unless the stream was started with
    [accept_hints] — the hinted checker acts on them itself; every other
    strategy must refuse a version-2 trace rather than silently ignore
    its hints.
    @raise Diagnostics.Check_failed on the first violation. *)
val stream_feed : stream -> Trace.Event.t -> unit

(** [stream_finish st] checks a header was seen and returns the totals. *)
val stream_finish : stream -> pass

(** [stream_pass t src] drains [src] through {!stream_feed} and finishes.
    The source is consumed from its current position — callers wanting
    the whole trace pass a fresh source (or rewind their cursor first).
    [on_event] sees each event after validation. *)
val stream_pass :
  t ->
  ?stream_order:bool ->
  ?l0:Level0.t ->
  ?charge:residency ->
  ?on_event:(Trace.Event.t -> unit) ->
  Trace.Source.t ->
  pass

(** A fully loaded proof skeleton: resolve-source lists and level-0
    records — what the depth-first checker and the interpolator keep in
    memory. *)
type proof = {
  sources : int array Trace.Idtab.t;
  l0 : Level0.t;
  final_conflict : int option;
  total_learned : int;
}

val load :
  t ->
  ?stream_order:bool ->
  ?charge:residency ->
  Trace.Source.t ->
  proof

(** {2 Recursive traversal (depth-first style)} *)

type builder

(** [builder ?on_built t ~sources] prepares on-demand reconstruction
    through the resolve-source lists in [sources], with one in-progress
    table for every {!build} it serves.  [on_built id] runs after each
    learned clause it builds, while {!pivot} still holds the clause's
    chain. *)
val builder :
  ?on_built:(int -> unit) -> t -> sources:int array Trace.Idtab.t -> builder

(** [build b id] reconstructs clause [id] (memoised in the kernel's id
    table) with an explicit work stack, so arbitrarily deep proofs cannot
    overflow the call stack.
    @raise Diagnostics.Check_failed with [Unknown_clause] or
    [Cyclic_definition] on broken DAGs. *)
val build : builder -> int -> Clause_db.handle

(** {2 The empty-clause construction (Proposition 3)} *)

(** [final_chain t ~l0 ~miss ~conflict_id] resolves the final
    conflicting clause against recorded antecedents in reverse
    chronological order down to the empty clause, checking antecedent
    validity and pivot choice at each step, and returns the chain length.
    Clauses are looked up as in {!chain}, through [miss] when the id
    table does not bind them.  Each pivot is the first variable of the
    running resolvent that one walk down [l0]'s records meets
    ({!Level0.var_at}), so apart from [miss] the construction costs
    O(records + total antecedent width), however wide the resolvent.
    The running resolvent lives in the kernel's second {!Resolvent}
    accumulator, so [miss] may build clauses through {!chain}; each
    step counts one resolution step and is booked in the store as
    {!chain}'s intermediates are, the empty clause included.  The pivot
    of its [i]-th step (from 1) is recorded as [final_pivot t (i - 1)]. *)
val final_chain :
  t ->
  l0:Level0.t ->
  miss:(int -> Clause_db.handle) ->
  conflict_id:int ->
  int

(** [final_pivot t i] is the pivot of step [i + 1] of the last
    {!final_chain}. *)
val final_pivot : t -> int -> Sat.Lit.var

(** {2 Counters and by-products} *)

type counters = {
  clauses_built : int;       (** chain-resolved learned clauses *)
  resolution_steps : int;    (** checked resolution steps *)
  merged_literals : int;     (** shared literals emitted once by merges *)
  peak_live_clauses : int;
  arena_peak_bytes : int;    (** peak arena residency, in bytes *)
}

val counters : t -> counters
val resolution_steps : t -> int

(** [built_ids t] is the sorted list of learned ids {!chain} has built.
    The sort is memoised and invalidated on mutation, so per-report
    re-reads are O(1). *)
val built_ids : t -> int list

(** [core_ids t] is the sorted list of original clause ids materialised so
    far — the unsat core of a completed depth-first or hybrid check. *)
val core_ids : t -> int list

(** [core_var_count t] counts distinct variables over the core clauses. *)
val core_var_count : t -> int
