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
      discipline, generalised over a clause annotation so interpolation
      (McMillan's rule) rides the same traversal as plain checking.

    Every resolution the checkers perform enforces the paper's side
    condition — exactly one variable in opposite phases, no tautological
    resolvents — in one place, {!Resolvent.step}: {!chain} folds a
    learned clause's sources through a {!Resolvent} accumulator, and
    {!final_chain} resolves the final conflict down to the empty clause
    through a second one. *)

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

(** [chain t ~context ~fetch ~combine ~learned_id ids] folds checked
    resolution left-to-right over the clauses named by [ids], threading an
    annotation through [combine] at each step, and returns the final
    clause (a handle owned by the caller — for a single-element chain, a
    retained alias of the source) with its annotation.  Counts one built
    clause.  The running resolvent lives in the kernel's {!Resolvent}
    accumulator and is written to the store once, at the end; each
    intermediate is still {!Clause_db.book}ed, so the simulated account
    and the live/resident counts move exactly as if every intermediate
    were allocated and released.  [c1_id] in a diagnostic is [ids.(0)]
    at the first step and [learned_id] after.  Not re-entrant: [fetch]
    must not chain on the same kernel.
    @raise Diagnostics.Check_failed on any invalid step, and with
    [Empty_source_list] when [ids] is empty. *)
val chain :
  t ->
  context:string ->
  fetch:(int -> Clause_db.handle * 'a) ->
  combine:(pivot:Sat.Lit.var -> 'a -> 'a -> 'a) ->
  learned_id:int ->
  int array ->
  Clause_db.handle * 'a

(** [chain_ids] is {!chain} without annotations. *)
val chain_ids :
  t ->
  context:string ->
  fetch:(int -> Clause_db.handle) ->
  learned_id:int ->
  int array ->
  Clause_db.handle

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

(** How to annotate clauses during a depth-first build: [of_original] is
    the base case, [combine] the per-resolution step.  Plain checking
    uses {!unit_annotation}; interpolation supplies McMillan's rule. *)
type 'a annotation = {
  of_original : int -> Sat.Lit.t array -> 'a;
  combine : pivot:Sat.Lit.var -> 'a -> 'a -> 'a;
}

val unit_annotation : unit annotation

type 'a builder

(** [builder t ~sources spec] prepares on-demand reconstruction through
    the resolve-source lists in [sources]. *)
val builder :
  t -> sources:int array Trace.Idtab.t -> 'a annotation -> 'a builder

(** [build b id] reconstructs clause [id] (memoised in the kernel's id
    table) with an explicit work stack, so arbitrarily deep proofs cannot
    overflow the call stack.
    @raise Diagnostics.Check_failed with [Unknown_clause] or
    [Cyclic_definition] on broken DAGs. *)
val build : 'a builder -> int -> Clause_db.handle * 'a

(** {2 The empty-clause construction (Proposition 3)} *)

(** [final_chain t ~l0 ~fetch ~combine ~conflict_id] resolves the final
    conflicting clause against recorded antecedents in reverse
    chronological order down to the empty clause, checking antecedent
    validity and pivot choice at each step.  Returns the final annotation
    and the chain length.  Each pivot is the first variable of the
    running resolvent that one walk down [l0]'s records meets
    ({!Level0.var_at}), so apart from [fetch] the construction costs
    O(records + total antecedent width), however wide the resolvent.
    The running resolvent lives in the kernel's second {!Resolvent}
    accumulator, so [fetch] may build clauses through {!chain}; each
    step counts one resolution step and is booked in the store as
    {!chain}'s intermediates are, the empty clause included. *)
val final_chain :
  t ->
  l0:Level0.t ->
  fetch:(int -> Clause_db.handle * 'a) ->
  combine:(pivot:Sat.Lit.var -> 'a -> 'a -> 'a) ->
  conflict_id:int ->
  'a * int

(** [final_chain_ids] is {!final_chain} without annotations; returns the
    chain length. *)
val final_chain_ids :
  t ->
  l0:Level0.t ->
  fetch:(int -> Clause_db.handle) ->
  conflict_id:int ->
  int

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
