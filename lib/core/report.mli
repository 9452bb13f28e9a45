(** Result of a successful check, carrying the statistics the paper's
    Table 2 reports per checker, plus the unsatisfiable-core by-product of
    the depth-first traversal (§3.2, §4). *)

type t = {
  clauses_built : int;
      (** learned clauses whose literals were actually constructed —
          Table 2's "Num. Cls Built" *)
  total_learned : int;
      (** learned clauses recorded in the trace *)
  resolution_steps : int;
      (** checked resolution operations performed *)
  core_original_ids : int list;
      (** original clause IDs (1-based) involved in the proof; exact for
          the depth-first checker, and the empty list for breadth-first,
          which does not track the core (the paper presents the core as a
          DF by-product) *)
  learned_built_ids : int list;
      (** IDs of the learned clauses the checker constructed — for the
          depth-first checker this is exactly the proof-relevant set,
          which a trimmed trace keeps *)
  core_vars : int;
      (** distinct variables among the core clauses *)
  peak_mem_words : int;
      (** simulated peak memory in words — the clause store's account
          ({!Proof.Clause_db.peak_mem_words}) *)
  peak_live_clauses : int;
      (** most clauses simultaneously live in the shared clause store *)
  arena_bytes_resident : int;
      (** peak clause-store arena residency, in bytes *)
}

(** [built_ratio r] is Table 2's "Built%" — constructed learned clauses
    over total learned clauses ([1.0] when nothing was learned). *)
val built_ratio : t -> float

(** [pp] prints every statistic.  The report holds no timings (spans
    time the passes), so checker output can be diffed across runs. *)
val pp : Format.formatter -> t -> unit

(** [to_json r] renders the same statistics as one deterministic JSON
    object with a stable field order —
    the payload behind [rescheck check --json]. *)
val to_json : t -> string
