(** Structural statistics of a resolution proof — the shape information
    behind Table 2's Built% column: how much of the trace the proof
    really uses, how deep the resolve-source DAG is, and how wide the
    rebuilt clauses get (the XOR-rich instances of the paper show up here
    as deep/wide proofs). *)

type t = {
  learned_total : int;       (** learned clauses recorded in the trace *)
  learned_needed : int;      (** reachable from the final conflict (incl.
                                 level-0 antecedents) *)
  resolution_steps : int;    (** resolutions to rebuild every learned
                                 clause, plus the final chain *)
  dag_depth : int;           (** longest source path from an original
                                 clause to the final conflict *)
  max_clause_width : int;    (** widest rebuilt learned clause *)
  mean_clause_width : float; (** mean width over rebuilt learned clauses *)
  final_chain_length : int;  (** resolutions in the empty-clause
                                 construction *)
}

(** [analyze f source] validates the trace breadth-first while measuring
    it. *)
val analyze :
  Sat.Cnf.t -> Trace.Reader.source -> (t, Proof.Diagnostics.failure) result

val pp : Format.formatter -> t -> unit
