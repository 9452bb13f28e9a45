(** Unsatisfiable-core extraction and the iterated shrinking loop of the
    paper's §4 (Table 3).

    The depth-first check marks exactly the original clauses involved in
    the empty-clause derivation — a (not necessarily minimal) unsatisfiable
    core.  Feeding the core back to the solver and re-extracting shrinks
    it further; after some iterations it reaches a fixed point where every
    remaining clause is used by the proof.  The paper's applications:
    explaining infeasible AI plans, locating unroutable FPGA channel
    constraints, Alloy model debugging. *)

type core = {
  clause_indices : int list;  (** 0-based indices into the input formula *)
  num_clauses : int;
  num_vars : int;             (** distinct variables in the core clauses *)
}

(** [extract ?config ?pre f] solves [f] with tracing and returns the
    proof core.  [Error `Sat] when the formula is satisfiable;
    [Error (`Check_failed d)] if the produced trace does not check (a
    solver bug — should be impossible with the in-tree solver).  [pre]
    (default false) runs the proof-emitting simplifier first; because
    original clauses keep their DIMACS ids through the simplifier's
    records, the returned indices still point into the {e input}
    formula. *)
val extract :
  ?config:Solver.Cdcl.config ->
  ?pre:bool ->
  Sat.Cnf.t ->
  (core, [ `Sat | `Check_failed of Proof.Diagnostics.failure ]) result

type iteration = { clauses : int; vars : int }

type shrink_outcome = {
  initial : iteration;           (** the input formula's dimensions
                                     (occurring variables only, per the
                                     paper's Table 3 note) *)
  iterations : iteration list;   (** core size after each round *)
  reached_fixpoint : bool;       (** all clauses needed by the last proof *)
  rounds : int;                  (** rounds executed *)
  final_core : Sat.Cnf.t;        (** the last (smallest) core formula *)
  final_indices : int list;      (** its 0-based indices into the input *)
}

(** [shrink ?config ?pre ?max_rounds f] iterates extraction until a
    fixed point or [max_rounds] (default 30, as measured in Table 3).
    [pre] is threaded to each {!extract} round. *)
val shrink :
  ?config:Solver.Cdcl.config ->
  ?pre:bool ->
  ?max_rounds:int ->
  Sat.Cnf.t ->
  (shrink_outcome, [ `Sat | `Check_failed of Proof.Diagnostics.failure ]) result
