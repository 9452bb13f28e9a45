(** Craig interpolation from checked resolution proofs — the natural next
    "other application" beyond the paper's §4 unsat cores, and the one
    that made proof-producing SAT engines central to unbounded model
    checking (McMillan, CAV 2003, published the same year as this paper).

    Given a partition of the original clauses into [A] and [B] with
    [A ∧ B] unsatisfiable, the resolution proof recorded in the trace is
    annotated bottom-up (McMillan's rules):

    - an input clause from [A] contributes the disjunction of its
      B-shared literals (false if none);
    - an input clause from [B] contributes true;
    - a resolution on a pivot local to [A] joins the operands with OR,
      any other pivot with AND.

    The empty clause's annotation is a circuit [I] — built on
    {!Circuit.Netlist} — such that [A ⊨ I], [I ∧ B] is unsatisfiable,
    and [I] mentions only variables common to [A] and [B].  All three
    properties are re-checked by the test suite using the solver itself. *)

type t = {
  circuit : Circuit.Netlist.t;
  root : Circuit.Netlist.node;                      (** the interpolant *)
  shared_vars : Sat.Lit.var list;                   (** vars(A) ∩ vars(B) *)
  input_of_var : Sat.Lit.var -> Circuit.Netlist.node;
      (** primary input standing for a shared variable.
          @raise Not_found on non-shared variables *)
}

(** [compute f ~a_indices source] annotates the proof in [source]
    (validated as it is traversed) for the partition where [a_indices]
    (0-based, deduplicated) select the A-side clauses of [f] and the rest
    form B. *)
val compute :
  Sat.Cnf.t ->
  a_indices:int list ->
  Trace.Reader.source ->
  (t, Proof.Diagnostics.failure) result

(** [of_formulas a b] is the convenience wrapper: conjoins [a] and [b]
    over a shared variable space, solves with tracing, and interpolates.
    [Error `Sat] with a model when the conjunction is satisfiable. *)
val of_formulas :
  ?config:Solver.Cdcl.config ->
  Sat.Cnf.t ->
  Sat.Cnf.t ->
  (t, [ `Sat of Sat.Assignment.t
      | `Check_failed of Proof.Diagnostics.failure ]) result

(** [eval itp valuation] evaluates the interpolant under a valuation of
    the shared variables (missing variables default to false). *)
val eval : t -> (Sat.Lit.var * bool) list -> bool

(** [size itp] is the node count of the interpolant circuit. *)
val size : t -> int
