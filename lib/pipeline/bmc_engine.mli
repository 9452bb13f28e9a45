(** Bounded and unbounded safety checking of {!Circuit.Transition}
    systems — the applications stacked on top of the validated SAT flow.

    {b BMC} (the paper's benchmark family [2]): unroll the transition
    relation k steps from the initial state, assert the property
    violation at step k, and ask SAT; every UNSAT answer is validated
    through the depth-first checker before being trusted, exactly the
    paper's deployment story.

    {b Interpolation-based unbounded checking} (McMillan 2003): when the
    BMC instance is UNSAT, the checked proof yields a Craig interpolant
    over the cut after one transition — an over-approximation of the
    image that still cannot fail within the unrolled suffix.  Iterating
    [R ← R ∨ I] until the (BDD-canonical) fixpoint proves the property
    for {e every} depth; satisfiable queries with an enlarged [R] restart
    with a deeper suffix. *)

type bmc_result =
  | Cex of int          (** property violated at this depth *)
  | Safe_up_to of int   (** no violation up to (and including) the bound *)
  | Check_failed of Proof.Diagnostics.failure
      (** an UNSAT answer whose proof did not validate *)

(** [bmc ?config ~max_depth ts] checks depths [0 .. max_depth] in order. *)
val bmc :
  ?config:Solver.Cdcl.config ->
  max_depth:int ->
  Circuit.Transition.t ->
  bmc_result

type mc_result =
  | Proved_safe of {
      iterations : int;        (** interpolation rounds to the fixpoint *)
      reachable_nodes : int;   (** BDD size of the inductive invariant *)
    }
  | Counterexample of { depth : int }
      (** the property is violated within this many steps (an upper
          bound; {!bmc} finds the minimal depth) *)
  | Inconclusive of { iterations : int }
      (** iteration budget exhausted before a fixpoint *)
  | Mc_check_failed of Proof.Diagnostics.failure

(** [interpolation_mc ?config ?initial_depth ?max_iterations ts] — the
    unbounded procedure.  [initial_depth] is the length of the unrolled
    suffix behind the interpolation cut (default 1, deepened on spurious
    hits); [max_iterations] bounds the total solver queries
    (default 64). *)
val interpolation_mc :
  ?config:Solver.Cdcl.config ->
  ?initial_depth:int ->
  ?max_iterations:int ->
  Circuit.Transition.t ->
  mc_result
