(** Chaff-style CDCL SAT solver (paper §2, Figures 1 and 2), extended with
    the three trace-generating modifications of §3.1.

    The solver satisfies the checker's two requirements from §1: it is
    DLL-based and it uses {e assertion-based backtracking} — every conflict
    is analysed by iterated resolution down to an asserting (1UIP) clause,
    the solver backtracks to the asserting level, and the flipped variable
    is implied by the learned clause.  Consequently every variable assigned
    at decision level 0 has an antecedent, which is what makes the final
    empty-clause construction of Proposition 3 possible.

    When a trace {!Trace.Sink.t} is supplied, the solver pushes, in
    stream order:
    - a header event up front;
    - one [Learned] event per learned clause, listing its resolve sources
      in resolution order (conflicting clause first, then antecedents);
    - on the final (level-0) conflict, the [Level0] records for the whole
      trail in chronological order followed by the [Final_conflict] id.

    Learned clauses drop literals already false at level 0 (standard CDCL
    practice); the checker compensates by carrying those literals through
    its rebuilt clauses and eliminating them with the level-0 antecedents,
    so the recorded source lists remain a valid resolution proof. *)

type result =
  | Sat of Sat.Assignment.t  (** a full model, independently verifiable *)
  | Unsat

(** Restart-interval schedule.  [Geometric] grows the interval by
    [restart_inc] each restart (the paper's §2.2 termination argument);
    [Luby] follows the Luby–Sinclair–Zuckerman sequence scaled by
    [restart_first], the schedule later adopted by MiniSat. *)
type restart_sequence = Geometric | Luby

type config = {
  var_decay : float;         (** VSIDS decay applied between conflicts *)
  restart_first : int;       (** conflicts before the first restart *)
  restart_inc : float;       (** geometric restart-interval growth (>1
                                 ensures termination, §2.2 Prop. 1) *)
  restart_sequence : restart_sequence;
  enable_restarts : bool;
  enable_deletion : bool;    (** learned-clause database reduction *)
  enable_minimization : bool;
      (** local learned-clause minimization: redundant literals are
          resolved away using their antecedents, which are appended to
          the clause's recorded resolve sources so the trace remains a
          valid proof *)
  max_learned_factor : float;(** learned limit = factor × #original *)
  max_learned_inc : float;   (** limit growth applied at each reduction *)
  random_decision_freq : float; (** fraction of random decisions *)
  seed : int;
  sanitize : bool;
      (** run the runtime sanitizer at every decision boundary: validates
          two-watched-literal integrity (a false watched literal has a
          true partner assigned no deeper), trail/level consistency, the
          literal truth table, implication-graph acyclicity, each reason
          clause holding its implied literal in slot 0, the clause arena's
          layout and wasted-word count, the learned-clause vector, and
          BCP-fixpoint semantics, raising
          {!Sanitizer_violation} on the first broken invariant.  Debugging
          aid in the ASan spirit — heavy slowdown, no behaviour change.
          Off by default. *)
  emit_deletes : bool;
      (** emit native deletion hints: each database reduction pushes one
          batched [Trace.Event.Delete] naming exactly the clauses it
          removed, making the trace a format-version-2 hinted trace (the
          sink must lead to a version-2 writer).  Hints are memory
          advice for the hinted one-pass checker; search behaviour and
          the proof itself are unchanged.  Off by default. *)
  inprocess_interval : int;
      (** when positive, every [inprocess_interval] conflicts the solver
          backtracks to level 0 and simplifies the clause database
          against the level-0 assignment: satisfied clauses are deleted
          and clauses with level-0-false literals are replaced by their
          shortening, each emitted as a [Learned] record resolving the
          old clause against the removed variables' antecedents (the
          same chain shape as minimization), so traces stay checkable
          under every strategy.  0 (the default) disables the pass. *)
}

val default_config : config

(** Raised by the sanitizer ({!config.sanitize}) when a solver-internal
    invariant is broken; the message names the invariant and the offending
    variable/clause.  Reaching this is always a solver bug, never an input
    problem. *)
exception Sanitizer_violation of string

type stats = {
  decisions : int;
  propagations : int;
      (** trail literals [propagate] dequeued: every literal BCP
          processed, whether implied, a decision, an assumption or a
          level-0 unit *)
  conflicts : int;
  learned_clauses : int;
  learned_literals : int;
  deleted_clauses : int;
  restarts : int;
  max_decision_level : int;
}

(** All-zero statistics, for outcomes settled before search starts. *)
val empty_stats : stats

(** [solve ?config ?trace f] decides [f].  A [Sat] answer always carries a
    model that satisfies [f] (checked by the test suite through
    {!Sat.Model.satisfies}); an [Unsat] answer is what the checker
    validates from the trace.  [trace] receives the proof events as they
    are produced (it is {e not} closed — the caller owns the sink, and
    may have teed it into several consumers). *)
val solve : ?config:config -> ?trace:Trace.Sink.t -> Sat.Cnf.t -> result * stats

(** A pre-seeded clause space, as produced by {!Simplify.run}: the
    surviving clauses (including one unit clause per justified forced
    literal) keep the ids they hold in the trace the simplifier already
    emitted, and the solver's own learned clauses start at
    [seed_first_learned]. *)
type seed = {
  seed_nvars : int;
  seed_clauses : (int * Sat.Clause.t) list;
      (** id-tagged normalized clauses, any order; ids must be distinct
          and below [seed_first_learned] *)
  seed_first_learned : int;  (** first id owned by the solver *)
}

(** [solve_seeded ?config ?trace seed] continues the proof the
    simplifier started: no header event is emitted (the simplifier's
    sink already carries one), learned records take ids from
    [seed_first_learned] upwards, and the final level-0 records cite the
    seeded unit clauses — so appending this run to the simplifier's
    events yields one trace that checks against the {e original}
    formula.  A [Sat] model covers the seeded clause set only; lift it
    with the simplifier's [reconstruct]. *)
val solve_seeded :
  ?config:config -> ?trace:Trace.Sink.t -> seed -> result * stats

(** Result of solving under assumptions. *)
type assumed_result =
  | A_sat of Sat.Assignment.t
      (** satisfiable with every assumption holding *)
  | A_unsat_assumptions of Sat.Lit.t list
      (** unsatisfiable under the assumptions; the carried list is the
          subset of assumptions the conflict actually depends on (MiniSat's
          analyzeFinal) — an assumption-level unsat core *)
  | A_unsat
      (** the formula itself is unsatisfiable, regardless of assumptions *)

(** Incremental interface: keep one solver alive across queries so learned
    clauses are reused, add clauses between queries, and solve under
    assumption literals.  The trace-producing path is the one-shot
    {!solve}; incremental sessions do not emit traces (a cross-query trace
    has no single final conflict to anchor the §3.1 records to). *)
module Incremental : sig
  type t

  (** [create ?config f] starts a session on [f]; the variable space is
      fixed at creation. *)
  val create : ?config:config -> Sat.Cnf.t -> t

  (** [add_clause t c] conjoins a clause between queries.
      @raise Invalid_argument if [c] mentions variables beyond the
      session's space. *)
  val add_clause : t -> Sat.Clause.t -> unit

  (** [solve ?assumptions t] decides the current formula under the given
      assumption literals (tried in order). *)
  val solve : ?assumptions:Sat.Lit.t list -> t -> assumed_result

  val stats : t -> stats
end
