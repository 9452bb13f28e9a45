(** End-to-end validation workflow: run the solver with trace generation
    and validate its answer with an independent check — the full loop the
    paper advocates for mission-critical EDA deployments (§1).

    SAT answers are checked in linear time against the formula; UNSAT
    answers are checked by replaying the resolution trace with the chosen
    checker. *)

type strategy =
  | Depth_first
  | Breadth_first
  | Hybrid  (** the §5 future-work checker, see {!Checker.Hybrid} *)
  | Parallel of int
      (** wavefront-parallel BF with this many worker domains, see
          {!Checker.Par} *)
  | Online
      (** tee the solver's live event stream into the linter and BF's
          pass-one ingest concurrently with solving; the reconstruction
          pass re-reads a spooled temp file.  Verdicts, cores, reports and
          diagnostics are bit-identical to [Breadth_first] (timings
          aside), but the full encoded trace is never held in memory. *)
  | Hinted
      (** the solver emits native deletion hints
          ({!Solver.Cdcl.config.emit_deletes}) into a format-version-2
          trace, and the one-pass hinted checker ({!Checker.Hint})
          validates it in a single forward read with eager frees. *)
  | Window of int
      (** window-shifting BF ({!Checker.Window}) with this window size:
          at most that many learned clauses are ever arena-resident,
          boundary clauses spill through frozen arena views. *)

type verdict =
  | Sat_verified of Sat.Assignment.t
      (** solver said SAT; the model satisfies the formula *)
  | Unsat_verified of Checker.Report.t
      (** solver said UNSAT; the trace is a valid resolution proof *)
  | Sat_model_wrong of int
      (** solver said SAT but clause [i] (0-based) is not satisfied: the
          solver is buggy *)
  | Unsat_check_failed of Proof.Diagnostics.failure
      (** solver said UNSAT but the proof does not check: the solver (or
          its trace generation) is buggy *)

(** What the {!Online} strategy additionally observes while streaming. *)
type online_info = {
  peak_buffered_bytes : int;
      (** high-water mark of encoded trace bytes resident in the encoder:
          bounded by its flush threshold, not the proof size *)
  lint : Analysis.Lint.report;
      (** the streaming lint of the live events; for a SAT answer the
          partial trace legitimately lints dirty (no final conflict) *)
}

type outcome = {
  verdict : verdict;
  stats : Solver.Cdcl.stats;
  trace_bytes : int;
  solve_seconds : float;
  check_seconds : float;
  online : online_info option;  (** present iff the strategy was {!Online} *)
  dag : Analysis.Dag.profile option;
      (** present when [analyze] was requested and the solver produced a
          complete proof trace: the whole-proof static profile.  Online
          runs tee the analyzer into the live stream; buffered runs
          profile the trace string. *)
  pre : Solver.Simplify.stats option;
      (** present iff [pre] was requested: the proof-emitting
          simplifier's per-pass statistics *)
}

(** [run ?config ?format ?strategy ?meter ?analyze ?pre f] solves and
    validates [f].  [analyze] (default false) additionally runs the
    {!Analysis.Dag} static analysis over the proof trace, surfacing its
    profile in [dag].  [pre] (default false) runs the proof-emitting
    simplifier ({!Solver.Simplify.run}) first and continues search with
    {!Solver.Cdcl.solve_seeded} on the same trace: UNSAT traces still
    check against the {e original} formula (under every strategy —
    hinted runs additionally carry the simplifier's deletion hints), and
    SAT models are reconstructed to models of the original before
    verification. *)
val run :
  ?config:Solver.Cdcl.config ->
  ?format:Trace.Writer.format ->
  ?strategy:strategy ->
  ?meter:Harness.Meter.t ->
  ?analyze:bool ->
  ?pre:bool ->
  Sat.Cnf.t ->
  outcome

(** [solve_with_trace ?config ?version ?format ?pre f] is the solving
    half: result, stats, and the serialised trace.  [version] (default
    1) selects the trace format version — pass 2 together with a config
    enabling {!Solver.Cdcl.config.emit_deletes} for a hinted trace.
    With [pre] the trace opens with the simplifier's derivation records
    and, when [version] is 2, its deletion hints; a [Sat] model is
    already reconstructed against the original formula. *)
val solve_with_trace :
  ?config:Solver.Cdcl.config ->
  ?version:int ->
  ?format:Trace.Writer.format ->
  ?pre:bool ->
  Sat.Cnf.t ->
  Solver.Cdcl.result * Solver.Cdcl.stats * string
