(** Depth-first checker (paper §3.2, Figure 3).

    The whole trace is read into memory, then clause literals are built on
    demand by recursing through the resolve-source DAG starting from the
    final conflicting clause — so only the clauses actually involved in
    the proof are ever constructed (Table 2's Built% column), and those
    constructed original clauses form an unsatisfiable core of the input
    (§4, Table 3).

    Pros/cons exactly as the paper measures them: fastest, but peak memory
    is the full trace plus every built clause, so huge proofs exhaust
    memory (simulate with a [mem_limit] to reproduce the paper's starred
    rows). *)

(** [check ?mem_limit f trace] validates that [trace] is a resolution
    proof of the unsatisfiability of [f].  The kernel's store accounts
    simulated memory (trace residency + built clauses); a charge beyond
    [mem_limit] words raises {!Proof.Clause_db.Out_of_memory_simulated},
    mirroring the paper's memory-out entries.  Depth-first reads the
    trace once: with [first_pass] (a single-shot stream, closed when
    drained) the re-readable source is never touched. *)
val check :
  ?mem_limit:int ->
  ?format:Trace.Writer.format ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Proof.Diagnostics.failure) result
