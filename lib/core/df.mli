(** Depth-first checker (paper §3.2, Figure 3).

    The whole trace is read into memory, then clause literals are built on
    demand by recursing through the resolve-source DAG starting from the
    final conflicting clause — so only the clauses actually involved in
    the proof are ever constructed (Table 2's Built% column), and those
    constructed original clauses form an unsatisfiable core of the input
    (§4, Table 3).

    Pros/cons exactly as the paper measures them: fastest, but peak memory
    is the full trace plus every built clause, so huge proofs exhaust
    memory (simulate with {!Harness.Meter}'s limit to reproduce the
    paper's starred rows). *)

(** [check ?meter f trace] validates that [trace] is a resolution proof of
    the unsatisfiability of [f].  [meter] accounts simulated memory (trace
    residency + built clauses); allocation beyond its limit raises
    {!Harness.Meter.Out_of_memory_simulated}, mirroring the paper's
    memory-out entries.  Depth-first reads the trace once: with
    [first_pass] (a single-shot stream, closed when drained) the
    re-readable source is never touched.  [io] selects the
    file backing for every cursor the check opens (default [`Auto]:
    mmap regular files, falling back to the buffered channel). *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Proof.Diagnostics.failure) result
