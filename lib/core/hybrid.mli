(** Hybrid checker — the paper's §5 future work, implemented: "a checker
    that has the advantage of both the depth-first and breadth-first
    approaches without suffering from their respective shortcomings".

    Three phases over two streaming passes:

    + pass one streams the trace keeping only the resolve-source ID lists
      (no literals) and the level-0/final-conflict records;
    + a reverse sweep over those lists marks exactly the clauses reachable
      from the final conflict — the same "needed" set the depth-first
      checker discovers — and counts each needed clause's uses; the source
      lists are then released;
    + pass two re-streams the trace and rebuilds {e only the needed}
      clauses in stream order, releasing each the moment its use count
      drains, exactly like the breadth-first checker.

    Compared to Table 2's two columns: it constructs the depth-first
    checker's Built% (not 100%), yet its peak residency is the source-ID
    lists plus the small live window — far below depth-first's
    trace-plus-every-built-clause, and it degrades gracefully where
    depth-first runs out of memory.  The reverse sweep is the in-memory
    stand-in for the external-memory graph traversal the paper cites
    ([18]); like the breadth-first checker's use counts, the
    needed/use-count tables are conceptually on disk and are not charged
    to the meter. *)

(** [check ?first_pass f source] — pass one pulls from [first_pass] when
    given (closed once drained), pass two always re-reads [source]; a
    piped pass one therefore needs [source] to be a spooled copy.
    [io] selects the
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
