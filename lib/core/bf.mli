(** Breadth-first checker (paper §3.3).

    The trace is streamed twice.  Pass one counts, for every clause ID,
    how many times it is used as a resolve source (plus one use for each
    antecedent/final-conflict reference).  Pass two rebuilds each learned
    clause in trace order — all its sources are guaranteed to be already
    constructed — and releases a clause the moment its use count drains.

    This is the paper's memory guarantee: the checker never holds more
    clauses than the solver itself did while producing the trace, so if
    the solver finished, the checker cannot run out of memory.  The price
    is building 100% of the learned clauses (Table 2: slower, typically
    around 2x, but a small bounded footprint; it finishes the instances
    where depth-first dies).

    The use counts are the paper's temporary file.  [`In_memory] (the
    default) keeps them in a hash table, uncharged to the meter;
    [`Temp_file chunk] reproduces the paper's implementation literally — the
    counting pass is broken into chunks of [chunk] clause IDs, each
    chunk's counts are written to a real temporary file on disk, and
    during the resolution pass a clause's total count is read back from
    the file when the clause is constructed, so main memory holds
    counters only for clauses that are currently alive ("we may also
    need to break the first pass into several passes so that we can
    count the number of usages of the clauses in one range at a time"). *)

type counting = [ `In_memory | `Temp_file of int (* chunk size *) ]

(** [check ?first_pass f source] validates the trace.  Pass one pulls
    from [first_pass] when given (a single-shot stream — a tee of a live
    pipe, say) and from a fresh cursor over [source] otherwise; it is
    closed once drained.  Pass two (and temp-file counting) always
    re-reads [source], so when pass one came from a pipe, [source] must
    be a spooled copy of the same bytes.  [format] forces the encoding
    on every cursor the check opens (needed for magic-less binary
    traces, which auto-detection cannot classify); [io] selects the
    file backing for every cursor the check opens (default [`Auto]:
    mmap regular files, falling back to the buffered channel). *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?counting:counting ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Proof.Diagnostics.failure) result

(** {2 Incremental pass-one ingest}

    The counting/validation pass as a push-driven state machine: the
    online validator tees the solver's live event stream straight into it
    so pass one overlaps solving.  A violation is {e recorded}, not
    raised (the solver cannot be interrupted mid-push), and later events
    are ignored — so the failure {!finish} reports is exactly the one
    the file-based [check] stops at. *)

type ingest

val ingest : ?meter:Harness.Meter.t -> Sat.Cnf.t -> ingest
val ingest_event : ingest -> Trace.Event.t -> unit
val ingest_sink : ingest -> Trace.Sink.t

(** [ingest_failed g] is the first recorded violation, if any. *)
val ingest_failed : ingest -> Proof.Diagnostics.failure option

(** [finish g source] completes pass one (header/conflict presence) and
    runs the breadth-first reconstruction pass over [source], which must
    serialise exactly the events that were ingested. *)
val finish :
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ingest ->
  Trace.Reader.source ->
  (Report.t, Proof.Diagnostics.failure) result
