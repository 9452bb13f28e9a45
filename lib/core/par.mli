(** Parallel breadth-first checker: the §3.3 two-pass discipline with
    pass two scheduled as topological wavefronts across OCaml domains.

    Pass one is the sequential counting/validation pass, additionally
    labelling every learned clause with its level —
    [1 + max (level of sources)], originals at level 0 — so all chains in
    one wavefront are mutually independent.  Pass two dispatches each
    wavefront's resolution chains to a fixed pool of worker domains
    (stdlib [Domain]/[Mutex]/[Condition], chunked work queue); workers
    replay chains through {!Proof.Kernel.resolve_arrays} into per-domain
    scratch while the shared clause store is read-only.  At each
    wavefront barrier the main thread alone commits results in stream
    order — allocation, use-count definition/release and counter updates
    all stay single-threaded and deterministic.

    Verdicts, unsat cores (empty, as for BF) and failure diagnostics are
    bit-identical to {!Bf.check} at every job count: a failing run
    reports the minimum-stream-index failure, which is exactly the first
    failure sequential BF stops at.

    Wavefronts are levelled {e within stream windows} of [window] learned
    clauses rather than globally: global levelling would build level-1
    clauses from the whole trace before releasing anything, inflating the
    live window several-fold, while window-local levelling pins the live
    set to sequential BF's at every window boundary.  Peak live clauses
    therefore stay within one window's delayed releases of BF's.

    Memory is that BF-like live window plus the resolve-source lists,
    which — unlike BF, which re-reads them from the trace — must be held
    (and are charged to the meter) until their wavefront commits. *)

(** [check ?meter ?jobs ?window formula source] checks the trace with
    [jobs] worker domains ([jobs = 1], the default, replays inline on the
    calling domain — same code path, no domains spawned).  [window]
    (default 128, clamped to at least 1) trades live-window size for
    exposed parallelism; results are identical for every value.  Pass one
    is the only trace read (tasks stay in memory), so with [first_pass]
    (closed once drained) the re-readable source is never touched.
    [io] selects the
    file backing for every cursor the check opens (default [`Auto]:
    mmap regular files, falling back to the buffered channel).
    @raise Invalid_argument when [jobs < 1]. *)
val check :
  ?meter:Harness.Meter.t ->
  ?format:Trace.Writer.format ->
  ?io:Trace.Reader.io ->
  ?jobs:int ->
  ?window:int ->
  ?first_pass:Trace.Source.t ->
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Report.t, Proof.Diagnostics.failure) result
