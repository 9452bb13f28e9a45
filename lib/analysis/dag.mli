(** Whole-proof static analysis: one streaming pass over a resolution
    trace builds the proof's dependency DAG — clause ids and antecedent
    lists only, never clause literals — and derives the global facts no
    record-at-a-time pass can see:

    - backward reachability from the final conflict (which learned
      clauses are {e dead} — derived but never needed, the fraction the
      trimmer removes);
    - duplicate derivations (identical source chains) and forward or
      dangling references (topological validity of the emission order);
    - chain shape: depth, per-depth width, fan-in distribution;
    - per-id first-use/last-use lifetime spans (the def/use intervals a
      window-shifting scheduler needs);
    - a static prediction of peak simultaneously-live learned clauses
      under each checking strategy's deletion schedule (the paper's
      refcount-zero discipline), computed without running a checker.

    Findings that are properties of single clauses surface as {!Lint}
    diagnostics with stable L5xx codes, so `rescheck analyze` reports
    them through the same machinery as the structural linter.  Memory is
    O(#clause ids + #antecedent arcs): a handful of int tables, no
    [Proof.Clause_db], no literal arrays. *)

(** Predicted peak live learned clauses per checking strategy, from the
    refcount-zero deletion schedule each strategy implies.  [df] keeps
    every clause it builds (the core-reachable set); [bf] rebuilds all
    learned clauses and frees each after its last use; [hybrid] does the
    bf sweep restricted to core-reachable clauses with uses recounted
    among them.  The online validator is bf fed live, so [bf] is its
    peak too. *)
type peaks = {
  df : int;
  bf : int;
  hybrid : int;
}

(** Log-scale (base-2) histogram as non-empty [(bucket, count)] pairs in
    bucket order; bucket semantics follow
    {!Obs.Metrics.Histogram.bucket_index}. *)
type hist = (int * int) list

type profile = {
  binary : bool;                 (** format the magic bytes selected *)
  events : int;                  (** records in the trace, header included *)
  learned : int;                 (** learned-clause records *)
  level0 : int;                  (** level-0 records *)
  nvars : int;
  originals : int;               (** original-clause count from the header *)
  conflict_id : int;             (** clause the final conflict names *)
  topological : bool;            (** every source precedes its use *)
  forward_refs : int;            (** refs to ids defined later (or self) *)
  dangling_refs : int;           (** refs to ids never defined *)
  reachable_learned : int;       (** backward-reachable from the conflict *)
  dead_learned : int;            (** learned but never needed (L501) *)
  core_originals : int;          (** originals the reachable closure touches *)
  duplicate_derivations : int;   (** L502 count *)
  singleton_chains : int;        (** L503 count *)
  max_depth : int;               (** longest derivation chain (originals = 0) *)
  depth_hist : hist;
  max_width : int;               (** most learned clauses at one depth *)
  widest_depth : int;            (** first depth attaining [max_width] *)
  max_fanin : int;               (** longest single resolve chain *)
  total_arcs : int;              (** antecedent references across the DAG *)
  lifetime_max : int;            (** def-to-last-use span, in records *)
  lifetime_mean : float;         (** over used learned clauses *)
  lifetime_hist : hist;
  first_gap_max : int;           (** def-to-first-use span, in records *)
  first_gap_mean : float;
  predicted_peak_live : peaks;
  warnings : int;                (** L5xx diagnostics, uncapped count *)
  dropped : int;                 (** diagnostics beyond the cap *)
  by_code : (string * int) list; (** per-code counts, sorted, uncapped *)
  diagnostics : Lint.diagnostic list;  (** record order, capped *)
}

(** A structural defect that leaves the DAG meaningless — the trace does
    not parse, lacks a header or final conflict, defines an id twice, or
    names a conflict no record defines.  These are exactly the conditions
    {!Lint} reports as errors; the analyzer refuses rather than profile
    garbage, and the CLI maps them to the bad-input exit code (2). *)
type error = {
  pos : Trace.Reader.pos;
  message : string;
}

(** {2 Streaming interface}

    Mirrors {!Lint}'s: the analyzer can tap a live event stream — the
    checker's single parse, the online validator's solver feed — and
    profile the proof without a second read of the trace. *)

type stream

val stream_start : ?max_diagnostics:int -> binary:bool -> unit -> stream
val stream_event : stream -> Trace.Reader.pos -> Trace.Event.t -> unit

(** [stream_finish t] seals the stream: reachability, shape metrics,
    lifetime sweeps and L5xx diagnostics are all computed here, from the
    id tables the pass accumulated. *)
val stream_finish :
  ?end_pos:Trace.Reader.pos -> stream -> (profile, error) result

(** [sink t ~pos] is the analyzer as a sink for tee'ing into a push
    pipeline; [pos] supplies each record's start position. *)
val sink : stream -> pos:(unit -> Trace.Reader.pos) -> Trace.Sink.t

(** {2 One-shot drivers} *)

(** [run source] analyzes a serialised trace in one streaming pass.
    [format] forces the encoding instead of auto-detecting it;
    [max_diagnostics] (default 100) caps retained diagnostics (counts
    are never capped).  Unlike {!Lint.run},
    a parse failure aborts the analysis into [Error] — a trace that does
    not decode has no DAG to profile. *)
val run :
  ?format:Trace.Writer.format ->
  ?max_diagnostics:int ->
  Trace.Reader.source ->
  (profile, error) result

type trim_stats = {
  records_in : int;
  records_out : int;
  kept_learned : int;
  dropped_learned : int;          (** dead derivations removed *)
  dropped_after_conflict : int;   (** trailing records removed *)
  bytes_in : int;
  bytes_out : int;
}

(** [trim source w] rewrites the trace to its core-reachable subgraph:
    pass one analyzes (as {!run}), pass two re-reads the trace and emits
    through [w] only the header, level-0 records, the final conflict and
    the learned clauses backward-reachable from them — dead derivations
    and anything after the final conflict are dropped.  Reachability is
    closed under the source relation, so every kept reference stays
    defined: the output lints clean whenever the input did, every
    checking strategy reaches an identical verdict and core on it, and
    trimming is idempotent.  Refuses ([Error]) traces with forward or
    dangling references in addition to {!run}'s structural failures: a
    proof whose reference order is broken cannot be safely rewritten.
    [format] forces the {e input} encoding; the output encoding is the
    writer's. *)
val trim :
  ?format:Trace.Writer.format ->
  ?max_diagnostics:int ->
  Trace.Reader.source ->
  Trace.Writer.t ->
  (trim_stats * profile, error) result

(** {2 Deletion-hint conversion} *)

type hint_stats = {
  h_records_in : int;
  h_records_out : int;
  hints : int;            (** delete records emitted *)
  hinted_clauses : int;   (** clause ids covered by emitted hints *)
  pinned : int;           (** ids kept alive for the final chain *)
  dropped_hints : int;    (** input delete records discarded *)
}

(** [hint source w] rewrites the trace into its deletion-hinted form
    (format version 2): every clause id — originals included — gets a
    [Delete] record right after the record of its last use, grouped per
    record, and a dead derivation is deleted right after its own
    definition.  Ids the empty-clause construction needs at the very
    end (the final conflict, every level-0 antecedent) are pinned and
    never deleted, and no hint is emitted at or after the final
    conflict.  Existing hints are discarded and regenerated, so hinting
    is idempotent.  The hinted trace reaches identical verdicts, cores
    and diagnostics under every strategy that accepts it, and drives
    {!Checker.Hint.check}'s peak residency down to the refcount-zero
    schedule.  Refuses traces with forward or dangling references, like
    {!trim}.
    @raise Invalid_argument when [w] is not a version-2 writer. *)
val hint :
  ?format:Trace.Writer.format ->
  ?max_diagnostics:int ->
  Trace.Reader.source ->
  Trace.Writer.t ->
  (hint_stats * profile, error) result

(** [strip_hints source w] drops every [Delete] record and emits the
    rest unchanged — the downgrade path back to a version-1 trace that
    hint-blind strategies accept.  No structural validation is run. *)
val strip_hints :
  ?format:Trace.Writer.format ->
  Trace.Reader.source ->
  Trace.Writer.t ->
  (hint_stats, error) result

(** {2 DAG neighborhood}

    Refusal forensics: the local view of a handful of clause ids, for
    [rescheck explain].  Unlike {!run} this pass is {e best-effort} — it
    is run over the very traces the checker refused, so a parse error
    simply ends the scan and the nodes report what the stream defined up
    to that point, which is exactly the context visible at a positioned
    failure. *)

type node = {
  n_id : int;
  n_kind : [ `Original | `Learned | `Undefined ];
      (** [`Original] when the id falls in the header's original range
          and no learned record redefines it; [`Undefined] when nothing
          defines it before the scan ends — the typical L106 culprit *)
  n_def_pos : Trace.Reader.pos option;  (** defining record, if learned *)
  n_sources : int array;                (** its antecedent list *)
  n_uses : int;  (** total references: sources, level-0 antecedents,
                     final conflict *)
  n_used_by : int list;  (** learned ids citing it, stream order, capped *)
  n_deleted_at : Trace.Reader.pos option;  (** first delete hint naming it *)
}

(** [neighborhood ~ids source] scans the trace once and reports one
    {!node} per distinct id in [ids] (sorted).  [max_used_by] caps the
    retained citing ids (default 8; [n_uses] is never capped). *)
val neighborhood :
  ?format:Trace.Writer.format ->
  ?max_used_by:int ->
  ids:int list ->
  Trace.Reader.source ->
  node list

(** {2 Rendering} *)

(** [pp fmt p] renders the full human-readable report: retained
    diagnostics first, then the profile summary ("proof dag: …"). *)
val pp : Format.formatter -> profile -> unit

(** [warning_summary p] is a compact "L501:3 L502:1" rendering of
    [by_code] ("none" when empty) for one-line reports. *)
val warning_summary : profile -> string

(** [to_json p] is the deterministic machine rendering of the profile;
    diagnostics use {!Lint.to_json}'s element schema. *)
val to_json : profile -> string
