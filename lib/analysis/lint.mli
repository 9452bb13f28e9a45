(** Streaming trace linter: structural validation of resolution traces in
    one pass over the event stream, with no clause construction and no
    resolution.

    The semantic checkers ([Checker.Df] / [Bf] / [Hybrid]) replay the
    proof and therefore surface a malformed trace as a confusing failure
    deep inside the resolution kernel.  The linter catches the cheap
    structural corruption classes up front — truncated or garbled
    encodings, duplicate or non-monotone clause ids, forward and dangling
    references, out-of-range variables, duplicate level-0 records,
    missing final conflict — and reports each as a typed diagnostic with
    a stable error code and a precise position (line for ASCII traces,
    byte offset for binary ones) instead of an exception.

    Cycle-freedom of the resolve-source graph is a corollary: the linter
    enforces stream-order referencing (every source precedes its use), so
    a lint-clean trace is acyclic by construction.

    Memory is O(#learned clauses) — one hash table of ids — and no
    [Proof.Clause_db] is ever created. *)

type severity =
  | Error    (** the trace cannot possibly check; replay would fail *)
  | Warning  (** suspicious but replayable *)

(** Stable diagnostic codes.  The numeric ids ([L001]…) are part of the
    tool's contract: tests, scripts and the DESIGN.md table key on them.
    Groups: L0xx stream/framing, L1xx clause records, L2xx level-0
    records, L3xx final conflict, L4xx trace-vs-formula, L5xx whole-proof
    semantics (emitted by {!Dag}, which reasons about the complete
    resolution DAG rather than one record at a time), L6xx deletion
    hints, L7xx simplifier-derivation shape (chains over original
    clauses only — the records {!Solver.Simplify} emits — are simulated
    against the formula; a simplifier record with {e no} sources at all
    is already the generic L104). *)
type code =
  | Parse                  (** L001 record does not parse / truncated / garbled *)
  | Missing_header         (** L002 no [t nvars norig] record *)
  | Duplicate_header       (** L003 second header record *)
  | Header_dims            (** L004 nonpositive dimensions in the header *)
  | Event_before_header    (** L005 a record precedes the header *)
  | Shadows_original       (** L101 learned id inside the original-id range *)
  | Duplicate_id           (** L102 learned id defined twice *)
  | Nonmonotone_id         (** L103 learned ids not strictly increasing *)
  | Empty_sources          (** L104 learned clause with no resolve sources *)
  | Self_source            (** L105 clause listed among its own sources *)
  | Bad_reference          (** L106 source id undefined at point of use
                               (forward or dangling reference) *)
  | Repeated_source        (** L107 same source twice in a row in a chain *)
  | Var_out_of_range       (** L201 level-0 variable outside [1..nvars] *)
  | Duplicate_level0       (** L202 two level-0 records for one variable *)
  | Bad_antecedent         (** L203 level-0 antecedent id undefined *)
  | Missing_conflict       (** L301 trace ends without a final conflict *)
  | Conflict_unknown       (** L302 final conflict references an undefined id *)
  | After_conflict         (** L303 records after the final conflict *)
  | Formula_mismatch       (** L401 header dims disagree with the formula *)
  | Formula_var_range      (** L402 formula literal out of declared range *)
  | Formula_duplicate_lit  (** L403 formula clause repeats a literal *)
  | Formula_tautology      (** L404 formula clause is tautological *)
  | Dead_derivation        (** L501 learned clause unreachable from the
                               final conflict — dead weight in the proof *)
  | Duplicate_derivation   (** L502 identical source chain derived twice *)
  | Singleton_chain        (** L503 single-source chain: the clause is a
                               copy of (or subsumed by) its one source *)
  | Dangling_delete        (** L601 delete hint names an undefined clause *)
  | Duplicate_delete       (** L602 clause deleted twice *)
  | Use_after_delete       (** L603 clause referenced after its delete hint *)
  | Chain_no_clash         (** L701 all-original chain step with no clashing
                               variable — the kernel would refuse it *)
  | Chain_multi_clash      (** L702 all-original chain step with several
                               clashing variables (tautological resolvent) —
                               not a valid self-subsuming-resolution /
                               elimination step shape *)
  | Redundant_derivation   (** L703 all-original chain rederives an original
                               clause verbatim — valid but pointless work *)

(** [code_id c] is the stable "Lnnn" identifier. *)
val code_id : code -> string

val severity_of : code -> severity

(** [code_doc id] is the documentation for a printed lint code id
    (e.g. ["L106"]): a short title and a paragraph describing the
    condition and its usual causes.  [None] for unknown ids.  Covers
    every stable code; [rescheck explain] embeds these in refusal
    reports. *)
val code_doc : string -> (string * string) option

type diagnostic = {
  code : code;
  pos : Trace.Reader.pos;
  message : string;
}

type report = {
  binary : bool;             (** format the magic bytes selected *)
  events : int;              (** events successfully parsed *)
  learned : int;             (** learned-clause records seen *)
  level0 : int;              (** level-0 records seen *)
  errors : int;
  warnings : int;
  diagnostics : diagnostic list;  (** stream order, capped — counts are not *)
  dropped : int;             (** diagnostics beyond the cap, counted only *)
  by_code : (string * int) list;
      (** per-code counts keyed by the stable "Lnnn" id, sorted by id and
          never capped — lets CI and tests assert on a specific
          diagnostic class instead of grepping message text *)
}

(** [run ?formula ?max_diagnostics source] lints the trace in one
    streaming pass.  With [formula], the header is cross-checked against
    the formula's dimensions and the original clauses are linted for
    out-of-range, duplicate and tautological literals (L4xx codes).
    [max_diagnostics] (default 100) caps the retained diagnostics;
    [errors]/[warnings] keep counting past the cap.  [format] forces the
    encoding instead of auto-detecting it from the magic bytes.  Never
    raises on malformed traces: parse failures become L001 diagnostics,
    and an ASCII cursor resumes on the next line so one pass can report
    several of them. *)
val run :
  ?format:Trace.Writer.format ->
  ?formula:Sat.Cnf.t ->
  ?max_diagnostics:int ->
  Trace.Reader.source ->
  report

(** {2 Streaming interface}

    The same linter as an incremental stream, so diagnostics accumulate
    identically whether the trace is decoded from a file or observed live
    as the solver emits it.  [binary] selects position bookkeeping (byte
    offsets vs line numbers) and the format named in the report. *)

type stream

(** [stream_start ~binary ()] runs the up-front formula checks (L4xx)
    and returns an empty stream state. *)
val stream_start :
  ?formula:Sat.Cnf.t -> ?max_diagnostics:int -> binary:bool -> unit -> stream

(** [stream_event t pos e] lints one event; [pos] is where its record
    starts in the serialised trace. *)
val stream_event : stream -> Trace.Reader.pos -> Trace.Event.t -> unit

(** [stream_parse_error t pos msg] records a decode failure as L001. *)
val stream_parse_error : stream -> Trace.Reader.pos -> string -> unit

(** [stream_finish t] runs the end-of-trace checks (missing header /
    conflict, header-vs-formula) and seals the report.  [end_pos]
    overrides the tracked position the end-of-trace diagnostics anchor
    to. *)
val stream_finish : ?end_pos:Trace.Reader.pos -> stream -> report

(** [sink t ~pos ?downstream] is the linter as a transformer sink: each
    pushed event is linted at position [pos ()] and forwarded to
    [downstream] (closed with the sink) when given.  Retrieve the report
    with {!stream_finish} after closing. *)
val sink : ?downstream:Trace.Sink.t -> stream -> pos:(unit -> Trace.Reader.pos) -> Trace.Sink.t

(** [clean r] holds when no error-severity diagnostic was found. *)
val clean : report -> bool

val pp_diagnostic : Format.formatter -> diagnostic -> unit

(** [pp fmt r] renders the human-readable report: one line per retained
    diagnostic followed by a summary line. *)
val pp : Format.formatter -> report -> unit

(** [to_json r] is a machine-readable rendering (self-contained, no
    external JSON dependency): [{"format":…, "events":…, "errors":…,
    "warnings":…, "by_code":{"Lnnn":count,…},
    "diagnostics":[{"code","severity","line"|"byte","message"},…]}]. *)
val to_json : report -> string

(** {2 Shared rendering helpers}

    Used by {!Dag}, whose semantic diagnostics are {!diagnostic} values
    with L5xx codes and must render identically. *)

(** [by_code_json l] renders a per-code count list as a JSON object. *)
val by_code_json : (string * int) list -> string

(** [diagnostics_json l] renders diagnostics as the JSON array
    {!to_json} embeds. *)
val diagnostics_json : diagnostic list -> string
