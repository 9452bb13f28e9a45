(** Refusal forensics: capture a checker refusal as a structured
    artifact, and reconstruct its context into a self-contained report.

    The flow has two halves.  At refusal time the CLI calls
    {!write_refusal} with the plain facts — command, exit code, status
    line, message, position, the clause ids and lint codes involved —
    and the file it writes ([rescheck-refusal/1]) embeds the
    {!Obs.Journal} flight record as of that moment.  Later (possibly on
    another machine) [rescheck explain <trace> <refusal.json>] calls
    {!build}, which re-reads the trace to extract the offending record
    with a surrounding window, runs {!Dag.neighborhood} over the ids the
    failure names, attaches {!Lint.code_doc} documentation for each
    cited L-code, and carries the journal tail through — so every exit-2
    becomes a report a human can audit without re-running the checker.

    Everything here is best-effort over hostile input by design: the
    trace being explained is one the checker {e refused}, so window
    extraction tolerates parse errors (the unparsable record is itself
    usually the story) and the DAG pass stops at the first undecodable
    record. *)

type refusal = {
  r_command : string;  (** the subcommand that refused, e.g. ["check"] *)
  r_exit_code : int;
  r_status : string;  (** the printed verdict line, e.g. ["s BAD TRACE (lint)"] *)
  r_message : string;  (** the human diagnostic that went to stderr *)
  r_pos : Trace.Reader.pos option;
  r_ids : int list;  (** clause ids the failure names *)
  r_codes : string list;  (** lint code ids involved, e.g. ["L106"] *)
  r_journal : Obs.Json.t;  (** embedded [rescheck-journal/1] document *)
}

(** [write_refusal ~file ~command ~exit_code ~status ~message ?pos ?ids
    ?codes ()] writes the [rescheck-refusal/1] JSON, embedding the
    current {!Obs.Journal} contents (an empty journal when disarmed).
    Best-effort: an unwritable [file] prints a warning to stderr rather
    than masking the refusal itself. *)
val write_refusal :
  file:string ->
  command:string ->
  exit_code:int ->
  status:string ->
  message:string ->
  ?pos:Trace.Reader.pos ->
  ?ids:int list ->
  ?codes:string list ->
  unit ->
  unit

(** [read_refusal file] parses a [rescheck-refusal/1] file.
    [Error msg] on unreadable, unparsable or wrong-schema input. *)
val read_refusal : string -> (refusal, string) result

(** One record of the reconstructed trace window.  [w_text] is the
    record rendered through {!Trace.Event.pp}, or a
    ["<unparsable: reason>"] marker when the record does not decode —
    for a parse refusal that marker {e is} the offending record. *)
type window_entry = {
  w_pos : Trace.Reader.pos;
  w_text : string;
  w_offending : bool;
}

type report = {
  e_refusal : refusal;
  e_window : window_entry list;  (** trace order, at most [2*window+1] *)
  e_nodes : Dag.node list;  (** neighborhood of [r_ids], sorted by id *)
  e_docs : (string * string * string) list;
      (** [(code, title, doc)] for each cited code, sorted *)
}

(** [build ~trace ~refusal ()] reconstructs the report.  [window]
    (default 5) is the number of context records kept on each side of
    the offending one; with no position in the refusal the window is the
    trace's first records.  [format] follows {!Trace.Reader.cursor}. *)
val build :
  ?format:Trace.Writer.format ->
  ?window:int ->
  trace:Trace.Reader.source ->
  refusal:refusal ->
  unit ->
  report

val pp : Format.formatter -> report -> unit

(** [to_json r] is the deterministic [rescheck-explain/1] document. *)
val to_json : report -> string
