(** Streaming trace reader.  The breadth-first checker (§3.3) must be able
    to scan the trace several times without holding a parsed copy in
    memory, so a reader is created from a re-readable {!source} and
    exposes both a one-shot fold-style pass and a rewindable {!cursor}.
    Format (ASCII vs binary) is auto-detected from the magic bytes, with
    an explicit override available; {!channel_cursor} additionally decodes
    non-seekable inputs (pipes, FIFOs, stdin) in one forward pass. *)

(** Location inside a trace: 1-based line for the ASCII format, 0-based
    byte offset (magic included) for the binary one. *)
type pos =
  | Line of int
  | Byte of int

val pp_pos : Format.formatter -> pos -> unit
val pos_to_string : pos -> string

(** Raised on malformed input, carrying where the offending record starts
    and a human-readable reason.  The analysis layer turns these into
    [L001] lint diagnostics instead of letting them escape. *)
exception Parse_error of { pos : pos; msg : string }

type source =
  | From_string of string  (** in-memory trace, e.g. from {!Writer.contents} *)
  | From_file of string    (** trace file on disk *)

(** [detect src] sniffs the encoding from the first bytes: a "ZKB" magic
    (any version digit) means binary, a byte that can start an ASCII
    record means ASCII, and anything else (empty trace, strict prefix of
    the magic, unrecognized first byte) is ambiguous — the CLI turns
    [`Ambiguous] into a usage error unless the user forces a format. *)
val detect : source -> [ `Ascii | `Binary | `Ambiguous of string ]

(** [sniff_version src] peeks the trace's format version without opening
    a cursor: the magic's version digit for binary traces, the leading
    [v <n>] directive (absent means 1) for ASCII ones.  Unknown future
    versions are returned as-is so callers can refuse them up front.
    Version 1 is the original paper trace; version 2 is the hinted
    variant that additionally carries {!Event.Delete} records. *)
val sniff_version : source -> int

(** A resumable read position into a trace.  Every backing feeds one
    lexer, which reads each record in a single pass and allocates only
    the event it yields and that event's position.  In-memory sources
    are read in place.  Files, like pipes, are read through an input
    channel one 64 KiB block at a time; a file cursor holds one block of
    the raw trace, or one ASCII line when a line is longer.  The
    checkers {!rewind} the same cursor between passes; positions,
    yielded events and {!Parse_error}s are identical for every
    backing. *)
type cursor

(** [cursor source] opens a cursor positioned at the first event.
    [format] forces the encoding instead of auto-detecting from the
    magic: forced-binary skips the magic when present, forced-ASCII
    parses from the very first byte. *)
val cursor : ?format:Writer.format -> source -> cursor

(** [channel_cursor ic] opens a single-shot cursor over a non-seekable
    channel (pipe, FIFO, stdin): total length is unknown (end of trace is
    the first empty read) and {!rewind} raises [Invalid_argument].  [tap]
    observes every raw block as it is read — the CLI spools the blocks to
    a temp file so multi-pass checkers can re-read the trace after the
    pipe is drained.  The channel stays caller-owned: {!close} and GC
    leave it open. *)
val channel_cursor :
  ?format:Writer.format -> ?tap:(string -> unit) -> in_channel -> cursor

(** [detect_cursor c] classifies the encoding from the cursor's first
    bytes, like {!detect} but without reopening the underlying input —
    the only option for channel cursors.  Must be called before the
    cursor reads past its first block. *)
val detect_cursor : cursor -> [ `Ascii | `Binary | `Ambiguous of string ]

(** [close c] releases the file descriptor of a file-backed cursor (also
    done by a GC finaliser; a closed cursor must not be read again);
    no-op for in-memory sources and caller-owned channel cursors. *)
val close : cursor -> unit

(** [is_binary_cursor c] tells which format the magic bytes (or the
    override) selected. *)
val is_binary_cursor : cursor -> bool

(** [version c] is the trace format version the cursor has established:
    binary cursors know it from the magic immediately, ASCII cursors
    learn it when the [v] directive line (if any) is consumed — so for
    ASCII the value is authoritative once the first event has been
    pulled.  Version-2 traces may carry {!Event.Delete} records; a
    delete in a version-1 trace and an unsupported version both raise
    {!Parse_error} from {!next}. *)
val version : cursor -> int

(** [next c] yields the next event, or [None] at end of trace.
    After an ASCII parse error the cursor stands at the next line, so the
    caller may resume; after a binary one the remaining bytes cannot be
    re-synchronised and resuming yields garbage.  ASCII [v] version
    directive lines are consumed invisibly (they are not events).
    @raise Parse_error on malformed input, including an unsupported
    format version. *)
val next : cursor -> Event.t option

(** [last_pos c] is where the most recently yielded event starts (also
    set when {!next} raises, to the failing record's start). *)
val last_pos : cursor -> pos

(** [rewind c] repositions [c] at the first event.
    @raise Invalid_argument on a channel cursor. *)
val rewind : cursor -> unit

(** [iter_cursor c f] streams the remaining events of [c] through [f]. *)
val iter_cursor : cursor -> (Event.t -> unit) -> unit

(** [iter source f] streams every event of the trace through [f], in file
    order, and closes the cursor it opens on every exit.
    @raise Parse_error on malformed input. *)
val iter : source -> (Event.t -> unit) -> unit

(** [fold source f init] folds [f] over the events in file order. *)
val fold : source -> ('a -> Event.t -> 'a) -> 'a -> 'a

(** [to_list source] materialises all events (used by tests and the
    trace trimmer). *)
val to_list : source -> Event.t list

(** [size_bytes source] is the byte length of the serialised trace. *)
val size_bytes : source -> int
