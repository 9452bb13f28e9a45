type pos =
  | Line of int
  | Byte of int

let pp_pos fmt = function
  | Line n -> Format.fprintf fmt "line %d" n
  | Byte n -> Format.fprintf fmt "byte %d" n

let pos_to_string p = Format.asprintf "%a" pp_pos p

exception Parse_error of { pos : pos; msg : string }

let fail pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { pos; msg })) fmt

type source =
  | From_string of string
  | From_file of string

let binary_magic = "ZKB1"
let binary_magic_prefix = "ZKB"

(* The fourth magic byte is the trace format version: "ZKB1" is the
   original paper trace, "ZKB2" the hinted variant (adds delete
   records).  ASCII traces carry the version as a leading [v 2]
   directive line instead; version 1 has no directive.  Unknown future
   digits still classify as binary so the decoder can refuse them with a
   typed error instead of misparsing. *)
let magic_version p =
  if
    String.length p >= 4
    && String.sub p 0 3 = binary_magic_prefix
    && p.[3] >= '0'
    && p.[3] <= '9'
  then Some (Char.code p.[3] - Char.code '0')
  else None

let supported_version v = v = 1 || v = 2

(* A cursor yields events incrementally; multi-pass checkers rewind it
   between passes.  Every backing feeds one lexer through a window: bytes
   [wbase, wbase + wlen) of the serialised trace in a [Bytes.t].  An
   in-memory string is its own window, read in place.  A file or a
   channel reads its 64 KiB blocks straight into the window — the
   checkers' counting passes touch every record, so per-record channel
   reads would be syscall-bound, while slurping the whole file would
   defeat the breadth-first checker's bounded-memory guarantee.  The
   window holds one block, or one line when an ASCII line is longer.
   All positions are absolute byte offsets into the serialised trace
   (magic included), so [Parse_error] locations are identical for every
   backing.  It tracks the position (line for ASCII, byte offset for
   binary) of the event last yielded so that callers — the linter above
   all — can report precise locations.

   A file cursor rewinds with one [seek_in].  Cursors made by
   {!channel_cursor} read a pipe/FIFO/stdin: total length unknown
   ([total = max_int], end of trace is the first empty read), no rewind,
   and an optional [tap] receives every raw block as it arrives — the
   CLI spools blocks to a temp file so later checker passes can re-read
   what the pipe already delivered. *)

let block_size = 65536

type chan = {
  ic : in_channel;
  tap : (string -> unit) option;
  seekable : bool;
}

type backing =
  | Mem (* the window is the string itself, never written *)
  | Chan of chan

type cursor = {
  backing : backing;
  total : int;                (* serialised length; [max_int] = unknown *)
  binary : bool;
  start : int;
  mutable version : int;      (* format version (magic / [v] directive) *)
  mutable pos : int;          (* absolute offset of the next unread byte *)
  mutable line : int;         (* ASCII: 1-based number of the next line *)
  mutable last_pos : pos;     (* where the last yielded event started *)
  mutable win : Bytes.t;
  mutable wbase : int;        (* absolute offset of [win.[0]] *)
  mutable wlen : int;         (* valid bytes in [win] *)
  mutable last : bool;        (* no byte of the trace follows the window *)
  mutable ints : int array;   (* the integers of the record being read *)
}

(* Invariants: [wbase <= pos <= wbase + wlen <= total], and a channel's
   read position is [wbase + wlen]; the only seek happens in [rewind].
   [refill c keep] makes more of the trace available after the window,
   keeping the bytes from absolute offset [keep] on (the record being
   read): they move to the front of the window, which doubles when they
   fill it.  False when no byte follows the window. *)
let refill c keep =
  if c.last then false
  else begin
    let drop = keep - c.wbase in
    if drop > 0 then begin
      Bytes.blit c.win drop c.win 0 (c.wlen - drop);
      c.wbase <- keep;
      c.wlen <- c.wlen - drop
    end;
    if c.wlen = Bytes.length c.win then begin
      let w = Bytes.create (2 * c.wlen) in
      Bytes.blit c.win 0 w 0 c.wlen;
      c.win <- w
    end;
    let room = min (Bytes.length c.win - c.wlen) (c.total - c.wbase - c.wlen) in
    let got =
      match c.backing with
      | Mem -> 0
      | Chan ch ->
        let n = if room = 0 then 0 else input ch.ic c.win c.wlen room in
        (match ch.tap with
         | Some f when n > 0 -> f (Bytes.sub_string c.win c.wlen n)
         | _ -> ());
        n
    in
    c.wlen <- c.wlen + got;
    if got = 0 || c.wbase + c.wlen >= c.total then c.last <- true;
    got > 0
  end

(* no byte left at [c.pos], even after a refill *)
let at_end c = c.pos >= c.wbase + c.wlen && not (refill c c.pos)

(* Encoding detection: the binary magic decides [`Binary]; a first byte
   that can start an ASCII record (or blank line) decides [`Ascii];
   anything else — including an empty trace or a strict prefix of the
   magic — is ambiguous and the CLI refuses it (exit 2) unless the user
   forces a format. *)
let classify_prefix p =
  let n = String.length p in
  if n = 0 then `Ambiguous "empty trace"
  else if magic_version p <> None then `Binary
  else if n < 4 && String.sub binary_magic_prefix 0 (min n 3) = p then
    `Ambiguous
      (Printf.sprintf "%d-byte trace is a strict prefix of the binary magic" n)
  else
    match p.[0] with
    | 't' | 'C' | 'V' | 'D' | 'v' | ' ' | '\t' | '\r' | '\n' -> `Ascii
    | c -> `Ambiguous (Printf.sprintf "unrecognized first byte 0x%02x" (Char.code c))

let detect src =
  let prefix =
    match src with
    | From_string s -> String.sub s 0 (min 4 (String.length s))
    | From_file path ->
      let ic = open_in_bin path in
      let n = min 4 (in_channel_length ic) in
      let p = really_input_string ic n in
      close_in_noerr ic;
      p
  in
  classify_prefix prefix

(* [win] holds the trace's first [wlen] bytes, [wlen <= total] *)
let make_cursor ?format backing total win wlen =
  let magic_len = String.length binary_magic in
  let magic =
    if wlen < magic_len then None
    else magic_version (Bytes.sub_string win 0 magic_len)
  in
  let binary =
    match format with
    | Some Writer.Binary -> true
    | Some Writer.Ascii -> false
    | None -> magic <> None
  in
  (* a forced-binary read of a magic-less trace starts at offset 0; a
     forced-ASCII read never skips the magic even if present *)
  let start =
    if binary && magic <> None then magic_len else 0
  in
  {
    backing;
    total;
    binary;
    start;
    version = (match magic with Some v when binary -> v | _ -> 1);
    pos = start;
    line = 1;
    last_pos = (if binary then Byte start else Line 1);
    win;
    wbase = 0;
    wlen;
    last = wlen = 0 || wlen >= total;
    ints = Array.make 64 0;
  }

(* the first block of a channel, no further than [total], handed to
   [tap] like every later one *)
let first_block ?tap ic total =
  let win = Bytes.create block_size in
  let len = input ic win 0 (min block_size total) in
  (match tap with
   | Some f when len > 0 -> f (Bytes.sub_string win 0 len)
   | _ -> ());
  (win, len)

let cursor ?format source =
  match source with
  | From_string s ->
    let n = String.length s in
    make_cursor ?format Mem n (Bytes.unsafe_of_string s) n
  | From_file path ->
    let ic = open_in_bin path in
    let total = in_channel_length ic in
    let win, wlen = first_block ic total in
    let c =
      make_cursor ?format (Chan { ic; tap = None; seekable = true }) total win
        wlen
    in
    (* cursors have no explicit lifetime in the checker API; make sure an
       abandoned one does not leak its file descriptor *)
    Gc.finalise (fun (_ : cursor) -> close_in_noerr ic) c;
    c

let channel_cursor ?format ?tap ic =
  let win, wlen = first_block ?tap ic max_int in
  (* the channel is caller-owned (it may be stdin): no finaliser *)
  make_cursor ?format (Chan { ic; tap; seekable = false }) max_int win wlen

let detect_cursor c =
  if c.wbase <> 0 then
    invalid_arg "Trace.Reader.detect_cursor: cursor already read past its first block";
  classify_prefix (Bytes.sub_string c.win 0 (min 4 c.wlen))

let close c =
  match c.backing with
  | Mem -> ()
  | Chan { ic; seekable; _ } -> if seekable then close_in_noerr ic

let is_binary_cursor c = c.binary

let rewind c =
  (match c.backing with
   | Chan { seekable = false; _ } ->
     invalid_arg "Trace.Reader.rewind: non-seekable (channel) cursor"
   | Mem | Chan _ -> ());
  (* an in-memory window always starts at 0 *)
  if c.start < c.wbase then begin
    (match c.backing with Chan ch -> seek_in ch.ic c.start | Mem -> ());
    c.wbase <- c.start;
    c.wlen <- 0;
    c.last <- false
  end;
  c.pos <- c.start;
  c.line <- 1;
  c.last_pos <- (if c.binary then Byte c.start else Line 1)

let last_pos c = c.last_pos

let version c = c.version

(* Peek a source's format version without constructing a cursor: the
   magic digit for binary traces, the leading [v] directive (if any) for
   ASCII ones.  Unknown future versions are returned as-is so callers
   can refuse them up front. *)
let sniff_version src =
  let prefix =
    match src with
    | From_string s -> String.sub s 0 (min 64 (String.length s))
    | From_file path ->
      let ic = open_in_bin path in
      let n = min 64 (in_channel_length ic) in
      let p = really_input_string ic n in
      close_in_noerr ic;
      p
  in
  match magic_version prefix with
  | Some v -> v
  | None ->
    if String.length prefix >= 2 && prefix.[0] = 'v' && prefix.[1] = ' ' then begin
      let stop =
        match String.index_opt prefix '\n' with
        | Some i -> i
        | None -> String.length prefix
      in
      let line = String.trim (String.sub prefix 0 stop) in
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ "v"; n ] -> (
        match int_of_string_opt n with Some v -> v | None -> 1)
      | _ -> 1
    end
    else 1

let parse_line pos line =
  let parse () =
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | [] -> None
    | "t" :: rest -> (
      match List.map int_of_string rest with
      | [ nvars; num_original ] -> Some (Event.Header { nvars; num_original })
      | _ -> fail pos "bad header line %S" line)
    | "CL" :: rest -> (
      match List.map int_of_string rest with
      | id :: srcs when srcs <> [] ->
        Some (Event.Learned { id; sources = Array.of_list srcs })
      | _ -> fail pos "bad CL line %S" line)
    | "VAR" :: rest -> (
      match List.map int_of_string rest with
      | [ var; value; ante ] when value = 0 || value = 1 ->
        Some (Event.Level0 { var; value = value = 1; ante })
      | _ -> fail pos "bad VAR line %S" line)
    | [ "CONF"; id ] -> (
      match int_of_string_opt id with
      | Some id -> Some (Event.Final_conflict id)
      | None -> fail pos "bad CONF line" )
    | "D" :: rest ->
      Some (Event.Delete (Array.of_list (List.map int_of_string rest)))
    | w :: _ -> fail pos "unknown trace record %S" w
  in
  try parse () with Failure _ -> fail pos "non-numeric field in %S" line

(* [v <n>] directive lines carry the ASCII trace's format version.  The
   directive is consumed invisibly — it is not an event — so decoding is
   idempotent under rewind. *)
let parse_version_line pos line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | [ "v"; n ] -> (
    match int_of_string_opt n with
    | Some v when supported_version v -> v
    | Some v -> fail pos "unsupported trace format version %d" v
    | None -> fail pos "bad version line %S" line)
  | _ -> fail pos "bad version line %S" line

let is_version_line line =
  String.length line > 0
  && line.[0] = 'v'
  && (String.length line = 1 || line.[1] = ' ')

(* a delete record in a version-1 trace is a version-negotiation
   failure, not a parse failure of the record itself *)
let check_version_for_delete c pos = function
  | Some (Event.Delete _) when c.version < 2 ->
    fail pos "delete record requires trace format version 2"
  | e -> e

let grow_ints c =
  let a = Array.make (2 * Array.length c.ints) 0 in
  Array.blit c.ints 0 a 0 (Array.length c.ints);
  c.ints <- a

(* The ASCII lexer.  It reads a line once, in place in the window: the
   keyword, then each integer straight into [c.ints]; the event's array
   is one exact-size copy of them.  It takes a keyword with the right
   number of fields, each 1 to 18 plain decimal digits after an optional
   '-', separated by spaces, with blanks ([String.trim]'s set) only
   before the keyword and after the last field.  Every other line raises
   [Slow_path] and [parse_line] reads it whole, so accepted inputs,
   events and error messages are those of [parse_line].  A line that
   runs past the window, when more bytes may follow, raises [Short].
   Both leave the cursor at the line's start. *)
exception Slow_path
exception Short

let[@inline] is_blank = function
  | ' ' | '\t' | '\r' | '\012' -> true
  | _ -> false

let[@inline] is_sep = function
  | ' ' | '\t' | '\r' | '\012' | '\n' -> true
  | _ -> false

type keyword = Kw_header | Kw_learned | Kw_level0 | Kw_conflict | Kw_delete

let keyword w s e =
  match e - s with
  | 1 when Bytes.unsafe_get w s = 't' -> Kw_header
  | 1 when Bytes.unsafe_get w s = 'D' -> Kw_delete
  | 2 when Bytes.unsafe_get w s = 'C' && Bytes.unsafe_get w (s + 1) = 'L' ->
    Kw_learned
  | 3
    when Bytes.unsafe_get w s = 'V'
         && Bytes.unsafe_get w (s + 1) = 'A'
         && Bytes.unsafe_get w (s + 2) = 'R' ->
    Kw_level0
  | 4
    when Bytes.unsafe_get w s = 'C'
         && Bytes.unsafe_get w (s + 1) = 'O'
         && Bytes.unsafe_get w (s + 2) = 'N'
         && Bytes.unsafe_get w (s + 3) = 'F' ->
    Kw_conflict
  | _ -> raise_notrace Slow_path

(* the event a keyword and its [n] integers make, if the arity fits *)
let ascii_event kw (ints : int array) n =
  match kw with
  | Kw_learned when n >= 2 ->
    Event.Learned { id = ints.(0); sources = Array.sub ints 1 (n - 1) }
  | Kw_level0 when n = 3 && (ints.(1) = 0 || ints.(1) = 1) ->
    Event.Level0 { var = ints.(0); value = ints.(1) = 1; ante = ints.(2) }
  | Kw_header when n = 2 ->
    Event.Header { nvars = ints.(0); num_original = ints.(1) }
  | Kw_conflict when n = 1 -> Event.Final_conflict ints.(0)
  | Kw_delete -> Event.Delete (Array.sub ints 0 n)
  | _ -> raise_notrace Slow_path

let lex_line c =
  let w = c.win and lim = c.wlen in
  let i = ref (c.pos - c.wbase) in
  while !i < lim && is_blank (Bytes.unsafe_get w !i) do
    incr i
  done;
  let ks = !i in
  while !i < lim && not (is_sep (Bytes.unsafe_get w !i)) do
    incr i
  done;
  if !i >= lim && not c.last then raise_notrace Short;
  let kw = keyword w ks !i in
  let n = ref 0 and eol = ref false in
  while not !eol do
    while !i < lim && Bytes.unsafe_get w !i = ' ' do
      incr i
    done;
    if !i >= lim then
      if c.last then eol := true else raise_notrace Short
    else begin
      let ch = Bytes.unsafe_get w !i in
      if ch = '\n' then eol := true
      else if is_blank ch then begin
        (* trailing blanks end the line; a field after one is malformed *)
        while !i < lim && is_blank (Bytes.unsafe_get w !i) do
          incr i
        done;
        if !i >= lim then
          if c.last then eol := true else raise_notrace Short
        else if Bytes.unsafe_get w !i = '\n' then eol := true
        else raise_notrace Slow_path
      end
      else begin
        let neg = ch = '-' in
        if neg then incr i;
        let ds = !i and v = ref 0 in
        while
          !i < lim
          &&
          let d = Bytes.unsafe_get w !i in
          d >= '0' && d <= '9'
        do
          v := (!v * 10) + (Char.code (Bytes.unsafe_get w !i) - 48);
          incr i
        done;
        if !i >= lim && not c.last then raise_notrace Short;
        if
          !i = ds
          || !i - ds > 18
          || (!i < lim && not (is_sep (Bytes.unsafe_get w !i)))
        then raise_notrace Slow_path;
        if !n = Array.length c.ints then grow_ints c;
        Array.unsafe_set c.ints !n (if neg then - !v else !v);
        incr n
      end
    end
  done;
  let event = ascii_event kw c.ints !n in
  c.pos <- c.wbase + (if !i < lim then !i + 1 else lim);
  event

(* The raw line at [c.pos] without its '\n', read past the window as
   needed; leaves the cursor at the next line. *)
let take_line c =
  let rec scan k =
    let i = c.pos - c.wbase + k in
    if i < c.wlen then
      if Bytes.unsafe_get c.win i = '\n' then k else scan (k + 1)
    else if refill c c.pos then scan k
    else k
  in
  let len = scan 0 in
  let at = c.pos - c.wbase in
  let line = Bytes.sub_string c.win at len in
  c.pos <- c.pos + len + (if at + len < c.wlen then 1 else 0);
  line

(* A line the lexer declined: blank, a [v] directive, or a record only
   [parse_line] reads.  After an ASCII parse error the cursor already
   stands past the offending line, so calling [next] again resumes at the
   following record — the linter relies on this to report several errors
   in one pass. *)
let slow_line c line_no =
  let line = String.trim (take_line c) in
  if line = "" then None
  else if is_version_line line then begin
    c.version <- parse_version_line (Line line_no) line;
    None
  end
  else begin
    c.last_pos <- Line line_no;
    if Obs.Journal.on () then
      Obs.Journal.record ~sub:"trace" "slow_path"
        [ ("line", line_no); ("len", String.length line) ];
    Some (parse_line (Line line_no) line)
  end

let rec next_ascii c =
  if at_end c then None
  else begin
    let line_no = c.line in
    match lex_line c with
    | event ->
      c.line <- line_no + 1;
      c.last_pos <- Line line_no;
      check_version_for_delete c (Line line_no) (Some event)
    | exception Short ->
      ignore (refill c c.pos);
      next_ascii c
    | exception Slow_path -> (
      c.line <- line_no + 1;
      match slow_line c line_no with
      | None -> next_ascii c
      | Some e -> check_version_for_delete c (Line line_no) e)
  end

(* a 63-bit int needs at most 9 varint bytes; more means garbage *)
let max_varint_bytes = 9

(* unknown-length (channel) backings cannot bound a source count by the
   remaining bytes; cap it outright *)
let max_stream_sources = 1 lsl 26

(* the binary lexer's failures, kept out of line *)
let[@inline never] truncated pos =
  raise (Parse_error { pos; msg = "truncated binary trace" })

let[@inline never] garbled pos =
  fail pos "garbled varint (over %d bytes)" max_varint_bytes

let[@inline never] unknown_tag pos tag = fail pos "unknown binary tag %d" tag

let[@inline never] bad_count pos n what =
  fail pos "truncated binary trace (%d %s claimed)" n what

(* The binary lexer: one varint at [c.pos], with at least
   [max_varint_bytes + 1] bytes of the window ahead of it unless the
   trace ends sooner.  Every byte read is consumed, also by a failing
   read. *)
let varint c record_start =
  while c.wbase + c.wlen - c.pos <= max_varint_bytes && refill c c.pos do
    ()
  done;
  let w = c.win and lim = c.wlen in
  let i = ref (c.pos - c.wbase) and acc = ref 0 and shift = ref 0 in
  let more = ref true in
  while !more && !i < lim && !shift < 7 * max_varint_bytes do
    let b = Char.code (Bytes.unsafe_get w !i) in
    incr i;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  c.pos <- c.wbase + !i;
  if !more then
    if !shift >= 7 * max_varint_bytes then garbled record_start
    else truncated record_start;
  !acc

(* A record's element count, then its elements into [c.ints].  Each
   element takes at least one byte, so a count past the bytes left is
   truncation, and on a stream (length unknown) so is one past
   [max_stream_sources].  [c.ints] grows only as the elements' bytes
   arrive, so a garbled count costs no allocation. *)
let read_ints c record_start what =
  let n = varint c record_start in
  if
    n < 0
    || (c.total <> max_int && c.pos + n > c.total)
    || (c.total = max_int && n > max_stream_sources)
  then bad_count record_start n what;
  for k = 0 to n - 1 do
    let v = varint c record_start in
    if k = Array.length c.ints then grow_ints c;
    Array.unsafe_set c.ints k v
  done;
  Array.sub c.ints 0 n

let next_binary c =
  if at_end c then None
  else begin
    let record_start = Byte c.pos in
    c.last_pos <- record_start;
    let tag = Char.code (Bytes.unsafe_get c.win (c.pos - c.wbase)) in
    c.pos <- c.pos + 1;
    match tag with
    | 0 ->
      let nvars = varint c record_start in
      let num_original = varint c record_start in
      Some (Event.Header { nvars; num_original })
    | 1 ->
      let id = varint c record_start in
      let sources = read_ints c record_start "sources" in
      Some (Event.Learned { id; sources })
    | 2 ->
      let packed = varint c record_start in
      let ante = varint c record_start in
      Some (Event.Level0 { var = packed / 2; value = packed land 1 = 1; ante })
    | 3 -> Some (Event.Final_conflict (varint c record_start))
    | 4 when c.version >= 2 ->
      Some (Event.Delete (read_ints c record_start "deletes"))
    | tag -> unknown_tag record_start tag
  end

let next c =
  if c.binary && not (supported_version c.version) then
    fail (Byte 0) "unsupported binary trace format version %d" c.version;
  if c.binary then next_binary c else next_ascii c

let iter_cursor c f =
  let rec loop () =
    match next c with
    | Some e ->
      f e;
      loop ()
    | None -> ()
  in
  loop ()

let iter source f =
  let c = cursor source in
  Fun.protect ~finally:(fun () -> close c) (fun () -> iter_cursor c f)

let fold source f init =
  let acc = ref init in
  iter source (fun e -> acc := f !acc e);
  !acc

let to_list source = List.rev (fold source (fun acc e -> e :: acc) [])

let size_bytes = function
  | From_string s -> String.length s
  | From_file path ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in_noerr ic;
    n
