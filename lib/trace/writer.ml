type format = Ascii | Binary

let binary_magic = "ZKB1"
let binary_magic_v2 = "ZKB2"

(* Format versions.  Version 1 is the original paper trace; version 2
   adds deletion-hint records ([Event.Delete]).  The version is carried
   in-band — binary traces bake it into the fourth magic byte, ASCII
   traces open with a [v 2] directive line — so old readers refuse new
   traces cleanly instead of misparsing them. *)

let check_version v =
  if v <> 1 && v <> 2 then
    invalid_arg
      (Printf.sprintf "Trace.Writer: unsupported trace format version %d" v)

let magic_of_version v = if v = 2 then binary_magic_v2 else binary_magic

let ascii_prologue v = if v = 2 then "v 2\n" else ""

let check_event version (e : Event.t) =
  match e with
  | Delete _ when version < 2 ->
    invalid_arg
      "Trace.Writer: Delete records require trace format version 2"
  | Header _ | Learned _ | Level0 _ | Final_conflict _ | Delete _ -> ()

let add_varint buf n =
  assert (n >= 0);
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

(* Trace emission sits on the solver's hot path (Table 1 measures its
   overhead), so integers are rendered by hand instead of through
   Printf's interpreter.  The digits go back to front into [digits], the
   emitter's own scratch of 19 bytes (the width of [max_int]), and reach
   the buffer in one append. *)
let add_uint buf digits n =
  assert (n >= 0);
  if n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else begin
    let i = ref 19 and n = ref n in
    while !n > 0 do
      decr i;
      Bytes.unsafe_set digits !i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    Buffer.add_subbytes buf digits !i (19 - !i)
  end

let emit_ascii buf digits (e : Event.t) =
  (match e with
   | Header h ->
     Buffer.add_string buf "t ";
     add_uint buf digits h.nvars;
     Buffer.add_char buf ' ';
     add_uint buf digits h.num_original
   | Learned l ->
     Buffer.add_string buf "CL ";
     add_uint buf digits l.id;
     for k = 0 to Array.length l.sources - 1 do
       Buffer.add_char buf ' ';
       add_uint buf digits l.sources.(k)
     done
   | Level0 v ->
     Buffer.add_string buf "VAR ";
     add_uint buf digits v.var;
     Buffer.add_string buf (if v.value then " 1 " else " 0 ");
     add_uint buf digits v.ante
   | Final_conflict id ->
     Buffer.add_string buf "CONF ";
     add_uint buf digits id
   | Delete ids ->
     Buffer.add_char buf 'D';
     for k = 0 to Array.length ids - 1 do
       Buffer.add_char buf ' ';
       add_uint buf digits ids.(k)
     done);
  Buffer.add_char buf '\n'

let emit_binary buf (e : Event.t) =
  match e with
  | Header h ->
    Buffer.add_char buf '\000';
    add_varint buf h.nvars;
    add_varint buf h.num_original
  | Learned l ->
    Buffer.add_char buf '\001';
    add_varint buf l.id;
    add_varint buf (Array.length l.sources);
    for k = 0 to Array.length l.sources - 1 do
      add_varint buf l.sources.(k)
    done
  | Level0 v ->
    Buffer.add_char buf '\002';
    add_varint buf ((v.var * 2) + if v.value then 1 else 0);
    add_varint buf v.ante
  | Final_conflict id ->
    Buffer.add_char buf '\003';
    add_varint buf id
  | Delete ids ->
    Buffer.add_char buf '\004';
    add_varint buf (Array.length ids);
    for k = 0 to Array.length ids - 1 do
      add_varint buf ids.(k)
    done

let emit_event fmt buf digits e =
  match fmt with
  | Ascii -> emit_ascii buf digits e
  | Binary -> emit_binary buf e

(* Exact encoded sizes, without encoding.  Used by the {!Sink.counting}
   combinator and by the online validator to compute the byte offset a
   re-parse of the spooled trace would report for each event — so they
   must match the emitters above digit for digit (the round-trip fuzz
   test pins this). *)

let uint_digits n =
  assert (n >= 0);
  let rec loop n acc = if n < 10 then acc else loop (n / 10) (acc + 1) in
  loop n 1

let varint_len n =
  assert (n >= 0);
  let rec loop n acc = if n < 0x80 then acc else loop (n lsr 7) (acc + 1) in
  loop n 1

let encoded_size fmt (e : Event.t) =
  match fmt with
  | Ascii -> (
    match e with
    | Header h -> 2 + uint_digits h.nvars + 1 + uint_digits h.num_original + 1
    | Learned l ->
      3 + uint_digits l.id
      + Array.fold_left (fun acc s -> acc + 1 + uint_digits s) 0 l.sources
      + 1
    | Level0 v -> 4 + uint_digits v.var + 3 + uint_digits v.ante + 1
    | Final_conflict id -> 5 + uint_digits id + 1
    | Delete ids ->
      1 + Array.fold_left (fun acc id -> acc + 1 + uint_digits id) 0 ids + 1)
  | Binary -> (
    match e with
    | Header h -> 1 + varint_len h.nvars + varint_len h.num_original
    | Learned l ->
      1 + varint_len l.id
      + varint_len (Array.length l.sources)
      + Array.fold_left (fun acc s -> acc + varint_len s) 0 l.sources
    | Level0 v ->
      1 + varint_len ((v.var * 2) + if v.value then 1 else 0) + varint_len v.ante
    | Final_conflict id -> 1 + varint_len id
    | Delete ids ->
      1
      + varint_len (Array.length ids)
      + Array.fold_left (fun acc id -> acc + varint_len id) 0 ids)

(* Streaming encoder: events in, encoded chunks out through [write].  The
   scratch buffer is flushed whenever it crosses [flush_threshold], so
   the resident encoded bytes stay bounded by the threshold plus one
   record — this is what lets the online validator prove it never holds
   the whole trace ([stats.peak_buffered] vs [stats.bytes]). *)

type stats = {
  mutable bytes : int;          (* total encoded bytes, magic included *)
  mutable peak_buffered : int;  (* high-water mark of unflushed bytes *)
}

(* Telemetry mirrors of the sink stats, so the progress sampler can see
   buffer occupancy while a stream is live.  Updates are guarded at the
   push site; the handles are resolved once here. *)
let m_events = Obs.Metrics.counter Obs.Metrics.global "trace.events"
let m_bytes = Obs.Metrics.gauge Obs.Metrics.global "trace.bytes"
let m_buffered = Obs.Metrics.gauge Obs.Metrics.global "trace.buffered_bytes"

let default_flush_threshold = 65536

let sink ?(flush_threshold = default_flush_threshold) ?(version = 1) fmt
    ~write =
  check_version version;
  let scratch = Buffer.create (min flush_threshold 65536) in
  let digits = Bytes.create 19 in
  (match fmt with
   | Binary -> Buffer.add_string scratch (magic_of_version version)
   | Ascii -> Buffer.add_string scratch (ascii_prologue version));
  let st = { bytes = Buffer.length scratch; peak_buffered = Buffer.length scratch } in
  let flush () =
    if Buffer.length scratch > 0 then begin
      write (Buffer.contents scratch);
      Buffer.clear scratch
    end
  in
  let push e =
    check_event version e;
    let before = Buffer.length scratch in
    emit_event fmt scratch digits e;
    let len = Buffer.length scratch in
    st.bytes <- st.bytes + (len - before);
    if len > st.peak_buffered then st.peak_buffered <- len;
    if Obs.Ctl.on () then begin
      Obs.Metrics.Counter.incr m_events 1;
      Obs.Metrics.Gauge.set m_bytes (float_of_int st.bytes);
      Obs.Metrics.Gauge.set m_buffered (float_of_int len);
      Obs.Sampler.tick ()
    end;
    if len >= flush_threshold then flush ()
  in
  (st, Sink.make ~close:flush push)

let to_channel ?flush_threshold ?version fmt oc =
  let st, s =
    sink ?flush_threshold ?version fmt
      ~write:(fun chunk -> output_string oc chunk)
  in
  (st, Sink.make ~close:(fun () -> Sink.close s; flush oc) (Sink.push s))

(* Legacy materializing writer: a buffer-backed sink with the trace kept
   in memory, retained for callers (tests, the file-based pipeline) that
   want the whole encoded artefact as a string.  The bytes are kept as
   full chunks plus one open buffer, so a long trace is copied once, by
   [contents], rather than at every doubling of a single buffer. *)

let chunk_bytes = 65536

type t = {
  fmt : format;
  version : int;
  buf : Buffer.t;                (* the open chunk *)
  mutable chunks : string list;  (* full chunks, newest first *)
  mutable chunked : int;         (* bytes in [chunks] *)
  digits : Bytes.t;
}

let create ?(version = 1) fmt =
  check_version version;
  let buf = Buffer.create chunk_bytes in
  (match fmt with
   | Binary -> Buffer.add_string buf (magic_of_version version)
   | Ascii -> Buffer.add_string buf (ascii_prologue version));
  { fmt; version; buf; chunks = []; chunked = 0; digits = Bytes.create 19 }

let format w = w.fmt

let version w = w.version

let emit w e =
  check_event w.version e;
  emit_event w.fmt w.buf w.digits e;
  if Buffer.length w.buf >= chunk_bytes then begin
    w.chunks <- Buffer.contents w.buf :: w.chunks;
    w.chunked <- w.chunked + Buffer.length w.buf;
    Buffer.clear w.buf
  end

let bytes_written w = w.chunked + Buffer.length w.buf

let contents w = String.concat "" (List.rev (Buffer.contents w.buf :: w.chunks))

let to_file w path =
  let oc = open_out_bin path in
  List.iter (output_string oc) (List.rev w.chunks);
  Buffer.output_buffer oc w.buf;
  close_out oc

let as_sink w = Sink.make (emit w)
