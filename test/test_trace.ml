(* Tests for the trace formats: ASCII and binary writers, the streaming
   reader, format autodetection, and the compaction claim. *)

let sample_events =
  [
    Trace.Event.Header { nvars = 10; num_original = 5 };
    Trace.Event.Learned { id = 6; sources = [| 1; 2; 3 |] };
    Trace.Event.Learned { id = 7; sources = [| 6; 4 |] };
    Trace.Event.Level0 { var = 3; value = true; ante = 7 };
    Trace.Event.Level0 { var = 5; value = false; ante = 2 };
    Trace.Event.Final_conflict 7;
  ]

let write fmt events =
  let w = Trace.Writer.create fmt in
  List.iter (Trace.Writer.emit w) events;
  Trace.Writer.contents w

let events_testable =
  Alcotest.testable
    (fun fmt e -> Trace.Event.pp fmt e)
    Trace.Event.equal

let test_ascii_roundtrip () =
  let s = write Trace.Writer.Ascii sample_events in
  Alcotest.check (Alcotest.list events_testable) "ascii roundtrip"
    sample_events
    (Trace.Reader.to_list (Trace.Reader.From_string s))

let test_binary_roundtrip () =
  let s = write Trace.Writer.Binary sample_events in
  Alcotest.check (Alcotest.list events_testable) "binary roundtrip"
    sample_events
    (Trace.Reader.to_list (Trace.Reader.From_string s))

let test_binary_smaller () =
  (* the paper predicts 2-3x compaction from a binary encoding *)
  let f = Gen.Php.unsat ~holes:5 in
  let wa = Trace.Writer.create Trace.Writer.Ascii in
  let result, _ = Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink wa) f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php must be unsat");
  let wb = Trace.Writer.create Trace.Writer.Binary in
  let _ = Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink wb) f in
  let ra = Trace.Writer.bytes_written wa in
  let rb = Trace.Writer.bytes_written wb in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "binary (%dB) at most half of ascii (%dB)" rb ra)
    true
    (rb * 2 <= ra)

let test_binary_equivalent_to_ascii () =
  let f = Gen.Php.unsat ~holes:4 in
  let wa = Trace.Writer.create Trace.Writer.Ascii in
  ignore (Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink wa) f);
  let wb = Trace.Writer.create Trace.Writer.Binary in
  ignore (Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink wb) f);
  let ea = Trace.Reader.to_list (Trace.Reader.From_string (Trace.Writer.contents wa)) in
  let eb = Trace.Reader.to_list (Trace.Reader.From_string (Trace.Writer.contents wb)) in
  Alcotest.check (Alcotest.list events_testable)
    "both formats carry identical events" ea eb

let test_file_roundtrip () =
  let w = Trace.Writer.create Trace.Writer.Binary in
  List.iter (Trace.Writer.emit w) sample_events;
  let path = Filename.temp_file "trace_test" ".zkb" in
  Trace.Writer.to_file w path;
  let events = Trace.Reader.to_list (Trace.Reader.From_file path) in
  let size = Trace.Reader.size_bytes (Trace.Reader.From_file path) in
  Sys.remove path;
  Alcotest.check (Alcotest.list events_testable) "file roundtrip"
    sample_events events;
  Alcotest.check Alcotest.int "size matches writer" (Trace.Writer.bytes_written w) size

let expect_reader_error s name =
  try
    ignore (Trace.Reader.to_list (Trace.Reader.From_string s));
    Alcotest.failf "%s: accepted" name
  with Trace.Reader.Parse_error _ -> ()

let test_reader_errors () =
  expect_reader_error "CL 5\n" "CL without sources";
  expect_reader_error "VAR 3 2 1\n" "VAR with non-boolean value";
  expect_reader_error "FROB 1 2\n" "unknown record";
  expect_reader_error "CL x y\n" "non-numeric field";
  expect_reader_error "ZKB1\x09" "unknown binary tag";
  expect_reader_error "ZKB1\x01\x85" "truncated binary varint"

let test_fold_order () =
  let s = write Trace.Writer.Ascii sample_events in
  let count =
    Trace.Reader.fold (Trace.Reader.From_string s) (fun n _ -> n + 1) 0
  in
  Alcotest.check Alcotest.int "fold sees all events"
    (List.length sample_events) count

(* --- file-backed cursors: identical to the in-memory string ------------ *)

let with_temp_trace contents f =
  let path = Filename.temp_file "trace_file" ".trc" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Drain a cursor completely, recording each event with the position it
   started at and the parse error (if any) that ended the drain — the
   full observable surface a checker sees, rendered to a string so a
   mismatch prints both transcripts. *)
let drain cur =
  let buf = Buffer.create 256 in
  (try
     let rec loop () =
       match Trace.Reader.next cur with
       | Some e ->
         Buffer.add_string buf
           (Format.asprintf "%s %a\n"
              (Trace.Reader.pos_to_string (Trace.Reader.last_pos cur))
              Trace.Event.pp e);
         loop ()
       | None -> Buffer.add_string buf "eof\n"
     in
     loop ()
   with Trace.Reader.Parse_error { pos; msg } ->
     Buffer.add_string buf
       (Printf.sprintf "error %s: %s\n" (Trace.Reader.pos_to_string pos) msg));
  Trace.Reader.close cur;
  Buffer.contents buf

(* The drain transcript of [contents] through both backings — the
   in-memory string and the file read in blocks — which must agree; the
   shared transcript is returned. *)
let check_drains_equal name contents =
  let memory = drain (Trace.Reader.cursor (Trace.Reader.From_string contents)) in
  with_temp_trace contents (fun path ->
      Alcotest.check Alcotest.string (name ^ " (file)") memory
        (drain (Trace.Reader.cursor (Trace.Reader.From_file path))));
  memory

(* Every truncation point of a well-formed trace — mid-magic, mid-tag,
   mid-varint, mid-line — must yield the same events, positions and
   error text from every backing. *)
let test_truncation_sweep () =
  List.iter
    (fun fmt ->
      let s = write fmt sample_events in
      for len = 0 to String.length s - 1 do
        ignore
          (check_drains_equal
             (Printf.sprintf "truncated at byte %d" len)
             (String.sub s 0 len))
      done)
    [ Trace.Writer.Ascii; Trace.Writer.Binary ]

let test_corrupt_drains_identical () =
  List.iter
    (fun (name, s) -> ignore (check_drains_equal name s))
    [
      ("CL without sources", "t 3 2\nCL 5\n");
      ("VAR with non-boolean value", "t 3 2\nVAR 1 2 0\n");
      ("unknown keyword", "t 3 2\nFROB 1\n");
      ("non-numeric field", "t 3 2\nCL 4 x y\n");
      ("garbage after valid events", write Trace.Writer.Ascii sample_events ^ "CL\n");
      ("unknown binary tag", "ZKB1\x09");
      ("garbled varint", "ZKB1\x01\x85");
      ( "mid-varint cut after valid events",
        write Trace.Writer.Binary sample_events ^ "\x01\x85" );
    ]

(* A single record bigger than the channel path's 64 KiB block buffer:
   the block refill logic and the in-place lexer must agree on it. *)
let test_record_larger_than_block () =
  let sources = Array.init 25_000 (fun i -> i + 1_000_000) in
  let events =
    [
      Trace.Event.Header { nvars = 9; num_original = 8 };
      Trace.Event.Learned { id = 2_000_000; sources };
      Trace.Event.Final_conflict 2_000_000;
    ]
  in
  List.iter
    (fun fmt ->
      let s = write fmt events in
      Alcotest.check Alcotest.bool "record spans several blocks" true
        (String.length s > 65_536);
      ignore (check_drains_equal "oversized record" s);
      Alcotest.check
        (Alcotest.list events_testable)
        "oversized record roundtrips" events
        (Trace.Reader.to_list (Trace.Reader.From_string s)))
    [ Trace.Writer.Ascii; Trace.Writer.Binary ]

(* Lines the in-place ASCII lexer must either decode itself or hand to
   [parse_line] whole: blanks and separators, every numeral
   [int_of_string] takes that plain decimal does not, ids either side of
   the 18-digit fast-path limit, wrong arities, version directives and
   delete records; then binary varint limits, counts and versions.  Each
   case is drained through every backing; the
   memory drain and the parser's slow-path journal records make up a
   transcript whose digest is pinned, so a lexer change that moves an
   event, a position, an error message or a slow-path bail shows. *)
let edge_cases =
  [
    ("runs of spaces", "t  3   2\nCL   4  1    -2\nCONF    4\n");
    ("leading and trailing blanks", "  t 3 2  \n\t CL 4 1 2 \t\nCONF 4 \x0c\n");
    ("crlf", "t 3 2\r\nCL 4 1 2\r\nVAR 1 0 4\r\nCONF 4\r\n");
    ("lone carriage return", "t 3 2\n\r\nCONF 4\n");
    ("tab inside a line", "t 3 2\nCL 4\t1 2\nCONF 4\n");
    ("tab after a space", "t 3 2\nCL 4 \t1 2\n");
    ("tab before the keyword ends", "CL\t4 1 2\n");
    ("form feed inside a line", "t 3 2\nCL 4 1\x0c2\n");
    ("plus sign", "t 3 2\nCONF +4\n");
    ("hex", "t 3 2\nCONF 0x10\n");
    ("octal", "t 3 2\nCONF 0o7\n");
    ("binary numeral", "t 3 2\nCONF 0b11\n");
    ("underscore", "t 3 2\nCONF 1_000\n");
    ("leading zeros", "t 3 2\nCL 00012 1 02\n");
    ("negative zero", "t 3 2\nVAR 1 -0 3\nCONF -0\n");
    ("negative", "t 3 2\nCL 4 -3 2\n");
    ("lone minus", "t 3 2\nCONF -\n");
    ("double minus", "t 3 2\nCONF --1\n");
    ("trailing letter", "t 3 2\nCL 4 1 2x\n");
    ("18-digit id", "t 3 2\nCONF 123456789012345678\n");
    ("18-digit negative id", "t 3 2\nCL 4 -123456789012345678\n");
    ("19-digit id", "t 3 2\nCONF 1234567890123456789\n");
    ("20-digit id", "t 3 2\nCONF 12345678901234567890\n");
    ("CL without sources", "t 3 2\nCL 5\n");
    ("bare CL", "t 3 2\nCL\n");
    ("VAR value 2", "t 3 2\nVAR 1 2 0\n");
    ("VAR value 01", "t 3 2\nVAR 1 01 0\n");
    ("VAR with two fields", "t 3 2\nVAR 1 1\n");
    ("CONF with two ids", "t 3 2\nCONF 3 4\n");
    ("header with three fields", "t 1 2 3\n");
    ("unknown keyword", "t 3 2\nCLX 4 1\n");
    ("lowercase keyword", "t 3 2\ncl 4 1\n");
    ("blank lines", "\n\nt 3 2\n\n   \n\t\nCONF 4\n\n");
    ("v 2 directive in mid-file", "t 3 2\nCL 4 1 2\nv 2\nD 1 2\nCONF 4\n");
    ("bare v", "t 3 2\nv\n");
    ("v with a tab", "t 3 2\nv\t2\n");
    ("unsupported version", "v 3\nt 3 2\n");
    ("D under v1", "t 3 2\nD 1 2\n");
    ("D under v2", "v 2\nt 3 2\nD 1 2\nD\nD 7 \nCONF 4\n");
    ("no final newline", "t 3 2\nCL 4 1 2\nCONF 4");
    ("no final newline mid-token", "t 3 2\nCL 4 1 2");
    ("binary level-0 record", "ZKB1\x00\x03\x02\x02\x07\x05\x03\x05");
    ("binary 9-byte varint", "ZKB1\x03\x81\x80\x80\x80\x80\x80\x80\x80\x01");
    ("binary 10-byte varint", "ZKB1\x03\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01");
    ("binary count past the end", "ZKB1\x01\x04\x05\x01\x02");
    ("binary negative count",
     "ZKB1\x01\x04\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x01");
    ("binary delete under ZKB1", "ZKB1\x00\x03\x02\x04\x01\x05");
    ("binary delete under ZKB2", "ZKB2\x00\x03\x02\x04\x02\x05\x06\x04\x00\x03\x04");
    ("binary unsupported version", "ZKB3\x00\x03\x02");
  ]

let slow_path_records () =
  List.filter_map
    (fun (e : Obs.Journal.entry) ->
      if e.sub = "trace" && e.event = "slow_path" then
        Some
          (String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) e.args))
      else None)
    (Obs.Journal.entries ())

let test_edge_cases () =
  let transcript = Buffer.create 4096 in
  List.iter
    (fun (name, s) ->
      Buffer.add_string transcript (Printf.sprintf "== %s\n" name);
      Buffer.add_string transcript (check_drains_equal name s);
      Obs.Journal.arm ();
      Fun.protect ~finally:Obs.Journal.disarm (fun () ->
          ignore (drain (Trace.Reader.cursor (Trace.Reader.From_string s)));
          List.iter
            (fun r -> Buffer.add_string transcript ("slow_path " ^ r ^ "\n"))
            (slow_path_records ())))
    edge_cases;
  Alcotest.check Alcotest.string "edge-case transcript digest"
    "5d2fff81ce2cc69c86c4ed8e1bc061e8"
    (Digest.to_hex (Digest.string (Buffer.contents transcript)))

(* Records straddling the 64 KiB block boundary at every offset: a file
   cursor refills its window there, splitting a keyword, a sign, a
   number, trailing blanks, a CRLF or a varint, and must read on exactly
   as the in-memory backing does.  A padding record of growing length
   moves the boundary one byte at a time.  Events are compared
   structurally, which keeps the sweep fast. *)
let test_block_boundaries () =
  let events cur =
    let rec loop acc =
      match Trace.Reader.next cur with
      | Some e -> loop ((Trace.Reader.last_pos cur, e) :: acc)
      | None -> List.rev acc
    in
    let got = loop [] in
    Trace.Reader.close cur;
    got
  in
  (* every line is one the lexer takes, so no backing may journal a
     slow-path bail, wherever the boundary splits it *)
  let agree name ~expected s =
    Obs.Journal.arm ();
    Fun.protect ~finally:Obs.Journal.disarm (fun () ->
        let memory =
          events (Trace.Reader.cursor (Trace.Reader.From_string s))
        in
        Alcotest.check Alcotest.int (name ^ ": events") expected
          (List.length memory);
        with_temp_trace s (fun path ->
            let got =
              events (Trace.Reader.cursor (Trace.Reader.From_file path))
            in
            Alcotest.check Alcotest.bool (name ^ ": file reads as memory")
              true (got = memory));
        Alcotest.check
          Alcotest.(list string)
          (name ^ ": no slow-path bail") [] (slow_path_records ()))
  in
  let repeat unit = List.init (66_000 / String.length unit) (fun _ -> unit) in
  let ascii_unit = "CL 123456 -7 89 \t\r\nVAR 12 1 345\nD 5 6\n" in
  let ascii_body = repeat ascii_unit in
  for pad = 0 to String.length ascii_unit do
    agree
      (Printf.sprintf "ascii, %d-byte pad" pad)
      ~expected:((3 * List.length ascii_body) + 1)
      (String.concat ""
         (("v 2\n" ^ String.make pad ' ' ^ "\n") :: ascii_body
         @ [ "CONF 4\n" ]))
  done;
  let binary_unit =
    let s =
      write Trace.Writer.Binary
        [ Trace.Event.Learned { id = 1_000_000; sources = [| 300; 70_000; 5 |] } ]
    in
    String.sub s 4 (String.length s - 4)
  in
  let binary_body = repeat binary_unit in
  for pad = 0 to String.length binary_unit do
    agree
      (Printf.sprintf "binary, %d-byte pad" pad)
      ~expected:(List.length binary_body + 1)
      (String.concat ""
         (("ZKB2\x04" ^ String.make 1 (Char.chr pad) ^ String.make pad '\x01')
         :: binary_body))
  done

(* A 15-byte binary trace on a pipe whose CL record claims 2^26 - 1
   sources: the stream's length is unknown, so only the bytes that
   arrive may bound what decoding it allocates. *)
let test_stream_count_bounded () =
  let trace = "ZKB1\x00\x03\x02\x01\x05\xff\xff\xff\x1f\x01\x02" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  ignore (Unix.write_substring wr trace 0 (String.length trace));
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      let before = Gc.allocated_bytes () in
      let got = drain (Trace.Reader.channel_cursor ic) in
      let grew = Gc.allocated_bytes () -. before in
      Alcotest.check Alcotest.string "fails as a truncation"
        "byte 4 HEADER vars=3 original=2\nerror byte 7: truncated binary trace\n"
        got;
      Alcotest.check Alcotest.bool
        (Printf.sprintf "allocates under 1 MiB (%.0f bytes)" grew)
        true (grew < 1048576.))

(* tiny (sub-magic) files: a file cursor classifies them exactly like
   [detect] on the underlying file *)
let test_tiny_file_detection () =
  let show = function
    | `Ascii -> "ascii"
    | `Binary -> "binary"
    | `Ambiguous why -> "ambiguous: " ^ why
  in
  List.iter
    (fun s ->
      with_temp_trace s (fun path ->
          let expected =
            show (Trace.Reader.detect (Trace.Reader.From_file path))
          in
          let cur = Trace.Reader.cursor (Trace.Reader.From_file path) in
          let got = show (Trace.Reader.detect_cursor cur) in
          Trace.Reader.close cur;
          Alcotest.check Alcotest.string
            (Printf.sprintf "detect agrees on %S" s)
            expected got))
    [ ""; "Z"; "ZK"; "ZKB"; "ZKB1"; "\x00"; "t" ];
  with_temp_trace "" (fun path ->
      let cur = Trace.Reader.cursor (Trace.Reader.From_file path) in
      Alcotest.check Alcotest.bool "empty file drains clean" true
        (Trace.Reader.next cur = None);
      Trace.Reader.close cur)

(* [iter] owns the cursor it opens, so neither it nor [fold] nor
   [to_list] may leave the file open after a parse error.  The collection
   first runs the finalisers of cursors dropped earlier, so none of them
   closes its file between the two counts. *)
let test_iter_closes_file () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  with_temp_trace "CL 5\n" (fun path ->
      Gc.full_major ();
      let before = open_fds () in
      (match Trace.Reader.to_list (Trace.Reader.From_file path) with
       | _ -> Alcotest.fail "CL without sources accepted"
       | exception Trace.Reader.Parse_error _ -> ());
      Alcotest.check Alcotest.int "open descriptors" before (open_fds ()))

(* a trace longer than one block, so the rewind seeks the channel back *)
let test_file_rewind () =
  let events =
    (Trace.Event.Header { nvars = 10; num_original = 5 }
    :: List.init 8000 (fun i ->
           Trace.Event.Learned { id = 6 + i; sources = [| 1; 2; 3 |] }))
    @ [ Trace.Event.Final_conflict 6 ]
  in
  let s = write Trace.Writer.Ascii events in
  Alcotest.check Alcotest.bool "trace spans several blocks" true
    (String.length s > 65_536);
  with_temp_trace s (fun path ->
      let cur = Trace.Reader.cursor (Trace.Reader.From_file path) in
      let pass () =
        let got = ref [] in
        Trace.Reader.iter_cursor cur (fun e -> got := e :: !got);
        List.rev !got
      in
      let once = pass () in
      Trace.Reader.rewind cur;
      let twice = pass () in
      Trace.Reader.close cur;
      Alcotest.check (Alcotest.list events_testable) "first pass" events once;
      Alcotest.check (Alcotest.list events_testable) "rewind replays" once
        twice)

(* varint edge values survive the binary encoding *)
let prop_binary_varint =
  Helpers.qtest ~count:200 "binary roundtrip of large ids"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let events =
        [
          Trace.Event.Header { nvars = a; num_original = b };
          Trace.Event.Final_conflict (a + b);
        ]
      in
      let s = write Trace.Writer.Binary events in
      Trace.Reader.to_list (Trace.Reader.From_string s) = events)

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "ascii roundtrip" `Quick test_ascii_roundtrip;
        Alcotest.test_case "binary roundtrip" `Quick test_binary_roundtrip;
        Alcotest.test_case "binary compaction" `Quick test_binary_smaller;
        Alcotest.test_case "format equivalence" `Quick
          test_binary_equivalent_to_ascii;
        Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        Alcotest.test_case "reader errors" `Quick test_reader_errors;
        Alcotest.test_case "fold order" `Quick test_fold_order;
        Alcotest.test_case "file/memory truncation sweep" `Quick
          test_truncation_sweep;
        Alcotest.test_case "file/memory corrupt traces" `Quick
          test_corrupt_drains_identical;
        Alcotest.test_case "record larger than one block" `Quick
          test_record_larger_than_block;
        Alcotest.test_case "edge cases on every backing" `Quick
          test_edge_cases;
        Alcotest.test_case "stream counts bounded by bytes read" `Quick
          test_stream_count_bounded;
        Alcotest.test_case "block boundary at every offset" `Quick
          test_block_boundaries;
        Alcotest.test_case "tiny file detection" `Quick
          test_tiny_file_detection;
        Alcotest.test_case "iter closes its file on a parse error" `Quick
          test_iter_closes_file;
        Alcotest.test_case "file rewind" `Quick test_file_rewind;
        prop_binary_varint;
      ] );
  ]
