(* Tests for the streaming event pipeline: sink/source combinators,
   encoder-sink equivalence with the buffering writer, round-trip fuzzing
   of both encodings, encoding auto-detection, and the online validation
   mode's bit-identity with the file-based breadth-first path. *)

let events_testable =
  Alcotest.testable (fun fmt e -> Trace.Event.pp fmt e) Trace.Event.equal

let sample_events =
  [
    Trace.Event.Header { nvars = 9; num_original = 4 };
    Trace.Event.Learned { id = 5; sources = [| 1; 2 |] };
    Trace.Event.Learned { id = 6; sources = [| 5; 3 |] };
    Trace.Event.Level0 { var = 2; value = false; ante = 6 };
    Trace.Event.Final_conflict 6;
  ]

(* --- sink combinators ---------------------------------------------------- *)

let test_tee_counting_buffer () =
  let b1, s1 = Trace.Sink.buffer () in
  let b2, s2 = Trace.Sink.buffer () in
  let counter, counted =
    Trace.Sink.counting ~measure:(Trace.Writer.encoded_size Trace.Writer.Binary)
      (Trace.Sink.tee [ s1; s2 ])
  in
  List.iter (Trace.Sink.push counted) sample_events;
  Trace.Sink.close counted;
  Alcotest.check (Alcotest.list events_testable) "tee branch 1" sample_events
    (Trace.Sink.buffered_events b1);
  Alcotest.check (Alcotest.list events_testable) "tee branch 2" sample_events
    (Trace.Sink.buffered_events b2);
  Alcotest.(check int) "events counted" (List.length sample_events)
    counter.Trace.Sink.events;
  let expected_bytes =
    List.fold_left
      (fun acc e -> acc + Trace.Writer.encoded_size Trace.Writer.Binary e)
      0 sample_events
  in
  Alcotest.(check int) "bytes measured" expected_bytes
    counter.Trace.Sink.bytes;
  (* close is idempotent and double-close must not re-run finalizers *)
  Trace.Sink.close counted

let test_tee_order () =
  let seen = ref [] in
  let tag name = Trace.Sink.make (fun _ -> seen := name :: !seen) in
  let t = Trace.Sink.tee [ tag "a"; tag "b"; tag "c" ] in
  Trace.Sink.push t (Trace.Event.Final_conflict 1);
  Alcotest.(check (list string)) "list order" [ "a"; "b"; "c" ]
    (List.rev !seen)

let test_source_tap_and_drain () =
  let src = Trace.Source.of_list sample_events in
  let tapped_positions = ref [] in
  let src =
    Trace.Source.tap
      (fun pos _ -> tapped_positions := pos :: !tapped_positions)
      src
  in
  let b, sink = Trace.Sink.buffer () in
  Trace.Source.drain src sink;
  Alcotest.check (Alcotest.list events_testable) "drained" sample_events
    (Trace.Sink.buffered_events b);
  Alcotest.(check int) "tap saw every event" (List.length sample_events)
    (List.length !tapped_positions)

(* --- encoder sink vs buffering writer ------------------------------------ *)

let write_legacy fmt events =
  let w = Trace.Writer.create fmt in
  List.iter (Trace.Writer.emit w) events;
  Trace.Writer.contents w

let write_sink ?flush_threshold fmt events =
  let buf = Buffer.create 256 in
  let stats, sink =
    Trace.Writer.sink ?flush_threshold fmt ~write:(Buffer.add_string buf)
  in
  List.iter (Trace.Sink.push sink) events;
  Trace.Sink.close sink;
  (stats, Buffer.contents buf)

let test_sink_matches_writer () =
  List.iter
    (fun fmt ->
      let legacy = write_legacy fmt sample_events in
      (* a tiny threshold forces many flushes; the bytes must not care *)
      let stats, streamed = write_sink ~flush_threshold:7 fmt sample_events in
      Alcotest.(check string) "bit-identical encoding" legacy streamed;
      Alcotest.(check int) "stats.bytes is the trace size"
        (String.length streamed) stats.Trace.Writer.bytes;
      Alcotest.(check bool) "peak bounded by threshold + one record" true
        (stats.Trace.Writer.peak_buffered <= 7 + 64))
    [ Trace.Writer.Ascii; Trace.Writer.Binary ]

let test_encoded_size_exact () =
  List.iter
    (fun fmt ->
      List.iter
        (fun e ->
          let w = Trace.Writer.create fmt in
          let before = Trace.Writer.bytes_written w in
          Trace.Writer.emit w e;
          Alcotest.(check int) "encoded_size matches the writer"
            (Trace.Writer.bytes_written w - before)
            (Trace.Writer.encoded_size fmt e))
        sample_events)
    [ Trace.Writer.Ascii; Trace.Writer.Binary ]

(* --- round-trip fuzzing --------------------------------------------------- *)

(* Structurally arbitrary (not necessarily checkable) event lists: the
   encodings must round-trip any well-typed event. *)
let event_gen =
  let open QCheck.Gen in
  let id = map (fun n -> 1 + abs n) small_int in
  let big = oneof [ id; map (fun n -> 1 + (abs n * 77777)) small_int ] in
  oneof
    [
      map2
        (fun nvars num_original ->
          Trace.Event.Header { nvars; num_original })
        big big;
      map2
        (fun i sources -> Trace.Event.Learned { id = i; sources })
        big
        (map Array.of_list (list_size (int_range 1 6) big));
      map3
        (fun var value ante -> Trace.Event.Level0 { var; value; ante })
        big bool big;
      map (fun i -> Trace.Event.Final_conflict i) big;
    ]

let events_arb =
  QCheck.make
    ~print:(fun es ->
      String.concat "; "
        (List.map (Format.asprintf "%a" Trace.Event.pp) es))
    QCheck.Gen.(list_size (int_range 0 40) event_gen)

let roundtrip fmt events =
  let s = write_legacy fmt events in
  let decoded = Trace.Reader.to_list (Trace.Reader.From_string s) in
  List.length decoded = List.length events
  && List.for_all2 Trace.Event.equal events decoded

let roundtrip_chunked fmt events =
  (* encode through the streaming sink with an adversarially small flush
     threshold, decode with the ordinary reader *)
  let _, s = write_sink ~flush_threshold:3 fmt events in
  let decoded = Trace.Reader.to_list (Trace.Reader.From_string s) in
  List.length decoded = List.length events
  && List.for_all2 Trace.Event.equal events decoded

let qcheck_roundtrips =
  [
    Helpers.qtest ~count:300 "ascii roundtrip fuzz" events_arb
      (roundtrip Trace.Writer.Ascii);
    Helpers.qtest ~count:300 "binary roundtrip fuzz" events_arb
      (roundtrip Trace.Writer.Binary);
    Helpers.qtest ~count:150 "ascii chunked-sink roundtrip fuzz" events_arb
      (roundtrip_chunked Trace.Writer.Ascii);
    Helpers.qtest ~count:150 "binary chunked-sink roundtrip fuzz" events_arb
      (roundtrip_chunked Trace.Writer.Binary);
  ]

(* --- encoding auto-detection ---------------------------------------------- *)

let test_detect () =
  let detect s = Trace.Reader.detect (Trace.Reader.From_string s) in
  let check name expected got =
    Alcotest.(check string) name expected
      (match got with
       | `Ascii -> "ascii"
       | `Binary -> "binary"
       | `Ambiguous _ -> "ambiguous")
  in
  check "ascii trace" "ascii" (detect (write_legacy Trace.Writer.Ascii sample_events));
  check "binary trace" "binary"
    (detect (write_legacy Trace.Writer.Binary sample_events));
  check "empty" "ambiguous" (detect "");
  check "magic prefix" "ambiguous" (detect "ZK");
  check "junk byte" "ambiguous" (detect "\x00\x01\x02");
  check "leading whitespace" "ascii" (detect "  t 1 1\nCONF 1\n")

(* --- online validation: bit-identity with file-based BF -------------------- *)

let check_outcomes_match name (file : Pipeline.Validate.outcome)
    (online : Pipeline.Validate.outcome) =
  Alcotest.(check int)
    (name ^ ": trace bytes")
    file.trace_bytes online.trace_bytes;
  match (file.verdict, online.verdict) with
  | Pipeline.Validate.Unsat_verified a, Pipeline.Validate.Unsat_verified b ->
    let ck field = Alcotest.(check int) (name ^ ": " ^ field) in
    ck "clauses_built" a.Checker.Report.clauses_built
      b.Checker.Report.clauses_built;
    ck "total_learned" a.Checker.Report.total_learned
      b.Checker.Report.total_learned;
    ck "resolution_steps" a.Checker.Report.resolution_steps
      b.Checker.Report.resolution_steps;
    ck "core_vars" a.Checker.Report.core_vars b.Checker.Report.core_vars;
    ck "peak_mem_words" a.Checker.Report.peak_mem_words
      b.Checker.Report.peak_mem_words;
    ck "peak_live_clauses" a.Checker.Report.peak_live_clauses
      b.Checker.Report.peak_live_clauses;
    ck "arena_bytes_resident" a.Checker.Report.arena_bytes_resident
      b.Checker.Report.arena_bytes_resident;
    Alcotest.(check (list int))
      (name ^ ": core_original_ids")
      a.Checker.Report.core_original_ids b.Checker.Report.core_original_ids;
    Alcotest.(check (list int))
      (name ^ ": learned_built_ids")
      a.Checker.Report.learned_built_ids b.Checker.Report.learned_built_ids
  | Pipeline.Validate.Sat_verified _, Pipeline.Validate.Sat_verified _ -> ()
  | _ -> Alcotest.failf "%s: verdicts disagree" name

let test_online_matches_file () =
  (* three benchmark families, both encodings on the first *)
  let cases =
    [
      ("equiv_tiny", Trace.Writer.Ascii);
      ("equiv_tiny", Trace.Writer.Binary);
      ("php_6", Trace.Writer.Ascii);
      ("ring_small", Trace.Writer.Binary);
    ]
  in
  List.iter
    (fun (fam_name, format) ->
      let fam =
        match Gen.Families.find fam_name with
        | Some fam -> fam
        | None -> Alcotest.failf "unknown family %s" fam_name
      in
      let f = fam.Gen.Families.generate () in
      let file =
        Pipeline.Validate.run ~format
          ~strategy:Pipeline.Validate.Breadth_first f
      in
      let online =
        Pipeline.Validate.run ~format ~strategy:Pipeline.Validate.Online f
      in
      let name =
        Printf.sprintf "%s/%s" fam_name
          (match format with
           | Trace.Writer.Ascii -> "ascii"
           | Trace.Writer.Binary -> "binary")
      in
      check_outcomes_match name file online;
      let info =
        match online.online with
        | Some i -> i
        | None -> Alcotest.failf "%s: online info missing" name
      in
      Alcotest.(check bool) (name ^ ": live lint clean") true
        (Analysis.Lint.clean info.Pipeline.Validate.lint))
    cases

let test_online_bounded_buffering () =
  (* a proof large enough that the whole trace cannot fit under the flush
     threshold: the encoder's high-water mark must stay put anyway *)
  let f = Gen.Php.unsat ~holes:8 in
  let o =
    Pipeline.Validate.run ~strategy:Pipeline.Validate.Online f
  in
  let info = Option.get o.Pipeline.Validate.online in
  Alcotest.(check bool) "trace exceeds the flush threshold" true
    (o.Pipeline.Validate.trace_bytes > 65536);
  Alcotest.(check bool) "peak buffered bounded by threshold + one record" true
    (info.Pipeline.Validate.peak_buffered_bytes <= 65536 + 4096);
  Alcotest.(check bool) "peak buffered below the trace size" true
    (info.Pipeline.Validate.peak_buffered_bytes
    < o.Pipeline.Validate.trace_bytes)

(* --- failure diagnostics: live ingest vs file replay ----------------------- *)

let diamond_formula () =
  let f = Sat.Cnf.create 2 in
  let add lits = ignore (Sat.Cnf.add_clause f lits) in
  add [| Sat.Lit.make 1 false; Sat.Lit.make 2 false |];
  add [| Sat.Lit.make 1 true; Sat.Lit.make 2 false |];
  add [| Sat.Lit.make 1 false; Sat.Lit.make 2 true |];
  add [| Sat.Lit.make 1 true; Sat.Lit.make 2 true |];
  f

let test_ingest_failure_matches_file () =
  let corruptions =
    [
      (* fails_at_feed: stream-order violations are recorded the moment
         the offending event is pushed; a dangling final conflict only
         surfaces in [finish] *)
      ( "forward reference", true,
        [
          Trace.Event.Header { nvars = 2; num_original = 4 };
          Trace.Event.Learned { id = 5; sources = [| 1; 9 |] };
          Trace.Event.Final_conflict 5;
        ] );
      ( "duplicate definition", true,
        [
          Trace.Event.Header { nvars = 2; num_original = 4 };
          Trace.Event.Learned { id = 5; sources = [| 1; 2 |] };
          Trace.Event.Learned { id = 5; sources = [| 3; 4 |] };
          Trace.Event.Final_conflict 5;
        ] );
      ( "undefined conflict id", false,
        [
          Trace.Event.Header { nvars = 2; num_original = 4 };
          Trace.Event.Learned { id = 5; sources = [| 1; 2 |] };
          Trace.Event.Final_conflict 9;
        ] );
      ( "shadows original", true,
        [
          Trace.Event.Header { nvars = 2; num_original = 4 };
          Trace.Event.Learned { id = 3; sources = [| 1; 2 |] };
          Trace.Event.Final_conflict 3;
        ] );
    ]
  in
  let f = diamond_formula () in
  List.iter
    (fun (name, fails_at_feed, events) ->
      let source =
        Trace.Reader.From_string (write_legacy Trace.Writer.Ascii events)
      in
      let file_diag =
        match Checker.Bf.check f source with
        | Ok _ -> Alcotest.failf "%s: file BF accepted a corrupt trace" name
        | Error d -> d
      in
      (* live push: the ingest records the failure instead of raising, so
         a solver mid-flight is never interrupted *)
      let g = Checker.Bf.ingest f in
      let sink = Checker.Bf.ingest_sink g in
      List.iter (Trace.Sink.push sink) events;
      Trace.Sink.close sink;
      Alcotest.(check bool) (name ^ ": failure recorded at feed time")
        fails_at_feed
        (Checker.Bf.ingest_failed g <> None);
      let live_diag =
        match Checker.Bf.finish g source with
        | Ok _ -> Alcotest.failf "%s: ingest accepted a corrupt trace" name
        | Error d -> d
      in
      Alcotest.(check string) (name ^ ": identical diagnostic")
        (Proof.Diagnostics.to_string file_diag)
        (Proof.Diagnostics.to_string live_diag))
    corruptions

let suite =
  [
    ( "stream",
      [
        Alcotest.test_case "tee counting buffer" `Quick
          test_tee_counting_buffer;
        Alcotest.test_case "tee order" `Quick test_tee_order;
        Alcotest.test_case "source tap drain" `Quick test_source_tap_and_drain;
        Alcotest.test_case "sink matches writer" `Quick
          test_sink_matches_writer;
        Alcotest.test_case "encoded size exact" `Quick test_encoded_size_exact;
        Alcotest.test_case "detect" `Quick test_detect;
        Alcotest.test_case "online matches file" `Slow
          test_online_matches_file;
        Alcotest.test_case "online bounded buffering" `Slow
          test_online_bounded_buffering;
        Alcotest.test_case "ingest failure matches file" `Quick
          test_ingest_failure_matches_file;
      ]
      @ qcheck_roundtrips );
  ]
