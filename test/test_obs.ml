(* Tests for the telemetry layer: histogram bucketing pins, span export
   validity, and the layer's central invariant — checker reports are
   identical with telemetry on and off.

   The registry update functions deliberately do not check [Ctl.on], so
   most tests drive a private registry directly with telemetry disabled;
   the tests that do enable recording guard the disable in a
   [Fun.protect] so a failure cannot leak enabled state into the rest of
   the suite. *)

module M = Obs.Metrics

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let with_recording f =
  Obs.Ctl.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Ctl.disable ();
      M.reset M.global;
      Obs.Span.reset ();
      Obs.Sampler.reset ())
    f

(* --- histogram bucketing ------------------------------------------------ *)

let test_bucket_index () =
  let pins =
    [ (-7, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (1023, 10); (1024, 11); (1025, 11); (max_int, 62) ]
  in
  List.iter
    (fun (v, b) ->
      Alcotest.check Alcotest.int (Printf.sprintf "bucket of %d" v) b
        (M.Histogram.bucket_index v))
    pins

let test_histogram_observe () =
  let t = M.create () in
  let h = M.histogram t "h" in
  List.iter (M.Histogram.observe h) [ 0; 1; 3; 3; 1000; 1024 ];
  Alcotest.check Alcotest.int "count" 6 (M.Histogram.count h);
  Alcotest.check (Alcotest.float 1e-9) "sum" 2031.0 (M.Histogram.sum h);
  Alcotest.check
    Alcotest.(list (pair int int))
    "buckets" [ (0, 1); (1, 1); (2, 2); (10, 1); (11, 1) ]
    (M.Histogram.buckets h)

(* --- counters, gauges, reset -------------------------------------------- *)

let test_counter_gauge_reset () =
  let t = M.create () in
  let c = M.counter t "c" and g = M.gauge t "g" in
  M.Counter.incr c 3;
  M.Counter.incr c 4;
  M.Gauge.set g 10.0;
  M.Gauge.set g 2.0;
  Alcotest.check Alcotest.int "counter" 7 (M.Counter.get c);
  Alcotest.check (Alcotest.float 0.0) "gauge level" 2.0 (M.Gauge.get g);
  Alcotest.check (Alcotest.float 0.0) "gauge high-water" 10.0
    (M.Gauge.max_value g);
  M.reset t;
  (* handles survive a reset: same cells, zeroed *)
  Alcotest.check Alcotest.int "counter after reset" 0 (M.Counter.get c);
  Alcotest.check (Alcotest.float 0.0) "gauge after reset" 0.0
    (M.Gauge.max_value g);
  M.Counter.incr c 1;
  Alcotest.check Alcotest.(list (pair string (float 0.0))) "snapshot"
    [ ("c", 1.0); ("g", 0.0) ]
    (M.snapshot t)

let test_kind_conflict () =
  let t = M.create () in
  ignore (M.counter t "x");
  Alcotest.check_raises "kind conflict"
    (Invalid_argument "Obs.Metrics: \"x\" is already registered as another kind")
    (fun () -> ignore (M.gauge t "x"))

(* --- span export -------------------------------------------------------- *)

let test_span_export () =
  with_recording @@ fun () ->
  Obs.Span.scope ~cat:"test" "outer" (fun () ->
      Obs.Span.scope ~cat:"test" "inner" (fun () ->
          ignore (Sys.opaque_identity 0)));
  Obs.Span.scope ~cat:"test" "after" (fun () -> ());
  Alcotest.check Alcotest.int "three events" 3 (Obs.Span.count ());
  let json = String.trim (Obs.Span.to_trace_json ()) in
  Alcotest.check Alcotest.bool "is a JSON array" true
    (String.length json >= 2
    && json.[0] = '['
    && json.[String.length json - 1] = ']');
  (* every event is a Chrome "complete" event with the stable prefix *)
  let lines =
    String.split_on_char '\n' json
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '[' && l.[0] <> ']')
  in
  Alcotest.check Alcotest.int "one event per line" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.check Alcotest.bool "ph X" true (contains l "\"ph\":\"X\"");
      Alcotest.check Alcotest.bool "has ts" true (contains l "\"ts\":"))
    lines;
  (* sorted by start timestamp *)
  let ts_of l =
    let i = ref 0 in
    while not (contains (String.sub l !i 5) "\"ts\":") do
      incr i
    done;
    Scanf.sscanf (String.sub l (!i + 5) (String.length l - !i - 5)) "%f" Fun.id
  in
  let ts = List.map ts_of lines in
  Alcotest.check Alcotest.bool "monotone ts" true (List.sort compare ts = ts);
  (* the aggregate view the run profile embeds *)
  match Obs.Span.aggregate () with
  | [ ("after", "test", 1, _); ("inner", "test", 1, _); ("outer", "test", 1, _) ]
    -> ()
  | other ->
    Alcotest.failf "unexpected aggregate (%d rows)" (List.length other)

let test_span_off_is_silent () =
  Obs.Span.reset ();
  Obs.Span.scope "ghost" (fun () -> ());
  Alcotest.check Alcotest.int "nothing recorded when off" 0
    (Obs.Span.count ());
  Alcotest.check Alcotest.string "empty timeline" "[\n]"
    (String.trim (Obs.Span.to_trace_json ()))

(* --- telemetry cannot perturb checked artifacts ------------------------- *)

let report_of f strategy =
  match Pipeline.Validate.run ~strategy f with
  | { verdict = Pipeline.Validate.Unsat_verified r; _ } -> r
  | _ -> Alcotest.fail "expected unsat-verified"

let test_reports_identical_on_off () =
  let f = Gen.Php.unsat ~holes:4 in
  List.iter
    (fun (strategy, tag) ->
      let off = report_of f strategy in
      let on =
        with_recording @@ fun () ->
        Obs.Sampler.configure ~interval:0.0001 ~heartbeat:false ();
        Fun.protect
          ~finally:(fun () -> Obs.Sampler.disarm ())
          (fun () -> report_of f strategy)
      in
      Alcotest.check Alcotest.string
        (tag ^ ": report identical with telemetry on")
        (Checker.Report.to_json off)
        (Checker.Report.to_json on))
    [
      (Pipeline.Validate.Depth_first, "df");
      (Pipeline.Validate.Breadth_first, "bf");
      (Pipeline.Validate.Hybrid, "hybrid");
      (Pipeline.Validate.Online, "online");
    ]

(* --- prometheus exposition ---------------------------------------------- *)

let test_prom_exposition () =
  let t = M.create () in
  let c = M.counter t "solver.conflicts" and g = M.gauge t "arena/bytes" in
  let h = M.histogram t "chain width" in
  M.Counter.incr c 42;
  M.Gauge.set g 7.0;
  M.Gauge.set g 3.0;
  M.Histogram.observe h 1;
  M.Histogram.observe h 5;
  let p = M.to_prom t in
  List.iter
    (fun needle ->
      if not (contains p needle) then
        Alcotest.failf "prom output missing %S in:\n%s" needle p)
    [
      "# TYPE rescheck_solver_conflicts counter";
      "rescheck_solver_conflicts 42";
      "# TYPE rescheck_arena_bytes gauge";
      "rescheck_arena_bytes 3";
      "rescheck_arena_bytes_max 7";
      "# TYPE rescheck_chain_width histogram";
      {|rescheck_chain_width_bucket{le="1"} 1|};
      {|rescheck_chain_width_bucket{le="+Inf"} 2|};
      "rescheck_chain_width_sum 6";
      "rescheck_chain_width_count 2";
    ]

(* --- journal flight recorder -------------------------------------------- *)

let with_journal ?capacity f =
  Obs.Journal.arm ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.disarm ();
      Obs.Journal.reset ())
    f

let record_fixed_run () =
  Obs.Journal.record ~sub:"solver" "restart" [ ("restarts", 1); ("conflicts", 64) ];
  Obs.Journal.record ~sub:"window" "spill" [ ("window", 2); ("clauses", 17) ];
  Obs.Journal.record ~sub:"arena" "grow" [ ("from_words", 4096); ("to_words", 8192) ]

let test_journal_deterministic_dump () =
  let d1 =
    with_journal ~capacity:8 (fun () ->
        record_fixed_run ();
        Obs.Journal.to_json ())
  in
  let d2 =
    with_journal ~capacity:8 (fun () ->
        record_fixed_run ();
        Obs.Journal.to_json ())
  in
  Alcotest.check Alcotest.string "same run, byte-identical dump" d1 d2;
  if not (contains d1 {|"schema":"rescheck-journal/1"|}) then
    Alcotest.failf "journal dump missing schema: %s" d1;
  if not (contains d1 {|"sub":"solver","event":"restart","args":{"restarts":1,"conflicts":64}|})
  then Alcotest.failf "journal dump missing entry payload: %s" d1

let test_journal_wraparound () =
  with_journal ~capacity:4 (fun () ->
      for i = 0 to 9 do
        Obs.Journal.record ~sub:"t" "e" [ ("i", i) ]
      done;
      Alcotest.check Alcotest.int "recorded counts every entry" 10
        (Obs.Journal.recorded ());
      Alcotest.check Alcotest.int "capacity" 4 (Obs.Journal.capacity ());
      let es = Obs.Journal.entries () in
      Alcotest.check Alcotest.int "ring keeps capacity entries" 4
        (List.length es);
      Alcotest.check
        (Alcotest.list Alcotest.int)
        "oldest-first, newest survive"
        [ 6; 7; 8; 9 ]
        (List.map (fun (e : Obs.Journal.entry) -> e.seq) es);
      let j = Obs.Journal.to_json () in
      if not (contains j {|"recorded":10|} && contains j {|"dropped":6|}) then
        Alcotest.failf "wraparound accounting wrong: %s" j)

let test_journal_guard_off () =
  Obs.Journal.disarm ();
  Alcotest.check Alcotest.bool "disarmed guard is false" false
    (Obs.Journal.on ());
  with_journal (fun () ->
      Alcotest.check Alcotest.bool "armed guard is true" true
        (Obs.Journal.on ()))

(* --- stall watchdog ------------------------------------------------------ *)

let test_watchdog_stall () =
  let fired = ref 0 in
  (* a huge real interval so only the explicit [poll]s below drive it *)
  Obs.Sampler.arm_watchdog ~strikes:2 ~interval:3600.0
    ~on_stall:(fun () -> incr fired)
    ();
  Fun.protect
    ~finally:(fun () -> Obs.Sampler.disarm_watchdog ())
    (fun () ->
      let base = Obs.Sampler.stalls () in
      Obs.Sampler.poll ();
      Alcotest.check Alcotest.int "one strike is not a stall" 0 !fired;
      Obs.Sampler.poll ();
      Alcotest.check Alcotest.int "second strike fires" 1 !fired;
      Obs.Sampler.poll ();
      Alcotest.check Alcotest.int "fires once per episode" 1 !fired;
      Obs.Sampler.tick ();
      Obs.Sampler.poll ();
      Alcotest.check Alcotest.int "progress re-arms without firing" 1 !fired;
      Obs.Sampler.poll ();
      Obs.Sampler.poll ();
      Alcotest.check Alcotest.int "new stall episode fires again" 2 !fired;
      Alcotest.check Alcotest.int "episodes counted" (base + 2)
        (Obs.Sampler.stalls ()))

(* --- json parser ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let src =
    {|{"schema":"rescheck-journal/1","n":3,"pi":3.5,"neg":-2,"ok":true,"no":false,"nil":null,"s":"a\"b\\c\ndA","l":[1,[2,3],{"k":"v"}]}|}
  in
  let j = Obs.Json.of_string src in
  let open Obs.Json in
  Alcotest.check
    (Alcotest.option Alcotest.string)
    "string member" (Some "rescheck-journal/1")
    (Option.bind (member "schema" j) string);
  Alcotest.check (Alcotest.option Alcotest.int) "int member" (Some 3)
    (Option.bind (member "n" j) int);
  Alcotest.check (Alcotest.option Alcotest.int) "non-integral int is None"
    None
    (Option.bind (member "pi" j) int);
  Alcotest.check (Alcotest.option Alcotest.int) "negative" (Some (-2))
    (Option.bind (member "neg" j) int);
  Alcotest.check (Alcotest.option Alcotest.bool) "bool" (Some true)
    (Option.bind (member "ok" j) bool);
  Alcotest.check
    (Alcotest.option Alcotest.string)
    "escapes decode" (Some "a\"b\\c\ndA")
    (Option.bind (member "s" j) string);
  (match Option.bind (member "l" j) list with
   | Some [ _; _; _ ] -> ()
   | _ -> Alcotest.fail "list member should have 3 elements");
  (* re-render and re-parse: the compact form is stable *)
  let r1 = to_string j in
  let r2 = to_string (of_string r1) in
  Alcotest.check Alcotest.string "render/parse fixpoint" r1 r2

let test_json_rejects_garbage () =
  let bad = [ ""; "{"; "[1,"; {|{"a":}|}; "tru"; {|"unterminated|}; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "parser accepted %S" s)
    bad

(* [Ctl.time] reads the span clock, which runs whether or not telemetry
   is recording: an interval that waits 10 ms on [now_s] measures at
   least that. *)
let test_clock_time () =
  let x, seconds =
    Obs.Ctl.time (fun () ->
        let t0 = Obs.Ctl.now_s () in
        while Obs.Ctl.now_s () -. t0 < 0.01 do
          ()
        done;
        42)
  in
  Alcotest.check Alcotest.int "result passed through" 42 x;
  Alcotest.check Alcotest.bool "elapsed on the span clock" true
    (seconds >= 0.01)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "histogram bucket pins" `Quick test_bucket_index;
        Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
        Alcotest.test_case "counter/gauge/reset" `Quick
          test_counter_gauge_reset;
        Alcotest.test_case "metric kind conflict" `Quick test_kind_conflict;
        Alcotest.test_case "span export" `Quick test_span_export;
        Alcotest.test_case "spans silent when off" `Quick
          test_span_off_is_silent;
        Alcotest.test_case "reports identical on/off" `Quick
          test_reports_identical_on_off;
        Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
        Alcotest.test_case "journal deterministic dump" `Quick
          test_journal_deterministic_dump;
        Alcotest.test_case "journal ring wraparound" `Quick
          test_journal_wraparound;
        Alcotest.test_case "journal guard off by default" `Quick
          test_journal_guard_off;
        Alcotest.test_case "watchdog fires on stall" `Quick test_watchdog_stall;
        Alcotest.test_case "json parser roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json parser rejects garbage" `Quick
          test_json_rejects_garbage;
        Alcotest.test_case "clock time" `Quick test_clock_time;
      ] );
  ]
