(* Window-shifting checker: the schedule (spills, reloads, boundary
   shifts) must be invisible — verdicts, built sets, step counts and
   diagnostics identical to breadth-first at every window size — while
   the resident-clause gauge respects the configured bound. *)

let module_name = "window"

module G = Analysis.Dag

let window_sizes = [ 1; 16; 128; max_int ]

let encode ~format events =
  let w = Trace.Writer.create format in
  List.iter (Trace.Writer.emit w) events;
  Trace.Writer.contents w

let report_exn name = function
  | Ok r -> r
  | Error d ->
    Alcotest.failf "%s rejected a valid trace: %s" name
      (Proof.Diagnostics.to_string d)

let profile_exn trace =
  match G.run (Trace.Reader.From_string trace) with
  | Ok p -> p
  | Error e -> Alcotest.failf "dag refused: %s" e.G.message

(* --- the window sweep ---------------------------------------------------- *)

let sweep_instance ~name f trace =
  let src () = Trace.Reader.From_string trace in
  let bf = report_exn (name ^ " BF") (Checker.Bf.check f (src ())) in
  let predicted_bf = (profile_exn trace).G.predicted_peak_live.G.bf in
  List.iter
    (fun window ->
      let ck field =
        Printf.sprintf "%s: window %s %s" name
          (if window = max_int then "inf" else string_of_int window)
          field
      in
      let stats = ref None in
      let wr =
        report_exn (ck "check")
          (Checker.Window.check
             ~on_stats:(fun s -> stats := Some s)
             ~window f (src ()))
      in
      let i = Alcotest.check Alcotest.int in
      i (ck "learned") bf.Checker.Report.total_learned
        wr.Checker.Report.total_learned;
      i (ck "built") bf.Checker.Report.clauses_built
        wr.Checker.Report.clauses_built;
      i (ck "steps") bf.Checker.Report.resolution_steps
        wr.Checker.Report.resolution_steps;
      Alcotest.check (Alcotest.list Alcotest.int) (ck "built ids")
        bf.Checker.Report.learned_built_ids
        wr.Checker.Report.learned_built_ids;
      Alcotest.check (Alcotest.list Alcotest.int) (ck "core") []
        wr.Checker.Report.core_original_ids;
      let s =
        match !stats with
        | Some s -> s
        | None -> Alcotest.failf "%s: on_stats never fired" (ck "stats")
      in
      (* the configured bound holds: never more than [window] learned
         clauses arena-resident... *)
      if s.Checker.Window.max_resident > window then
        Alcotest.failf "%s: resident %d > window %d" (ck "bound")
          s.Checker.Window.max_resident window;
      (* ...and never more than the DAG's static breadth-first peak
         prediction, whatever the window (the scheduler still frees at
         refcount zero inside a window) *)
      if s.Checker.Window.max_resident > predicted_bf then
        Alcotest.failf "%s: resident %d > predicted bf peak %d" (ck "dag")
          s.Checker.Window.max_resident predicted_bf;
      (* a window that fits the whole proof never spills *)
      if window = max_int && s.Checker.Window.spilled > 0 then
        Alcotest.failf "%s: unbounded window spilled %d clauses" (ck "spill")
          s.Checker.Window.spilled;
      (* every reload must come from a spill *)
      if s.Checker.Window.spilled = 0 && s.Checker.Window.reloaded > 0 then
        Alcotest.failf "%s: %d reloads without spills" (ck "reload")
          s.Checker.Window.reloaded)
    window_sizes

(* three proof families x two encodings *)
let families () =
  let php = Gen.Php.unsat ~holes:4 in
  let rng = Sat.Rng.create 5151 in
  let rec unsat_of gen tries =
    if tries = 0 then Alcotest.fail "no unsat instance found"
    else
      let f = gen () in
      match Pipeline.Validate.solve_with_trace f with
      | Solver.Cdcl.Unsat, _, trace -> (f, trace)
      | (Solver.Cdcl.Sat _, _, _) ->
        unsat_of gen (tries - 1)
  in
  let solve f =
    match Pipeline.Validate.solve_with_trace f with
    | Solver.Cdcl.Unsat, _, trace -> (f, trace)
    | Solver.Cdcl.Sat _, _, _ -> Alcotest.fail "expected unsat"
  in
  let messy =
    unsat_of
      (fun () ->
        let nvars = 4 + Sat.Rng.int rng 8 in
        Helpers.random_messy_cnf rng ~nvars ~nclauses:(5 * nvars))
      500
  in
  let rand3 =
    unsat_of
      (fun () ->
        let nvars = 4 + Sat.Rng.int rng 8 in
        Gen.Random3sat.generate rng ~nvars ~nclauses:(6 * nvars))
      500
  in
  [ ("php", solve php); ("messy", messy); ("rand3", rand3) ]

let test_window_sweep () =
  List.iter
    (fun (fam, (f, trace)) ->
      let events = Trace.Reader.to_list (Trace.Reader.From_string trace) in
      List.iter
        (fun (enc, format) ->
          sweep_instance
            ~name:(Printf.sprintf "%s/%s" fam enc)
            f
            (encode ~format events))
        [ ("ascii", Trace.Writer.Ascii); ("binary", Trace.Writer.Binary) ])
    (families ())

(* --- failure identity ---------------------------------------------------- *)

(* a refuted proof is refuted identically at every window size *)
let test_window_failure_identity () =
  let f, events = Helpers.unsat_with_events () in
  let broken =
    List.filter_map
      (fun e ->
        match e with
        (* drop one mid-trace derivation so a later chain dangles *)
        | Trace.Event.Learned l when l.id mod 17 = 3 -> None
        | e -> Some e)
      events
  in
  let w = Trace.Writer.create Trace.Writer.Ascii in
  List.iter (Trace.Writer.emit w) broken;
  let trace = Trace.Writer.contents w in
  let bf_diag =
    match Checker.Bf.check f (Trace.Reader.From_string trace) with
    | Ok _ -> Alcotest.fail "BF accepted the broken trace"
    | Error d -> Proof.Diagnostics.to_string d
  in
  List.iter
    (fun window ->
      match Checker.Window.check ~window f (Trace.Reader.From_string trace) with
      | Ok _ -> Alcotest.failf "window %d accepted the broken trace" window
      | Error d ->
        Alcotest.check Alcotest.string
          (Printf.sprintf "window %d diagnostic" window)
          bf_diag
          (Proof.Diagnostics.to_string d))
    window_sizes

(* window mode refuses hinted traces like every non-hinted strategy *)
let test_window_refuses_hints () =
  let f, events = Helpers.unsat_with_events () in
  let w = Trace.Writer.create Trace.Writer.Ascii in
  List.iter (Trace.Writer.emit w) events;
  let hinted_w = Trace.Writer.create ~version:2 Trace.Writer.Ascii in
  (match
     G.hint
       (Trace.Reader.From_string (Trace.Writer.contents w))
       hinted_w
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hint converter refused: %s" e.G.message);
  match
    Checker.Window.check ~window:16 f
      (Trace.Reader.From_string (Trace.Writer.contents hinted_w))
  with
  | Error Proof.Diagnostics.Hints_unsupported -> ()
  | Ok _ -> Alcotest.fail "window accepted a hinted trace"
  | Error d ->
    Alcotest.failf "expected Hints_unsupported, got %s"
      (Proof.Diagnostics.to_string d)

(* the bound is also visible through the telemetry surface: with
   recording on, the [window.resident_clauses] gauge carries the same
   high-water mark on_stats reports, and stays under the window *)
let test_window_gauge_bound () =
  let f = Gen.Php.unsat ~holes:4 in
  let trace =
    match Pipeline.Validate.solve_with_trace f with
    | Solver.Cdcl.Unsat, _, trace -> trace
    | Solver.Cdcl.Sat _, _, _ -> Alcotest.fail "php must be unsat"
  in
  let g = Obs.Metrics.gauge Obs.Metrics.global "window.resident_clauses" in
  Obs.Ctl.enable ();
  Fun.protect ~finally:Obs.Ctl.disable @@ fun () ->
  List.iter
    (fun window ->
      let stats = ref None in
      (match
         Checker.Window.check
           ~on_stats:(fun s -> stats := Some s)
           ~window f
           (Trace.Reader.From_string trace)
       with
      | Ok _ -> ()
      | Error d ->
        Alcotest.failf "window %d rejected: %s" window
          (Proof.Diagnostics.to_string d));
      let resident = int_of_float (Obs.Metrics.Gauge.get g) in
      (match !stats with
       | Some s ->
         Alcotest.check Alcotest.int
           (Printf.sprintf "window %d gauge mirrors stats" window)
           s.Checker.Window.max_resident resident
       | None -> Alcotest.fail "on_stats never fired");
      if resident > window then
        Alcotest.failf "window %d: gauge reports %d resident" window resident)
    [ 1; 16; 128 ]

let test_window_validates_size () =
  let f = Gen.Php.unsat ~holes:2 in
  match
    Checker.Window.check ~window:0 f (Trace.Reader.From_string "t 1 1\n")
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window 0 was not rejected"

(* A memory-out escaping mid-check must not strand the window spill file
   or breadth-first's count file in the temp directory, and must still
   reach the caller (rescheck maps it to exit 3). *)
let test_temp_files_removed_on_memory_out () =
  let f = Gen.Php.unsat ~holes:4 in
  let trace =
    match Pipeline.Validate.solve_with_trace f with
    | Solver.Cdcl.Unsat, _, trace -> trace
    | Solver.Cdcl.Sat _, _, _ -> Alcotest.fail "php must be unsat"
  in
  let dir = Filename.temp_file "rescheck_leak" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  let leftovers () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      List.iter (fun n -> Sys.remove (Filename.concat dir n)) (leftovers ());
      Sys.rmdir dir)
  @@ fun () ->
  List.iter
    (fun (name, check) ->
      let meter = Harness.Meter.create ~limit_words:50 () in
      (match check meter (Trace.Reader.From_string trace) with
       | exception Harness.Meter.Out_of_memory_simulated _ -> ()
       | Ok _ | Error _ ->
         Alcotest.failf "%s: the memory limit never tripped" name);
      Alcotest.check (Alcotest.list Alcotest.string)
        (name ^ ": temp dir empty") [] (leftovers ()))
    [
      ( "bf temp-file",
        fun meter src ->
          Checker.Bf.check ~meter ~counting:(`Temp_file 64) f src );
      ("window", fun meter src -> Checker.Window.check ~meter ~window:4 f src);
    ]

let suite =
  [
    ( module_name,
      [
        Alcotest.test_case "temp files removed on memory-out" `Quick
          test_temp_files_removed_on_memory_out;
        Alcotest.test_case "window sweep 3x2x4" `Quick test_window_sweep;
        Alcotest.test_case "failure identity" `Quick
          test_window_failure_identity;
        Alcotest.test_case "refuses hinted traces" `Quick
          test_window_refuses_hints;
        Alcotest.test_case "resident gauge bound" `Quick
          test_window_gauge_bound;
        Alcotest.test_case "window size validated" `Quick
          test_window_validates_size;
      ] );
  ]
