(* Unit tests for the wavefront-parallel checker: a hand-built
   diamond-DAG trace whose schedule shape is known exactly, agreement
   with BF on both trace encodings, deterministic minimum-stream-index
   failure reporting, and degenerate pool shapes (more jobs than
   tasks). *)

let module_name = "par"

(* The 2-variable complete contradiction: (1 v 2), (-1 v 2), (1 v -2),
   (-1 v -2), ids 1..4. *)
let diamond_formula () =
  let f = Sat.Cnf.create 2 in
  let add lits = ignore (Sat.Cnf.add_clause f lits) in
  add [| Sat.Lit.make 1 false; Sat.Lit.make 2 false |];
  add [| Sat.Lit.make 1 true; Sat.Lit.make 2 false |];
  add [| Sat.Lit.make 1 false; Sat.Lit.make 2 true |];
  add [| Sat.Lit.make 1 true; Sat.Lit.make 2 true |];
  f

(* Diamond proof: 5 = (2) and 6 = (-2) in wavefront one, 7 = the empty
   clause in wavefront two, plus 8 = (1), valid but never used — BF (and
   therefore par) must still build it. *)
let diamond_events =
  [
    Trace.Event.Header { nvars = 2; num_original = 4 };
    Trace.Event.Learned { id = 5; sources = [| 1; 2 |] };
    Trace.Event.Learned { id = 6; sources = [| 3; 4 |] };
    Trace.Event.Learned { id = 7; sources = [| 5; 6 |] };
    Trace.Event.Learned { id = 8; sources = [| 1; 3 |] };
    Trace.Event.Final_conflict 7;
  ]

let source_of events fmt =
  let w = Trace.Writer.create fmt in
  List.iter (Trace.Writer.emit w) events;
  Trace.Reader.From_string (Trace.Writer.contents w)

let get_ok name = function
  | Ok r -> r
  | Error d ->
    Alcotest.failf "%s: valid trace rejected: %s" name
      (Proof.Diagnostics.to_string d)

let test_diamond_schedule () =
  let f = diamond_formula () in
  List.iter
    (fun jobs ->
      let r =
        get_ok
          (Printf.sprintf "par j%d" jobs)
          (Checker.Par.check ~jobs f (source_of diamond_events Trace.Writer.Ascii))
      in
      let ck name = Printf.sprintf "j%d %s" jobs name in
      Alcotest.(check int) (ck "total learned") 4 r.Checker.Report.total_learned;
      Alcotest.(check int) (ck "built") 4 r.Checker.Report.clauses_built;
      Alcotest.(check int) (ck "steps") 4 r.Checker.Report.resolution_steps;
      Alcotest.(check (list int)) (ck "built ids") [ 5; 6; 7; 8 ]
        r.Checker.Report.learned_built_ids;
      (* 5, 6 and 8 resolve originals (level 1); 7 needs 5 and 6 (level 2) *)
      Alcotest.(check int) (ck "wavefronts") 2 r.Checker.Report.wavefronts;
      Alcotest.(check int) (ck "max width") 3 r.Checker.Report.max_wavefront_width;
      Alcotest.(check int) (ck "jobs") jobs r.Checker.Report.jobs)
    [ 1; 2; 4 ]

let test_matches_bf_both_encodings () =
  let f = diamond_formula () in
  List.iter
    (fun fmt ->
      let bf =
        get_ok "bf" (Checker.Bf.check f (source_of diamond_events fmt))
      in
      let pr =
        get_ok "par"
          (Checker.Par.check ~jobs:3 f (source_of diamond_events fmt))
      in
      Alcotest.(check int) "built" bf.Checker.Report.clauses_built
        pr.Checker.Report.clauses_built;
      Alcotest.(check int) "steps" bf.Checker.Report.resolution_steps
        pr.Checker.Report.resolution_steps;
      Alcotest.(check (list int)) "built ids"
        bf.Checker.Report.learned_built_ids
        pr.Checker.Report.learned_built_ids;
      Alcotest.(check (list int)) "core" bf.Checker.Report.core_original_ids
        pr.Checker.Report.core_original_ids)
    [ Trace.Writer.Ascii; Trace.Writer.Binary ]

(* More workers than tasks: every domain past the third idles; the
   wavefront barrier must still drain. *)
let test_more_jobs_than_tasks () =
  let f = diamond_formula () in
  let r =
    get_ok "par j8"
      (Checker.Par.check ~jobs:8 f (source_of diamond_events Trace.Writer.Ascii))
  in
  Alcotest.(check int) "built" 4 r.Checker.Report.clauses_built

let test_jobs_below_one_rejected () =
  let f = diamond_formula () in
  Alcotest.check_raises "jobs 0"
    (Invalid_argument "Par.check: jobs must be >= 1") (fun () ->
      ignore
        (Checker.Par.check ~jobs:0 f (source_of diamond_events Trace.Writer.Ascii)))

(* Two invalid chains: id 6 fails at stream index 1 but sits in wavefront
   two, id 7 fails at stream index 2 in wavefront one.  The parallel
   checker hits 7 first, then must override it with 6 — the failure
   sequential BF stops at — so the two checkers' diagnostics are
   structurally identical. *)
let failing_events =
  [
    Trace.Event.Header { nvars = 2; num_original = 4 };
    Trace.Event.Learned { id = 5; sources = [| 1; 2 |] };
    Trace.Event.Learned { id = 6; sources = [| 5; 2 |] };  (* (2) vs (-1 2): no clash *)
    Trace.Event.Learned { id = 7; sources = [| 1; 1 |] };  (* self: no clash *)
    Trace.Event.Final_conflict 6;
  ]

let test_min_stream_failure_matches_bf () =
  let f = diamond_formula () in
  let bf_err =
    match Checker.Bf.check f (source_of failing_events Trace.Writer.Ascii) with
    | Ok _ -> Alcotest.fail "bf accepted an invalid trace"
    | Error d -> d
  in
  (match bf_err with
   | Proof.Diagnostics.No_clash { c1_id = 5; c2_id = 2; _ } -> ()
   | d ->
     Alcotest.failf "bf failed on the wrong record: %s"
       (Proof.Diagnostics.to_string d));
  List.iter
    (fun jobs ->
      match
        Checker.Par.check ~jobs f (source_of failing_events Trace.Writer.Ascii)
      with
      | Ok _ -> Alcotest.failf "par j%d accepted an invalid trace" jobs
      | Error d ->
        if d <> bf_err then
          Alcotest.failf "par j%d diagnostic differs from bf: %s vs %s" jobs
            (Proof.Diagnostics.to_string d)
            (Proof.Diagnostics.to_string bf_err))
    [ 1; 2; 4 ]

(* A solver-produced trace, both encodings, several job counts: the full
   report statistics must match BF field for field. *)
let test_solver_trace_agreement () =
  let f = Gen.Php.unsat ~holes:4 in
  let result, _stats, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php 4 must be unsat");
  let src = Trace.Reader.From_string trace in
  let bf = get_ok "bf" (Checker.Bf.check f src) in
  (* window 1 degenerates to sequential BF order; tiny windows force many
     window boundaries; the default leaves small traces unwindowed *)
  List.iter
    (fun (jobs, window) ->
      let pr = get_ok "par" (Checker.Par.check ~jobs ?window f src) in
      Alcotest.(check int) "learned" bf.Checker.Report.total_learned
        pr.Checker.Report.total_learned;
      Alcotest.(check int) "built" bf.Checker.Report.clauses_built
        pr.Checker.Report.clauses_built;
      Alcotest.(check int) "steps" bf.Checker.Report.resolution_steps
        pr.Checker.Report.resolution_steps;
      Alcotest.(check (list int)) "built ids"
        bf.Checker.Report.learned_built_ids
        pr.Checker.Report.learned_built_ids)
    [
      (1, None); (2, None); (4, None);
      (1, Some 1); (2, Some 1);
      (2, Some 3); (4, Some 7);
    ]

let suite =
  [
    ( module_name,
      [
        Alcotest.test_case "diamond schedule" `Quick test_diamond_schedule;
        Alcotest.test_case "matches bf, both encodings" `Quick
          test_matches_bf_both_encodings;
        Alcotest.test_case "more jobs than tasks" `Quick
          test_more_jobs_than_tasks;
        Alcotest.test_case "jobs < 1 rejected" `Quick
          test_jobs_below_one_rejected;
        Alcotest.test_case "min-stream failure matches bf" `Quick
          test_min_stream_failure_matches_bf;
        Alcotest.test_case "solver trace agreement" `Quick
          test_solver_trace_agreement;
      ] );
  ]
