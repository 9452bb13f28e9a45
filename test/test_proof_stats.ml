(* Tests for the proof-statistics analyzer. *)

let stats_of f =
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "unsat expected");
  match Checker.Proof_stats.analyze f (Trace.Reader.From_string trace) with
  | Ok s -> s
  | Error d -> Alcotest.failf "analyze: %s" (Proof.Diagnostics.to_string d)

let test_php_shape () =
  let s = stats_of (Gen.Php.unsat ~holes:5) in
  Alcotest.check Alcotest.bool "learned recorded" true (s.learned_total > 0);
  Alcotest.check Alcotest.bool "needed <= total" true
    (s.learned_needed <= s.learned_total);
  Alcotest.check Alcotest.bool "depth positive" true (s.dag_depth >= 1);
  Alcotest.check Alcotest.bool "widths sane" true
    (s.max_clause_width >= 1
     && s.mean_clause_width > 0.0
     && s.mean_clause_width <= float_of_int s.max_clause_width);
  Alcotest.check Alcotest.bool "chain positive" true
    (s.final_chain_length >= 1)

let test_agrees_with_checkers () =
  let f = Gen.Php.unsat ~holes:4 in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "unsat expected");
  let src = Trace.Reader.From_string trace in
  let s =
    match Checker.Proof_stats.analyze f src with
    | Ok s -> s
    | Error _ -> Alcotest.fail "analyze failed"
  in
  (match Checker.Bf.check f src with
   | Ok r ->
     Alcotest.check Alcotest.int "total matches BF" r.total_learned
       s.learned_total;
     Alcotest.check Alcotest.int "steps match BF" r.resolution_steps
       s.resolution_steps
   | Error _ -> Alcotest.fail "bf failed");
  match Checker.Hybrid.check f src with
  | Ok r ->
    (* hybrid builds exactly the needed learned clauses *)
    Alcotest.check Alcotest.int "needed matches hybrid" r.clauses_built
      s.learned_needed
  | Error _ -> Alcotest.fail "hybrid failed"

let test_no_learning_case () =
  (* a formula decided by propagation: zero learned clauses *)
  let f =
    Sat.Cnf.of_clauses 2
      [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1 ] ]
  in
  let s = stats_of f in
  Alcotest.check Alcotest.int "no learned clauses" 0 s.learned_total;
  Alcotest.check Alcotest.int "depth zero" 0 s.dag_depth;
  Alcotest.check Alcotest.bool "chain ran" true (s.final_chain_length >= 1)

let test_rejects_bad_trace () =
  let f = Gen.Php.unsat ~holes:4 in
  let _, events = Helpers.unsat_with_events () in
  let mutated =
    List.filter (function Trace.Event.Learned _ -> false | _ -> true) events
  in
  match Checker.Proof_stats.analyze f (Helpers.events_to_source mutated) with
  | Ok _ -> Alcotest.fail "bad trace analyzed"
  | Error _ -> ()

let suite =
  [
    ( "proof-stats",
      [
        Alcotest.test_case "php shape" `Quick test_php_shape;
        Alcotest.test_case "agrees with checkers" `Quick
          test_agrees_with_checkers;
        Alcotest.test_case "no learning" `Quick test_no_learning_case;
        Alcotest.test_case "rejects bad trace" `Quick test_rejects_bad_trace;
      ] );
  ]
