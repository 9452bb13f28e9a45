(* The solver correctness battery: differential testing against the
   enumeration oracle across solver configurations, model verification on
   every SAT answer, and both checkers on every UNSAT answer — the full
   validation loop of the paper, exercised hundreds of times. *)

let cfg = Solver.Cdcl.default_config

let battery name config ~messy rounds =
  Alcotest.test_case name `Slow (fun () ->
      let n_unsat =
        Helpers.differential_battery ~config ~seed:(Hashtbl.hash name)
          ~rounds ~nvars_max:12 ~messy ()
      in
      (* the mix must actually exercise the UNSAT path *)
      if n_unsat = 0 then Alcotest.fail "battery saw no unsat instance")

let test_trivial_cases () =
  (* empty formula: satisfiable *)
  let f = Sat.Cnf.create 3 in
  (match Solver.Cdcl.solve f with
   | Solver.Cdcl.Sat a, _ ->
     Alcotest.check Alcotest.bool "model covers all vars" true
       (Sat.Model.satisfies a f)
   | Solver.Cdcl.Unsat, _ -> Alcotest.fail "empty formula is sat");
  (* empty clause: unsatisfiable with a checkable trace *)
  let g = Sat.Cnf.of_clauses 2 [ Sat.Clause.of_ints [ 1 ]; [||] ] in
  let result, _, trace = Pipeline.Validate.solve_with_trace g in
  (match result with
   | Solver.Cdcl.Unsat -> (
     match Checker.Df.check g (Trace.Reader.From_string trace) with
     | Ok _ -> ()
     | Error d -> Alcotest.failf "empty-clause trace rejected: %s"
         (Proof.Diagnostics.to_string d))
   | Solver.Cdcl.Sat _ -> Alcotest.fail "empty clause is unsat")

let test_contradicting_units () =
  let g =
    Sat.Cnf.of_clauses 2
      [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1 ] ]
  in
  let result, _, trace = Pipeline.Validate.solve_with_trace g in
  match result with
  | Solver.Cdcl.Unsat -> (
    match Checker.Bf.check g (Trace.Reader.From_string trace) with
    | Ok r ->
      Alcotest.check Alcotest.int "no learned clauses needed" 0
        r.Checker.Report.total_learned
    | Error d -> Alcotest.failf "unit-conflict trace rejected: %s"
        (Proof.Diagnostics.to_string d))
  | Solver.Cdcl.Sat _ -> Alcotest.fail "x and not-x is unsat"

let test_tautologies_and_duplicates () =
  (* degenerate input: tautological clause, duplicated clauses and
     literals; must still solve correctly and produce a checkable trace *)
  let g =
    Sat.Cnf.of_clauses 3
      [
        Sat.Clause.of_ints [ 1; -1; 2 ];
        Sat.Clause.of_ints [ 1; 1; 2 ];
        Sat.Clause.of_ints [ 1; 2 ];
        Sat.Clause.of_ints [ -1; -2; -2 ];
        Sat.Clause.of_ints [ 1; -2 ];
        Sat.Clause.of_ints [ -1; 2; 3 ];
        Sat.Clause.of_ints [ -3; -1 ];
      ]
  in
  let oracle = Solver.Enumerate.solve g in
  let result, _, trace = Pipeline.Validate.solve_with_trace g in
  Alcotest.check Alcotest.bool "status matches oracle" true
    (Helpers.same_status oracle result);
  match result with
  | Solver.Cdcl.Unsat -> (
    match Checker.Df.check g (Trace.Reader.From_string trace) with
    | Ok _ -> ()
    | Error d -> Alcotest.failf "degenerate trace rejected: %s"
        (Proof.Diagnostics.to_string d))
  | Solver.Cdcl.Sat a ->
    Alcotest.check Alcotest.bool "model" true (Sat.Model.satisfies a g)

let test_stats_sanity () =
  let f = Gen.Php.unsat ~holes:5 in
  let _, stats = Solver.Cdcl.solve f in
  Alcotest.check Alcotest.bool "conflicts positive" true (stats.conflicts > 0);
  Alcotest.check Alcotest.bool "decisions positive" true (stats.decisions > 0);
  Alcotest.check Alcotest.bool "learned bounded by conflicts" true
    (stats.learned_clauses <= stats.conflicts);
  Alcotest.check Alcotest.bool "max level sane" true
    (stats.max_decision_level <= Sat.Cnf.nvars f)

let test_determinism () =
  let f = Gen.Php.unsat ~holes:5 in
  let _, s1, t1 = Pipeline.Validate.solve_with_trace f in
  let _, s2, t2 = Pipeline.Validate.solve_with_trace f in
  Alcotest.check Alcotest.int "same conflicts" s1.conflicts s2.conflicts;
  Alcotest.check Alcotest.bool "identical traces" true (t1 = t2)

let test_seed_changes_search () =
  let f = Gen.Php.unsat ~holes:6 in
  let _, s1 = Solver.Cdcl.solve ~config:{ cfg with seed = 1 } f in
  let _, s2 = Solver.Cdcl.solve ~config:{ cfg with seed = 2 } f in
  (* different random decisions almost surely give different statistics *)
  Alcotest.check Alcotest.bool "searches differ" true
    (s1.conflicts <> s2.conflicts || s1.decisions <> s2.decisions)

let test_minimization_traces_verified () =
  let f = Gen.Php.unsat ~holes:6 in
  let on = { cfg with enable_minimization = true } in
  let _, stats_on, _ = Pipeline.Validate.solve_with_trace ~config:on f in
  let _, stats_off, _ = Pipeline.Validate.solve_with_trace f in
  (* shorter clauses on average *)
  let avg (s : Solver.Cdcl.stats) =
    float_of_int s.learned_literals /. float_of_int (max 1 s.learned_clauses)
  in
  Alcotest.check Alcotest.bool "average clause shrinks" true
    (avg stats_on <= avg stats_off);
  (* and the richer source lists still check with all three checkers *)
  let o = Pipeline.Validate.run ~config:on f in
  let o2 =
    Pipeline.Validate.run ~config:on
      ~strategy:Pipeline.Validate.Breadth_first f
  in
  let o3 =
    Pipeline.Validate.run ~config:on ~strategy:Pipeline.Validate.Hybrid f
  in
  List.iter
    (fun (v : Pipeline.Validate.outcome) ->
      match v.verdict with
      | Pipeline.Validate.Unsat_verified _ -> ()
      | Pipeline.Validate.Sat_verified _
      | Pipeline.Validate.Sat_model_wrong _
      | Pipeline.Validate.Unsat_check_failed _ ->
        Alcotest.fail "minimized trace did not verify")
    [ o; o2; o3 ]

let test_counting_equals_watched () =
  (* both BCP schemes must agree instance by instance *)
  let rng = Sat.Rng.create 4242 in
  for _ = 1 to 60 do
    let nvars = 4 + Sat.Rng.int rng 10 in
    let f =
      Helpers.random_messy_cnf rng ~nvars ~nclauses:(1 + Sat.Rng.int rng 40)
    in
    let r1, _ = Solver.Cdcl.solve ~config:{ cfg with bcp = Two_watched } f in
    let r2, _ = Solver.Cdcl.solve ~config:{ cfg with bcp = Counting } f in
    if not (Helpers.same_status r1 r2) then
      Alcotest.failf "BCP schemes disagree: %s vs %s"
        (Helpers.status_to_string r1) (Helpers.status_to_string r2)
  done

let suite =
  [
    ( "cdcl",
      [
        Alcotest.test_case "trivial cases" `Quick test_trivial_cases;
        Alcotest.test_case "contradicting units" `Quick
          test_contradicting_units;
        Alcotest.test_case "degenerate clauses" `Quick
          test_tautologies_and_duplicates;
        Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_search;
        Alcotest.test_case "minimization verified" `Quick
          test_minimization_traces_verified;
        Alcotest.test_case "counting = watched" `Slow
          test_counting_equals_watched;
        battery "differential: default config" cfg ~messy:false 150;
        battery "differential: messy formulas" cfg ~messy:true 150;
        battery "differential: counting BCP"
          { cfg with bcp = Counting } ~messy:true 80;
        battery "differential: no restarts"
          { cfg with enable_restarts = false } ~messy:false 80;
        battery "differential: no deletion"
          { cfg with enable_deletion = false } ~messy:false 80;
        battery "differential: aggressive deletion"
          { cfg with max_learned_factor = 0.05; max_learned_inc = 1.01 }
          ~messy:false 80;
        battery "differential: no random decisions"
          { cfg with random_decision_freq = 0.0 } ~messy:true 80;
        battery "differential: heavy random decisions"
          { cfg with random_decision_freq = 0.5 } ~messy:true 80;
        battery "differential: tiny restart interval"
          { cfg with restart_first = 2; restart_inc = 1.1 } ~messy:false 80;
        battery "differential: clause minimization"
          { cfg with enable_minimization = true } ~messy:true 120;
        battery "differential: luby restarts"
          { cfg with restart_sequence = Solver.Cdcl.Luby; restart_first = 4 }
          ~messy:true 80;
      ] );
  ]
