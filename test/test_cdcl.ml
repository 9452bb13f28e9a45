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

let test_zero_variables () =
  (* at seed 48 the first decision is a random one, with no variable to
     draw *)
  match Solver.Cdcl.solve ~config:{ cfg with seed = 48 } (Sat.Cnf.create 0) with
  | Solver.Cdcl.Sat _, _ -> ()
  | Solver.Cdcl.Unsat, _ -> Alcotest.fail "the empty formula is sat"

(* The search, pinned where the default-config cram pins do not reach:
   native deletion batches, inprocessing, aggressive deletion, Luby
   restarts with minimization.  Each line is the trace's digest and the
   solver's counters; a change meant to leave the search alone must leave
   every line as it is. *)
let search_pins =
  [
    ("php_6 deletes", "877af37837899ea631ddac1a34d8c51f",
     "c947 d1130 p11564 l11972 x765 r4");
    ("php_6 inprocess", "82985c9c53a6af92f452b9b990e9932a",
     "c1672 d4795 p28791 l21899 x1772 r5");
    ("php_6 aggressive", "ef62a4195ee0bb139ae43d70bb32a728",
     "c1365 d1751 p18577 l16766 x1332 r5");
    ("php_6 luby+min", "0e07c82410b0e4fdc7fa62f0e7802763",
     "c1063 d1399 p13547 l12248 x869 r6");
    ("barrel_ring deletes", "3468c64df527e240e33d52437d6f6ae5",
     "c736 d1024 p57799 l12238 x399 r3");
    ("barrel_ring inprocess", "48cc9d92aa2cac89bfc75b81de2bdf43",
     "c1584 d6119 p159345 l47387 x1526 r5");
    ("barrel_ring aggressive", "f1de9556b133eb144198ee8360743bee",
     "c1606 d2029 p133158 l23392 x1521 r5");
    ("barrel_ring luby+min", "7d83335b798a0b68c72e7dcde416d9b5",
     "c994 d1304 p79362 l16538 x758 r6");
  ]

let test_search_pins () =
  let barrel =
    match Gen.Families.find "barrel_ring" with
    | Some fam -> fam.generate ()
    | None -> Alcotest.fail "barrel_ring family missing"
  in
  let formulas =
    [ ("php_6", Gen.Php.unsat ~holes:6); ("barrel_ring", barrel) ]
  in
  (* inprocessing with hints on, so its delete batches are pinned too *)
  let configs =
    [
      ("deletes", { cfg with emit_deletes = true });
      ("inprocess", { cfg with inprocess_interval = 5; emit_deletes = true });
      ( "aggressive",
        { cfg with max_learned_factor = 0.05; max_learned_inc = 1.01 } );
      ( "luby+min",
        {
          cfg with
          restart_sequence = Solver.Cdcl.Luby;
          enable_minimization = true;
        } );
    ]
  in
  let got =
    List.concat_map
      (fun (fname, f) ->
        List.map
          (fun (cname, (config : Solver.Cdcl.config)) ->
            let version = if config.emit_deletes then 2 else 1 in
            let _, (st : Solver.Cdcl.stats), trace =
              Pipeline.Validate.solve_with_trace ~config ~version f
            in
            ( fname ^ " " ^ cname,
              Digest.to_hex (Digest.string trace),
              Printf.sprintf "c%d d%d p%d l%d x%d r%d" st.conflicts
                st.decisions st.propagations st.learned_literals
                st.deleted_clauses st.restarts ))
          configs)
      formulas
  in
  Alcotest.check
    Alcotest.(list (triple string string string))
    "trace digests and counters" search_pins got

(* Deleted clauses give their words back.  php_8 learns 568,626 literals
   and deletes most of its clauses, so an arena that kept every clause
   would end well past half of that; the arena_words gauge must also have
   held the original clauses, two header words each. *)
let test_arena_reclaims () =
  let f = Gen.Php.unsat ~holes:8 in
  let originals = ref 0 in
  Sat.Cnf.iter_clauses (fun _ c -> originals := !originals + 2 + Array.length c) f;
  Obs.Metrics.reset Obs.Metrics.global;
  Obs.Ctl.enable ();
  let finish () =
    Obs.Ctl.disable ();
    Obs.Metrics.reset Obs.Metrics.global;
    Obs.Span.reset ();
    Obs.Sampler.reset ()
  in
  Fun.protect ~finally:finish (fun () ->
      let _, (st : Solver.Cdcl.stats) = Solver.Cdcl.solve f in
      let peak =
        Obs.Metrics.Gauge.max_value
          (Obs.Metrics.gauge Obs.Metrics.global "solver.arena_words")
      in
      if peak < float_of_int !originals then
        Alcotest.failf "arena_words peaked at %.0f, below the %d original words"
          peak !originals;
      if peak >= float_of_int st.learned_literals /. 2.0 then
        Alcotest.failf "arena_words peaked at %.0f of %d learned literals" peak
          st.learned_literals)

let suite =
  [
    ( "cdcl",
      [
        Alcotest.test_case "search pins" `Quick test_search_pins;
        Alcotest.test_case "arena reclaims deleted clauses" `Quick
          test_arena_reclaims;
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
        Alcotest.test_case "zero variables" `Quick test_zero_variables;
        battery "differential: default config" cfg ~messy:false 150;
        battery "differential: messy formulas" cfg ~messy:true 150;
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
