(* Proof-emitting preprocessing: the simplifier's derivation records join
   the solver's in one trace that checks against the ORIGINAL formula.

   Coverage:
   - hand-pinned emitted records for each proof-emitting pass (unit
     shortening, self-subsuming resolution, bounded variable elimination,
     failed-literal probing);
   - fuzzed equisatisfiability of the pre pipeline against the plain
     solver, with SAT models reconstructed and re-verified against the
     original formula and UNSAT traces re-checked;
   - the six-strategy agreement matrix on preprocessed runs over three
     structured families and both trace encodings, with unsat cores
     pinned to original DIMACS clause indices;
   - lint-clean acceptance for generated pre traces (plain and hinted);
   - L7xx linter codes on synthetic simplifier-shaped records;
   - inprocessing: traces from runs with a periodic level-0 database
     simplification still check (plain and hinted). *)

let module_name = "presolve"

let cnf nvars ints =
  let f = Sat.Cnf.create nvars in
  List.iter (fun c -> ignore (Sat.Cnf.add_clause f (Sat.Clause.of_ints c))) ints;
  f

let run_simplify ?config f =
  let buffered, sink = Trace.Sink.buffer () in
  let outcome, stats = Solver.Simplify.run ?config ~trace:sink f in
  (outcome, stats, Trace.Sink.buffered_events buffered)

let learned_events events =
  List.filter_map
    (function
      | Trace.Event.Learned { id; sources } -> Some (id, Array.to_list sources)
      | _ -> None)
    events

let check_learned name expected events =
  Alcotest.(check (list (pair int (list int))))
    name expected (learned_events events)

(* --- pinned records per pass -------------------------------------------- *)

(* Unit shortening: propagating the unit clause 1 shortens {-1,2,3} to
   {2,3}, recorded as a resolution of the clause against the unit. *)
let test_pin_unit_shorten () =
  let f = cnf 3 [ [ 1 ]; [ -1; 2; 3 ] ] in
  let outcome, stats, events = run_simplify f in
  (match List.hd events with
   | Trace.Event.Header { nvars; num_original } ->
     Alcotest.(check int) "header nvars" 3 nvars;
     Alcotest.(check int) "header norig" 2 num_original
   | _ -> Alcotest.fail "first event must be the header");
  check_learned "shortened clause" [ (3, [ 2; 1 ]) ] events;
  Alcotest.(check int) "one unit" 1 stats.units_propagated;
  match outcome with
  | Solver.Simplify.P_sat a ->
    Alcotest.(check bool) "model" true (Sat.Model.satisfies a f)
  | _ -> Alcotest.fail "everything simplifies away: P_sat"

(* Self-subsuming resolution: {-1,2} strengthens {1,2,3} to {2,3},
   recorded as resolving the clause (first) against the strengthener. *)
let test_pin_strengthen () =
  let f = cnf 3 [ [ 1; 2; 3 ]; [ -1; 2 ] ] in
  let config =
    { Solver.Simplify.default_config with enable_bve = false;
      enable_probe = false }
  in
  let _, stats, events = run_simplify ~config f in
  check_learned "strengthening resolvent" [ (3, [ 1; 2 ]) ] events;
  Alcotest.(check int) "one strengthening" 1 stats.strengthened

(* Bounded variable elimination: resolving {1,2} x {-1,3} away on
   variable 1 emits the resolvent {2,3} with the pair as sources.  The
   formula is built so no other pass fires first (no units, no pures, no
   subset pairs). *)
let test_pin_bve () =
  let f = cnf 4 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 4 ]; [ -3; -4 ]; [ 3; 4 ] ] in
  let config =
    { Solver.Simplify.default_config with enable_subsumption = false;
      enable_strengthen = false; enable_probe = false }
  in
  let outcome, stats, events = run_simplify ~config f in
  check_learned "elimination resolvent" [ (6, [ 1; 2 ]) ] events;
  Alcotest.(check bool) "some variable eliminated" true
    (stats.eliminated_vars >= 1);
  Alcotest.(check int) "one resolvent added" 1 stats.resolvents_added;
  match outcome with
  | Solver.Simplify.P_sat a ->
    Alcotest.(check bool) "model" true (Sat.Model.satisfies a f)
  | _ -> Alcotest.fail "expected P_sat"

(* Failed-literal probing: both phases of variable 1 fail under BCP, so
   probing alone refutes the formula — the emitted trace is a complete
   proof that must check against the original formula. *)
let test_pin_probe () =
  let f = cnf 3 [ [ -1; 2 ]; [ -1; -2 ]; [ 1; 3 ]; [ 1; -3 ] ] in
  let config =
    { Solver.Simplify.default_config with enable_subsumption = false;
      enable_strengthen = false; enable_bve = false }
  in
  let w = Trace.Writer.create ~version:1 Trace.Writer.Ascii in
  let outcome, stats =
    Solver.Simplify.run ~config ~trace:(Trace.Writer.as_sink w) f
  in
  (match outcome with
   | Solver.Simplify.P_unsat -> ()
   | _ -> Alcotest.fail "probing must refute this formula");
  Alcotest.(check bool) "probing fired" true (stats.failed_literals >= 1);
  let src = Trace.Reader.From_string (Trace.Writer.contents w) in
  match Checker.Df.check f src with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "probe-only proof rejected: %s"
      (Proof.Diagnostics.to_string d)

(* --- fuzzed equisatisfiability and model reconstruction ------------------ *)

(* up to 12 variables, messy or random 3-SAT *)
let small_instance rng =
  let nvars = 3 + Sat.Rng.int rng 10 in
  let nclauses = 1 + Sat.Rng.int rng (5 * nvars) in
  if Sat.Rng.bool rng then Helpers.random_messy_cnf rng ~nvars ~nclauses
  else Gen.Random3sat.generate rng ~nvars ~nclauses:(min nclauses (6 * nvars))

(* 40 to 79 variables of random 3-SAT at ratio 4.3, hard enough for a few
   hundred conflicts each *)
let threshold_instance rng =
  Gen.Random3sat.generate_at_ratio rng ~nvars:(40 + Sat.Rng.int rng 40)
    ~ratio:4.3

let fuzz_pre_roundtrip ?config ~instance ~rounds ~min_unsat () =
  let rng = Sat.Rng.create 20260808 in
  let unsat_seen = ref 0 in
  for round = 1 to rounds do
    let f = instance rng in
    let plain, _ = Solver.Cdcl.solve f in
    let result, _stats, trace =
      Pipeline.Validate.solve_with_trace ?config ~pre:true f
    in
    if not (Helpers.same_status plain result) then
      Alcotest.failf "round %d: plain %s vs pre %s" round
        (Helpers.status_to_string plain)
        (Helpers.status_to_string result);
    match result with
    | Solver.Cdcl.Sat a ->
      (* the reconstructed model must satisfy the ORIGINAL formula *)
      if not (Sat.Model.satisfies a f) then
        Alcotest.failf "round %d: reconstructed model does not satisfy" round
    | Solver.Cdcl.Unsat ->
      incr unsat_seen;
      (match Checker.Df.check f (Trace.Reader.From_string trace) with
       | Ok _ -> ()
       | Error d ->
         Alcotest.failf "round %d: pre trace rejected: %s" round
           (Proof.Diagnostics.to_string d))
  done;
  if !unsat_seen < min_unsat then
    Alcotest.failf "only %d unsat instances fuzzed" !unsat_seen

(* --- six-strategy agreement matrix over structured families -------------- *)

let families () =
  [
    ("php", Gen.Php.unsat ~holes:4);
    ("parity", Gen.Parity.odd_cycle 7);
    ( "rand",
      let rng = Sat.Rng.create 99 in
      Gen.Random3sat.generate rng ~nvars:12 ~nclauses:70 );
  ]

let strategies ~window =
  [
    ("df", Pipeline.Validate.Depth_first);
    ("bf", Pipeline.Validate.Breadth_first);
    ("hybrid", Pipeline.Validate.Hybrid);
    ("online", Pipeline.Validate.Online);
    ("hint", Pipeline.Validate.Hinted);
    ("window", Pipeline.Validate.Window window);
  ]

let test_pre_strategy_matrix () =
  List.iter
    (fun (fname, f) ->
      (* sanity: each family really is UNSAT without preprocessing *)
      (match Solver.Cdcl.solve f with
       | Solver.Cdcl.Unsat, _ -> ()
       | Solver.Cdcl.Sat _, _ -> Alcotest.failf "%s must be unsat" fname);
      List.iter
        (fun format ->
          let reference = ref None in
          List.iter
            (fun (sname, strategy) ->
              let o = Pipeline.Validate.run ~format ~strategy ~pre:true f in
              let label what =
                Printf.sprintf "%s/%s/%s %s" fname
                  (match format with
                   | Trace.Writer.Ascii -> "ascii"
                   | Trace.Writer.Binary -> "binary")
                  sname what
              in
              (match o.pre with
               | Some _ -> ()
               | None -> Alcotest.fail (label "missing pre stats"));
              match o.verdict with
              | Pipeline.Validate.Unsat_verified report ->
                (* cores name original DIMACS clause indices *)
                let norig = Sat.Cnf.nclauses f in
                List.iter
                  (fun id ->
                    if id < 1 || id > norig then
                      Alcotest.failf "%s: core id %d outside 1..%d"
                        (label "core") id norig)
                  report.Checker.Report.core_original_ids;
                (* every strategy replays the same solver artefact: the
                   learned-record count is bit-identical across the row *)
                (match !reference with
                 | None -> reference := Some report.Checker.Report.total_learned
                 | Some n ->
                   Alcotest.(check int)
                     (label "total learned")
                     n report.Checker.Report.total_learned)
              | Pipeline.Validate.Sat_verified _
              | Pipeline.Validate.Sat_model_wrong _ ->
                Alcotest.fail (label "expected UNSAT")
              | Pipeline.Validate.Unsat_check_failed d ->
                Alcotest.failf "%s: %s" (label "check failed")
                  (Proof.Diagnostics.to_string d))
            (strategies ~window:16))
        [ Trace.Writer.Ascii; Trace.Writer.Binary ])
    (families ())

(* --- cores under --pre shrink like plain cores --------------------------- *)

let test_pre_core_extract () =
  let f = Gen.Php.unsat ~holes:4 in
  match Pipeline.Unsat_core.extract ~pre:true f with
  | Error _ -> Alcotest.fail "php core extraction failed"
  | Ok core ->
    Alcotest.(check bool) "core nonempty" true (core.num_clauses > 0);
    List.iter
      (fun i ->
        if i < 0 || i >= Sat.Cnf.nclauses f then
          Alcotest.failf "core index %d outside the input formula" i)
      core.clause_indices

(* --- lint-clean acceptance ------------------------------------------------ *)

let lint_clean_of ~version ?config f name =
  let result, _stats, trace =
    Pipeline.Validate.solve_with_trace ?config ~version ~pre:true f
  in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.failf "%s: expected UNSAT" name);
  let report =
    Analysis.Lint.run ~formula:f (Trace.Reader.From_string trace)
  in
  if not (Analysis.Lint.clean report) then
    Alcotest.failf "%s: pre trace lints dirty (%d errors)" name
      report.Analysis.Lint.errors

let test_pre_traces_lint_clean () =
  List.iter
    (fun (fname, f) ->
      lint_clean_of ~version:1 f (fname ^ "/plain");
      let config =
        { Solver.Cdcl.default_config with emit_deletes = true }
      in
      lint_clean_of ~version:2 ~config f (fname ^ "/hinted"))
    (families ())

(* --- L7xx synthetic records ----------------------------------------------- *)

let lint_string f s =
  Analysis.Lint.run ~formula:f (Trace.Reader.From_string s)

let code_count report id =
  match List.assoc_opt id report.Analysis.Lint.by_code with
  | Some n -> n
  | None -> 0

let test_l701_no_clash () =
  let f = cnf 3 [ [ 1; 2 ]; [ 1; 3 ] ] in
  let report = lint_string f "t 3 2\nCL 3 1 2\nVAR 1 1 1\nCONF 3\n" in
  Alcotest.(check int) "L701 fires" 1 (code_count report "L701");
  Alcotest.(check bool) "is an error" false (Analysis.Lint.clean report)

let test_l702_multi_clash () =
  let f = cnf 2 [ [ 1; 2 ]; [ -1; -2 ] ] in
  let report = lint_string f "t 2 2\nCL 3 1 2\nCONF 3\n" in
  Alcotest.(check int) "L702 fires" 1 (code_count report "L702");
  Alcotest.(check bool) "is an error" false (Analysis.Lint.clean report)

let test_l703_redundant () =
  let f = cnf 2 [ [ 1; 2 ]; [ -1; 2 ]; [ 2 ] ] in
  let report = lint_string f "t 2 3\nCL 4 1 2\nVAR 2 1 4\nVAR 1 1 1\nCONF 4\n" in
  Alcotest.(check int) "L703 fires" 1 (code_count report "L703");
  (* a warning, not an error: the derivation is valid, just pointless *)
  Alcotest.(check int) "no errors from it" 0 (code_count report "L701")

(* a healthy simplifier-shaped chain trips none of the L7xx codes *)
let test_l7xx_silent_on_valid_chain () =
  let f = cnf 3 [ [ 1 ]; [ -1; 2; 3 ] ] in
  let report =
    lint_string f "t 3 2\nCL 3 2 1\nVAR 1 1 1\nVAR 2 1 3\nCONF 3\n"
  in
  Alcotest.(check int) "no L701" 0 (code_count report "L701");
  Alcotest.(check int) "no L702" 0 (code_count report "L702");
  Alcotest.(check int) "no L703" 0 (code_count report "L703")

(* --- inprocessing ---------------------------------------------------------- *)

let test_inprocess_traces_check () =
  let f = Gen.Php.unsat ~holes:5 in
  let config =
    { Solver.Cdcl.default_config with inprocess_interval = 40 }
  in
  let result, _stats, trace =
    Pipeline.Validate.solve_with_trace ~config f
  in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php must be unsat");
  let src = Trace.Reader.From_string trace in
  (match Checker.Df.check f src with
   | Ok _ -> ()
   | Error d ->
     Alcotest.failf "inprocessed trace rejected by DF: %s"
       (Proof.Diagnostics.to_string d));
  (* hinted variant: inprocess deletions become v2 hints *)
  let config = { config with emit_deletes = true } in
  let result, _stats, trace =
    Pipeline.Validate.solve_with_trace ~config ~version:2 f
  in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php must be unsat");
  (match Checker.Hint.check f (Trace.Reader.From_string trace) with
   | Ok _ -> ()
   | Error d ->
     Alcotest.failf "hinted inprocessed trace rejected: %s"
       (Proof.Diagnostics.to_string d));
  (* fuzzed instances derive level-0 units mid-search, so the pass
     actually shortens clauses rather than running as a no-op *)
  let rng = Sat.Rng.create 7331 in
  let config =
    { Solver.Cdcl.default_config with inprocess_interval = 5 }
  in
  let unsat_seen = ref 0 in
  let round = ref 0 in
  while !unsat_seen < 15 && !round < 400 do
    incr round;
    let nvars = 4 + Sat.Rng.int rng 8 in
    let nclauses = 1 + Sat.Rng.int rng (5 * nvars) in
    let f = Helpers.random_messy_cnf rng ~nvars ~nclauses in
    let result, _stats, trace =
      Pipeline.Validate.solve_with_trace ~config f
    in
    match result with
    | Solver.Cdcl.Sat a ->
      if not (Sat.Model.satisfies a f) then
        Alcotest.failf "inprocess round %d: bad model" !round
    | Solver.Cdcl.Unsat -> (
      incr unsat_seen;
      match Checker.Df.check f (Trace.Reader.From_string trace) with
      | Ok _ -> ()
      | Error d ->
        Alcotest.failf "inprocess round %d: trace rejected: %s" !round
          (Proof.Diagnostics.to_string d))
  done;
  if !unsat_seen < 15 then Alcotest.fail "too few unsat instances"

(* pre + inprocess together: the full production pipeline *)
let test_pre_and_inprocess () =
  let f = Gen.Php.unsat ~holes:5 in
  let config =
    { Solver.Cdcl.default_config with inprocess_interval = 40 }
  in
  let result, _stats, trace =
    Pipeline.Validate.solve_with_trace ~config ~pre:true f
  in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php must be unsat");
  match Checker.Bf.check f (Trace.Reader.From_string trace) with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "pre+inprocess trace rejected: %s"
      (Proof.Diagnostics.to_string d)

let suite =
  [
    ( module_name,
      [
        Alcotest.test_case "pin: unit shortening" `Quick test_pin_unit_shorten;
        Alcotest.test_case "pin: strengthening" `Quick test_pin_strengthen;
        Alcotest.test_case "pin: variable elimination" `Quick test_pin_bve;
        Alcotest.test_case "pin: failed-literal probing" `Quick test_pin_probe;
        Alcotest.test_case "fuzz: pre round-trip x120" `Quick
          (fuzz_pre_roundtrip ~instance:small_instance ~rounds:120
             ~min_unsat:10);
        (* most rounds compact the solver's clause arena around the
           placeholder ids of clauses the simplifier removed, sanitized *)
        Alcotest.test_case "fuzz: pre + inprocess under deletion x30" `Quick
          (fuzz_pre_roundtrip
             ~config:
               {
                 Solver.Cdcl.default_config with
                 inprocess_interval = 5;
                 max_learned_factor = 0.05;
                 max_learned_inc = 1.01;
                 sanitize = true;
               }
             ~instance:threshold_instance ~rounds:30 ~min_unsat:5);
        Alcotest.test_case "pre agreement matrix 3x2x6" `Quick
          test_pre_strategy_matrix;
        Alcotest.test_case "pre core indices original" `Quick
          test_pre_core_extract;
        Alcotest.test_case "pre traces lint clean" `Quick
          test_pre_traces_lint_clean;
        Alcotest.test_case "L701 chain without clash" `Quick test_l701_no_clash;
        Alcotest.test_case "L702 chain with two clashes" `Quick
          test_l702_multi_clash;
        Alcotest.test_case "L703 rederived original" `Quick test_l703_redundant;
        Alcotest.test_case "L7xx silent on valid chain" `Quick
          test_l7xx_silent_on_valid_chain;
        Alcotest.test_case "inprocess traces check" `Quick
          test_inprocess_traces_check;
        Alcotest.test_case "pre + inprocess trace checks" `Quick
          test_pre_and_inprocess;
      ] );
  ]
