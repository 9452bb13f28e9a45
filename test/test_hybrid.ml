(* Tests for the hybrid checker (§5 future work): correctness on genuine
   traces, the best-of-both resource profile, and strictness equal to the
   breadth-first pass. *)

module D = Proof.Diagnostics

let check_all f trace =
  let src = Trace.Reader.From_string trace in
  match
    ( Checker.Df.check f src,
      Checker.Bf.check f src,
      Checker.Hybrid.check f src )
  with
  | Ok df, Ok bf, Ok hy -> (df, bf, hy)
  | Error d, _, _ -> Alcotest.failf "df: %s" (D.to_string d)
  | _, Error d, _ -> Alcotest.failf "bf: %s" (D.to_string d)
  | _, _, Error d -> Alcotest.failf "hybrid: %s" (D.to_string d)

let test_families_accepted () =
  List.iter
    (fun (fam : Gen.Families.family) ->
      let f = fam.generate () in
      let result, _, trace = Pipeline.Validate.solve_with_trace f in
      match result with
      | Solver.Cdcl.Sat _ -> Alcotest.failf "%s unexpectedly sat" fam.name
      | Solver.Cdcl.Unsat ->
        let df, bf, hy = check_all f trace in
        Alcotest.check Alcotest.int
          (fam.name ^ ": same learned total")
          df.total_learned hy.total_learned;
        (* hybrid builds at least DF's needed set but never more than BF's
           everything *)
        Alcotest.check Alcotest.bool
          (fam.name ^ ": df <= hybrid <= bf built")
          true
          (df.clauses_built <= hy.clauses_built
           && hy.clauses_built <= bf.clauses_built))
    (Gen.Families.quick ())

let test_resource_profile () =
  let f = Gen.Php.unsat ~holes:6 in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php unsat");
  let df, bf, hy = check_all f trace in
  let df_peak = df.peak_mem_words and hy_peak = hy.peak_mem_words in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "hybrid peak (%d) well below df peak (%d)" hy_peak
       df_peak)
    true
    (hy_peak * 2 < df_peak);
  Alcotest.check Alcotest.bool "builds like df, not like bf" true
    (hy.clauses_built < bf.clauses_built
     && hy.clauses_built >= df.clauses_built)

let test_fits_df_busting_budget () =
  let f = Gen.Php.unsat ~holes:6 in
  let _, _, trace = Pipeline.Validate.solve_with_trace f in
  let src = Trace.Reader.From_string trace in
  let budget =
    match Checker.Df.check f src with
    | Ok r -> r.peak_mem_words / 2
    | Error d -> Alcotest.failf "df: %s" (D.to_string d)
  in
  match Checker.Hybrid.check ~mem_limit:budget f src with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "hybrid under budget: %s" (D.to_string d)

let test_core_agrees_with_df_superset () =
  (* the hybrid core contains DF's core: both are valid unsat cores *)
  let f = Gen.Php.unsat ~holes:4 in
  let _, _, trace = Pipeline.Validate.solve_with_trace f in
  let df, _, hy = check_all f trace in
  List.iter
    (fun id ->
      if not (List.mem id hy.core_original_ids) then
        Alcotest.failf "df core id %d missing from hybrid core" id)
    df.core_original_ids;
  (* and the hybrid core must itself be unsat *)
  let g =
    Sat.Cnf.restrict_to f (List.map (fun id -> id - 1) hy.core_original_ids)
  in
  match Solver.Enumerate.solve g with
  | Solver.Cdcl.Unsat -> ()
  | Solver.Cdcl.Sat _ -> Alcotest.fail "hybrid core satisfiable"

let test_mutations_rejected () =
  let f, events = Helpers.unsat_with_events () in
  let check events' =
    let w = Trace.Writer.create Trace.Writer.Ascii in
    List.iter (Trace.Writer.emit w) events';
    Checker.Hybrid.check f (Trace.Reader.From_string (Trace.Writer.contents w))
  in
  (* forward reference: swap the first two CL records *)
  let rec swap_first_two acc = function
    | Trace.Event.Learned a :: Trace.Event.Learned b :: rest ->
      List.rev_append acc
        (Trace.Event.Learned b :: Trace.Event.Learned a :: rest)
    | e :: rest -> swap_first_two (e :: acc) rest
    | [] -> List.rev acc
  in
  (* only a forward reference if b depends on a; php learned clauses
     usually chain, so check for any rejection *)
  (match check (swap_first_two [] events) with
   | Ok _ -> () (* independent clauses: swap can be harmless *)
   | Error _ -> ());
  (* flipped values must always be rejected *)
  let flipped =
    List.map
      (function
        | Trace.Event.Level0 v -> Trace.Event.Level0 { v with value = not v.value }
        | e -> e)
      events
  in
  (match check flipped with
   | Ok _ -> Alcotest.fail "hybrid accepted flipped values"
   | Error _ -> ());
  (* dropped CL records must be rejected *)
  let dropped =
    List.filter (function Trace.Event.Learned _ -> false | _ -> true) events
  in
  match check dropped with
  | Ok _ -> Alcotest.fail "hybrid accepted dropped CL records"
  | Error _ -> ()

let test_validate_strategy () =
  let f = Gen.Php.unsat ~holes:4 in
  let o = Pipeline.Validate.run ~strategy:Pipeline.Validate.Hybrid f in
  match o.verdict with
  | Pipeline.Validate.Unsat_verified _ -> ()
  | Pipeline.Validate.Sat_verified _ | Pipeline.Validate.Sat_model_wrong _
  | Pipeline.Validate.Unsat_check_failed _ ->
    Alcotest.fail "hybrid validate failed"

let suite =
  [
    ( "hybrid",
      [
        Alcotest.test_case "families accepted" `Slow test_families_accepted;
        Alcotest.test_case "resource profile" `Quick test_resource_profile;
        Alcotest.test_case "fits DF-busting budget" `Quick
          test_fits_df_busting_budget;
        Alcotest.test_case "core superset + unsat" `Quick
          test_core_agrees_with_df_superset;
        Alcotest.test_case "mutations rejected" `Quick test_mutations_rejected;
        Alcotest.test_case "validate strategy" `Quick test_validate_strategy;
      ] );
  ]
