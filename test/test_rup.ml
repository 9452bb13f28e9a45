(* Tests for the RUP checker and the trace→DRUP conversion. *)

let test_is_rup_basics () =
  let f =
    Sat.Cnf.of_clauses 3
      [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1; 2 ] ]
  in
  Alcotest.check Alcotest.bool "consequence is RUP" true
    (Checker.Rup.is_rup f (Sat.Clause.of_ints [ 2 ]));
  Alcotest.check Alcotest.bool "superset of consequence is RUP" true
    (Checker.Rup.is_rup f (Sat.Clause.of_ints [ 2; 3 ]));
  Alcotest.check Alcotest.bool "non-consequence is not RUP" false
    (Checker.Rup.is_rup f (Sat.Clause.of_ints [ -2 ]));
  Alcotest.check Alcotest.bool "unconstrained literal is not RUP" false
    (Checker.Rup.is_rup f (Sat.Clause.of_ints [ 3 ]))

let test_tautology_rup () =
  let f = Sat.Cnf.of_clauses 3 [ Sat.Clause.of_ints [ 1 ] ] in
  Alcotest.check Alcotest.bool "tautologies are RUP" true
    (Checker.Rup.is_rup f (Sat.Clause.of_ints [ 3; -3 ]))

let test_check_hand_derivation () =
  (* F = (1 2)(1 ¬2)(¬1 2)(¬1 ¬2); derive (1), then [] *)
  let f =
    Sat.Cnf.of_clauses 2
      [
        Sat.Clause.of_ints [ 1; 2 ];
        Sat.Clause.of_ints [ 1; -2 ];
        Sat.Clause.of_ints [ -1; 2 ];
        Sat.Clause.of_ints [ -1; -2 ];
      ]
  in
  match Checker.Rup.check f [ Sat.Clause.of_ints [ 1 ]; [||] ] with
  | Ok stats ->
    Alcotest.check Alcotest.int "both steps checked" 2 stats.clauses_checked
  | Error e -> Alcotest.failf "rejected: %s" (Format.asprintf "%a" Checker.Rup.pp_failure e)

let test_check_rejects_non_rup () =
  let f =
    Sat.Cnf.of_clauses 3
      [ Sat.Clause.of_ints [ 1; 2 ]; Sat.Clause.of_ints [ -1; 2 ] ]
  in
  match Checker.Rup.check f [ Sat.Clause.of_ints [ 3 ]; [||] ] with
  | Error (Checker.Rup.Not_rup { index = 0; _ }) -> ()
  | Error e ->
    Alcotest.failf "wrong failure: %s"
      (Format.asprintf "%a" Checker.Rup.pp_failure e)
  | Ok _ -> Alcotest.fail "non-RUP step accepted"

let test_check_requires_empty () =
  let f =
    Sat.Cnf.of_clauses 2
      [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1; 2 ] ]
  in
  match Checker.Rup.check f [ Sat.Clause.of_ints [ 2 ] ] with
  | Error Checker.Rup.No_empty_clause -> ()
  | Error _ -> Alcotest.fail "wrong failure"
  | Ok _ -> Alcotest.fail "incomplete derivation accepted"

let drup_of fam_f =
  let result, _, trace = Pipeline.Validate.solve_with_trace fam_f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "unsat expected");
  match Pipeline.Drup.of_trace fam_f (Trace.Reader.From_string trace) with
  | Ok d -> d
  | Error d -> Alcotest.failf "conversion failed: %s" (Proof.Diagnostics.to_string d)

let test_exported_derivations_check () =
  List.iter
    (fun (fam : Gen.Families.family) ->
      let f = fam.generate () in
      let derivation = drup_of f in
      match Checker.Rup.check f derivation with
      | Ok stats ->
        Alcotest.check Alcotest.bool (fam.name ^ ": steps checked") true
          (stats.clauses_checked >= 1)
      | Error e ->
        Alcotest.failf "%s: DRUP rejected: %s" fam.name
          (Format.asprintf "%a" Checker.Rup.pp_failure e))
    (Gen.Families.quick ())

let test_exported_php () =
  let f = Gen.Php.unsat ~holes:5 in
  let derivation = drup_of f in
  (* last element is the empty clause *)
  (match List.rev derivation with
   | last :: _ -> Alcotest.check Alcotest.int "ends empty" 0 (Sat.Clause.size last)
   | [] -> Alcotest.fail "empty derivation");
  match Checker.Rup.check f derivation with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "php DRUP rejected: %s"
      (Format.asprintf "%a" Checker.Rup.pp_failure e)

let test_minimized_trace_converts () =
  (* clause minimization appends extra resolve sources; the conversion
     and RUP check must still go through *)
  let f = Gen.Php.unsat ~holes:5 in
  let config =
    { Solver.Cdcl.default_config with enable_minimization = true }
  in
  let result, _, trace = Pipeline.Validate.solve_with_trace ~config f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php unsat");
  match Pipeline.Drup.of_trace f (Trace.Reader.From_string trace) with
  | Error d -> Alcotest.failf "conversion: %s" (Proof.Diagnostics.to_string d)
  | Ok derivation -> (
    match Checker.Rup.check f derivation with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "minimized DRUP rejected: %s"
        (Format.asprintf "%a" Checker.Rup.pp_failure e))

let test_corrupted_derivation_rejected () =
  let f = Gen.Php.unsat ~holes:4 in
  let derivation = drup_of f in
  (* replace the first derived clause with an unjustified one *)
  let mutated =
    match derivation with
    | _ :: rest -> Sat.Clause.of_ints [ 1 ] :: rest
    | [] -> []
  in
  match Checker.Rup.check f mutated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted DRUP accepted"

let test_drup_text_roundtrip () =
  let f = Gen.Php.unsat ~holes:4 in
  let derivation = drup_of f in
  let text = Pipeline.Drup.to_string derivation in
  let back = Pipeline.Drup.parse text in
  Alcotest.check Alcotest.int "clause count survives" (List.length derivation)
    (List.length back);
  List.iter2
    (fun a b ->
      if Sat.Clause.to_ints a <> Sat.Clause.to_ints b then
        Alcotest.fail "clause changed in roundtrip")
    derivation back;
  (* the parsed derivation still checks *)
  match Checker.Rup.check f back with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "roundtripped DRUP rejected"

let suite =
  [
    ( "rup",
      [
        Alcotest.test_case "is_rup basics" `Quick test_is_rup_basics;
        Alcotest.test_case "tautology" `Quick test_tautology_rup;
        Alcotest.test_case "hand derivation" `Quick test_check_hand_derivation;
        Alcotest.test_case "rejects non-rup" `Quick test_check_rejects_non_rup;
        Alcotest.test_case "requires empty clause" `Quick
          test_check_requires_empty;
        Alcotest.test_case "exported families check" `Slow
          test_exported_derivations_check;
        Alcotest.test_case "exported php checks" `Quick test_exported_php;
        Alcotest.test_case "minimized trace converts" `Quick
          test_minimized_trace_converts;
        Alcotest.test_case "corrupted rejected" `Quick
          test_corrupted_derivation_rejected;
        Alcotest.test_case "text roundtrip" `Quick test_drup_text_roundtrip;
      ] );
  ]
