(* Tests for the truth-table oracle every solver test is checked against. *)

let test_enumerate_count_models () =
  (* x1 or x2 over exactly those two vars: 3 models *)
  let f = Sat.Cnf.of_clauses 2 [ Sat.Clause.of_ints [ 1; 2 ] ] in
  Alcotest.check Alcotest.int "count" 3 (Solver.Enumerate.count_models f)

let test_enumerate_limit () =
  let f = Sat.Cnf.create 30 in
  let c = Sat.Clause.of_lits (List.init 30 (fun i -> Sat.Lit.pos (i + 1))) in
  ignore (Sat.Cnf.add_clause f c);
  try
    ignore (Solver.Enumerate.solve f);
    Alcotest.fail "oracle accepted 30 variables"
  with Invalid_argument _ -> ()

let suite =
  [
    ( "enumerate",
      [
        Alcotest.test_case "count models" `Quick test_enumerate_count_models;
        Alcotest.test_case "variable limit" `Quick test_enumerate_limit;
      ] );
  ]
