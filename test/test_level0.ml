(* Tests for the level-0 record set and the antecedent check. *)

let make records =
  let l0 = Proof.Level0.create () in
  List.iter
    (fun (var, value, ante) -> Proof.Level0.add l0 ~var ~value ~ante)
    records;
  l0

let test_accessors () =
  let l0 = make [ (3, true, 10); (5, false, 11) ] in
  Alcotest.check Alcotest.int "count" 2 (Proof.Level0.count l0);
  Alcotest.check Alcotest.bool "mem" true (Proof.Level0.mem l0 3);
  Alcotest.check Alcotest.bool "value" true (Proof.Level0.value l0 3);
  Alcotest.check Alcotest.int "ante" 11 (Proof.Level0.ante l0 5);
  Alcotest.check Alcotest.bool "order chronological" true
    (Proof.Level0.order l0 3 < Proof.Level0.order l0 5)

let test_duplicate () =
  try
    ignore (make [ (3, true, 10); (3, false, 11) ]);
    Alcotest.fail "duplicate accepted"
  with Proof.Diagnostics.Check_failed (Proof.Diagnostics.Level0_duplicate_var 3) ->
    ()

let test_unrecorded () =
  let l0 = make [ (3, true, 10) ] in
  try
    ignore (Proof.Level0.value l0 9);
    Alcotest.fail "unrecorded accepted"
  with
  | Proof.Diagnostics.Check_failed
      (Proof.Diagnostics.Level0_var_unrecorded 9) -> ()

let test_lit_false () =
  let l0 = make [ (3, true, 10); (5, false, 11) ] in
  Alcotest.check Alcotest.bool "-3 false under x3=true" true
    (Proof.Level0.lit_false l0 (Sat.Lit.neg 3));
  Alcotest.check Alcotest.bool "3 not false" false
    (Proof.Level0.lit_false l0 (Sat.Lit.pos 3));
  Alcotest.check Alcotest.bool "5 false under x5=false" true
    (Proof.Level0.lit_false l0 (Sat.Lit.pos 5));
  Alcotest.check Alcotest.bool "unrecorded not false" false
    (Proof.Level0.lit_false l0 (Sat.Lit.pos 8))

let check_ante l0 v c = Proof.Level0.check_antecedent l0 ~var:v c

let test_antecedent_ok () =
  (* x3 := true implied by (x3 + ¬x2) after x2 := true *)
  let l0 = make [ (2, true, 1); (3, true, 2) ] in
  Alcotest.check (Alcotest.option Alcotest.string) "valid antecedent" None
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -2 ]))

let some_failure = Alcotest.testable (fun fmt _ -> Format.fprintf fmt "<reason>") (fun a b -> (a = None) = (b = None))

let test_antecedent_missing_implied () =
  let l0 = make [ (2, true, 1); (3, true, 2) ] in
  Alcotest.check some_failure "clause lacks the implied literal"
    (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ -3; -2 ]))

let test_antecedent_not_falsified () =
  (* other literal ¬x2 would be true, so the clause was satisfied, not
     unit *)
  let l0 = make [ (2, false, 1); (3, true, 2) ] in
  Alcotest.check some_failure "other literal not falsified" (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -2 ]))

let test_antecedent_wrong_order () =
  (* x2 assigned after x3: the clause could not have been unit yet *)
  let l0 = make [ (3, true, 2); (2, true, 1) ] in
  Alcotest.check some_failure "assigned after" (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -2 ]))

let test_antecedent_unrecorded_var () =
  let l0 = make [ (3, true, 2) ] in
  Alcotest.check some_failure "unrecorded companion" (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -7 ]))

let suite =
  [
    ( "level0",
      [
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "duplicate var" `Quick test_duplicate;
        Alcotest.test_case "unrecorded var" `Quick test_unrecorded;
        Alcotest.test_case "lit_false" `Quick test_lit_false;
        Alcotest.test_case "antecedent ok" `Quick test_antecedent_ok;
        Alcotest.test_case "antecedent missing implied" `Quick
          test_antecedent_missing_implied;
        Alcotest.test_case "antecedent not falsified" `Quick
          test_antecedent_not_falsified;
        Alcotest.test_case "antecedent wrong order" `Quick
          test_antecedent_wrong_order;
        Alcotest.test_case "antecedent unrecorded var" `Quick
          test_antecedent_unrecorded_var;
      ] );
  ]
