(* Tests for bounded and interpolation-based unbounded model checking. *)

module B = Pipeline.Bmc_engine
module T = Circuit.Transition

let test_bmc_safe_ring () =
  match B.bmc ~max_depth:6 (T.token_ring ~nodes:5) with
  | B.Safe_up_to 6 -> ()
  | B.Safe_up_to d -> Alcotest.failf "wrong bound %d" d
  | B.Cex d -> Alcotest.failf "false counterexample at %d" d
  | B.Check_failed x -> Alcotest.failf "check: %s" (Proof.Diagnostics.to_string x)

let test_bmc_buggy_ring () =
  match B.bmc ~max_depth:6 (T.token_ring_buggy ~nodes:5) with
  | B.Cex 1 -> ()  (* one glitched step duplicates the token *)
  | B.Cex d -> Alcotest.failf "expected depth 1, got %d" d
  | B.Safe_up_to _ -> Alcotest.fail "missed the bug"
  | B.Check_failed x -> Alcotest.failf "check: %s" (Proof.Diagnostics.to_string x)

let test_bmc_counter_minimal_depth () =
  (* target 5 needs exactly 5 increments *)
  match
    B.bmc ~max_depth:8 (T.saturating_counter ~width:4 ~limit:9 ~target:5)
  with
  | B.Cex 5 -> ()
  | B.Cex d -> Alcotest.failf "expected minimal depth 5, got %d" d
  | B.Safe_up_to _ -> Alcotest.fail "missed reachable target"
  | B.Check_failed x -> Alcotest.failf "check: %s" (Proof.Diagnostics.to_string x)

let test_bmc_counter_unreachable () =
  (* saturation at 5 keeps the counter below target 9 forever *)
  match
    B.bmc ~max_depth:10 (T.saturating_counter ~width:4 ~limit:5 ~target:9)
  with
  | B.Safe_up_to 10 -> ()
  | B.Safe_up_to d -> Alcotest.failf "wrong bound %d" d
  | B.Cex d -> Alcotest.failf "false counterexample at %d" d
  | B.Check_failed x -> Alcotest.failf "check: %s" (Proof.Diagnostics.to_string x)

let test_bmc_bad_init () =
  (* target 0 is the initial counter value: violated at depth 0 *)
  match
    B.bmc ~max_depth:3 (T.saturating_counter ~width:3 ~limit:4 ~target:0)
  with
  | B.Cex 0 -> ()
  | B.Cex d -> Alcotest.failf "expected depth 0, got %d" d
  | B.Safe_up_to _ -> Alcotest.fail "missed initial violation"
  | B.Check_failed x -> Alcotest.failf "check: %s" (Proof.Diagnostics.to_string x)

let expect_safe name r =
  match r with
  | B.Proved_safe { iterations; reachable_nodes } ->
    Alcotest.check Alcotest.bool (name ^ ": sane iteration count") true
      (iterations >= 1);
    Alcotest.check Alcotest.bool (name ^ ": nontrivial invariant") true
      (reachable_nodes >= 1)
  | B.Counterexample { depth } ->
    Alcotest.failf "%s: false counterexample at %d" name depth
  | B.Inconclusive _ -> Alcotest.failf "%s: inconclusive" name
  | B.Mc_check_failed d ->
    Alcotest.failf "%s: %s" name (Proof.Diagnostics.to_string d)

let expect_cex name ~max_depth r =
  match r with
  | B.Counterexample { depth } ->
    Alcotest.check Alcotest.bool (name ^ ": bounded depth") true
      (depth <= max_depth)
  | B.Proved_safe _ -> Alcotest.failf "%s: proved an unsafe system safe" name
  | B.Inconclusive _ -> Alcotest.failf "%s: inconclusive" name
  | B.Mc_check_failed d ->
    Alcotest.failf "%s: %s" name (Proof.Diagnostics.to_string d)

let test_mc_ring_unbounded () =
  expect_safe "ring" (B.interpolation_mc (T.token_ring ~nodes:5))

let test_mc_ring_buggy () =
  expect_cex "buggy ring" ~max_depth:3
    (B.interpolation_mc (T.token_ring_buggy ~nodes:4))

let test_mc_counter_safe_unbounded () =
  (* BMC can never close this property (the counter runs forever);
     interpolation proves it for every depth *)
  expect_safe "counter"
    (B.interpolation_mc (T.saturating_counter ~width:4 ~limit:5 ~target:9))

let test_mc_counter_unsafe () =
  expect_cex "counter" ~max_depth:6
    (B.interpolation_mc (T.saturating_counter ~width:4 ~limit:9 ~target:5))

let test_mc_mutex () =
  expect_safe "mutex" (B.interpolation_mc (T.mutex ()))

let test_mc_bad_init () =
  match
    B.interpolation_mc (T.saturating_counter ~width:3 ~limit:4 ~target:0)
  with
  | B.Counterexample { depth = 0 } -> ()
  | B.Counterexample { depth } -> Alcotest.failf "expected 0, got %d" depth
  | B.Proved_safe _ | B.Inconclusive _ | B.Mc_check_failed _ ->
    Alcotest.fail "missed initial violation"

let test_mc_agrees_with_bmc () =
  (* on unsafe systems both must find a violation; the MC depth bound is
     never smaller than BMC's minimal depth *)
  List.iter
    (fun (name, ts, max_depth) ->
      match B.bmc ~max_depth ts, B.interpolation_mc ts with
      | B.Cex b, B.Counterexample { depth = m } ->
        Alcotest.check Alcotest.bool (name ^ ": mc bound >= bmc depth") true
          (m >= b)
      | _, _ -> Alcotest.failf "%s: methods disagree" name)
    [
      ("buggy ring", T.token_ring_buggy ~nodes:4, 4);
      ("counter t3", T.saturating_counter ~width:3 ~limit:6 ~target:3, 6);
    ]

let suite =
  [
    ( "bmc",
      [
        Alcotest.test_case "safe ring" `Quick test_bmc_safe_ring;
        Alcotest.test_case "buggy ring" `Quick test_bmc_buggy_ring;
        Alcotest.test_case "minimal cex depth" `Quick
          test_bmc_counter_minimal_depth;
        Alcotest.test_case "unreachable target" `Quick
          test_bmc_counter_unreachable;
        Alcotest.test_case "violated initially" `Quick test_bmc_bad_init;
      ] );
    ( "interpolation-mc",
      [
        Alcotest.test_case "ring proved safe" `Quick test_mc_ring_unbounded;
        Alcotest.test_case "buggy ring cex" `Quick test_mc_ring_buggy;
        Alcotest.test_case "counter proved safe" `Quick
          test_mc_counter_safe_unbounded;
        Alcotest.test_case "counter cex" `Quick test_mc_counter_unsafe;
        Alcotest.test_case "mutex proved safe" `Quick test_mc_mutex;
        Alcotest.test_case "violated initially" `Quick test_mc_bad_init;
        Alcotest.test_case "agrees with bmc" `Slow test_mc_agrees_with_bmc;
      ] );
  ]
