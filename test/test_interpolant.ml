(* Tests for Craig interpolation from checked proofs: the three defining
   properties are verified semantically against the brute-force oracle on
   randomized instances, plus hand-checkable cases. *)

module I = Pipeline.Interpolant

(* evaluate a CNF under a bit-mask assignment over vars 1..n *)
let cnf_sat_under f n mask =
  let a = Sat.Assignment.create n in
  for v = 1 to n do
    Sat.Assignment.set a v ((mask lsr (v - 1)) land 1 = 1)
  done;
  Sat.Model.satisfies a f

let valuation_of_mask n mask =
  List.init n (fun i -> (i + 1, (mask lsr i) land 1 = 1))

(* the three interpolant properties, checked by enumeration over all
   assignments of the combined variable space (n <= 16) *)
let verify_properties a b itp n =
  (* vars(I) ⊆ vars(A) ∩ vars(B): every circuit input is a shared var *)
  List.iter
    (fun name ->
      let v = int_of_string (String.sub name 1 (String.length name - 1)) in
      if not (List.mem v itp.I.shared_vars) then
        Alcotest.failf "interpolant mentions non-shared variable %d" v)
    (Circuit.Netlist.input_names itp.I.circuit);
  for mask = 0 to (1 lsl n) - 1 do
    let value = I.eval itp (valuation_of_mask n mask) in
    (* A ⊨ I *)
    if cnf_sat_under a n mask && not value then
      Alcotest.failf "A-model falsifies the interpolant (mask %d)" mask;
    (* I ∧ B unsat *)
    if cnf_sat_under b n mask && value then
      Alcotest.failf "B-model satisfies the interpolant (mask %d)" mask
  done

let test_hand_case () =
  (* A = (x1)(¬x1 ∨ x2), B = (¬x2): shared {x2}, I ≡ x2 *)
  let a =
    Sat.Cnf.of_clauses 2
      [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1; 2 ] ]
  in
  let b = Sat.Cnf.of_clauses 2 [ Sat.Clause.of_ints [ -2 ] ] in
  match I.of_formulas a b with
  | Error _ -> Alcotest.fail "interpolation failed"
  | Ok itp ->
    Alcotest.check (Alcotest.list Alcotest.int) "shared vars" [ 2 ]
      itp.I.shared_vars;
    Alcotest.check Alcotest.bool "I(x2=1)" true (I.eval itp [ (2, true) ]);
    Alcotest.check Alcotest.bool "I(x2=0)" false (I.eval itp [ (2, false) ]);
    verify_properties a b itp 2

let test_php_partition () =
  (* A = at-least-one-hole clauses, B = conflict clauses *)
  let pigeons = 4 and holes = 3 in
  let f = Gen.Php.generate ~pigeons ~holes in
  let n = Sat.Cnf.nvars f in
  let a_count = pigeons in
  let a_indices = List.init a_count (fun i -> i) in
  let a = Sat.Cnf.restrict_to f a_indices in
  let b =
    Sat.Cnf.restrict_to f
      (List.init (Sat.Cnf.nclauses f - a_count) (fun i -> i + a_count))
  in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php unsat");
  match I.compute f ~a_indices (Trace.Reader.From_string trace) with
  | Error d -> Alcotest.failf "compute: %s" (Proof.Diagnostics.to_string d)
  | Ok itp ->
    Alcotest.check Alcotest.bool "nontrivial circuit" true (I.size itp > 0);
    verify_properties a b itp n

let test_empty_partition_sides () =
  (* A empty: the interpolant must be the constant true *)
  let f =
    Sat.Cnf.of_clauses 1 [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1 ] ]
  in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "unsat expected");
  (match I.compute f ~a_indices:[] (Trace.Reader.From_string trace) with
   | Error _ -> Alcotest.fail "compute failed"
   | Ok itp ->
     Alcotest.check Alcotest.bool "constant true" true (I.eval itp []));
  (* B empty: the interpolant must be the constant false *)
  match I.compute f ~a_indices:[ 0; 1 ] (Trace.Reader.From_string trace) with
  | Error _ -> Alcotest.fail "compute failed"
  | Ok itp ->
    Alcotest.check Alcotest.bool "constant false" false (I.eval itp [])

let test_sat_pair_reports_model () =
  let a = Sat.Cnf.of_clauses 2 [ Sat.Clause.of_ints [ 1 ] ] in
  let b = Sat.Cnf.of_clauses 2 [ Sat.Clause.of_ints [ 2 ] ] in
  match I.of_formulas a b with
  | Error (`Sat m) ->
    Alcotest.check Alcotest.bool "model satisfies A" true
      (Sat.Model.satisfies m a)
  | Error (`Check_failed _) -> Alcotest.fail "check failed"
  | Ok _ -> Alcotest.fail "sat pair interpolated"

(* randomized: split random unsat 3-SAT formulas at a random point *)
let prop_random_interpolants =
  Helpers.qtest ~count:40 "interpolant properties on random splits"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sat.Rng.create (seed + 7919) in
      let nvars = 8 in
      let f =
        Gen.Random3sat.generate rng ~nvars ~nclauses:(45 + Sat.Rng.int rng 20)
      in
      match Solver.Enumerate.solve f with
      | Solver.Cdcl.Sat _ -> QCheck.assume_fail ()
      | Solver.Cdcl.Unsat -> (
        let cut = 1 + Sat.Rng.int rng (Sat.Cnf.nclauses f - 1) in
        let a_indices = List.init cut (fun i -> i) in
        let a = Sat.Cnf.restrict_to f a_indices in
        let b =
          Sat.Cnf.restrict_to f
            (List.init (Sat.Cnf.nclauses f - cut) (fun i -> i + cut))
        in
        let result, _, trace = Pipeline.Validate.solve_with_trace f in
        match result with
        | Solver.Cdcl.Sat _ -> false
        | Solver.Cdcl.Unsat -> (
          match I.compute f ~a_indices (Trace.Reader.From_string trace) with
          | Error _ -> false
          | Ok itp ->
            (try
               verify_properties a b itp nvars;
               true
             with Alcotest.Test_error -> false))))

let suite =
  [
    ( "interpolant",
      [
        Alcotest.test_case "hand case" `Quick test_hand_case;
        Alcotest.test_case "php partition" `Quick test_php_partition;
        Alcotest.test_case "degenerate partitions" `Quick
          test_empty_partition_sides;
        Alcotest.test_case "sat pair" `Quick test_sat_pair_reports_model;
        prop_random_interpolants;
      ] );
  ]
