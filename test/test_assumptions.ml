(* Tests for assumption-based and incremental solving. *)

module C = Solver.Cdcl

let inc_of f = C.Incremental.create f

let with_units f lits =
  let g = Sat.Cnf.copy f in
  List.iter (fun l -> ignore (Sat.Cnf.add_clause g [| l |])) lits;
  g

let test_assumption_forces_unsat () =
  (* formula says ¬x1; assuming x1 must fail with exactly that
     assumption *)
  let f = Sat.Cnf.of_clauses 2 [ Sat.Clause.of_ints [ -1 ] ] in
  let s = inc_of f in
  match C.Incremental.solve ~assumptions:[ Sat.Lit.pos 1 ] s with
  | C.A_unsat_assumptions failed ->
    Alcotest.check (Alcotest.list Alcotest.int) "failed = [x1]"
      [ Sat.Lit.pos 1 ] failed
  | C.A_sat _ | C.A_unsat -> Alcotest.fail "expected failed assumptions"

let test_contradictory_assumptions () =
  let f = Sat.Cnf.of_clauses 2 [ Sat.Clause.of_ints [ 1; 2 ] ] in
  let s = inc_of f in
  match
    C.Incremental.solve
      ~assumptions:[ Sat.Lit.pos 1; Sat.Lit.neg 1 ] s
  with
  | C.A_unsat_assumptions failed ->
    List.iter
      (fun l ->
        if Sat.Lit.var l <> 1 then
          Alcotest.fail "failed set mentions an unrelated variable")
      failed
  | C.A_sat _ | C.A_unsat -> Alcotest.fail "expected failed assumptions"

let test_sat_under_assumptions () =
  let f =
    Sat.Cnf.of_clauses 3
      [ Sat.Clause.of_ints [ 1; 2 ]; Sat.Clause.of_ints [ -1; 3 ] ]
  in
  let s = inc_of f in
  match C.Incremental.solve ~assumptions:[ Sat.Lit.pos 1 ] s with
  | C.A_sat a ->
    Alcotest.check Alcotest.bool "assumption holds" true
      (Sat.Assignment.value a 1 = Sat.Assignment.True);
    Alcotest.check Alcotest.bool "model satisfies" true
      (Sat.Model.satisfies a f)
  | C.A_unsat_assumptions _ | C.A_unsat -> Alcotest.fail "expected sat"

let test_formula_unsat_dominates () =
  let f = Gen.Php.unsat ~holes:3 in
  let s = inc_of f in
  match C.Incremental.solve ~assumptions:[ Sat.Lit.pos 1 ] s with
  | C.A_unsat -> ()
  | C.A_unsat_assumptions _ ->
    (* also acceptable only if the assumptions really matter — they do
       not for an unsat formula, but the solver may find an assumption
       conflict first; re-solving without assumptions must say unsat *)
    (match C.Incremental.solve s with
     | C.A_unsat -> ()
     | C.A_sat _ | C.A_unsat_assumptions _ ->
       Alcotest.fail "php must be unsat without assumptions")
  | C.A_sat _ -> Alcotest.fail "php sat?!"

(* differential: assumptions behave exactly like temporary unit clauses *)
let test_assumptions_vs_units () =
  let rng = Sat.Rng.create 2024 in
  for _ = 1 to 60 do
    let nvars = 4 + Sat.Rng.int rng 8 in
    let f =
      Helpers.random_messy_cnf rng ~nvars ~nclauses:(1 + Sat.Rng.int rng 30)
    in
    let n_assum = 1 + Sat.Rng.int rng 3 in
    let assumptions =
      List.init n_assum (fun _ ->
          Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng))
    in
    let oracle = Solver.Enumerate.solve (with_units f assumptions) in
    let s = inc_of f in
    match C.Incremental.solve ~assumptions s, oracle with
    | C.A_sat a, Solver.Cdcl.Sat _ ->
      if not (Sat.Model.satisfies a (with_units f assumptions)) then
        Alcotest.fail "assumption model wrong"
    | (C.A_unsat_assumptions _ | C.A_unsat), Solver.Cdcl.Unsat -> ()
    | C.A_unsat, Solver.Cdcl.Sat _ ->
      Alcotest.fail "A_unsat but satisfiable under assumptions"
    | C.A_unsat_assumptions _, Solver.Cdcl.Sat _ ->
      Alcotest.fail "failed assumptions but satisfiable"
    | C.A_sat _, Solver.Cdcl.Unsat -> Alcotest.fail "sat but oracle unsat"
  done

(* the failed subset really is responsible: formula + failed is unsat *)
let test_failed_subset_is_core () =
  let rng = Sat.Rng.create 2025 in
  let tried = ref 0 in
  while !tried < 25 do
    let nvars = 5 + Sat.Rng.int rng 6 in
    let f = Helpers.random_3sat rng ~nvars ~nclauses:(4 * nvars) in
    let assumptions =
      List.init 3 (fun i ->
          Sat.Lit.make (1 + ((i * 7) mod nvars)) (Sat.Rng.bool rng))
      |> List.sort_uniq Int.compare
    in
    let s = inc_of f in
    match C.Incremental.solve ~assumptions s with
    | C.A_unsat_assumptions failed ->
      incr tried;
      (* failed ⊆ assumptions *)
      List.iter
        (fun l ->
          if not (List.mem l assumptions) then
            Alcotest.fail "failed literal not among assumptions")
        failed;
      (* and the formula plus failed alone is unsat *)
      (match Solver.Enumerate.solve (with_units f failed) with
       | Solver.Cdcl.Unsat -> ()
       | Solver.Cdcl.Sat _ -> Alcotest.fail "failed subset not conflicting")
    | C.A_sat _ | C.A_unsat -> ()
  done

let test_incremental_accumulates () =
  (* strengthen a formula clause by clause; statuses must match fresh
     solves of the growing formula *)
  let nvars = 8 in
  let rng = Sat.Rng.create 7_777 in
  let session = C.Incremental.create (Sat.Cnf.create nvars) in
  let so_far = Sat.Cnf.create nvars in
  let mismatches = ref 0 in
  for _ = 1 to 40 do
    let len = 1 + Sat.Rng.int rng 3 in
    let c =
      Sat.Clause.of_lits
        (List.init len (fun _ ->
             Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng)))
    in
    C.Incremental.add_clause session c;
    ignore (Sat.Cnf.add_clause so_far c);
    let fresh = Solver.Enumerate.solve so_far in
    match C.Incremental.solve session, fresh with
    | C.A_sat a, Solver.Cdcl.Sat _ ->
      if not (Sat.Model.satisfies a so_far) then incr mismatches
    | C.A_unsat, Solver.Cdcl.Unsat -> ()
    | C.A_unsat_assumptions _, _ -> incr mismatches
    | C.A_sat _, Solver.Cdcl.Unsat | C.A_unsat, Solver.Cdcl.Sat _ ->
      incr mismatches
  done;
  Alcotest.check Alcotest.int "no mismatches" 0 !mismatches

(* One session, sanitized, under aggressive deletion: its clause arena is
   compacted between and during queries while clauses keep arriving.  The
   formula is PHP(4, 4); half the queries assume a hole empty, which
   leaves PHP(4, 3) to refute, so the session runs about a hundred
   conflicts.  Every answer must match the oracle on the formula so far
   under the query's assumptions, and every failed subset must be a real
   core. *)
let test_incremental_under_deletion () =
  let holes = 4 in
  let rng = Sat.Rng.create 1 in
  let config =
    {
      C.default_config with
      max_learned_factor = 0.05;
      max_learned_inc = 1.01;
      sanitize = true;
    }
  in
  let f = Gen.Php.generate ~pigeons:holes ~holes in
  let nvars = Sat.Cnf.nvars f in
  let session = C.Incremental.create ~config f in
  let so_far = Sat.Cnf.copy f in
  let random_lit () =
    Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng)
  in
  for round = 1 to 40 do
    if round mod 4 = 0 then begin
      let c = Sat.Clause.of_lits (List.init 3 (fun _ -> random_lit ())) in
      C.Incremental.add_clause session c;
      ignore (Sat.Cnf.add_clause so_far c)
    end;
    let assumptions =
      if Sat.Rng.bool rng then
        let j = 1 + Sat.Rng.int rng holes in
        List.init holes (fun i -> Sat.Lit.neg ((i * holes) + j))
      else List.init (1 + Sat.Rng.int rng 3) (fun _ -> random_lit ())
    in
    let oracle = Solver.Enumerate.solve (with_units so_far assumptions) in
    match C.Incremental.solve ~assumptions session, oracle with
    | C.A_sat a, Solver.Cdcl.Sat _ ->
      if not (Sat.Model.satisfies a (with_units so_far assumptions)) then
        Alcotest.failf "round %d: model wrong" round
    | C.A_unsat_assumptions failed, Solver.Cdcl.Unsat -> (
      if not (List.for_all (fun l -> List.mem l assumptions) failed) then
        Alcotest.failf "round %d: failed literal not assumed" round;
      match Solver.Enumerate.solve (with_units so_far failed) with
      | Solver.Cdcl.Unsat -> ()
      | Solver.Cdcl.Sat _ ->
        Alcotest.failf "round %d: failed subset not conflicting" round)
    | C.A_unsat, Solver.Cdcl.Unsat -> (
      match Solver.Enumerate.solve so_far with
      | Solver.Cdcl.Unsat -> ()
      | Solver.Cdcl.Sat _ ->
        Alcotest.failf "round %d: A_unsat on a satisfiable formula" round)
    | (C.A_unsat_assumptions _ | C.A_unsat), Solver.Cdcl.Sat _ ->
      Alcotest.failf "round %d: unsat, oracle sat" round
    | C.A_sat _, Solver.Cdcl.Unsat ->
      Alcotest.failf "round %d: sat, oracle unsat" round
  done

let test_incremental_reuse_learning () =
  (* repeated queries on the same unsat formula reuse the session *)
  let f = Gen.Php.unsat ~holes:4 in
  let s = inc_of f in
  (match C.Incremental.solve s with
   | C.A_unsat -> ()
   | C.A_sat _ | C.A_unsat_assumptions _ -> Alcotest.fail "unsat expected");
  let after_first = (C.Incremental.stats s).conflicts in
  (match C.Incremental.solve s with
   | C.A_unsat -> ()
   | C.A_sat _ | C.A_unsat_assumptions _ -> Alcotest.fail "still unsat");
  (* the dead session answers immediately: no new conflicts *)
  Alcotest.check Alcotest.int "no extra work on dead session" after_first
    (C.Incremental.stats s).conflicts

let test_incremental_var_bounds () =
  let s = inc_of (Sat.Cnf.create 3) in
  Alcotest.check_raises "add out-of-range"
    (Invalid_argument "Incremental.add_clause: variable out of range")
    (fun () -> C.Incremental.add_clause s (Sat.Clause.of_ints [ 4 ]));
  Alcotest.check_raises "assume out-of-range"
    (Invalid_argument "Incremental.solve: assumption variable out of range")
    (fun () ->
      ignore (C.Incremental.solve ~assumptions:[ Sat.Lit.pos 9 ] s))

let suite =
  [
    ( "assumptions",
      [
        Alcotest.test_case "forced unsat" `Quick test_assumption_forces_unsat;
        Alcotest.test_case "contradictory pair" `Quick
          test_contradictory_assumptions;
        Alcotest.test_case "sat under assumptions" `Quick
          test_sat_under_assumptions;
        Alcotest.test_case "formula unsat dominates" `Quick
          test_formula_unsat_dominates;
        Alcotest.test_case "assumptions = units" `Slow
          test_assumptions_vs_units;
        Alcotest.test_case "failed subset is a core" `Slow
          test_failed_subset_is_core;
      ] );
    ( "incremental",
      [
        Alcotest.test_case "accumulating clauses" `Slow
          test_incremental_accumulates;
        Alcotest.test_case "sanitized session under deletion" `Quick
          test_incremental_under_deletion;
        Alcotest.test_case "session reuse" `Quick
          test_incremental_reuse_learning;
        Alcotest.test_case "variable bounds" `Quick
          test_incremental_var_bounds;
      ] );
  ]
