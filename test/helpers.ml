(* Shared helpers for the test suite: formula generators, oracle
   comparisons, and trace-mutation utilities for the negative checker
   tests. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- random formula generation (deterministic) ------------------------- *)

(* A random CNF with mixed clause lengths 1..4, sometimes duplicated
   literals and clauses — deliberately messier than the benchmark
   generators to exercise degenerate paths. *)
let random_messy_cnf rng ~nvars ~nclauses =
  let f = Sat.Cnf.create nvars in
  for _ = 1 to nclauses do
    let len = 1 + Sat.Rng.int rng 4 in
    let lits =
      List.init len (fun _ ->
          Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng))
    in
    ignore (Sat.Cnf.add_clause f (Array.of_list lits))
  done;
  f

let random_3sat rng ~nvars ~nclauses =
  Gen.Random3sat.generate rng ~nvars ~nclauses

(* --- oracle comparison -------------------------------------------------- *)

let status_to_string = function
  | Solver.Cdcl.Sat _ -> "SAT"
  | Solver.Cdcl.Unsat -> "UNSAT"

let same_status a b =
  match a, b with
  | Solver.Cdcl.Sat _, Solver.Cdcl.Sat _ -> true
  | Solver.Cdcl.Unsat, Solver.Cdcl.Unsat -> true
  | (Solver.Cdcl.Sat _ | Solver.Cdcl.Unsat), _ -> false

(* Solve with trace, assert agreement with the enumeration oracle, verify
   models, and check UNSAT traces with both checkers.  Returns the number
   of unsat instances seen. *)
let differential_battery ?(config = Solver.Cdcl.default_config) ~seed ~rounds
    ~nvars_max ~messy () =
  let rng = Sat.Rng.create seed in
  let n_unsat = ref 0 in
  for round = 1 to rounds do
    let nvars = 3 + Sat.Rng.int rng nvars_max in
    let nclauses = 1 + Sat.Rng.int rng (5 * nvars) in
    let f =
      if messy then random_messy_cnf rng ~nvars ~nclauses
      else random_3sat rng ~nvars ~nclauses:(min nclauses (6 * nvars))
    in
    let oracle = Solver.Enumerate.solve f in
    let result, _stats, trace = Pipeline.Validate.solve_with_trace ~config f in
    if not (same_status oracle result) then
      Alcotest.failf "round %d: oracle says %s, solver says %s" round
        (status_to_string oracle) (status_to_string result);
    (match result with
     | Solver.Cdcl.Sat a ->
       if not (Sat.Model.satisfies a f) then
         Alcotest.failf "round %d: model does not satisfy the formula" round
     | Solver.Cdcl.Unsat ->
       incr n_unsat;
       let src = Trace.Reader.From_string trace in
       (match Checker.Df.check f src with
        | Ok _ -> ()
        | Error d ->
          Alcotest.failf "round %d: DF check failed: %s" round
            (Proof.Diagnostics.to_string d));
       (match Checker.Bf.check f src with
        | Ok _ -> ()
        | Error d ->
          Alcotest.failf "round %d: BF check failed: %s" round
            (Proof.Diagnostics.to_string d));
       (match Checker.Hybrid.check f src with
        | Ok _ -> ()
        | Error d ->
          Alcotest.failf "round %d: hybrid check failed: %s" round
            (Proof.Diagnostics.to_string d)))
  done;
  !n_unsat

(* --- trace mutation ----------------------------------------------------- *)

(* Produce an UNSAT formula together with its trace events, for the
   negative tests that corrupt traces. *)
let unsat_with_events () =
  let f = Gen.Php.unsat ~holes:4 in
  let result, _stats, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php must be unsat");
  (f, Trace.Reader.to_list (Trace.Reader.From_string trace))

let events_to_source events =
  let w = Trace.Writer.create Trace.Writer.Ascii in
  List.iter (Trace.Writer.emit w) events;
  Trace.Reader.From_string (Trace.Writer.contents w)

let expect_df_failure f events pred name =
  match Checker.Df.check f (events_to_source events) with
  | Ok _ -> Alcotest.failf "%s: corrupted trace was accepted by DF" name
  | Error d ->
    if not (pred d) then
      Alcotest.failf "%s: unexpected diagnostic: %s" name
        (Proof.Diagnostics.to_string d)

let expect_bf_failure f events pred name =
  match Checker.Bf.check f (events_to_source events) with
  | Ok _ -> Alcotest.failf "%s: corrupted trace was accepted by BF" name
  | Error d ->
    if not (pred d) then
      Alcotest.failf "%s: unexpected diagnostic: %s" name
        (Proof.Diagnostics.to_string d)

(* --- qcheck plumbing ---------------------------------------------------- *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)
