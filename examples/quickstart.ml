(* Quickstart: the full validated-solving loop in a few lines.

   Build a formula through the API, solve it with trace generation, then
   validate the answer independently — a verified model for SAT, a
   replayed resolution proof for UNSAT.

   Run with: dune exec examples/quickstart.exe *)

let solve_and_validate name f =
  Printf.printf "--- %s: %d variables, %d clauses\n" name (Sat.Cnf.nvars f)
    (Sat.Cnf.nclauses f);
  let outcome = Pipeline.Validate.run f in
  match outcome.verdict with
  | Pipeline.Validate.Sat_verified a ->
    let lits =
      Sat.Assignment.to_list a
      |> List.map (fun (v, b) -> string_of_int (if b then v else -v))
    in
    Printf.printf "SATISFIABLE, verified model: %s\n"
      (String.concat " " lits)
  | Pipeline.Validate.Unsat_verified report ->
    Printf.printf
      "UNSATISFIABLE, proof verified: %d resolution steps, %d/%d learned \
       clauses rebuilt, core of %d original clauses\n"
      report.resolution_steps report.clauses_built report.total_learned
      (List.length report.core_original_ids)
  | Pipeline.Validate.Sat_model_wrong i ->
    Printf.printf "SOLVER BUG: clause %d not satisfied!\n" i
  | Pipeline.Validate.Unsat_check_failed d ->
    Printf.printf "SOLVER BUG: %s\n" (Proof.Diagnostics.to_string d)

let () =
  (* a satisfiable toy: (x1 + x2)(¬x1 + x3)(¬x3 + ¬x2) *)
  let sat_formula =
    Sat.Cnf.of_clauses 3
      [
        Sat.Clause.of_ints [ 1; 2 ];
        Sat.Clause.of_ints [ -1; 3 ];
        Sat.Clause.of_ints [ -3; -2 ];
      ]
  in
  solve_and_validate "toy formula" sat_formula;

  (* an unsatisfiable classic: 5 pigeons, 4 holes *)
  solve_and_validate "pigeonhole PHP(5,4)" (Gen.Php.unsat ~holes:4);

  (* the same loop from a DIMACS document *)
  let from_dimacs =
    Sat.Dimacs.parse_string "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
  in
  solve_and_validate "DIMACS input" from_dimacs
