(* Interpolation over a BMC unrolling — the application that made
   proof-producing SAT engines a model-checking workhorse (McMillan 2003,
   contemporaneous with the paper).

   We unroll the token-ring circuit k steps with the one-hot safety
   property asserted broken at step k.  The instance is UNSAT (the
   property holds), and splitting the clauses into

     A = initial state + the first half of the unrolling
     B = the second half + the property violation

   yields, from the *checked* resolution proof, an interpolant I over the
   mid-point state variables: an over-approximation of the states
   reachable in k/2 steps that still cannot violate the property in the
   remaining steps.  Here the ring is small enough to print I's truth
   table over the mid-point state and see it is exactly the one-hot
   predicate.

   Run with: dune exec examples/interpolation_bmc.exe *)

let nodes = 4
let steps = 4

let () =
  let f = Gen.Bmc.token_ring ~nodes ~steps in
  Printf.printf "token ring: %d nodes, %d steps -> %d vars, %d clauses\n"
    nodes steps (Sat.Cnf.nvars f) (Sat.Cnf.nclauses f);
  (* clause order follows circuit unrolling order, so an index prefix is a
     time prefix; split at half the clauses *)
  let cut = Sat.Cnf.nclauses f / 2 in
  let a_indices = List.init cut (fun i -> i) in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  match result with
  | Solver.Cdcl.Sat _ -> print_endline "property violated?!"
  | Solver.Cdcl.Unsat -> (
    match
      Pipeline.Interpolant.compute f ~a_indices
        (Trace.Reader.From_string trace)
    with
    | Error d ->
      Printf.printf "proof did not check: %s\n"
        (Proof.Diagnostics.to_string d)
    | Ok itp ->
      Printf.printf
        "UNSAT proof checked; interpolant: %d circuit nodes over %d shared \
         variables\n"
        (Pipeline.Interpolant.size itp)
        (List.length itp.shared_vars);
      let shared = itp.shared_vars in
      Printf.printf "shared variables: %s\n"
        (String.concat ", " (List.map string_of_int shared));
      (* enumerate the interpolant over its shared variables *)
      let k = List.length shared in
      if k <= 12 then begin
        print_endline "satisfying shared-variable patterns of I (up to 16):";
        let count = ref 0 in
        for mask = 0 to (1 lsl k) - 1 do
          let valuation =
            List.mapi (fun i v -> (v, (mask lsr i) land 1 = 1)) shared
          in
          if Pipeline.Interpolant.eval itp valuation then begin
            incr count;
            if !count <= 16 then begin
              let bits =
                String.concat ""
                  (List.map (fun (_, b) -> if b then "1" else "0") valuation)
              in
              Printf.printf "  %s\n" bits
            end
          end
        done;
        Printf.printf
          "%d of %d patterns satisfy I: the proof distilled an \
           over-approximation of the reachable midpoint states\n"
          !count (1 lsl k)
      end)
