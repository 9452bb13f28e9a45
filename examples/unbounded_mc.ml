(* Unbounded safety checking with interpolants — BMC (the paper's
   benchmark family) can only ever certify "safe up to depth k"; the
   interpolants extracted from each *checked* UNSAT proof close the
   induction and prove safety for every depth.

   The saturating counter makes the contrast crisp: it runs forever, so
   no finite BMC bound finishes the job, yet three data points fall out
   of the proofs: the counterexample depth when the target is reachable,
   the BMC bound sweep when it is not, and the interpolation fixpoint
   that settles the question outright.

   Run with: dune exec examples/unbounded_mc.exe *)

module B = Pipeline.Bmc_engine
module T = Circuit.Transition

let describe name ts ~max_depth =
  Printf.printf "--- %s\n" name;
  (match B.bmc ~max_depth ts with
   | B.Cex d -> Printf.printf "BMC: property violated at depth %d\n" d
   | B.Safe_up_to d ->
     Printf.printf "BMC: safe up to depth %d - but says nothing beyond\n" d
   | B.Check_failed x ->
     Printf.printf "BMC: proof rejected! %s\n" (Proof.Diagnostics.to_string x));
  (match B.interpolation_mc ts with
   | B.Proved_safe { iterations; reachable_nodes } ->
     Printf.printf
       "Interpolation MC: PROVED SAFE for every depth (%d refinement \
        rounds; inductive invariant = %d BDD nodes)\n"
       iterations reachable_nodes
   | B.Counterexample { depth } ->
     Printf.printf "Interpolation MC: violated within %d steps\n" depth
   | B.Inconclusive { iterations } ->
     Printf.printf "Interpolation MC: gave up after %d rounds\n" iterations
   | B.Mc_check_failed d ->
     Printf.printf "Interpolation MC: proof rejected! %s\n"
       (Proof.Diagnostics.to_string d));
  print_newline ()

let () =
  describe "token ring, 6 stations (safe)" (T.token_ring ~nodes:6)
    ~max_depth:8;
  describe "token ring with a duplication glitch (unsafe)"
    (T.token_ring_buggy ~nodes:6) ~max_depth:8;
  describe "saturating counter, limit 5, target 9 (safe, runs forever)"
    (T.saturating_counter ~width:4 ~limit:5 ~target:9)
    ~max_depth:10;
  describe "saturating counter, limit 9, target 5 (unsafe)"
    (T.saturating_counter ~width:4 ~limit:9 ~target:5)
    ~max_depth:10;
  describe "two-process mutex (safe)" (T.mutex ()) ~max_depth:8
