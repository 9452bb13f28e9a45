(* Aggregated test entry point: every module's suites under one runner so
   [dune runtest] exercises the whole stack. *)

let () =
  Alcotest.run "resolution_checker"
    (Test_vec.suite @ Test_rng.suite @ Test_lit_clause.suite
   @ Test_cnf_dimacs.suite @ Test_card.suite @ Test_assignment_model.suite @ Test_trace.suite
   @ Test_stream.suite
   @ Test_heap.suite @ Test_cdcl.suite @ Test_dll_dp.suite
   @ Test_assumptions.suite @ Test_selector_core.suite @ Test_resolution.suite @ Test_level0.suite @ Test_df.suite
   @ Test_bf.suite @ Test_hybrid.suite @ Test_par.suite
   @ Test_hint.suite @ Test_window.suite
   @ Test_cross_checker.suite
   @ Test_rup.suite @ Test_lint.suite @ Test_dag.suite
   @ Test_explain.suite
   @ Test_clause_db.suite
   @ Test_proof_stats.suite
   @ Test_interpolant.suite
   @ Test_pipeline.suite @ Test_bmc_engine.suite @ Test_mc_oracle.suite
   @ Test_circuit.suite
   @ Test_arith.suite @ Test_bdd.suite @ Test_gen.suite @ Test_simplify_muc.suite
   @ Test_presolve.suite
   @ Test_obs.suite
   @ Test_harness.suite @ Test_fuzz.suite)
