(* Cross-checker property test: on fuzzed UNSAT instances all the
   checkers ride the same kernel, so they must all accept every valid
   trace and their statistics must line up — BF builds exactly the total
   learned set, the hybrid's built set sandwiches between DF's and BF's,
   DF's unsat core is contained in the hybrid's, resolution-step counts
   grow monotonically with the built sets, and the parallel wavefront
   checker, the hinted one-pass checker (on the plain trace and on its
   hinted rewrite) and the window scheduler at every window size are all
   bit-identical to BF — a seven-way agreement matrix. *)

let module_name = "cross-checker"

let subset a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace tbl x ()) b;
  List.for_all (Hashtbl.mem tbl) a

let check_instance ~round f trace =
  let src = Trace.Reader.From_string trace in
  let get name check =
    match check f src with
    | Ok r -> r
    | Error d ->
      Alcotest.failf "round %d: %s rejected a valid trace: %s" round name
        (Proof.Diagnostics.to_string d)
  in
  let df = get "DF" (fun f src -> Checker.Df.check f src) in
  let bf = get "BF" (fun f src -> Checker.Bf.check f src) in
  let hy = get "Hybrid" (fun f src -> Checker.Hybrid.check f src) in
  let ck name = Printf.sprintf "round %d: %s" round name in
  (* the trace is one fixed artefact: every checker sees the same count *)
  Alcotest.check Alcotest.int (ck "df/bf learned") df.Checker.Report.total_learned
    bf.Checker.Report.total_learned;
  Alcotest.check Alcotest.int (ck "df/hy learned") df.Checker.Report.total_learned
    hy.Checker.Report.total_learned;
  (* breadth-first always builds 100% of the learned clauses *)
  Alcotest.check Alcotest.int (ck "bf builds all") bf.total_learned
    bf.clauses_built;
  Alcotest.check Alcotest.int (ck "bf built ids exhaustive") bf.total_learned
    (List.length bf.learned_built_ids);
  (* the hybrid's needed set sandwiches between DF's exact set and BF's
     everything *)
  if not (df.clauses_built <= hy.clauses_built) then
    Alcotest.failf "round %d: df built %d > hybrid built %d" round
      df.clauses_built hy.clauses_built;
  if not (hy.clauses_built <= bf.clauses_built) then
    Alcotest.failf "round %d: hybrid built %d > bf built %d" round
      hy.clauses_built bf.clauses_built;
  if not (subset df.learned_built_ids hy.learned_built_ids) then
    Alcotest.failf "round %d: df built a clause the hybrid did not" round;
  (* resolution work grows with the built set *)
  if not
       (df.resolution_steps <= hy.resolution_steps
       && hy.resolution_steps <= bf.resolution_steps)
  then
    Alcotest.failf "round %d: steps not monotonic (df %d, hy %d, bf %d)"
      round df.resolution_steps hy.resolution_steps bf.resolution_steps;
  (* cores: DF's exact core inside the hybrid's; BF does not track one *)
  if df.core_original_ids = [] then
    Alcotest.failf "round %d: df core is empty" round;
  if not (subset df.core_original_ids hy.core_original_ids) then
    Alcotest.failf "round %d: df core not within hybrid core" round;
  Alcotest.check (Alcotest.list Alcotest.int) (ck "bf has no core") []
    bf.core_original_ids;
  (* the parallel checker replays BF's schedule as wavefronts: identical
     verdict, counters, built set and (empty) core at every job count *)
  List.iter
    (fun jobs ->
      let pr = get (Printf.sprintf "Par j%d" jobs)
          (fun f src -> Checker.Par.check ~jobs f src)
      in
      let pk name = ck (Printf.sprintf "par j%d %s" jobs name) in
      Alcotest.check Alcotest.int (pk "learned") bf.total_learned
        pr.Checker.Report.total_learned;
      Alcotest.check Alcotest.int (pk "built") bf.clauses_built
        pr.Checker.Report.clauses_built;
      Alcotest.check Alcotest.int (pk "steps") bf.resolution_steps
        pr.Checker.Report.resolution_steps;
      Alcotest.check (Alcotest.list Alcotest.int) (pk "built ids")
        bf.learned_built_ids pr.Checker.Report.learned_built_ids;
      Alcotest.check (Alcotest.list Alcotest.int) (pk "core") []
        pr.Checker.Report.core_original_ids;
      Alcotest.check Alcotest.int (pk "jobs echoed") jobs
        pr.Checker.Report.jobs;
      if pr.Checker.Report.total_learned > 0 && pr.Checker.Report.wavefronts < 1
      then Alcotest.failf "%s: no wavefronts reported" (pk "wavefronts"))
    [ 1; 2; 4 ];
  (* the hinted one-pass checker accepts a plain (version-1) trace too —
     it simply never frees — and must land exactly on BF's report *)
  let bf_identical name r =
    let rk field = ck (Printf.sprintf "%s %s" name field) in
    Alcotest.check Alcotest.int (rk "learned") bf.total_learned
      r.Checker.Report.total_learned;
    Alcotest.check Alcotest.int (rk "built") bf.clauses_built
      r.Checker.Report.clauses_built;
    Alcotest.check Alcotest.int (rk "steps") bf.resolution_steps
      r.Checker.Report.resolution_steps;
    Alcotest.check (Alcotest.list Alcotest.int) (rk "built ids")
      bf.learned_built_ids r.Checker.Report.learned_built_ids;
    Alcotest.check (Alcotest.list Alcotest.int) (rk "core") []
      r.Checker.Report.core_original_ids
  in
  bf_identical "hint" (get "Hint" (fun f src -> Checker.Hint.check f src));
  (* ...and the hinted rewrite of the same trace reaches the same report *)
  let hinted =
    let w = Trace.Writer.create ~version:2 Trace.Writer.Ascii in
    match Analysis.Dag.hint src w with
    | Ok _ -> Trace.Reader.From_string (Trace.Writer.contents w)
    | Error e ->
      Alcotest.failf "round %d: hint converter refused: %s" round
        e.Analysis.Dag.message
  in
  bf_identical "hint/v2"
    (get "Hint/v2" (fun f _ -> Checker.Hint.check f hinted));
  (* the window scheduler is invisible at every window size *)
  List.iter
    (fun window ->
      bf_identical
        (Printf.sprintf "window %d" window)
        (get
           (Printf.sprintf "Window %d" window)
           (fun f src -> Checker.Window.check ~window f src)))
    [ 1; 7; max_int ]

let fuzzed_agreement ~pre ~seed ~target () =
  let rng = Sat.Rng.create seed in
  let unsat_seen = ref 0 in
  let round = ref 0 in
  (* fuzz formulas until [target] UNSAT instances have been cross-checked *)
  while !unsat_seen < target && !round < 2000 do
    incr round;
    let nvars = 3 + Sat.Rng.int rng 10 in
    let nclauses = 1 + Sat.Rng.int rng (5 * nvars) in
    let f =
      if Sat.Rng.bool rng then
        Helpers.random_messy_cnf rng ~nvars ~nclauses
      else Gen.Random3sat.generate rng ~nvars ~nclauses:(min nclauses (6 * nvars))
    in
    let result, _stats, trace = Pipeline.Validate.solve_with_trace ~pre f in
    match result with
    | Solver.Cdcl.Sat _ -> ()
    | Solver.Cdcl.Unsat ->
      incr unsat_seen;
      check_instance ~round:!round f trace
  done;
  if !unsat_seen < target then
    Alcotest.failf "only %d unsat instances in %d rounds" !unsat_seen !round

let test_fuzzed_agreement () = fuzzed_agreement ~pre:false ~seed:424242 ~target:50 ()

(* same matrix on preprocessed runs: the trace opens with the
   simplifier's derivation records and still checks against the original
   formula under every strategy *)
let test_fuzzed_agreement_pre () =
  fuzzed_agreement ~pre:true ~seed:424243 ~target:30 ()

let suite =
  [
    ( module_name,
      [
        Alcotest.test_case "fuzzed agreement x50" `Quick test_fuzzed_agreement;
        Alcotest.test_case "fuzzed agreement x30 (pre)" `Quick
          test_fuzzed_agreement_pre;
      ] );
  ]
