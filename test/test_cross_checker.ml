(* Cross-checker property test: on fuzzed UNSAT instances all the
   checkers ride the same kernel, so they must all accept every valid
   trace and their statistics must line up — BF builds exactly the total
   learned set, the hybrid's built set sandwiches between DF's and BF's,
   DF's unsat core is contained in the hybrid's, resolution-step counts
   grow monotonically with the built sets, and the hinted one-pass
   checker (on the plain trace and on its hinted rewrite) and the window
   scheduler at every window size are all bit-identical to BF — a
   six-way agreement matrix. *)

let module_name = "cross-checker"

let subset a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace tbl x ()) b;
  List.for_all (Hashtbl.mem tbl) a

(* The matrix's strategies, each on the trace it reads: the plain one, or
   (Hint/v2) its hinted rewrite. *)
let matrix =
  [
    ("DF", `Plain, fun f src -> Checker.Df.check f src);
    ("BF", `Plain, fun f src -> Checker.Bf.check f src);
    ("Hybrid", `Plain, fun f src -> Checker.Hybrid.check f src);
    ("Hint", `Plain, fun f src -> Checker.Hint.check f src);
    ("Hint/v2", `Hinted, fun f src -> Checker.Hint.check f src);
  ]
  @ List.map
      (fun window ->
        (Printf.sprintf "Window %d" window, `Plain,
         fun f src -> Checker.Window.check ~window f src))
      [ 1; 7; max_int ]

(* [renumber ~norig ~version map src] rewrites every learned id through
   [map] in each record that names one: learned ids, sources, level-0
   antecedents, the final conflict and delete hints. *)
let renumber ~norig ~version map src =
  let m id = if id > norig then map id else id in
  let w = Trace.Writer.create ~version Trace.Writer.Ascii in
  List.iter
    (fun e ->
      Trace.Writer.emit w
        (match e with
         | Trace.Event.Learned l ->
           Trace.Event.Learned { id = m l.id; sources = Array.map m l.sources }
         | Trace.Event.Level0 v -> Trace.Event.Level0 { v with ante = m v.ante }
         | Trace.Event.Final_conflict id -> Trace.Event.Final_conflict (m id)
         | Trace.Event.Delete ids -> Trace.Event.Delete (Array.map m ids)
         | Trace.Event.Header _ -> e))
    (Trace.Reader.to_list src);
  Trace.Reader.From_string (Trace.Writer.contents w)

(* Every strategy's report, by name, in [matrix] order; [rejected] reports
   a rejection. *)
let run_matrix f ~plain ~hinted ~rejected =
  List.map
    (fun (name, trace, check) ->
      let src = match trace with `Plain -> plain | `Hinted -> hinted in
      match check f src with Ok r -> (name, r) | Error d -> rejected name d)
    matrix

(* Ids far past the dense tables' range, and ids spread 1000 apart,
   change nothing a strategy reports once its built ids are mapped
   back. *)
let renumbered_agreement ~round f ~plain ~hinted reports =
  let norig = Sat.Cnf.nclauses f in
  let maps =
    [
      ("id + 2^40", (fun id -> id + (1 lsl 40)), fun id -> id - (1 lsl 40));
      ( "norig + 1000 (id - norig)",
        (fun id -> norig + (1000 * (id - norig))),
        fun id -> norig + ((id - norig) / 1000) );
    ]
  in
  List.iter
    (fun (mname, map, unmap) ->
      let renumbered =
        run_matrix f
          ~plain:(renumber ~norig ~version:1 map plain)
          ~hinted:(renumber ~norig ~version:2 map hinted)
          ~rejected:(fun name d ->
            Alcotest.failf "round %d: %s on ids %s rejected: %s" round name
              mname (Proof.Diagnostics.to_string d))
      in
      List.iter2
        (fun (name, r) (_, r') ->
          let mapped_back =
            {
              r' with
              Checker.Report.learned_built_ids =
                List.sort Int.compare
                  (List.map unmap r'.Checker.Report.learned_built_ids);
            }
          in
          Alcotest.check Alcotest.string
            (Printf.sprintf "round %d: %s on ids %s" round name mname)
            (Checker.Report.to_json r)
            (Checker.Report.to_json mapped_back))
        reports renumbered)
    maps

let check_instance ~round ~renumbered f trace =
  let src = Trace.Reader.From_string trace in
  let hinted =
    let w = Trace.Writer.create ~version:2 Trace.Writer.Ascii in
    match Analysis.Dag.hint src w with
    | Ok _ -> Trace.Reader.From_string (Trace.Writer.contents w)
    | Error e ->
      Alcotest.failf "round %d: hint converter refused: %s" round
        e.Analysis.Dag.message
  in
  let reports =
    run_matrix f ~plain:src ~hinted ~rejected:(fun name d ->
        Alcotest.failf "round %d: %s rejected a valid trace: %s" round name
          (Proof.Diagnostics.to_string d))
  in
  let get name = List.assoc name reports in
  let df = get "DF" and bf = get "BF" and hy = get "Hybrid" in
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
  bf_identical "hint" (get "Hint");
  (* ...and the hinted rewrite of the same trace reaches the same report *)
  bf_identical "hint/v2" (get "Hint/v2");
  (* the window scheduler is invisible at every window size *)
  List.iter
    (fun window ->
      bf_identical
        (Printf.sprintf "window %d" window)
        (get (Printf.sprintf "Window %d" window)))
    [ 1; 7; max_int ];
  if renumbered then renumbered_agreement ~round f ~plain:src ~hinted reports

let fuzzed_agreement ~pre ~seed ~target () =
  (* the matrix runs with the store's lifetime guards armed: any checker
     touching a released clause fails here instead of reading a recycled
     slot *)
  let was = Proof.Clause_db.debug_enabled () in
  Proof.Clause_db.set_debug true;
  Fun.protect ~finally:(fun () -> Proof.Clause_db.set_debug was) @@ fun () ->
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
      (* every fifth instance is re-checked on renumbered ids *)
      check_instance ~round:!round ~renumbered:(!unsat_seen mod 5 = 0) f trace
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
