(* Benchmark harness: regenerates every table of the paper's evaluation
   (Tables 1-3; Figures 1-3 are pseudocode, implemented as the solver and
   checker themselves), plus Bechamel micro-benchmarks for the hot paths
   and the design-choice ablations called out in DESIGN.md.

   Usage:  dune exec bench/main.exe [MODE]
   where MODE is one of the modes tabled at the end of this file, or
   [all] (the default).

   Absolute numbers are machine-specific; EXPERIMENTS.md records how the
   *shapes* compare with the paper (who wins, by what factor, where the
   outliers sit). *)

let table = Harness.Table.render
let fmt_f = Harness.Table.fmt_float
let fmt_pct = Harness.Table.fmt_pct

let started = Unix.gettimeofday ()

(* Every table is also dumped as BENCH_<mode>.json next to the working
   directory, so dashboards and regression scripts can diff runs without
   scraping the pretty-printed output. *)
let emit_json mode ~headers rows =
  let oc = open_out (Printf.sprintf "BENCH_%s.json" mode) in
  let cell c = Printf.sprintf "\"%s\"" (Obs.Metrics.json_escape c) in
  let row r = "[" ^ String.concat ", " (List.map cell r) ^ "]" in
  (* every table carries the same environment block — wall clock, GC
     words, build id — so runs from different checkouts are comparable *)
  let env =
    Obs.Profile.env_json ~wall_seconds:(Unix.gettimeofday () -. started)
  in
  Printf.fprintf oc
    "{\n  \"table\": %s,\n  \"env\": %s,\n  \"headers\": %s,\n  \"rows\": [\n%s\n  ]\n}\n"
    (cell mode) env (row headers)
    (String.concat ",\n" (List.map (fun r -> "    " ^ row r) rows));
  close_out oc

let print_table mode ~headers ?align rows =
  emit_json mode ~headers rows;
  Harness.Table.print (table ~headers ?align rows)

(* The simulated memory budget for Table 2, in words.  It plays the role
   of the paper's 800 MB cap, scaled to our instance sizes: every checker
   gets the same budget; the depth-first checker busts it on the two
   hardest instances (the paper's starred 6pipe/7pipe rows) while
   breadth-first — and the §5 hybrid — fit everywhere. *)
let simulated_budget_words = 7_000_000

type prepared = {
  fam : Gen.Families.family;
  f : Sat.Cnf.t;
  stats : Solver.Cdcl.stats;
  trace : string;
  time_off : float;
  time_on : float;
}

(* Every bench time is wall-clock seconds on the Obs span clock.
   [median f] is [f ()]'s result with the median of three to five runs
   for instances fast enough that scheduler noise would otherwise
   dominate. *)
let median f =
  let x, t1 = Obs.Ctl.time f in
  let reps = if t1 > 5.0 then 0 else if t1 > 1.0 then 2 else 4 in
  if reps = 0 then (x, t1)
  else begin
    let ts = t1 :: List.init reps (fun _ -> snd (Obs.Ctl.time f)) in
    let ts = List.sort Float.compare ts in
    (x, List.nth ts (List.length ts / 2))
  end

let prepare (fam : Gen.Families.family) =
  let f = fam.generate () in
  let _, time_off = median (fun () -> Solver.Cdcl.solve f) in
  let (result, stats, trace), time_on =
    median (fun () -> Pipeline.Validate.solve_with_trace f)
  in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ ->
     failwith (fam.name ^ ": benchmark instance unexpectedly satisfiable"));
  { fam; f; stats; trace; time_off; time_on }

let prepared_suite = lazy (List.map prepare (Gen.Families.suite ()))

(* --- Table 1: trace-generation overhead -------------------------------- *)

let table1 () =
  print_endline
    "Table 1. Statistics of the solver with trace generation off and on";
  print_endline
    "(paper: overhead 1.7%-12%, smaller for harder instances)\n";
  let rows =
    List.map
      (fun p ->
        let overhead =
          if p.time_off > 0.0 then (p.time_on -. p.time_off) /. p.time_off
          else 0.0
        in
        [
          p.fam.name;
          p.fam.paper_analogue;
          string_of_int (Sat.Cnf.nvars p.f);
          string_of_int (Sat.Cnf.nclauses p.f);
          string_of_int p.stats.learned_clauses;
          fmt_f ~decimals:3 p.time_off;
          fmt_f ~decimals:3 p.time_on;
          fmt_pct overhead;
        ])
      (Lazy.force prepared_suite)
  in
  print_table "table1"
    ~headers:
      [
        "instance"; "stands for"; "vars"; "clauses"; "learned";
        "trace off (s)"; "trace on (s)"; "overhead";
      ]
    ~align:[ Harness.Table.Left; Harness.Table.Left ]
    rows

(* --- Table 2: the two checking strategies ------------------------------ *)

(* One checker's Table 2 cells under the simulated budget: [cells r
   seconds] when it verifies, [width] stars when it runs out. *)
let run_checker name p ~width check cells =
  match
    Obs.Ctl.time (fun () ->
        check ~mem_limit:simulated_budget_words p.f
          (Trace.Reader.From_string p.trace))
  with
  | Ok r, seconds -> cells r seconds
  | Error d, _ ->
    failwith (name ^ " check failed: " ^ Proof.Diagnostics.to_string d)
  | exception Proof.Clause_db.Out_of_memory_simulated _ ->
    List.init width (fun _ -> "*")

let table2 () =
  Printf.printf
    "Table 2. Statistics for the checking strategies\n\
     (simulated memory budget: %d words = %d KB for every checker; '*' = \
     memory out, as in the paper's 6pipe/7pipe rows; the hybrid columns \
     are the paper's §5 future work)\n\n"
    simulated_budget_words (simulated_budget_words * 8 / 1024);
  let time_peak (r : Checker.Report.t) seconds =
    [ fmt_f ~decimals:3 seconds; string_of_int (r.peak_mem_words * 8 / 1024) ]
  in
  let rows =
    List.map
      (fun p ->
        [ p.fam.name; string_of_int (String.length p.trace / 1024) ]
        @ run_checker "DF" ~width:4 p
            (fun ~mem_limit f src -> Checker.Df.check ~mem_limit f src)
            (fun r seconds ->
              string_of_int r.clauses_built
              :: fmt_pct (Checker.Report.built_ratio r)
              :: time_peak r seconds)
        @ run_checker "BF" ~width:2 p
            (fun ~mem_limit f src -> Checker.Bf.check ~mem_limit f src)
            time_peak
        @ run_checker "Hybrid" ~width:2 p
            (fun ~mem_limit f src -> Checker.Hybrid.check ~mem_limit f src)
            time_peak)
      (Lazy.force prepared_suite)
  in
  print_table "table2"
    ~headers:
      [
        "instance"; "trace (KB)"; "df built"; "built%"; "df time (s)";
        "df peak (KB)"; "bf time (s)"; "bf peak (KB)"; "hy time (s)";
        "hy peak (KB)";
      ]
    ~align:[ Harness.Table.Left ]
    rows

(* --- Table 3: iterated unsat-core shrinking ----------------------------- *)

(* like the paper, the hardest instances are left out of the 30-round
   iteration (each round re-solves the core) *)
let table3_excluded = [ "pipe_5"; "pipe_6" ]

let table3 () =
  print_endline
    "Table 3. Original clauses/variables involved in the proof\n\
     (first iteration, then up to 30 iterations or a fixed point)\n";
  let rows =
    List.filter_map
      (fun (p : prepared) ->
        if List.mem p.fam.name table3_excluded then None
        else
          match Pipeline.Unsat_core.shrink ~max_rounds:30 p.f with
          | Error _ -> failwith (p.fam.name ^ ": core shrinking failed")
          | Ok s ->
            let first =
              match s.iterations with
              | it :: _ -> it
              | [] -> s.initial
            in
            let last =
              match List.rev s.iterations with
              | it :: _ -> it
              | [] -> s.initial
            in
            Some
              [
                p.fam.name;
                string_of_int s.initial.clauses;
                string_of_int s.initial.vars;
                string_of_int first.clauses;
                string_of_int first.vars;
                string_of_int last.clauses;
                string_of_int last.vars;
                (if s.reached_fixpoint then string_of_int s.rounds
                 else Printf.sprintf ">%d" s.rounds);
              ])
      (Lazy.force prepared_suite)
  in
  print_table "table3"
    ~headers:
      [
        "instance"; "orig cls"; "orig vars"; "iter1 cls"; "iter1 vars";
        "final cls"; "final vars"; "iterations";
      ]
    ~align:[ Harness.Table.Left ]
    rows

(* --- Ablation: solver design choices ------------------------------------ *)

(* The design decisions DESIGN.md stars: restarts, learned-clause
   deletion, random decisions and clause minimization — each toggled on a
   medium suite, reporting solve time and conflicts. *)
let ablation () =
  print_endline
    "Ablation. Solver configurations on a medium suite (time s / conflicts)\n";
  let base = Solver.Cdcl.default_config in
  let configs =
    [
      ("default", base);
      ("no restarts", { base with enable_restarts = false });
      ("no deletion", { base with enable_deletion = false });
      ("no random decisions", { base with random_decision_freq = 0.0 });
      ("clause minimization (post-paper)",
       { base with enable_minimization = true });
      ("luby restarts",
       { base with restart_sequence = Solver.Cdcl.Luby; restart_first = 32 });
      ("no learning-aids at all",
       { base with enable_restarts = false; enable_deletion = false;
         random_decision_freq = 0.0 });
    ]
  in
  let instances =
    [
      ("php_7", Gen.Php.unsat ~holes:7);
      ("longmult_hi", Gen.Multiplier.miter_high_bits ~width:6 ~bits:5);
      ("pipe_2", Gen.Pipeline_cpu.correct ~regs:4 ~width:4 ~depth:2);
      ("rand_unsat",
       Gen.Random3sat.generate_at_ratio (Sat.Rng.create 5) ~nvars:180
         ~ratio:4.6);
    ]
  in
  let rows =
    List.map
      (fun (cname, config) ->
        cname
        :: List.concat_map
             (fun (_, f) ->
               let (_, stats), seconds =
                 Obs.Ctl.time (fun () -> Solver.Cdcl.solve ~config f)
               in
               [ fmt_f ~decimals:2 seconds; string_of_int stats.conflicts ])
             instances)
      configs
  in
  let headers =
    "config"
    :: List.concat_map
         (fun (name, _) -> [ name ^ " (s)"; "cfl" ])
         instances
  in
  print_table "ablation" ~headers ~align:[ Harness.Table.Left ] rows

(* --- Scaling series ------------------------------------------------------ *)

(* Check time vs solve time as instances grow (the paper's headline claim
   that checking is always much cheaper than solving), on the pigeonhole
   ladder. *)
let scaling () =
  print_endline
    "Scaling. Solve vs check time on the pigeonhole ladder (PHP(n+1, n))\n";
  let rows =
    List.map
      (fun holes ->
        let f = Gen.Php.unsat ~holes in
        let (result, stats, trace), solve_s =
          Obs.Ctl.time (fun () -> Pipeline.Validate.solve_with_trace f)
        in
        (match result with
         | Solver.Cdcl.Unsat -> ()
         | Solver.Cdcl.Sat _ -> failwith "php sat?");
        let check_s check =
          snd
            (Obs.Ctl.time (fun () ->
                 ignore (check f (Trace.Reader.From_string trace))))
        in
        let df_s = check_s Checker.Df.check in
        let bf_s = check_s Checker.Bf.check in
        let hy_s = check_s Checker.Hybrid.check in
        [
          string_of_int holes;
          string_of_int stats.conflicts;
          string_of_int (String.length trace / 1024);
          fmt_f ~decimals:3 solve_s;
          fmt_f ~decimals:3 df_s;
          fmt_f ~decimals:3 bf_s;
          fmt_f ~decimals:3 hy_s;
          fmt_f ~decimals:1 (solve_s /. Float.max 1e-6 df_s);
        ])
      [ 4; 5; 6; 7; 8; 9 ]
  in
  print_table "scaling"
    ~headers:
      [
        "holes"; "conflicts"; "trace (KB)"; "solve (s)"; "df check (s)";
        "bf check (s)"; "hy check (s)"; "solve/df ratio";
      ]
    rows

(* --- Proof shape ---------------------------------------------------------- *)

(* structural statistics of the checked proofs, the data behind Built% *)
let proofshape () =
  print_endline
    "Proof shape. Structure of the checked resolution proofs\n";
  let rows =
    List.map
      (fun p ->
        match
          Checker.Proof_stats.analyze p.f (Trace.Reader.From_string p.trace)
        with
        | Error d ->
          failwith
            (p.fam.name ^ ": " ^ Proof.Diagnostics.to_string d)
        | Ok s ->
          [
            p.fam.name;
            string_of_int s.learned_total;
            string_of_int s.learned_needed;
            fmt_pct
              (if s.learned_total = 0 then 1.0
               else
                 float_of_int s.learned_needed
                 /. float_of_int s.learned_total);
            string_of_int s.resolution_steps;
            string_of_int s.dag_depth;
            fmt_f ~decimals:1 s.mean_clause_width;
            string_of_int s.max_clause_width;
            string_of_int s.final_chain_length;
          ])
      (Lazy.force prepared_suite)
  in
  print_table "proofshape"
    ~headers:
      [
        "instance"; "learned"; "needed"; "needed%"; "resolutions";
        "dag depth"; "mean width"; "max width"; "final chain";
      ]
    ~align:[ Harness.Table.Left ]
    rows

(* --- Baseline: BDD CEC vs validated SAT CEC ------------------------------ *)

(* The technology contrast of the paper's era: canonical-form equivalence
   checking via ROBDDs against the SAT+checker flow.  Adders favour BDDs,
   multipliers blow them up exponentially; SAT handles both, and its
   UNSAT answers come with a checked proof. *)
let baseline () =
  print_endline
    "Baseline. Equivalence checking: ROBDD vs validated SAT\n\
     (node limit 300k; 'blow-up' = BDD construction exceeded it)\n";
  let cec_pair name build =
    let c = Circuit.Netlist.create () in
    let o1, o2 = build c in
    let bdd_cell, bdd_time =
      Obs.Ctl.time (fun () ->
          match Bdd.Cec.check ~node_limit:300_000 c o1 o2 with
          | Bdd.Cec.Equivalent -> "equivalent"
          | Bdd.Cec.Counterexample _ -> "DIFFERENT?!"
          | Bdd.Cec.Node_limit -> "blow-up")
    in
    let miter = Circuit.Miter.equivalence_cnf c o1 o2 in
    let sat_cell, sat_time =
      Obs.Ctl.time (fun () ->
          let o = Pipeline.Validate.run miter in
          match o.Pipeline.Validate.verdict with
          | Pipeline.Validate.Unsat_verified _ -> "equivalent+proof"
          | Pipeline.Validate.Sat_verified _ -> "DIFFERENT?!"
          | Pipeline.Validate.Sat_model_wrong _ | Pipeline.Validate.Unsat_check_failed _ ->
            "CHECK FAILED")
    in
    [ name; bdd_cell; fmt_f ~decimals:3 bdd_time; sat_cell;
      fmt_f ~decimals:3 sat_time ]
  in
  (* blocked input order (all of a, then all of b): pathological for BDDs
     on adders; interleaved (a0 b0 a1 b1 …): the good order *)
  let adder_blocked w c =
    let a = Circuit.Arith.word_input c "a" w in
    let b = Circuit.Arith.word_input c "b" w in
    (Circuit.Arith.add_mod c a b w, Circuit.Arith.add_mod c b a w)
  in
  let adder_interleaved w c =
    let bits =
      List.init w (fun i ->
          let a = Circuit.Netlist.input c (Printf.sprintf "a_%d" i) in
          let b = Circuit.Netlist.input c (Printf.sprintf "b_%d" i) in
          (a, b))
    in
    let a = List.map fst bits and b = List.map snd bits in
    (Circuit.Arith.add_mod c a b w, Circuit.Arith.add_mod c b a w)
  in
  let mult w c =
    let a = Circuit.Arith.word_input c "a" w in
    let b = Circuit.Arith.word_input c "b" w in
    (Circuit.Arith.mul_shift_add c a b, Circuit.Arith.mul_msb_first c a b)
  in
  let rows =
    [
      cec_pair "adder_8 (blocked order)" (adder_blocked 8);
      cec_pair "adder_16 (blocked order)" (adder_blocked 16);
      cec_pair "adder_16 (interleaved)" (adder_interleaved 16);
      cec_pair "mult_4" (mult 4);
      cec_pair "mult_6" (mult 6);
    ]
  in
  print_table "baseline"
    ~headers:
      [ "circuit"; "bdd verdict"; "bdd time (s)"; "sat verdict";
        "sat time (s)" ]
    ~align:[ Harness.Table.Left; Harness.Table.Left ]
    rows

(* --- stream: materialized vs online validation -------------------------- *)

(* Contrast the buffered pipeline (solve into an in-memory trace, then
   check it) with the online one (lint + BF pass one tee'd off the live
   solver stream, reconstruction off a spooled temp file).  The encoder
   high-water mark is the online mode's memory story: bounded by the
   flush threshold while the buffered path holds the whole encoded
   trace.  OCaml's top-heap high-water mark is monotonic per process, so
   the online run goes first and the buffered run can only push the mark
   higher — the delta column is the materialization cost the online mode
   avoids. *)
let stream_bench instances =
  print_endline
    "Stream. Materialized (bf) vs online validation: wall time and \
     buffering\n";
  let mb words = float_of_int (words * 8) /. 1e6 in
  let rows =
    List.concat_map
      (fun (name, gen) ->
        let f : Sat.Cnf.t = gen () in
        List.map
          (fun (fmt_name, format) ->
            Gc.compact ();
            let online, online_s =
              Obs.Ctl.time (fun () ->
                  Pipeline.Validate.run ~format
                    ~strategy:Pipeline.Validate.Online f)
            in
            let heap_after_online = (Gc.quick_stat ()).Gc.top_heap_words in
            let buffered, buffered_s =
              Obs.Ctl.time (fun () ->
                  Pipeline.Validate.run ~format
                    ~strategy:Pipeline.Validate.Breadth_first f)
            in
            let heap_after_buffered = (Gc.quick_stat ()).Gc.top_heap_words in
            (match (online.Pipeline.Validate.verdict,
                    buffered.Pipeline.Validate.verdict) with
             | Pipeline.Validate.Unsat_verified _,
               Pipeline.Validate.Unsat_verified _ -> ()
             | _ -> failwith (name ^ ": expected verified UNSAT both ways"));
            let info = Option.get online.Pipeline.Validate.online in
            [
              name;
              fmt_name;
              string_of_int online.Pipeline.Validate.trace_bytes;
              string_of_int info.Pipeline.Validate.peak_buffered_bytes;
              fmt_f ~decimals:3 buffered_s;
              fmt_f ~decimals:3 online_s;
              fmt_f ~decimals:1 (mb heap_after_online);
              fmt_f ~decimals:1 (mb heap_after_buffered);
            ])
          [ ("ascii", Trace.Writer.Ascii); ("binary", Trace.Writer.Binary) ])
      instances
  in
  print_table "stream"
    ~headers:
      [
        "instance"; "format"; "trace (B)"; "peak buffered (B)";
        "buffered (s)"; "online (s)"; "heap@online (MB)"; "heap@buffered (MB)";
      ]
    ~align:[ Harness.Table.Left; Harness.Table.Left ]
    rows

(* --- trim: static core-reachable trimming -------------------------------- *)

(* Size reduction and downstream payoff of the {!Analysis.Dag} trimmer:
   per family and encoding, records/bytes before and after, the dead
   fraction dropped, the one-shot static trim cost, and the bf re-check
   wall time on the original vs the trimmed trace.  Every trimmed trace
   is re-verified before its timing is trusted: bf must accept it, and
   the clauses it builds must be exactly the trimmer's kept set. *)
let trim_bench instances =
  print_endline
    "Trim. Static core-reachable trimming: size, cost, re-check payoff\n";
  let rows =
    List.concat_map
      (fun (name, generate) ->
        let f : Sat.Cnf.t = generate () in
        List.map
          (fun (fmt_name, format) ->
            let result, _stats, trace =
              Pipeline.Validate.solve_with_trace ~format f
            in
            (match result with
             | Solver.Cdcl.Unsat -> ()
             | Solver.Cdcl.Sat _ ->
               failwith
                 (name ^ ": benchmark instance unexpectedly satisfiable"));
            let do_trim () =
              let w = Trace.Writer.create format in
              match
                Analysis.Dag.trim (Trace.Reader.From_string trace) w
              with
              | Ok (stats, _profile) -> (stats, Trace.Writer.contents w)
              | Error e ->
                failwith
                  (Printf.sprintf "%s/%s: trim: %s" name fmt_name
                     e.Analysis.Dag.message)
            in
            let (stats, trimmed), trim_s = median do_trim in
            let recheck label t =
              match Checker.Bf.check f (Trace.Reader.From_string t) with
              | Ok r -> r
              | Error d ->
                failwith
                  (Printf.sprintf "%s/%s: bf on %s trace: %s" name fmt_name
                     label
                     (Proof.Diagnostics.to_string d))
            in
            let _, orig_s =
              median (fun () -> recheck "original" trace)
            in
            let r_trim, trimmed_s =
              median (fun () -> recheck "trimmed" trimmed)
            in
            if r_trim.Checker.Report.clauses_built <> stats.Analysis.Dag.kept_learned
            then
              failwith
                (Printf.sprintf
                   "%s/%s: bf built %d clauses on the trimmed trace, trimmer \
                    kept %d"
                   name fmt_name r_trim.Checker.Report.clauses_built
                   stats.Analysis.Dag.kept_learned);
            let learned_in =
              stats.Analysis.Dag.kept_learned
              + stats.Analysis.Dag.dropped_learned
            in
            let dead_frac =
              if learned_in = 0 then 0.0
              else
                float_of_int stats.Analysis.Dag.dropped_learned
                /. float_of_int learned_in
            in
            [
              name;
              fmt_name;
              string_of_int stats.Analysis.Dag.records_in;
              string_of_int stats.Analysis.Dag.records_out;
              string_of_int stats.Analysis.Dag.bytes_in;
              string_of_int stats.Analysis.Dag.bytes_out;
              fmt_pct dead_frac;
              fmt_f ~decimals:3 trim_s;
              fmt_f ~decimals:3 orig_s;
              fmt_f ~decimals:3 trimmed_s;
              fmt_f ~decimals:2 (orig_s /. Float.max 1e-6 trimmed_s);
            ])
          [ ("ascii", Trace.Writer.Ascii); ("binary", Trace.Writer.Binary) ])
      instances
  in
  print_table "trim"
    ~headers:
      [
        "instance"; "format"; "recs in"; "recs out"; "bytes in"; "bytes out";
        "dead"; "trim (s)"; "bf orig (s)"; "bf trim (s)"; "recheck speedup";
      ]
    ~align:[ Harness.Table.Left; Harness.Table.Left ]
    rows

(* --- hinted one-pass vs breadth-first ----------------------------------- *)

(* The hinted trade: `rescheck hint` pays one static conversion pass so
   every later check runs in a single trace read at breadth-first's peak
   residency.  Per family and encoding: the conversion cost, trace
   growth, wall time and learned-clause throughput for bf (two passes)
   vs the one-pass hinted check, and the peak-live story against df.
   Two hard gates ride along: the hinted report must be bit-identical
   to bf's, and hinted peak-live must stay at-or-below both bf's runtime
   peak and df's (the memory the hints exist to avoid).  The wall-clock
   "gate" column flags a hinted check slower than bf beyond noise —
   one pass should never lose to two. *)
let hint_bench instances =
  print_endline
    "Hint. One-pass checking of deletion-hinted traces vs breadth-first\n";
  let rows =
    List.concat_map
      (fun (name, generate) ->
        let f : Sat.Cnf.t = generate () in
        List.map
          (fun (fmt_name, format) ->
            let result, _stats, trace =
              Pipeline.Validate.solve_with_trace ~format f
            in
            (match result with
             | Solver.Cdcl.Unsat -> ()
             | Solver.Cdcl.Sat _ ->
               failwith
                 (name ^ ": benchmark instance unexpectedly satisfiable"));
            let do_hint () =
              let w = Trace.Writer.create ~version:2 format in
              match
                Analysis.Dag.hint (Trace.Reader.From_string trace) w
              with
              | Ok (stats, profile) ->
                (stats, profile, Trace.Writer.contents w)
              | Error e ->
                failwith
                  (Printf.sprintf "%s/%s: hint: %s" name fmt_name
                     e.Analysis.Dag.message)
            in
            let (hstats, dag, hinted), hint_conv_s = median do_hint in
            let check label checker t =
              match checker f (Trace.Reader.From_string t) with
              | Ok r -> r
              | Error d ->
                failwith
                  (Printf.sprintf "%s/%s: %s: %s" name fmt_name label
                     (Proof.Diagnostics.to_string d))
            in
            let bf, bf_s =
              median (fun () -> check "bf" Checker.Bf.check trace)
            in
            let df, _ =
              median (fun () -> check "df" Checker.Df.check trace)
            in
            let hint, hint_s =
              median (fun () ->
                  check "hint" Checker.Hint.check hinted)
            in
            (* identity gate: the one-pass report matches bf bit for bit *)
            if
              hint.Checker.Report.clauses_built
              <> bf.Checker.Report.clauses_built
              || hint.Checker.Report.resolution_steps
                 <> bf.Checker.Report.resolution_steps
              || hint.Checker.Report.learned_built_ids
                 <> bf.Checker.Report.learned_built_ids
            then
              failwith
                (Printf.sprintf "%s/%s: hinted report differs from bf" name
                   fmt_name);
            (* memory gate: the hints must deliver bf residency, which in
               turn undercuts df — that is the whole point of the format *)
            if
              hint.Checker.Report.peak_live_clauses
              > bf.Checker.Report.peak_live_clauses
            then
              failwith
                (Printf.sprintf "%s/%s: hinted peak %d > bf peak %d" name
                   fmt_name hint.Checker.Report.peak_live_clauses
                   bf.Checker.Report.peak_live_clauses);
            if
              hint.Checker.Report.peak_live_clauses
              > df.Checker.Report.peak_live_clauses
            then
              failwith
                (Printf.sprintf "%s/%s: hinted peak %d > df peak %d" name
                   fmt_name hint.Checker.Report.peak_live_clauses
                   df.Checker.Report.peak_live_clauses);
            let predicted_df =
              dag.Analysis.Dag.predicted_peak_live.Analysis.Dag.df
            in
            if hint.Checker.Report.peak_live_clauses > predicted_df then
              failwith
                (Printf.sprintf
                   "%s/%s: hinted peak %d > df static prediction %d" name
                   fmt_name hint.Checker.Report.peak_live_clauses
                   predicted_df);
            let throughput r s =
              float_of_int r.Checker.Report.clauses_built
              /. Float.max 1e-6 s
            in
            (* wall-clock gate, with slack for timer noise on CI boxes *)
            let gate = if hint_s <= bf_s *. 1.15 then "ok" else "FAIL" in
            [
              name;
              fmt_name;
              string_of_int bf.Checker.Report.total_learned;
              string_of_int hstats.Analysis.Dag.hints;
              fmt_f ~decimals:3 hint_conv_s;
              fmt_f ~decimals:3 bf_s;
              fmt_f ~decimals:3 hint_s;
              fmt_f ~decimals:2 (bf_s /. Float.max 1e-6 hint_s);
              fmt_f ~decimals:0 (throughput bf bf_s);
              fmt_f ~decimals:0 (throughput hint hint_s);
              string_of_int df.Checker.Report.peak_live_clauses;
              string_of_int predicted_df;
              string_of_int bf.Checker.Report.peak_live_clauses;
              string_of_int hint.Checker.Report.peak_live_clauses;
              gate;
            ])
          [ ("ascii", Trace.Writer.Ascii); ("binary", Trace.Writer.Binary) ])
      instances
  in
  print_table "hint"
    ~headers:
      [
        "instance"; "format"; "learned"; "hints"; "hint (s)"; "bf (s)";
        "1pass (s)"; "speedup"; "bf cl/s"; "1pass cl/s"; "df peak";
        "df pred"; "bf peak"; "1pass peak"; "gate";
      ]
    ~align:[ Harness.Table.Left; Harness.Table.Left ]
    rows;
  if List.exists (fun r -> List.mem "FAIL" r) rows then begin
    prerr_endline
      "hint: one-pass checking lost to breadth-first beyond the noise \
       budget";
    exit 1
  end

(* --- simplify: proof-emitting preprocessing ------------------------------ *)

(* The cost/benefit of running the proof-emitting simplifier in front of
   the solver.  Per family and encoding: trace size and end-to-end wall
   time (solve + bf check) with preprocessing off vs on.  Both traces are
   checked against the ORIGINAL formula — the pre trace opens with the
   simplifier's derivation records, so the checker never needs the
   simplified formula.  Hard gates: both runs must verify, and the pre
   run's unsat core must stay within the original clause indices. *)
let simplify_bench instances =
  print_endline
    "Simplify. Proof-emitting preprocessing: trace size and end-to-end \
     payoff\n\
     (e2e = solve + bf check; the pre trace checks against the original \
     formula)\n";
  (* acceptance gate: preprocessing must pay for itself somewhere — at
     least one family/encoding must shrink the trace while keeping the
     end-to-end time within 1.1x of the plain run *)
  let wins = ref false in
  let rows =
    List.concat_map
      (fun (name, generate) ->
        let f : Sat.Cnf.t = generate () in
        List.map
          (fun (fmt_name, format) ->
            let run ~pre () =
              let result, _stats, trace =
                Pipeline.Validate.solve_with_trace ~format ~pre f
              in
              (match result with
               | Solver.Cdcl.Unsat -> ()
               | Solver.Cdcl.Sat _ ->
                 failwith
                   (name ^ ": benchmark instance unexpectedly satisfiable"));
              trace
            in
            let check label trace =
              match Checker.Bf.check f (Trace.Reader.From_string trace) with
              | Ok r -> r
              | Error d ->
                failwith
                  (Printf.sprintf "%s/%s: bf on %s trace: %s" name
                     fmt_name label
                     (Proof.Diagnostics.to_string d))
            in
            let trace_off, solve_off = median (run ~pre:false) in
            let _, check_off =
              median (fun () -> check "plain" trace_off)
            in
            let trace_on, solve_on = median (run ~pre:true) in
            let _, check_on = median (fun () -> check "pre" trace_on) in
            (* core gate: the pre proof's core still indexes the original
               DIMACS (df tracks the core; bf does not) *)
            (match
               Checker.Df.check f (Trace.Reader.From_string trace_on)
             with
             | Error d ->
               failwith
                 (Printf.sprintf "%s/%s: df on pre trace: %s" name
                    fmt_name
                    (Proof.Diagnostics.to_string d))
             | Ok r ->
               let n = Sat.Cnf.nclauses f in
               List.iter
                 (fun id ->
                   if id < 1 || id > n then
                     failwith
                       (Printf.sprintf
                          "%s/%s: pre core id %d outside original 1..%d"
                          name fmt_name id n))
                 r.Checker.Report.core_original_ids);
            let b_off = String.length trace_off
            and b_on = String.length trace_on in
            let e2e_off = solve_off +. check_off
            and e2e_on = solve_on +. check_on in
            if b_on < b_off && e2e_on <= e2e_off *. 1.1 then wins := true;
            [
              name;
              fmt_name;
              string_of_int b_off;
              string_of_int b_on;
              fmt_pct
                (float_of_int (b_off - b_on) /. float_of_int (max 1 b_off));
              fmt_f ~decimals:3 solve_off;
              fmt_f ~decimals:3 solve_on;
              fmt_f ~decimals:3 check_off;
              fmt_f ~decimals:3 check_on;
              fmt_f ~decimals:3 e2e_off;
              fmt_f ~decimals:3 e2e_on;
              fmt_f ~decimals:2 (e2e_on /. Float.max 1e-6 e2e_off);
            ])
          [ ("ascii", Trace.Writer.Ascii); ("binary", Trace.Writer.Binary) ])
      instances
  in
  print_table "simplify"
    ~headers:
      [
        "instance"; "format"; "bytes off"; "bytes on"; "saved";
        "solve off (s)"; "solve on (s)"; "check off (s)"; "check on (s)";
        "e2e off (s)"; "e2e on (s)"; "e2e ratio";
      ]
    ~align:[ Harness.Table.Left; Harness.Table.Left ]
    rows;
  if not !wins then begin
    prerr_endline
      "simplify: no family shrank its trace within the 1.1x end-to-end \
       budget";
    exit 1
  end

(* --- parse-path micro-bench: ascii and binary trace files --------------- *)

(* Throughput and allocation of the trace decode alone (no checking):
   every record of a php trace is parsed and dropped.  The wall-clock
   columns are machine-specific; the allocation columns are the
   contract of the one-pass lexer — a record allocates only its event
   values (the event, the [Learned] sources array, the option, its
   position), with no line buffers or token lists, and the major words
   are the cursor's 64 KiB window, allocated once. *)
let parse_bench () =
  print_endline
    "Parse path: records/sec, MB/sec and GC allocation per encoding\n\
     (php_8 trace file, read in 64 KiB blocks through one lexer)\n";
  let f = Gen.Php.unsat ~holes:8 in
  let trace_file fmt =
    let w = Trace.Writer.create fmt in
    ignore (Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink w) f);
    let path = Filename.temp_file "bench_parse" ".trc" in
    Trace.Writer.to_file w path;
    (path, Trace.Writer.bytes_written w)
  in
  let drain path () =
    let cur = Trace.Reader.cursor (Trace.Reader.From_file path) in
    let n = ref 0 in
    Trace.Reader.iter_cursor cur (fun _ -> incr n);
    Trace.Reader.close cur;
    !n
  in
  let gc_delta run =
    let s0 = Gc.quick_stat () in
    let x = run () in
    let s1 = Gc.quick_stat () in
    ( x,
      s1.Gc.minor_words -. s0.Gc.minor_words,
      (s1.Gc.major_words -. s0.Gc.major_words)
      -. (s1.Gc.promoted_words -. s0.Gc.promoted_words) )
  in
  let rows =
    List.map
      (fun (fmt_name, fmt) ->
        let path, bytes = trace_file fmt in
        let run = drain path in
        let records, minor, major = gc_delta run in
        let _, seconds = median (fun () -> ignore (run ())) in
        Sys.remove path;
        [
          fmt_name;
          string_of_int records;
          fmt_f ~decimals:2 (float_of_int bytes /. 1.048576e6);
          fmt_f ~decimals:0 (float_of_int records /. seconds);
          fmt_f ~decimals:1 (float_of_int bytes /. 1.048576e6 /. seconds);
          fmt_f ~decimals:1 (minor /. float_of_int (max 1 records));
          fmt_f ~decimals:0 major;
        ])
      [ ("ascii", Trace.Writer.Ascii); ("binary", Trace.Writer.Binary) ]
  in
  print_table "parse"
    ~headers:
      [
        "encoding"; "records"; "MB"; "rec/s"; "MB/s"; "minor w/rec";
        "major words";
      ]
    ~align:[ Harness.Table.Left ]
    rows

(* --- Bechamel micro-benchmarks ------------------------------------------ *)

let micro () =
  print_endline
    "Micro-benchmarks (Bechamel, monotonic clock, ns/run estimates)\n";
  let php6 = Gen.Php.unsat ~holes:6 in
  let php5 = Gen.Php.unsat ~holes:5 in
  let trace5 =
    let _, _, t = Pipeline.Validate.solve_with_trace php5 in
    t
  in
  let trace5_bin =
    let w = Trace.Writer.create Trace.Writer.Binary in
    ignore (Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink w) php5);
    Trace.Writer.contents w
  in
  let db = Proof.Clause_db.create () in
  let h1 = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  and h2 =
    Proof.Clause_db.alloc db (Sat.Clause.of_ints [ -1; 9; 10; 11; 12; 13; 14; 15 ])
  in
  let arena = Proof.Clause_db.arena db and acc = Proof.Resolvent.create () in
  let tests =
    [
      Bechamel.Test.make ~name:"solve/php6"
        (Bechamel.Staged.stage (fun () -> Solver.Cdcl.solve php6));
      (* solving with and without trace generation (Table 1's contrast) *)
      Bechamel.Test.make ~name:"solve/php5/trace-off"
        (Bechamel.Staged.stage (fun () -> Solver.Cdcl.solve php5));
      Bechamel.Test.make ~name:"solve/php5/trace-on"
        (Bechamel.Staged.stage (fun () ->
             let w = Trace.Writer.create Trace.Writer.Ascii in
             Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink w) php5));
      (* the two checkers (Table 2's contrast) *)
      Bechamel.Test.make ~name:"check/php5/depth-first"
        (Bechamel.Staged.stage (fun () ->
             Checker.Df.check php5 (Trace.Reader.From_string trace5)));
      Bechamel.Test.make ~name:"check/php5/breadth-first"
        (Bechamel.Staged.stage (fun () ->
             Checker.Bf.check php5 (Trace.Reader.From_string trace5)));
      (* trace parsing, ascii vs binary (the paper's compaction remark) *)
      Bechamel.Test.make ~name:"trace/parse/ascii"
        (Bechamel.Staged.stage (fun () ->
             Trace.Reader.fold (Trace.Reader.From_string trace5)
               (fun n _ -> n + 1)
               0));
      Bechamel.Test.make ~name:"trace/parse/binary"
        (Bechamel.Staged.stage (fun () ->
             Trace.Reader.fold (Trace.Reader.From_string trace5_bin)
               (fun n _ -> n + 1)
               0));
      (* one checked resolution step, as every chain runs it: seed the
         accumulator with one stored clause and resolve the other in *)
      Bechamel.Test.make ~name:"resolution/checked-step"
        (Bechamel.Staged.stage (fun () ->
             Proof.Resolvent.start acc arena (Proof.Clause_db.offset h1)
               (Proof.Clause_db.size db h1);
             Proof.Resolvent.step acc ~context:"bench" ~c1_id:1 ~c2_id:2 arena
               (Proof.Clause_db.offset h2) (Proof.Clause_db.size db h2)));
    ]
  in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:200
      ~quota:(Bechamel.Time.second 0.5)
      ~kde:None ()
  in
  let ols =
    Bechamel.Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let m =
            Bechamel.Benchmark.run cfg
              [ Bechamel.Toolkit.Instance.monotonic_clock ]
              elt
          in
          Hashtbl.replace results (Bechamel.Test.Elt.name elt)
            (Bechamel.Analyze.one ols Bechamel.Toolkit.Instance.monotonic_clock m))
        (Bechamel.Test.elements test))
    tests;
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Bechamel.Analyze.OLS.estimates est with
          | Some [ t ] -> t
          | _ -> nan
        in
        [ name; Printf.sprintf "%.0f" ns; fmt_f ~decimals:3 (ns /. 1e6) ]
        :: acc)
      results []
    |> List.sort compare
  in
  print_table "micro"
    ~headers:[ "benchmark"; "ns/run"; "ms/run" ]
    ~align:[ Harness.Table.Left ]
    rows

(* --- overhead: cost of the telemetry layer ----------------------------- *)

(* Gates the zero-cost-when-disabled claim.  Pitting two "identical up
   to the guard" synthetic loops against each other turned out to
   measure code-layout luck, not the guard (the deltas swung 20-120%
   run to run), so the probe models the overhead instead:

   1. Measure the per-call cost of the disabled guard itself — the exact
      statement every instrumentation site uses,
      [if Obs.Ctl.on () then incr] — against an opaque always-false
      branch, in a tight loop where the call dominates.

   2. Run the real workload (breadth-first validation of PHP(7,6)) once
      with telemetry on to *count* guard firings: sites fire per
      conflict, per trace event and per resolution chain, never per
      literal, so the counters bound the firing rate.  A generous
      [site_factor] covers the handful of guarded statements each
      counted event passes through across layers.

   3. Modeled overhead = guard cost x firings / disabled wall time.
      Exceeding the budget (default 2%, override with
      RESCHECK_OVERHEAD_PCT) exits non-zero so CI can gate on it.

   The off-vs-on wall times of the same workload are printed as an
   informational row: what fully *enabled* telemetry costs. *)
let overhead () =
  let budget_pct =
    match Sys.getenv_opt "RESCHECK_OVERHEAD_PCT" with
    | Some s -> (try float_of_string s with _ -> 2.0)
    | None -> 2.0
  in
  (* 1. per-call guard cost *)
  let m = Obs.Metrics.counter Obs.Metrics.global "bench.overhead_probe" in
  let n_calls = 20_000_000 in
  let guard_loop () =
    for _ = 1 to n_calls do
      if Obs.Ctl.on () then Obs.Metrics.Counter.incr m 1
    done
  in
  let base_loop () =
    for _ = 1 to n_calls do
      if Sys.opaque_identity false then Obs.Metrics.Counter.incr m 1
    done
  in
  (* the journal guard is the same shape as the telemetry guard but a
     separate flag; measure it separately so the gate covers both *)
  Obs.Journal.disarm ();
  let journal_loop () =
    for _ = 1 to n_calls do
      if Obs.Journal.on () then
        Obs.Journal.record ~sub:"bench" "probe" []
    done
  in
  let reps = 7 in
  let best f =
    let t = ref infinity in
    for _ = 1 to reps do
      let x = snd (Obs.Ctl.time f) in
      if x < !t then t := x
    done;
    !t
  in
  let t_base = best base_loop and t_guard = best guard_loop in
  let t_journal = best journal_loop in
  let guard_ns =
    Float.max 0.0 ((t_guard -. t_base) /. float_of_int n_calls *. 1e9)
  in
  let journal_ns =
    Float.max 0.0 ((t_journal -. t_base) /. float_of_int n_calls *. 1e9)
  in
  (* 2. count guard firings on the real workload *)
  let f = Gen.Php.unsat ~holes:6 in
  let run () =
    match
      Pipeline.Validate.run ~strategy:Pipeline.Validate.Breadth_first f
    with
    | { verdict = Pipeline.Validate.Unsat_verified _; _ } -> ()
    | _ -> failwith "overhead: php_6 did not verify"
  in
  let t_off = best run in
  Obs.Ctl.enable ();
  Obs.Metrics.reset Obs.Metrics.global;
  let t_on = snd (Obs.Ctl.time run) in
  let snapshot = Obs.Metrics.snapshot Obs.Metrics.global in
  Obs.Ctl.disable ();
  Obs.Metrics.reset Obs.Metrics.global;
  Obs.Span.reset ();
  let counted = [ "solver.conflicts"; "trace.events"; "kernel.chains" ] in
  let firings =
    List.fold_left
      (fun acc name ->
        match List.assoc_opt name snapshot with
        | Some v -> acc +. v
        | None -> acc)
      0.0 counted
  in
  let site_factor = 4.0 in
  (* journal sites (restarts, spills, arena growth ...) fire far less
     often than the counted hot metrics; charging them at one guard
     evaluation per counted firing is a deliberate over-estimate *)
  let journal_site_factor = 1.0 in
  (* 3. model and gate *)
  let modeled_pct =
    ((guard_ns *. site_factor) +. (journal_ns *. journal_site_factor))
    *. 1e-9 *. firings /. t_off *. 100.0
  in
  let workload_pct = (t_on -. t_off) /. t_off *. 100.0 in
  print_table "overhead"
    ~headers:[ "probe"; "value"; "overhead %"; "budget %"; "verdict" ]
    ~align:[ Harness.Table.Left ]
    [
      [ "disabled guard cost (ns/call)";
        fmt_f ~decimals:2 guard_ns; "-"; "-"; "info" ];
      [ "disabled journal guard (ns/call)";
        fmt_f ~decimals:2 journal_ns; "-"; "-"; "info" ];
      [ "guard firings, validate php_6 bf";
        Printf.sprintf "%.0f x%.0f" firings site_factor; "-"; "-"; "info" ];
      [ "modeled disabled overhead";
        fmt_f ~decimals:4 t_off;
        fmt_f ~decimals:3 modeled_pct;
        fmt_f ~decimals:1 budget_pct;
        (if modeled_pct <= budget_pct then "ok" else "FAIL") ];
      [ "validate php_6 bf, off vs on (s)";
        Printf.sprintf "%s / %s" (fmt_f ~decimals:4 t_off)
          (fmt_f ~decimals:4 t_on);
        fmt_f ~decimals:2 workload_pct; "-"; "info" ];
    ];
  if modeled_pct > budget_pct then begin
    Printf.eprintf
      "overhead: disabled telemetry modeled at %.3f%% > %.1f%% budget \
       (guard %.2f ns, %.0f firings)\n"
      modeled_pct budget_pct guard_ns firings;
    exit 1
  end

(* --- regress: diff fresh BENCH tables against committed baselines ------- *)

(* The solver is seeded, so every count/byte column in a BENCH table is
   machine-independent; only wall-clock-derived columns vary run to run.
   [regress] therefore compares a freshly produced BENCH_<t>.json
   against the committed baseline cell by cell: headers and row counts
   must match exactly, timing-flavoured columns (recognised by header
   substrings) are skipped, non-numeric cells must be identical, and
   numeric cells may drift at most RESCHECK_REGRESS_PCT percent
   (default 2).  Gated drift exits non-zero, turning the bench series
   into an enforced trajectory rather than eyeballed artifacts. *)

let timing_column header =
  let h = String.lowercase_ascii header in
  let contains sub =
    let nh = String.length h and ns = String.length sub in
    let rec go i = i + ns <= nh && (String.sub h i ns = sub || go (i + 1)) in
    go 0
  in
  List.exists contains
    [
      "(s)"; "(mb)"; "/s"; "speedup"; "ratio"; "ns/"; "ms/"; "overhead";
      "budget"; "value"; "buffered"; "verdict";
    ]

let cell_number s =
  let s = String.trim s in
  let n = String.length s in
  let s =
    if n > 0 && (s.[n - 1] = '%' || s.[n - 1] = 'x') then String.sub s 0 (n - 1)
    else s
  in
  float_of_string_opt s

let regress () =
  let dir =
    if Array.length Sys.argv > 2 then Sys.argv.(2) else "bench/baselines"
  in
  let budget_pct =
    match Sys.getenv_opt "RESCHECK_REGRESS_PCT" with
    | Some s -> (try float_of_string s with _ -> 2.0)
    | None -> 2.0
  in
  let baselines =
    match Sys.readdir dir with
    | entries ->
      Array.to_list entries
      |> List.filter (fun f ->
             String.length f > 10
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort String.compare
    | exception Sys_error msg ->
      Printf.eprintf "regress: cannot read baseline dir: %s\n" msg;
      exit 2
  in
  if baselines = [] then begin
    Printf.eprintf "regress: no BENCH_*.json baselines in %s\n" dir;
    exit 2
  end;
  let strings_of j =
    match Obs.Json.list j with
    | Some l -> List.filter_map Obs.Json.string l
    | None -> []
  in
  let load path =
    let j = Obs.Json.of_file path in
    let headers =
      match Obs.Json.member "headers" j with Some h -> strings_of h | None -> []
    in
    let rows =
      match Obs.Json.(Option.bind (member "rows" j) list) with
      | Some rs -> List.map strings_of rs
      | None -> []
    in
    (headers, rows)
  in
  let any_fail = ref false in
  let report_rows =
    List.map
      (fun file ->
        let table =
          Filename.chop_suffix file ".json"
          |> fun s -> String.sub s 6 (String.length s - 6)
        in
        if not (Sys.file_exists file) then
          [ table; "-"; "-"; "-"; "skip (no fresh table)" ]
        else
          match (load (Filename.concat dir file), load file) with
          | exception Obs.Json.Parse_error msg ->
            any_fail := true;
            Printf.eprintf "regress: %s: %s\n" file msg;
            [ table; "-"; "-"; "-"; "FAIL (unparsable)" ]
          | (bh, brows), (fh, frows) ->
            if bh <> fh then begin
              any_fail := true;
              [ table; "-"; "-"; "-"; "FAIL (headers changed)" ]
            end
            else if List.length brows <> List.length frows then begin
              any_fail := true;
              Printf.eprintf "regress: %s: %d baseline rows, %d fresh\n"
                table (List.length brows) (List.length frows);
              [ table; "-"; "-"; "-"; "FAIL (row count)" ]
            end
            else begin
              let checked = ref 0 and skipped = ref 0 in
              let worst = ref 0.0 in
              let failures = ref [] in
              List.iteri
                (fun ri (brow, frow) ->
                  List.iteri
                    (fun ci (b, f) ->
                      let header = List.nth bh ci in
                      if timing_column header then incr skipped
                      else begin
                        incr checked;
                        match (cell_number b, cell_number f) with
                        | Some nb, Some nf ->
                          let drift =
                            if nb = 0.0 then if nf = 0.0 then 0.0 else infinity
                            else Float.abs (nf -. nb) /. Float.abs nb *. 100.0
                          in
                          if drift > !worst then worst := drift;
                          if drift > budget_pct then
                            failures :=
                              Printf.sprintf
                                "%s row %d %S: %s -> %s (%.2f%% > %.1f%%)"
                                table ri header b f drift budget_pct
                              :: !failures
                        | _ ->
                          if b <> f then
                            failures :=
                              Printf.sprintf "%s row %d %S: %S -> %S" table
                                ri header b f
                              :: !failures
                      end)
                    (List.combine brow frow))
                (List.combine brows frows);
              if !failures <> [] then begin
                any_fail := true;
                List.iter
                  (fun m -> Printf.eprintf "regress: %s\n" m)
                  (List.rev !failures)
              end;
              [
                table;
                string_of_int (List.length brows);
                Printf.sprintf "%d/%d" !checked (!checked + !skipped);
                (if Float.is_finite !worst then
                   Printf.sprintf "%.3f%%" !worst
                 else "inf");
                (if !failures = [] then "ok"
                 else Printf.sprintf "FAIL (%d cells)" (List.length !failures));
              ]
            end)
      baselines
  in
  print_table "regress"
    ~headers:[ "table"; "rows"; "cells checked"; "worst drift"; "verdict" ]
    ~align:[ Harness.Table.Left ]
    report_rows;
  if !any_fail then exit 1

(* --- modes ------------------------------------------------------------- *)

let php holes = (Printf.sprintf "php_%d" holes, fun () -> Gen.Php.unsat ~holes)

let families names =
  List.map
    (fun n ->
      match Gen.Families.find n with
      | Some fam -> (fam.name, fam.generate)
      | None -> failwith ("unknown family " ^ n))
    names

(* The sized sweeps: [all] runs each on its full instances, and
   <name>_quick runs the CI-sized ones with the same columns, JSON
   artifact and gates.  php_8 is a >=100k-resolution family (~169k
   resolutions); php_7 gives a second, lighter point. *)
let sweeps =
  let full = [ php 7; php 8 ] and quick = [ php 5 ] in
  [
    ("stream", stream_bench, full, quick);
    ("trim", trim_bench, full, quick);
    ("hint", hint_bench, full, quick);
    ( "simplify",
      simplify_bench,
      families
        [ "php_8"; "rand_unsat"; "bw_grid"; "fpga_route"; "counter_bmc" ],
      families [ "php_8"; "counter_bmc" ] );
  ]

(* [all] runs these, in order *)
let all_modes =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("proofshape", proofshape); ("scaling", scaling); ("ablation", ablation);
    ("baseline", baseline);
  ]
  @ List.map (fun (name, bench, full, _) -> (name, fun () -> bench full)) sweeps
  @ [ ("micro", micro) ]

let modes =
  all_modes
  @ List.map
      (fun (name, bench, _, quick) -> (name ^ "_quick", fun () -> bench quick))
      sweeps
  @ [ ("parse", parse_bench); ("overhead", overhead); ("regress", regress) ]

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match List.assoc_opt mode modes with
  | Some run -> run ()
  | None when mode = "all" ->
    List.iteri
      (fun i (_, run) ->
        if i > 0 then print_newline ();
        run ())
      all_modes
  | None ->
    Printf.eprintf "unknown mode %S (expected %s|all)\n" mode
      (String.concat "|" (List.map fst modes));
    exit 2
