(* The whole-proof static analyzer: hand-pinned DAG metrics on a small
   diamond proof, the structural-refusal corpus, and the trimmer's
   contract — trimmed traces are smaller, lint-clean, idempotent under
   re-trimming, keep exactly the depth-first checker's needed set, and
   every checking strategy (df/bf/hybrid/par/online ingest) accepts them
   with an unchanged verdict and unsat core.  Plus the acceptance-side
   memory story: the dag.table_bytes gauge stays proportional to clause
   ids and arcs, never to trace bytes. *)

module G = Analysis.Dag
module L = Analysis.Lint

let run_str ?format s = G.run ?format (Trace.Reader.From_string s)

let profile_exn name s =
  match run_str s with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: unexpected refusal: %s" name e.G.message

let expect_error name s =
  match run_str s with
  | Ok _ -> Alcotest.failf "%s: analyzer accepted a structurally broken trace" name
  | Error e ->
    if String.length e.G.message = 0 then
      Alcotest.failf "%s: empty error message" name

let serialize fmt events =
  let w = Trace.Writer.create fmt in
  List.iter (Trace.Writer.emit w) events;
  Trace.Writer.contents w

(* --- the diamond proof: every metric pinned by hand --------------------- *)

(* Ordinals (header = 0): CL4=1 CL5=2 CL6=3 CL7=4 CL8=5 CL9=6 VAR=7
   CONF=8.  Reachable from the conflict: 8 <- 6 <- {4,5} <- originals
   {1,2,3}; id 7 duplicates 6's source chain and is dead, id 9 is dead,
   id 8 is a singleton chain. *)
let diamond =
  "t 3 3\n\
   CL 4 1 2\n\
   CL 5 2 3\n\
   CL 6 4 5\n\
   CL 7 4 5\n\
   CL 8 6\n\
   CL 9 1 3\n\
   VAR 1 1 8\n\
   CONF 8\n"

let test_diamond_counts () =
  let p = profile_exn "diamond" diamond in
  let i = Alcotest.check Alcotest.int in
  i "events" 9 p.G.events;
  i "learned" 6 p.G.learned;
  i "level0" 1 p.G.level0;
  i "nvars" 3 p.G.nvars;
  i "originals" 3 p.G.originals;
  i "conflict id" 8 p.G.conflict_id;
  Alcotest.check Alcotest.bool "topological" true p.G.topological;
  i "forward refs" 0 p.G.forward_refs;
  i "dangling refs" 0 p.G.dangling_refs;
  i "reachable" 4 p.G.reachable_learned;
  i "dead" 2 p.G.dead_learned;
  i "core originals" 3 p.G.core_originals;
  i "duplicates" 1 p.G.duplicate_derivations;
  i "singletons" 1 p.G.singleton_chains;
  i "total arcs" 11 p.G.total_arcs

let test_diamond_shape () =
  let p = profile_exn "diamond" diamond in
  let i = Alcotest.check Alcotest.int in
  i "max depth" 3 p.G.max_depth;
  i "max width" 3 p.G.max_width;
  i "widest depth" 1 p.G.widest_depth;
  i "max fanin" 2 p.G.max_fanin;
  (* lifetimes, in record ordinals: id4 [1,4], id5 [2,4], id6 [3,5],
     id8 [5,8] (its last use is the final conflict); 7 and 9 are unused,
     so the mean is (3 + 2 + 2 + 3) / 4 *)
  i "lifetime max" 3 p.G.lifetime_max;
  Alcotest.check (Alcotest.float 1e-9) "lifetime mean" 2.5 p.G.lifetime_mean;
  i "first gap max" 2 p.G.first_gap_max;
  Alcotest.check (Alcotest.float 1e-9) "first gap mean" 1.75 p.G.first_gap_mean

let test_diamond_peaks () =
  let p = profile_exn "diamond" diamond in
  let i = Alcotest.check Alcotest.int in
  (* df keeps exactly the reachable set; bf's refcount sweep peaks at
     ordinal 4 with {4,5,6,7} live; the hybrid sweep skips the dead
     clauses and peaks at {4,5,6}; par and online share bf's schedule *)
  i "df" 4 p.G.predicted_peak_live.G.df;
  i "bf" 4 p.G.predicted_peak_live.G.bf;
  i "hybrid" 3 p.G.predicted_peak_live.G.hybrid;
  i "par" 4 p.G.predicted_peak_live.G.par;
  i "online" 4 p.G.predicted_peak_live.G.online

let test_diamond_diagnostics () =
  let p = profile_exn "diamond" diamond in
  Alcotest.check Alcotest.int "warnings" 4 p.G.warnings;
  Alcotest.check Alcotest.int "dropped" 0 p.G.dropped;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "by_code"
    [ ("L501", 2); ("L502", 1); ("L503", 1) ]
    p.G.by_code;
  (* the L5xx codes are a stable contract, like the linter's *)
  List.iter
    (fun (code, id) ->
      Alcotest.check Alcotest.string "code id" id (L.code_id code);
      match L.severity_of code with
      | L.Warning -> ()
      | L.Error -> Alcotest.failf "%s must be a warning" id)
    [
      (L.Dead_derivation, "L501");
      (L.Duplicate_derivation, "L502");
      (L.Singleton_chain, "L503");
    ]

let test_diamond_binary_identical () =
  (* the same proof through the binary encoding: every metric equal *)
  let events = Trace.Reader.to_list (Trace.Reader.From_string diamond) in
  let p_a = profile_exn "ascii" diamond in
  let p_b = profile_exn "binary" (serialize Trace.Writer.Binary events) in
  Alcotest.check Alcotest.bool "binary flag" true p_b.G.binary;
  Alcotest.check Alcotest.bool "metrics agree" true
    ({ p_a with G.binary = true; diagnostics = [] }
    = { p_b with G.diagnostics = [] })

let test_json_and_pp () =
  let p = profile_exn "diamond" diamond in
  let j = G.to_json p in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length j && (String.sub j i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun sub ->
      if not (contains sub) then Alcotest.failf "json missing %s in %s" sub j)
    [
      {|"reachable_learned":4|};
      {|"dead_learned":2|};
      {|"predicted_peak_live":{"df":4,"bf":4,"hybrid":3,"par":4,"online":4}|};
      {|"by_code":{"L501":2,"L502":1,"L503":1}|};
      {|"code":"L501"|};
    ];
  Alcotest.check Alcotest.string "warning summary" "L501:2 L502:1 L503:1"
    (G.warning_summary p)

(* --- structural refusals ------------------------------------------------ *)

let test_refusals () =
  List.iter
    (fun (name, s) -> expect_error name s)
    [
      ("parse error", "t 2 2\njunk\n");
      ("missing header", "CL 3 1 2\nCONF 3\n");
      ("duplicate header", "t 2 2\nt 2 2\nCL 3 1 2\nCONF 3\n");
      ("missing conflict", "t 2 2\nCL 3 1 2\n");
      ("undefined conflict", "t 2 2\nCL 3 1 2\nCONF 42\n");
      ("duplicate id", "t 2 2\nCL 3 1 2\nCL 3 1 2\nCONF 3\n");
      ("id shadows original", "t 2 2\nCL 2 1 2\nCONF 2\n");
      ("empty trace", "");
    ]

let test_forward_reference () =
  (* a forward reference profiles (topological = false) but cannot be
     safely trimmed: the reference order is already broken *)
  let s = "t 2 2\nCL 3 1 4\nCL 4 2 3\nCONF 4\n" in
  let p = profile_exn "forward" s in
  Alcotest.check Alcotest.bool "not topological" false p.G.topological;
  Alcotest.check Alcotest.int "forward refs" 1 p.G.forward_refs;
  let w = Trace.Writer.create Trace.Writer.Ascii in
  match G.trim (Trace.Reader.From_string s) w with
  | Ok _ -> Alcotest.fail "trim accepted a forward-referencing trace"
  | Error _ -> ()

let test_dangling_reference () =
  let s = "t 2 2\nCL 3 1 99\nCONF 3\n" in
  let p = profile_exn "dangling" s in
  Alcotest.check Alcotest.int "dangling refs" 1 p.G.dangling_refs;
  let w = Trace.Writer.create Trace.Writer.Ascii in
  match G.trim (Trace.Reader.From_string s) w with
  | Ok _ -> Alcotest.fail "trim accepted a dangling-referencing trace"
  | Error _ -> ()

(* --- the trimmer's contract on a real solver trace ---------------------- *)

let solve_unsat_trace ?format f =
  match Pipeline.Validate.solve_with_trace ?format f with
  | Solver.Cdcl.Unsat, _, trace -> trace
  | Solver.Cdcl.Sat _, _, _ -> Alcotest.fail "instance unexpectedly satisfiable"

let trim_str ?format s =
  let fmt =
    match format with Some f -> f | None -> Trace.Writer.Ascii
  in
  let w = Trace.Writer.create fmt in
  match G.trim ?format (Trace.Reader.From_string s) w with
  | Ok (stats, profile) -> (stats, profile, Trace.Writer.contents w)
  | Error e -> Alcotest.failf "trim refused: %s" e.G.message

let learned_ids s =
  Trace.Reader.to_list (Trace.Reader.From_string s)
  |> List.filter_map (function
       | Trace.Event.Learned { id; _ } -> Some id
       | _ -> None)
  |> List.sort compare

let test_trim_php5 () =
  let f = Gen.Php.unsat ~holes:5 in
  let trace = solve_unsat_trace f in
  let stats, profile, trimmed = trim_str trace in
  Alcotest.check Alcotest.bool "something was dropped" true
    (stats.G.dropped_learned > 0);
  Alcotest.check Alcotest.int "kept = reachable" profile.G.reachable_learned
    stats.G.kept_learned;
  Alcotest.check Alcotest.bool "bytes shrink" true
    (stats.G.bytes_out < stats.G.bytes_in);
  (* the trimmed trace lints clean against the formula *)
  let r = L.run ~formula:f (Trace.Reader.From_string trimmed) in
  if not (L.clean r) then Alcotest.fail "trimmed trace does not lint clean";
  Alcotest.check Alcotest.int "no warnings either" 0 r.L.warnings;
  (* trimming is idempotent, to the byte *)
  let stats2, _, trimmed2 = trim_str trimmed in
  Alcotest.check Alcotest.int "second trim drops nothing" 0
    stats2.G.dropped_learned;
  Alcotest.check Alcotest.string "re-trim is byte-identical" trimmed trimmed2;
  (* the static kept set is exactly the depth-first checker's needed set *)
  match Checker.Df.check f (Trace.Reader.From_string trace) with
  | Error d ->
    Alcotest.failf "df rejected the original: %s"
      (Proof.Diagnostics.to_string d)
  | Ok df ->
    Alcotest.check
      (Alcotest.list Alcotest.int)
      "kept ids = df built ids"
      (List.sort compare df.Checker.Report.learned_built_ids)
      (learned_ids trimmed)

(* --- verdict and core identity across every strategy -------------------- *)

(* The fifth "strategy" is the online ingest path: pass one pushed
   event-by-event, pass two over the same bytes. *)
let online_check f trace =
  let g = Checker.Bf.ingest f in
  let src = Trace.Reader.From_string trace in
  Trace.Reader.iter src (fun e -> Checker.Bf.ingest_event g e);
  Checker.Bf.finish g src

let strategies =
  [
    ("df", fun f src -> Checker.Df.check f src);
    ("bf", fun f src -> Checker.Bf.check f src);
    ("hybrid", fun f src -> Checker.Hybrid.check f src);
    ("par", fun f src -> Checker.Par.check ~jobs:2 f src);
  ]

let check_identity fam_name fmt_name f trace =
  let format =
    if fmt_name = "binary" then Trace.Writer.Binary else Trace.Writer.Ascii
  in
  let stats, _, trimmed = trim_str ~format trace in
  let tag s = Printf.sprintf "%s/%s: %s" fam_name fmt_name s in
  let get label check t =
    match check f (Trace.Reader.From_string t) with
    | Ok r -> r
    | Error d ->
      Alcotest.failf "%s rejected: %s" (tag label)
        (Proof.Diagnostics.to_string d)
  in
  List.iter
    (fun (name, check) ->
      let orig = get (name ^ " original") check trace in
      let trim = get (name ^ " trimmed") check trimmed in
      (* the depth-first checker's exact needed set and core are
         untouched by trimming; every checker's core survives it *)
      if name = "df" then begin
        Alcotest.check (Alcotest.list Alcotest.int)
          (tag "df built ids unchanged")
          orig.Checker.Report.learned_built_ids
          trim.Checker.Report.learned_built_ids;
        Alcotest.check Alcotest.int (tag "df steps unchanged")
          orig.Checker.Report.resolution_steps
          trim.Checker.Report.resolution_steps
      end;
      Alcotest.check (Alcotest.list Alcotest.int)
        (tag (name ^ " core unchanged"))
        orig.Checker.Report.core_original_ids
        trim.Checker.Report.core_original_ids;
      Alcotest.check Alcotest.int
        (tag (name ^ " trimmed total = kept"))
        stats.G.kept_learned trim.Checker.Report.total_learned)
    strategies;
  (* online ingest: accepts both, and on each trace its report matches
     the file-based breadth-first checker's *)
  List.iter
    (fun (label, t) ->
      let bf = get ("bf " ^ label) (fun f s -> Checker.Bf.check f s) t in
      match online_check f t with
      | Error d ->
        Alcotest.failf "%s rejected: %s"
          (tag ("online " ^ label))
          (Proof.Diagnostics.to_string d)
      | Ok olr ->
        Alcotest.check Alcotest.int
          (tag ("online " ^ label ^ " built"))
          bf.Checker.Report.clauses_built olr.Checker.Report.clauses_built;
        Alcotest.check Alcotest.int
          (tag ("online " ^ label ^ " steps"))
          bf.Checker.Report.resolution_steps
          olr.Checker.Report.resolution_steps;
        Alcotest.check (Alcotest.list Alcotest.int)
          (tag ("online " ^ label ^ " built ids"))
          bf.Checker.Report.learned_built_ids
          olr.Checker.Report.learned_built_ids)
    [ ("original", trace); ("trimmed", trimmed) ]

let first_unsat name gen =
  let rec go i =
    if i > 50 then Alcotest.failf "%s: no unsat instance in 50 tries" name
    else
      let f = gen i in
      match Pipeline.Validate.solve_with_trace f with
      | Solver.Cdcl.Unsat, _, _ -> f
      | Solver.Cdcl.Sat _, _, _ -> go (i + 1)
  in
  go 0

let test_strategy_identity () =
  let families =
    [
      ("php_5", Gen.Php.unsat ~holes:5);
      ( "rand3sat",
        first_unsat "rand3sat" (fun i ->
            Gen.Random3sat.generate_at_ratio
              (Sat.Rng.create (100 + i))
              ~nvars:60 ~ratio:5.2) );
      ( "messy",
        first_unsat "messy" (fun i ->
            let rng = Sat.Rng.create (200 + i) in
            Helpers.random_messy_cnf rng ~nvars:12 ~nclauses:70) );
    ]
  in
  List.iter
    (fun (fam_name, f) ->
      List.iter
        (fun (fmt_name, format) ->
          let trace = solve_unsat_trace ~format f in
          check_identity fam_name fmt_name f trace)
        [ ("ascii", Trace.Writer.Ascii); ("binary", Trace.Writer.Binary) ])
    families

(* --- property: trimming random unsat proofs ----------------------------- *)

let test_trim_properties_fuzzed () =
  let rng = Sat.Rng.create 777 in
  let seen = ref 0 in
  let round = ref 0 in
  while !seen < 15 && !round < 1000 do
    incr round;
    let nvars = 4 + Sat.Rng.int rng 10 in
    let f = Gen.Random3sat.generate rng ~nvars ~nclauses:(6 * nvars) in
    match Pipeline.Validate.solve_with_trace f with
    | Solver.Cdcl.Sat _, _, _ -> ()
    | Solver.Cdcl.Unsat, _, trace ->
      incr seen;
      let stats, _, trimmed = trim_str trace in
      let r = L.run ~formula:f (Trace.Reader.From_string trimmed) in
      if not (L.clean r) then
        Alcotest.failf "round %d: trimmed trace lints dirty" !round;
      let stats2, _, trimmed2 = trim_str trimmed in
      if trimmed2 <> trimmed then
        Alcotest.failf "round %d: trim not idempotent" !round;
      if stats2.G.dropped_learned <> 0 then
        Alcotest.failf "round %d: re-trim dropped %d" !round
          stats2.G.dropped_learned;
      if stats.G.bytes_out > stats.G.bytes_in then
        Alcotest.failf "round %d: trim grew the trace" !round
  done;
  if !seen < 15 then
    Alcotest.failf "only %d unsat instances in %d rounds" !seen !round

(* --- the memory gauge: tables scale with ids, not bytes ----------------- *)

let test_table_bytes_gauge () =
  let f = Gen.Php.unsat ~holes:5 in
  let trace = solve_unsat_trace f in
  Obs.Ctl.enable ();
  let finish () =
    Obs.Ctl.disable ();
    Obs.Metrics.reset Obs.Metrics.global;
    Obs.Span.reset ()
  in
  Fun.protect ~finally:finish (fun () ->
      let p = profile_exn "php_5" trace in
      let g name = Obs.Metrics.gauge Obs.Metrics.global name in
      let tracked = Obs.Metrics.Gauge.get (g "dag.tracked_ids") in
      let bytes = Obs.Metrics.Gauge.get (g "dag.table_bytes") in
      Alcotest.check (Alcotest.float 0.0) "tracked = learned + originals"
        (float_of_int (p.G.learned + p.G.originals))
        tracked;
      if bytes <= 0.0 then Alcotest.fail "table_bytes gauge not set";
      (* the single-pass tables hold a bounded number of words per id,
         per arc and per record — never per literal or per byte.  The
         growable arrays at most double, so 32 words/id + 2 words/arc +
         4 words/record plus fixed slack is a hard roof. *)
      let bound =
        8
        * ((32 * (p.G.learned + p.G.originals + p.G.level0))
          + (2 * p.G.total_arcs) + (4 * p.G.events) + 4096)
      in
      if int_of_float bytes > bound then
        Alcotest.failf "table_bytes %.0f exceeds the id-proportional roof %d"
          bytes bound)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "dag",
      [
        tc "diamond: counts" test_diamond_counts;
        tc "diamond: shape" test_diamond_shape;
        tc "diamond: predicted peaks" test_diamond_peaks;
        tc "diamond: L5xx diagnostics" test_diamond_diagnostics;
        tc "diamond: binary encoding identical" test_diamond_binary_identical;
        tc "json and warning summary" test_json_and_pp;
        tc "structural refusals" test_refusals;
        tc "forward reference: profile yes, trim no" test_forward_reference;
        tc "dangling reference: profile yes, trim no" test_dangling_reference;
        tc "trim php_5: clean, idempotent, df-exact" test_trim_php5;
        Alcotest.test_case "strategy identity, trimmed vs original" `Slow
          test_strategy_identity;
        Alcotest.test_case "fuzzed trim properties x15" `Quick
          test_trim_properties_fuzzed;
        tc "table-bytes gauge is id-proportional" test_table_bytes_gauge;
      ] );
  ]
