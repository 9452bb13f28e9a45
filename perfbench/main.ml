(* perfbench: solve → check time to a checked verdict.

     main.exe --workload solve_validate|check_corpus|core_shrink
              --seed N --seconds S --trace 0|1
     main.exe selfcheck
     main.exe regen-corpus

   A run spawns its measuring processes ([main.exe measure --child I ...])
   one after another and pools their samples.  Each runs one domain and
   one closed-loop client: jobs run back to back.  The seed orders the jobs
   of every pass; the instances are the Gen.Families registry's (or the
   committed corpus) at every seed.  With --trace 0 the last stdout line
   carries the end-to-end metrics, with --trace 1 the per-layer ledger.
   Run from the repository root; perfbench/run.sh builds this executable
   first.  See perfbench/NOTES.md. *)

let corpus_dir = "perfbench/corpus"
let work_dir = "_perfbench"
let validate_families = [ "php_8"; "fpga_route"; "rand_unsat" ]
let corpus_families = [ "equiv_large"; "longmult_hi"; "pipe_2" ]

(* Pipeline.Unsat_core.shrink's fixed-point core sizes (Table 3 analogues) *)
let shrink_families =
  [ ("barrel_ring", 692); ("equiv_small", 3280); ("counter_bmc", 618);
    ("bw_grid", 1163) ]

let now = Ledger.now

exception Failed of string
exception Refused of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* ---- statistics ---- *)

(* linear-interpolation quantile of a non-empty list *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(Array.length a - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = function [] -> 0. | xs -> quantile 0.5 xs

(* ---- workloads ---- *)

type strategy = Df | Bf | Hint

let strategy_name = function Df -> "df" | Bf -> "bf" | Hint -> "hint"

(* how many times each strategy reads its trace *)
let reads = function Df -> 1 | Bf -> 2 | Hint -> 1

type entry = {
  e_name : string;
  cnf : Sat.Cnf.t;
  v1 : string;  (** committed ASCII trace *)
  v2 : string;  (** hinted (version 2) trace built in setup *)
}

type state =
  | Validate of (string * Sat.Cnf.t) array
  | Corpus of (entry * strategy) array
  | Shrink of (string * int option * Sat.Cnf.t) array

let jobs = function
  | Validate a -> Array.length a
  | Corpus a -> Array.length a
  | Shrink a -> Array.length a

let generate l name =
  Ledger.span l "gen" @@ fun () ->
  match Gen.Families.find name with
  | Some f -> f.Gen.Families.generate ()
  | None -> fail "unknown family %s" name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let manifest_path dir = Filename.concat dir "MANIFEST"
let corpus_file dir name ext = Filename.concat dir (name ^ ext)

(* The corpus is fixed: refuse to time files whose digests differ from the
   MANIFEST that regen-corpus wrote next to them. *)
let verify_corpus () =
  let manifest =
    try read_file (manifest_path corpus_dir)
    with Sys_error e -> raise (Refused ("corpus manifest unreadable: " ^ e))
  in
  let digests =
    String.split_on_char '\n' manifest
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ md5; file ] -> Some (file, md5)
           | _ -> None)
  in
  List.iter
    (fun name ->
      List.iter
        (fun ext ->
          let file = name ^ ext in
          let path = Filename.concat corpus_dir file in
          let actual =
            try Digest.to_hex (Digest.file path)
            with Sys_error e -> raise (Refused ("corpus file unreadable: " ^ e))
          in
          match List.assoc_opt file digests with
          | Some md5 when md5 = actual -> ()
          | Some md5 ->
            raise
              (Refused
                 (Printf.sprintf "%s has digest %s, the manifest says %s" path
                    actual md5))
          | None -> raise (Refused (file ^ " is missing from the manifest")))
        [ ".cnf"; ".trc" ])
    corpus_families

let hint_trace l v1 v2 =
  Ledger.span l "analysis" @@ fun () ->
  let w = Trace.Writer.create ~version:2 Trace.Writer.Ascii in
  match Analysis.Dag.hint (Trace.Reader.From_file v1) w with
  | Ok _ -> Trace.Writer.to_file w v2
  | Error _ -> fail "Analysis.Dag.hint refused %s" v1

let setup l = function
  | "solve_validate" ->
    Validate
      (Array.of_list (List.map (fun n -> (n, generate l n)) validate_families))
  | "check_corpus" ->
    verify_corpus ();
    if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
    let entries =
      List.map
        (fun name ->
          let v1 = corpus_file corpus_dir name ".trc" in
          let v2 = corpus_file work_dir name ".v2.trc" in
          hint_trace l v1 v2;
          let cnf = Sat.Dimacs.parse_file (corpus_file corpus_dir name ".cnf") in
          { e_name = name; cnf; v1; v2 })
        corpus_families
    in
    Corpus
      (Array.of_list
         (List.concat_map
            (fun e -> List.map (fun s -> (e, s)) [ Df; Bf; Hint ])
            entries))
  | "core_shrink" ->
    Shrink
      (Array.of_list
         (List.map (fun (n, pin) -> (n, Some pin, generate l n)) shrink_families))
  | w -> raise (Refused ("unknown workload " ^ w))

(* ---- per-pass bookkeeping ---- *)

(* Deterministic outputs of one traced pass; every traced pass of a run
   must reproduce the first one's. *)
type counts = {
  mutable trace_bytes : int;
  mutable events : int;
  mutable reads : int;
  mutable decode_bytes : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable deleted : int;
  mutable learned_literals : int;
  mutable steps : int;
  mutable built : int;
  mutable df_built : int;
  mutable df_learned : int;
  mutable peak_live : int;
  peaks : (string, int * int) Hashtbl.t;
      (** strategy -> peak live clauses, peak arena bytes *)
  mutable rounds : int;
  mutable core_clauses : int;
}

let new_counts () =
  {
    trace_bytes = 0; events = 0; reads = 0; decode_bytes = 0; conflicts = 0;
    decisions = 0; propagations = 0; restarts = 0; deleted = 0;
    learned_literals = 0; steps = 0; built = 0; df_built = 0; df_learned = 0;
    peak_live = 0;
    peaks = Hashtbl.create 3; rounds = 0; core_clauses = 0;
  }

(* the deterministic outputs by name; the DF pair feeds the built ratio *)
let count_fields c =
  let peak s = Option.value ~default:(0, 0) (Hashtbl.find_opt c.peaks s) in
  [
    ("trace_bytes", c.trace_bytes);
    ("peak_live_clauses", c.peak_live);
    ("proof.df.clauses_built", c.df_built);
    ("proof.df.learned", c.df_learned);
    ("solver.conflicts", c.conflicts);
    ("solver.decisions", c.decisions);
    ("solver.propagations", c.propagations);
    ("solver.restarts", c.restarts);
    ("solver.deleted_clauses", c.deleted);
    ("solver.learned_literals", c.learned_literals);
    ("trace.events", c.events);
    ("trace.passes", c.reads);
    ("proof.resolution_steps", c.steps);
    ("proof.clauses_built", c.built);
    ("proof.df.peak_live_clauses", fst (peak "df"));
    ("proof.bf.peak_live_clauses", fst (peak "bf"));
    ("proof.hint.peak_live_clauses", fst (peak "hint"));
    ("proof.df.arena_peak_bytes", snd (peak "df"));
    ("proof.bf.arena_peak_bytes", snd (peak "bf"));
    ("proof.hint.arena_peak_bytes", snd (peak "hint"));
    ("pipeline.rounds", c.rounds);
    ("pipeline.core_clauses", c.core_clauses);
  ]

let add_stats c (s : Solver.Cdcl.stats) =
  c.conflicts <- c.conflicts + s.conflicts;
  c.decisions <- c.decisions + s.decisions;
  c.propagations <- c.propagations + s.propagations;
  c.restarts <- c.restarts + s.restarts;
  c.deleted <- c.deleted + s.deleted_clauses;
  c.learned_literals <- c.learned_literals + s.learned_literals

let add_report c strategy (r : Checker.Report.t) =
  c.steps <- c.steps + r.resolution_steps;
  c.built <- c.built + r.clauses_built;
  if strategy = "df" then begin
    c.df_built <- c.df_built + r.clauses_built;
    c.df_learned <- c.df_learned + r.total_learned
  end;
  c.peak_live <- max c.peak_live r.peak_live_clauses;
  let p, a = Option.value ~default:(0, 0) (Hashtbl.find_opt c.peaks strategy) in
  Hashtbl.replace c.peaks strategy
    (max p r.peak_live_clauses, max a r.arena_bytes_resident)

let report_fp (r : Checker.Report.t) =
  Printf.sprintf "built=%d steps=%d peak=%d" r.clauses_built r.resolution_steps
    r.peak_live_clauses

(* Every job's output fingerprint must be the same in every pass, traced
   or not: the untraced public entry points and the traced decomposition
   are held to the same answers. *)
let expect tbl key fp =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key fp
  | Some fp0 when fp0 = fp -> ()
  | Some fp0 -> fail "%s: output changed between passes (%s, then %s)" key fp0 fp

type tally = { mutable attempted : int; mutable failed : int }

(* A failed job reports no time: its pass is dropped from the medians.
   Every job starts on a collected heap, so neither its time nor the
   process's peak RSS depends on which job ran before it. *)
let run_job tally f =
  Gc.full_major ();
  tally.attempted <- tally.attempted + 1;
  let failed msg =
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: job failed: %s\n%!" msg;
    None
  in
  match f () with
  | v -> Some v
  | exception Failed msg -> failed msg
  | exception e -> failed (Printexc.to_string e)

let drain src =
  let c = Trace.Reader.cursor src in
  let rec go n = match Trace.Reader.next c with Some _ -> go (n + 1) | None -> n in
  Fun.protect ~finally:(fun () -> Trace.Reader.close c) (fun () -> go 0)

(* One drain of a trace outside the verdict clock stands in for each of
   the [reads] decodes a checker does inside it. *)
let decode l c decode_attr src ~bytes ~reads =
  let before = Ledger.total l "trace.decode" in
  let events = Ledger.span l "trace.decode" (fun () -> drain src) in
  decode_attr :=
    !decode_attr +. (float_of_int reads *. (Ledger.total l "trace.decode" -. before));
  c.events <- c.events + events;
  c.reads <- c.reads + reads;
  c.decode_bytes <- c.decode_bytes + bytes

let df_check name cnf trace =
  match Checker.Df.check cnf (Trace.Reader.From_string trace) with
  | Ok r -> r
  | Error _ -> fail "%s: the DF checker rejected the solver's trace" name

(* A checked verdict: a SAT model must satisfy the formula, an UNSAT
   answer must come with a trace the DF checker accepts. *)
let checked_verdict ~wrap name cnf result trace =
  match result with
  | Solver.Cdcl.Sat a -> (
    match Sat.Model.first_falsified a cnf with
    | None -> None
    | Some i -> fail "%s: the SAT model falsifies clause %d" name i)
  | Solver.Cdcl.Unsat -> Some (wrap (fun () -> df_check name cnf trace))

let verdict_fp report trace =
  Printf.sprintf "%s trace=%s"
    (match report with None -> "sat" | Some r -> report_fp r)
    (Digest.to_hex (Digest.string trace))

let run_check s cnf src =
  match s with
  | Df -> Checker.Df.check cnf src
  | Bf -> Checker.Bf.check cnf src
  | Hint -> Checker.Hint.check cnf src

let corpus_source e s = Trace.Reader.From_file (if s = Hint then e.v2 else e.v1)
let corpus_key e s = e.e_name ^ "/" ^ strategy_name s

let corpus_report (e, s) =
  match run_check s e.cnf (corpus_source e s) with
  | Ok r -> r
  | Error _ -> fail "%s: rejected a committed proof" (corpus_key e s)

let shrink_fp rounds indices =
  Printf.sprintf "rounds=%d core=%s" rounds
    (Digest.to_hex
       (Digest.string (String.concat "," (List.map string_of_int indices))))

let check_pin name pin size =
  match pin with
  | Some n when n <> size ->
    fail "%s: fixed-point core has %d clauses, expected %d" name size n
  | _ -> ()

(* ---- untraced passes: the public entry points, timed by wall clock ---- *)

let untraced_job expected state i =
  match state with
  | Validate a ->
    let name, cnf = a.(i) in
    let t0 = now () in
    let result, _, trace = Pipeline.Validate.solve_with_trace cnf in
    let report = checked_verdict ~wrap:(fun f -> f ()) name cnf result trace in
    let t = now () -. t0 in
    expect expected name (verdict_fp report trace);
    t
  | Corpus a ->
    let e, s = a.(i) in
    let t0 = now () in
    let r = corpus_report a.(i) in
    let t = now () -. t0 in
    expect expected (corpus_key e s) (report_fp r);
    t
  | Shrink a -> (
    let name, pin, cnf = a.(i) in
    let t0 = now () in
    let outcome = Pipeline.Unsat_core.shrink cnf in
    let t = now () -. t0 in
    match outcome with
    | Error `Sat -> fail "%s: shrink answered SAT" name
    | Error (`Check_failed _) -> fail "%s: shrink's DF check failed" name
    | Ok o ->
      if not o.reached_fixpoint then fail "%s: no fixed point" name;
      check_pin name pin (List.length o.final_indices);
      expect expected name (shrink_fp o.rounds o.final_indices);
      t)

(* the verdict time of every job of one pass, indexed by job, or None
   when a job failed *)
let untraced_pass tally expected order state =
  let times = Array.make (Array.length order) 0. and ok = ref true in
  Array.iter
    (fun i ->
      match run_job tally (fun () -> untraced_job expected state i) with
      | Some t -> times.(i) <- t
      | None -> ok := false)
    order;
  if !ok then Some times else None

(* ---- traced passes: each layer's public functions, under spans ---- *)

let solve_encode l cnf =
  let buf, sink = Trace.Sink.buffer () in
  let result, stats =
    Ledger.span l "solver" (fun () -> Solver.Cdcl.solve ~trace:sink cnf)
  in
  let trace =
    Ledger.span l "trace.encode" @@ fun () ->
    let w = Trace.Writer.create Trace.Writer.Ascii in
    List.iter (Trace.Writer.emit w) (Trace.Sink.buffered_events buf);
    Trace.Writer.contents w
  in
  (result, stats, trace)

let validate_traced l c decode_attr expected (name, cnf) =
  let stats, trace, report =
    Ledger.span l "verdict" @@ fun () ->
    let result, stats, trace = solve_encode l cnf in
    let wrap = Ledger.span l "checker.df" in
    (stats, trace, checked_verdict ~wrap name cnf result trace)
  in
  expect expected name (verdict_fp report trace);
  add_stats c stats;
  c.trace_bytes <- c.trace_bytes + String.length trace;
  match report with
  | None -> ()
  | Some r ->
    add_report c "df" r;
    decode l c decode_attr (Trace.Reader.From_string trace)
      ~bytes:(String.length trace) ~reads:(reads Df)

(* Pipeline.Unsat_core.shrink taken apart at its layer calls: the same
   rounds and core indices, with each round under a pipeline span. *)
let shrink_traced l c decode_attr expected (name, pin, cnf) =
  let traces = ref [] in
  let round current current_indices =
    let result, stats, trace = solve_encode l current in
    add_stats c stats;
    traces := trace :: !traces;
    match result with
    | Solver.Cdcl.Sat _ -> fail "%s: a shrink round answered SAT" name
    | Solver.Cdcl.Unsat ->
      let r = Ledger.span l "checker.df" (fun () -> df_check name current trace) in
      add_report c "df" r;
      let core = List.map (fun id -> id - 1) r.core_original_ids in
      let arr = Array.of_list current_indices in
      let next_indices = List.map (fun i -> arr.(i)) core in
      if List.length core = Sat.Cnf.nclauses current then `Fixed next_indices
      else `Next (Sat.Cnf.restrict_to current core, next_indices)
  in
  let rounds, indices =
    Ledger.span l "verdict" @@ fun () ->
    let rec loop n current current_indices =
      if n > 30 then fail "%s: no fixed point in 30 rounds" name
      else
        match
          Ledger.span l "pipeline" (fun () -> round current current_indices)
        with
        | `Fixed indices -> (n, indices)
        | `Next (next, next_indices) -> loop (n + 1) next next_indices
    in
    loop 1 cnf (List.init (Sat.Cnf.nclauses cnf) Fun.id)
  in
  check_pin name pin (List.length indices);
  expect expected name (shrink_fp rounds indices);
  c.rounds <- c.rounds + rounds;
  c.core_clauses <- c.core_clauses + List.length indices;
  List.iter
    (fun t ->
      c.trace_bytes <- c.trace_bytes + String.length t;
      decode l c decode_attr (Trace.Reader.From_string t)
        ~bytes:(String.length t) ~reads:(reads Df))
    !traces

let corpus_traced l c reports expected ((e, s) as job) =
  let r =
    Ledger.span l "verdict" @@ fun () ->
    Ledger.span l ("checker." ^ strategy_name s) (fun () -> corpus_report job)
  in
  expect expected (corpus_key e s) (report_fp r);
  add_report c (strategy_name s) r;
  Hashtbl.replace reports (corpus_key e s) r

(* DF, BF and Hint agree on the verdict (all accepted), BF and Hint on
   built clauses and steps; then each trace file is decoded once. *)
let corpus_gate l c decode_attr reports entries =
  List.iter
    (fun e ->
      let get s =
        match Hashtbl.find_opt reports (corpus_key e s) with
        | Some r -> r
        | None -> fail "%s: not checked" (corpus_key e s)
      in
      let bf = get Bf and hint = get Hint in
      ignore (get Df);
      if
        bf.Checker.Report.clauses_built <> hint.Checker.Report.clauses_built
        || bf.resolution_steps <> hint.resolution_steps
      then fail "%s: BF and Hint disagree on built clauses or steps" e.e_name;
      let size p = (Unix.stat p).Unix.st_size in
      decode l c decode_attr (Trace.Reader.From_file e.v1) ~bytes:(size e.v1)
        ~reads:(reads Df + reads Bf);
      decode l c decode_attr (Trace.Reader.From_file e.v2) ~bytes:(size e.v2)
        ~reads:(reads Hint);
      c.trace_bytes <- c.trace_bytes + size e.v1 + size e.v2)
    entries

(* The per-layer times of one traced pass.  The ledger identity: solver +
   trace.encode + trace.decode + checker.self + pipeline.self +
   unattributed = verdict, because spans nest and decode is carved out
   of the checker spans that contain it. *)
let layer_times l c decode_attr =
  let self = Ledger.self l and total = Ledger.total l in
  let verdict = total "verdict" in
  let checks = List.map (fun s -> total ("checker." ^ strategy_name s)) [ Df; Bf; Hint ] in
  let check = List.fold_left ( +. ) 0. checks in
  let checker_self = check -. decode_attr in
  let per n d = if d > 0. then n /. d else 0. in
  let share x = per x verdict in
  [
    ("ledger.verdict_s", verdict);
    ("ledger.solve_s", self "solver" +. self "trace.encode");
    ("ledger.check_s", check);
    ("ledger.unattributed_s", self "verdict");
    ("solver.solve_s", self "solver");
    ("solver.conflicts_per_s", per (float_of_int c.conflicts) (self "solver"));
    ("trace.encode_s", self "trace.encode");
    ("trace.decode_s", decode_attr);
    ( "trace.decode_mb_per_s",
      per (float_of_int c.decode_bytes /. 1e6) (total "trace.decode") );
    ("checker.df.check_s", List.nth checks 0);
    ("checker.bf.check_s", List.nth checks 1);
    ("checker.hint.check_s", List.nth checks 2);
    ("checker.self_s", checker_self);
    ("proof.ns_per_step", per (checker_self *. 1e9) (float_of_int c.steps));
    ("pipeline.self_s", self "pipeline");
    ("pipeline.round_s", per (total "pipeline") (float_of_int c.rounds));
    ("ledger.share.solver", share (self "solver"));
    ("ledger.share.trace", share (self "trace.encode" +. decode_attr));
    ("ledger.share.checker", share checker_self);
    ("ledger.share.pipeline", share (self "pipeline"));
    ("ledger.share.unattributed", share (self "verdict"));
  ]

let traced_pass l tally expected order state =
  Ledger.reset l;
  let c = new_counts () in
  let decode_attr = ref 0. in
  let ok = ref true in
  let job f = if run_job tally f = None then ok := false in
  (match state with
   | Validate a ->
     Array.iter (fun i -> job (fun () -> validate_traced l c decode_attr expected a.(i))) order
   | Shrink a ->
     Array.iter (fun i -> job (fun () -> shrink_traced l c decode_attr expected a.(i))) order
   | Corpus a ->
     let reports = Hashtbl.create 9 in
     Array.iter (fun i -> job (fun () -> corpus_traced l c reports expected a.(i))) order;
     let entries =
       List.sort_uniq (fun x y -> compare x.e_name y.e_name) (Array.to_list (Array.map fst a))
     in
     if !ok then
       try corpus_gate l c decode_attr reports entries
       with Failed msg ->
         tally.failed <- tally.failed + 1;
         Printf.eprintf "perfbench: gate failed: %s\n%!" msg;
         ok := false);
  if !ok then Some (c, layer_times l c !decode_attr) else None

(* ---- reporting ---- *)

let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  in
  match try from_status () with Sys_error _ -> None with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* digest of the library sources: a build id that needs no git *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
           then [ p ]
           else [])
  in
  try
    files "lib"
    |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  with Sys_error _ -> "unknown"

let stamp ~workload ~seed ~passes ~processes =
  let env k default = Option.value ~default (Sys.getenv_opt k) in
  Printf.printf
    "# perfbench workload=%s seed=%d passes=%d processes=%d commit=%s \
     source=%s nproc=%s ocaml=%s clock=monotonic-wall\n"
    workload seed passes processes
    (env "PERFBENCH_COMMIT" "unknown")
    (source_digest ())
    (env "PERFBENCH_NPROC" (string_of_int (Domain.recommended_domain_count ())))
    Sys.ocaml_version

let print_spread name unit xs =
  match xs with
  | [] -> Printf.printf "# %-28s no successful pass\n" name
  | _ ->
    Printf.printf "# %-28s median %.6f %s  q1 %.6f  q3 %.6f  n=%d\n" name
      (median xs) unit (quantile 0.25 xs) (quantile 0.75 xs) (List.length xs)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct tally metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed (String.concat ", " fields)

(* ---- the run: measuring processes, and the parent that pools them ---- *)

(* The measuring window is split over this many processes, run one after
   another: on a shared host the same work can run 2x slower in one process
   than in the next, so every median pools several processes. *)
let processes = 3

(* Set up 100 times, or 3 times when one set-up takes 50 ms or more:
   generating the formulas takes a few milliseconds at most, too short for
   a handful of samples to give a steady median.  The count is fixed per
   workload so the heap history, and with it the peak RSS, is too.
   Returns each set-up's time and ledger, and the last state. *)
let timed_setups workload =
  let once () =
    Gc.full_major ();
    let l = Ledger.create () in
    let t0 = now () in
    let state = setup l workload in
    ((now () -. t0, l), state)
  in
  let first, state = once () in
  let repeats = if fst first < 0.05 then 100 else 3 in
  let rec go acc state n =
    if n = repeats then (acc, state)
    else
      let s, state = once () in
      go (s :: acc) state (n + 1)
  in
  go [ first ] state 1

let order_stream seed n =
  let rng = Sat.Rng.create seed in
  fun () ->
    let a = Array.init n Fun.id in
    Sat.Rng.shuffle rng a;
    a

let print_floats tag xs =
  print_string tag;
  List.iter (Printf.printf " %.17g") xs;
  print_newline ()

let print_fields tag kvs =
  print_string tag;
  List.iter (fun (k, v) -> Printf.printf " %s=%.17g" k v) kvs;
  print_newline ()

(* One measuring process.  It prints its raw samples for the parent, one
   per line: [setup], [pass] (each job's seconds), [rss], [counts] and
   [traced] (one per traced pass), [tally].  Process 0 of an untraced run
   ends with the census pass that fixes the deterministic outputs. *)
let measure ~workload ~seed ~child ~seconds ~trace =
  let setups, state = timed_setups workload in
  List.iter
    (fun (t, l) ->
      print_floats "setup" [ t; Ledger.total l "gen"; Ledger.total l "analysis" ])
    setups;
  let next_order = order_stream ((seed * processes) + child) (jobs state) in
  let tally = { attempted = 0; failed = 0 } in
  let expected = Hashtbl.create 16 in
  let l = Ledger.create () in
  let census = (not trace) && child = 0 in
  let traced = ref [] and passes = ref 0 in
  let start = now () in
  let rec loop () =
    incr passes;
    (* The first pass runs the jobs in registry order, and the peak RSS is
       read after it, before any traced pass buffers its events: how high
       the heap grows depends on the job order and on how many passes ran. *)
    let order =
      if !passes = 1 then Array.init (jobs state) Fun.id else next_order ()
    in
    Option.iter
      (fun t -> print_floats "pass" (Array.to_list t))
      (untraced_pass tally expected order state);
    if !passes = 1 then print_floats "rss" [ peak_rss_mb () ];
    if trace then
      Option.iter
        (fun p -> traced := p :: !traced)
        (traced_pass l tally expected (next_order ()) state);
    (* start another pass only if it, and the census, fit the window *)
    let elapsed = now () -. start in
    let per_pass = elapsed /. float_of_int !passes in
    if elapsed +. per_pass +. (if census then per_pass else 0.) <= seconds then
      loop ()
  in
  loop ();
  let counted =
    if census then Option.to_list (traced_pass l tally expected (next_order ()) state)
    else List.rev !traced
  in
  List.iter
    (fun (c, ts) ->
      print_fields "counts" (List.map (fun (k, v) -> (k, float_of_int v)) (count_fields c));
      if trace then print_fields "traced" ts)
    counted;
  Printf.printf "tally %d %d\n" tally.attempted tally.failed

let spawn ~workload ~seed ~child ~seconds ~trace =
  let exe = Sys.executable_name in
  let args =
    [| exe; "measure"; "--workload"; workload; "--seed"; string_of_int seed;
       "--child"; string_of_int child; "--seconds"; Printf.sprintf "%.17g" seconds;
       "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char '\n' out
  | Unix.WEXITED 2 -> raise (Refused "a measuring process refused to run")
  | _ -> fail "measuring process %d failed" child

(* per-layer counts reported as they are *)
let layer_counts =
  [ "solver.conflicts"; "solver.decisions"; "solver.propagations";
    "solver.restarts"; "solver.deleted_clauses"; "solver.learned_literals";
    "trace.events"; "trace.passes"; "proof.resolution_steps";
    "proof.clauses_built"; "proof.df.peak_live_clauses";
    "proof.bf.peak_live_clauses"; "proof.hint.peak_live_clauses";
    "proof.df.arena_peak_bytes"; "proof.bf.arena_peak_bytes";
    "proof.hint.arena_peak_bytes"; "pipeline.rounds"; "pipeline.core_clauses" ]

let run ~workload ~seed ~seconds ~trace =
  let lines =
    List.concat_map
      (fun child ->
        spawn ~workload ~seed ~child ~seconds:(seconds /. float_of_int processes) ~trace)
      (List.init processes Fun.id)
  in
  let tagged tag =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | t :: rest when t = tag -> Some rest
        | _ -> None)
      lines
  in
  let floats tag = List.map (List.map float_of_string) (tagged tag) in
  let pairs tag =
    List.map
      (List.map (fun kv ->
           match String.split_on_char '=' kv with
           | [ k; v ] -> (k, float_of_string v)
           | _ -> fail "malformed sample %s" kv))
      (tagged tag)
  in
  let col i rows = List.map (fun r -> List.nth r i) rows in
  let setups = floats "setup" and passes = floats "pass" and traced = pairs "traced" in
  let attempted, failed =
    List.fold_left
      (fun (a, f) r ->
        match r with
        | [ x; y ] -> (a + int_of_string x, f + int_of_string y)
        | _ -> (a, f))
      (0, 0) (tagged "tally")
  in
  (* every traced pass of every process must give the same outputs *)
  let failed =
    match tagged "counts" with
    | c0 :: rest when List.for_all (( = ) c0) rest -> failed
    | _ ->
      prerr_endline "perfbench: deterministic outputs missing or differing between passes";
      failed + 1
  in
  let tally = { attempted; failed } in
  let count =
    match pairs "counts" with
    | c :: _ -> fun k -> List.assoc k c
    | [] -> fun _ -> 0.
  in
  (* each job's median over every pass of every process, summed *)
  let verdict_s =
    match passes with
    | [] -> 0.
    | p :: _ ->
      List.init (List.length p) (fun j -> median (col j passes))
      |> List.fold_left ( +. ) 0.
  in
  let pass_totals = List.map (List.fold_left ( +. ) 0.) passes in
  stamp ~workload ~seed ~passes:(List.length passes) ~processes;
  print_spread "setup_s" "s" (col 0 setups);
  print_spread "verdict_s (pass totals)" "s" pass_totals;
  Printf.printf "# attempted %d, failed %d, failed_frac %.4f\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  let metrics =
    if not trace then
      [
        ("setup_s", "s", median (col 0 setups));
        ("verdict_s", "s", verdict_s);
        ("trace_bytes", "bytes", count "trace_bytes");
        ("peak_live_clauses", "count", count "peak_live_clauses");
        ("peak_rss_mb", "MB", median (col 0 (floats "rss")));
      ]
    else begin
      let names = match traced with ts :: _ -> List.map fst ts | [] -> [] in
      let layer n = median (List.map (List.assoc n) traced) in
      List.iter (fun n -> print_spread n "" (List.map (List.assoc n) traced)) names;
      let df_learned = count "proof.df.learned" in
      [
        ("gen.generate_s", "s", median (col 1 setups));
        ("analysis.hint_s", "s", median (col 2 setups));
        (* the paper's Built%: what depth-first checking had to build *)
        ( "proof.built_ratio", "frac",
          if df_learned > 0. then count "proof.df.clauses_built" /. df_learned else 1. );
        ("ledger.trace_overhead_s", "s", layer "ledger.verdict_s" -. median pass_totals);
      ]
      @ List.map
          (fun n -> (n, (if String.ends_with ~suffix:"_bytes" n then "bytes" else "count"), count n))
          layer_counts
      (* shares are printed above, not metrics of their own *)
      @ List.filter_map
          (fun n ->
            if String.starts_with ~prefix:"ledger.share." n then None
            else
              let unit =
                if n = "solver.conflicts_per_s" then "1/s"
                else if n = "trace.decode_mb_per_s" then "MB/s"
                else if n = "proof.ns_per_step" then "ns"
                else "s"
              in
              Some (n, unit, layer n))
          names
    end
  in
  print_result ~correct:(failed = 0 && passes <> []) tally metrics

(* ---- selfcheck: the ledger adds up and names the layer that moved ---- *)

let ledger_rows ts =
  List.map
    (fun n -> (n, List.assoc n ts))
    [ "solver.solve_s"; "trace.encode_s"; "trace.decode_s"; "checker.self_s";
      "pipeline.self_s"; "ledger.unattributed_s" ]

let selfcheck () =
  let l = Ledger.create () in
  let small = [ "php_6"; "equiv_tiny"; "ring_small" ] in
  let state = Shrink (Array.of_list (List.map (fun n -> (n, None, generate l n)) small)) in
  let tally = { attempted = 0; failed = 0 } in
  let expected = Hashtbl.create 8 in
  let order = Array.init (jobs state) Fun.id in
  let pass () =
    match traced_pass l tally expected order state with
    | Some (_, ts) -> ts
    | None -> failwith "selfcheck: a traced pass failed"
  in
  let ok = ref true in
  let check cond fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "%s %s\n" (if cond then "ok  " else "FAIL") msg;
        if not cond then ok := false)
      fmt
  in
  ignore (pass ());
  let baseline = List.init 3 (fun _ -> pass ()) in
  List.iteri
    (fun i ts ->
      let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. (ledger_rows ts) in
      let verdict = List.assoc "ledger.verdict_s" ts in
      check
        (Float.abs (sum -. verdict) <= 1e-9 *. Float.max 1. verdict)
        "pass %d: layer self times + unattributed = %.9f s = traced verdict %.9f s"
        i sum verdict)
    baseline;
  let base name = median (List.map (fun ts -> List.assoc name ts) baseline) in
  let busy = 0.02 in
  List.iter
    (fun (span, row) ->
      l.inject <- Some (span, busy);
      let ts = pass () in
      l.inject <- None;
      let expected_s = busy *. float_of_int (Ledger.calls l span) in
      List.iter
        (fun (name, v) ->
          let delta = v -. base name in
          if name = row then
            check (delta >= 0.8 *. expected_s)
              "busy work in %s moves %s by %+.4f s (injected %.4f s)" span name
              delta expected_s
          else
            check
              (Float.abs delta <= (0.25 *. expected_s) +. 0.005)
              "busy work in %s leaves %s within noise (%+.4f s)" span name delta)
        (ledger_rows ts))
    [ ("solver", "solver.solve_s"); ("trace.encode", "trace.encode_s");
      ("checker.df", "checker.self_s"); ("pipeline", "pipeline.self_s") ];
  if !ok then print_endline "selfcheck passed"
  else (print_endline "selfcheck FAILED"; exit 1)

(* ---- regen-corpus ---- *)

let regen () =
  let out = corpus_dir in
  let l = Ledger.create () in
  let lines =
    List.concat_map
      (fun name ->
        let cnf = generate l name in
        let result, _, trace = Pipeline.Validate.solve_with_trace cnf in
        (match result with
         | Solver.Cdcl.Unsat -> ()
         | Solver.Cdcl.Sat _ -> fail "%s is satisfiable" name);
        let cnf_file = corpus_file out name ".cnf" in
        let trc_file = corpus_file out name ".trc" in
        Sat.Dimacs.write_file cnf_file cnf;
        write_file trc_file trace;
        List.map
          (fun p -> Printf.sprintf "%s %s" (Digest.to_hex (Digest.file p)) (Filename.basename p))
          [ cnf_file; trc_file ])
      corpus_families
  in
  write_file (manifest_path out) (String.concat "\n" lines ^ "\n");
  Printf.printf "wrote %s\n" (manifest_path out)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let child = ref 0 and anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME solve_validate, check_corpus or core_shrink");
      ("--seed", Arg.Set_int seed, "N order of the jobs in every pass (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure passes for S seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--child", Arg.Set_int child, "I index of a measuring process (measure only)");
    ]
  in
  let usage = "main.exe [selfcheck | regen-corpus] --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> anon := a :: !anon) usage;
  try
    match !anon with
    | [] ->
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    | [ "measure" ] ->
      measure ~workload:!workload ~seed:!seed ~child:!child ~seconds:!seconds
        ~trace:(!trace = 1)
    | [ "selfcheck" ] -> selfcheck ()
    | [ "regen-corpus" ] -> regen ()
    | _ ->
      Arg.usage specs usage;
      exit 2
  with
  | Refused msg ->
    Printf.eprintf "perfbench: refused: %s\n" msg;
    exit 2
  | Failed msg ->
    Printf.eprintf "perfbench: %s\n" msg;
    exit 1
