(* rescheck: the command-line frontend.

   Subcommands mirror the paper's workflow and its descendants:
     solve      solve a DIMACS file, optionally emitting a resolution trace
     check      validate an UNSAT trace (df / bf / hybrid)
     lint       statically lint a trace without replaying it
     analyze    profile the whole proof DAG without replaying it
     validate   solve and check in one step
     core       extract / iteratively shrink an unsat core (--minimal: MUC)
     trim       shrink a trace to its core-reachable records
     simplify   preprocess a formula
     drup       convert a trace to DRUP and RUP-verify it
     mc         BMC / interpolation-based model checking
     gen        emit a benchmark-family instance as DIMACS

   Exit-code convention (checking commands): 0 verified / clean, 1 the
   checked artifact is wrong (proof rejected, lint errors, solver bug),
   2 bad input or usage (unreadable or structurally corrupt files),
   3 simulated memory-out.  solve/validate keep the classic 10 (SAT) and
   20 (UNSAT) codes. *)

open Cmdliner

(* --- shared argument pieces -------------------------------------------- *)

let formula_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FORMULA" ~doc:"Input CNF formula in DIMACS format.")

let format_conv =
  let parse = function
    | "ascii" -> Ok Trace.Writer.Ascii
    | "binary" -> Ok Trace.Writer.Binary
    | s -> Error (`Msg (Printf.sprintf "unknown trace format %S" s))
  in
  let print fmt = function
    | Trace.Writer.Ascii -> Format.pp_print_string fmt "ascii"
    | Trace.Writer.Binary -> Format.pp_print_string fmt "binary"
  in
  Arg.conv (parse, print)

let format_arg =
  Arg.(
    value
    & opt format_conv Trace.Writer.Ascii
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Trace format: $(b,ascii) (readable) or $(b,binary) (compact).")

(* Commands that *read* a trace auto-detect its encoding from the first
   bytes; --format overrides the sniffing (needed e.g. for a magic-less
   binary fragment, which is otherwise ambiguous). *)
let in_format_arg =
  Arg.(
    value
    & opt (some format_conv) None
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Force the trace encoding ($(b,ascii) or $(b,binary)) instead of \
           auto-detecting it from the first bytes.")

let max_diags_arg =
  Arg.(
    value & opt int 100
    & info [ "max-diagnostics" ] ~docv:"N"
        ~doc:
          "Keep at most $(docv) diagnostics (counts keep accumulating past \
           the cap).")

(* Unreadable input is bad input: one [error:] line on stderr, exit 2. *)
let input_error msg =
  prerr_endline ("error: " ^ msg);
  exit 2

let ambiguous_format_exit msg =
  Printf.eprintf
    "error: cannot tell the trace encoding (%s); force one with --format \
     ascii|binary\n"
    msg;
  exit 2

(* The trace's encoding, or exit 2 when it is unreadable or ambiguous. *)
let detect_format src =
  match Trace.Reader.detect src with
  | `Ascii -> Trace.Writer.Ascii
  | `Binary -> Trace.Writer.Binary
  | `Ambiguous msg -> ambiguous_format_exit msg
  | exception Sys_error m -> input_error m

(* Telemetry flags shared by every instrumented command.  Evaluating the
   term configures the run profile up front; the files are written by the
   [at_exit] finalizer, so the handlers' deep [exit] calls are safe.
   Telemetry output goes only to these files and stderr — stdout stays
   byte-identical with the flags on or off. *)
let telemetry_term =
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a run-profile JSON (build env, metrics registry, \
             progress samples, span aggregates) to $(docv) on exit.")
  in
  let trace_events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-events" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event timeline to $(docv) on exit; load \
             it in chrome://tracing or Perfetto.")
  in
  let progress_arg =
    Arg.(
      value
      & opt ~vopt:(Some 1.0) (some float) None
      & info [ "progress" ] ~docv:"SECS"
          ~doc:
            "Sample progress (live clauses, arena bytes, buffer occupancy, \
             conflicts/s) every $(docv) seconds — $(b,--progress=SECS), \
             default 1 — printing a heartbeat line to stderr; the series \
             also lands in the $(b,--metrics) profile.")
  in
  let metrics_format_arg =
    let parse = function
      | "json" -> Ok `Json
      | "prom" -> Ok `Prom
      | s -> Error (`Msg (Printf.sprintf "unknown metrics format %S" s))
    in
    let print fmt = function
      | `Json -> Format.pp_print_string fmt "json"
      | `Prom -> Format.pp_print_string fmt "prom"
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Json
      & info [ "metrics-format" ] ~docv:"FMT"
          ~doc:
            "Format of the $(b,--metrics) file: $(b,json) (default) writes \
             the run-profile document, $(b,prom) writes the metrics \
             registry in the Prometheus text exposition format.")
  in
  let journal_arg =
    Arg.(
      value
      & opt ~vopt:(Some 1024) (some int) None
      & info [ "journal" ] ~docv:"N"
          ~doc:
            "Arm the flight recorder: a ring buffer of the last $(docv) \
             (default 1024) structured subsystem events — solver restarts \
             and DB reductions, window spills/reloads, parse slow-path \
             bails, arena fallbacks and growth — dumped as \
             deterministic JSON at exit (stderr, or $(b,--journal-file)) \
             and on SIGUSR1.  Verdicts and stdout are byte-identical with \
             the flag on or off.")
  in
  let journal_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-file" ] ~docv:"FILE"
          ~doc:"Write the $(b,--journal) dump to $(docv) instead of stderr.")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt ~vopt:(Some 5.0) (some float) None
      & info [ "watchdog" ] ~docv:"SECS"
          ~doc:
            "Arm the stall watchdog: if no forward progress (sampler \
             ticks) is seen across two $(docv)-second intervals (default \
             5), print a heartbeat to stderr and dump the journal.  \
             Implies $(b,--journal).")
  in
  let wire metrics metrics_format trace_events progress journal journal_file
      watchdog =
    (* --watchdog needs a journal to dump; arm one at default capacity *)
    let journal =
      match (journal, watchdog) with
      | None, Some _ -> Some 1024
      | j, _ -> j
    in
    Obs.Profile.configure ?metrics_file:metrics ~metrics_format
      ?trace_events_file:trace_events ?progress
      ~heartbeat:(progress <> None) ?journal ?journal_file ?watchdog ()
  in
  Term.(
    const wire $ metrics_arg $ metrics_format_arg $ trace_events_arg
    $ progress_arg $ journal_arg $ journal_file_arg $ watchdog_arg)

let seed_arg =
  Arg.(
    value
    & opt int Solver.Cdcl.default_config.seed
    & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the solver.")

let no_restarts_arg =
  Arg.(value & flag & info [ "no-restarts" ] ~doc:"Disable restarts.")

let no_deletion_arg =
  Arg.(
    value & flag
    & info [ "no-deletion" ] ~doc:"Disable learned-clause deletion.")

let minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:
          "Enable conflict-clause minimization (a post-paper technique;            traces remain checkable).")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run the solver's runtime sanitizer: validate watched-literal, \
           trail and implication-graph invariants at every decision \
           boundary (large slowdown; debugging aid).")

let config_of seed no_restarts no_deletion minimize sanitize =
  {
    Solver.Cdcl.default_config with
    seed;
    enable_restarts = not no_restarts;
    enable_deletion = not no_deletion;
    enable_minimization = minimize;
    sanitize;
  }

let pre_arg =
  Arg.(
    value & flag
    & info [ "pre" ]
        ~doc:
          "Run the proof-emitting simplifier before search.  The trace \
           opens with the simplifier's derivation records (one $(b,Learned) \
           record per derived clause, resolving original clauses), so it \
           still checks against the $(b,original) formula under every mode \
           and unsat cores keep original DIMACS clause indices; SAT models \
           are reconstructed to models of the original formula.")

(* A sanitizer violation is by definition a solver bug — same exit class
   as a rejected proof. *)
let or_sanitizer_exit f =
  try f ()
  with Solver.Cdcl.Sanitizer_violation m ->
    Printf.printf "c SANITIZER: %s\n" m;
    print_endline "s SANITIZER VIOLATION";
    exit 1

let load_formula path =
  try Sat.Dimacs.parse_file path
  with Sat.Dimacs.Parse_error m -> input_error m

(* Compact two-line proof-DAG summary shared by `check --analyze` and
   `validate --analyze`; the full profile belongs to `analyze`. *)
let print_dag_summary (p : Analysis.Dag.profile) =
  Printf.printf
    "c dag: %d/%d learned reachable, %d dead, core %d/%d originals, depth %d\n"
    p.reachable_learned p.learned p.dead_learned p.core_originals p.originals
    p.max_depth;
  Printf.printf
    "c dag: predicted peak live df %d bf %d hybrid %d; warnings %s\n"
    p.predicted_peak_live.df p.predicted_peak_live.bf
    p.predicted_peak_live.hybrid
    (Analysis.Dag.warning_summary p)

let analyze_flag_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Also run the whole-proof static analysis (see $(b,analyze)) over \
           the trace and print a two-line DAG summary.")

let print_stats (stats : Solver.Cdcl.stats) =
  Printf.printf
    "c decisions %d, propagations %d, conflicts %d, learned %d, deleted %d, restarts %d\n"
    stats.decisions stats.propagations stats.conflicts stats.learned_clauses
    stats.deleted_clauses stats.restarts

(* --- solve -------------------------------------------------------------- *)

let solve_cmd =
  let run () formula_path trace_path format pre seed no_restarts no_deletion
      minimize sanitize =
    let f = load_formula formula_path in
    let config = config_of seed no_restarts no_deletion minimize sanitize in
    (* no trace requested and no preprocessing: skip the encoder
       entirely, as solve always did *)
    let (result, stats, trace), seconds =
      or_sanitizer_exit (fun () ->
          Obs.Ctl.time (fun () ->
              if pre || trace_path <> None then
                let r, s, t =
                  Pipeline.Validate.solve_with_trace ~config ~format ~pre f
                in
                (r, s, Some t)
              else
                let r, s = Solver.Cdcl.solve ~config f in
                (r, s, None)))
    in
    print_stats stats;
    Printf.printf "c solved in %.3f s\n" seconds;
    (match result with
     | Solver.Cdcl.Sat a ->
       print_endline "s SATISFIABLE";
       let buf = Buffer.create 256 in
       Buffer.add_string buf "v";
       List.iter
         (fun (v, b) ->
           Buffer.add_char buf ' ';
           Buffer.add_string buf (string_of_int (if b then v else -v)))
         (Sat.Assignment.to_list a);
       Buffer.add_string buf " 0";
       print_endline (Buffer.contents buf);
       exit 10
     | Solver.Cdcl.Unsat ->
       (match trace, trace_path with
        | Some t, Some path ->
          let oc = open_out_bin path in
          output_string oc t;
          close_out oc;
          Printf.printf "c trace written to %s (%d bytes)\n" path
            (String.length t)
        | _ -> ());
       print_endline "s UNSATISFIABLE";
       exit 20)
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace"; "t" ] ~docv:"FILE"
          ~doc:"Write the resolution trace here when UNSAT.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a DIMACS formula, optionally with a trace.")
    Term.(
      const run $ telemetry_term $ formula_arg $ trace_arg $ format_arg
      $ pre_arg $ seed_arg $ no_restarts_arg $ no_deletion_arg $ minimize_arg
      $ sanitize_arg)

(* --- the checking-mode table -------------------------------------------- *)

(* Everything per-mode — the --mode argument's vocabulary, `check`'s
   checker dispatch, `validate`'s pipeline strategy, and which trace
   format versions the mode reads — derives from this one table, so a
   new mode is one new row, not four scattered match arms. *)

type check_call = {
  cc_mem_limit : int option;
  cc_format : Trace.Writer.format option;
  cc_first_pass : Trace.Source.t;
  cc_window : int;
}

type mode = {
  m_name : string;
  m_aliases : string list;
  m_hints : bool;
      (* accepts deletion-hinted (format version 2) traces *)
  m_check :
    (check_call ->
    Sat.Cnf.t ->
    Trace.Reader.source ->
    (Checker.Report.t, Proof.Diagnostics.failure) result)
    option;
      (* None: the mode only exists for `validate` *)
  m_strategy : window:int -> Pipeline.Validate.strategy;
}

let modes =
  [
    {
      m_name = "df";
      m_aliases = [ "depth-first" ];
      m_hints = false;
      m_check =
        Some
          (fun c f src ->
            Checker.Df.check ?mem_limit:c.cc_mem_limit ?format:c.cc_format
              ~first_pass:c.cc_first_pass f src);
      m_strategy = (fun ~window:_ -> Pipeline.Validate.Depth_first);
    };
    {
      m_name = "bf";
      m_aliases = [ "breadth-first" ];
      m_hints = false;
      m_check =
        Some
          (fun c f src ->
            Checker.Bf.check ?mem_limit:c.cc_mem_limit ?format:c.cc_format
              ~first_pass:c.cc_first_pass f src);
      m_strategy = (fun ~window:_ -> Pipeline.Validate.Breadth_first);
    };
    {
      m_name = "hybrid";
      m_aliases = [];
      m_hints = false;
      m_check =
        Some
          (fun c f src ->
            Checker.Hybrid.check ?mem_limit:c.cc_mem_limit ?format:c.cc_format
              ~first_pass:c.cc_first_pass f src);
      m_strategy = (fun ~window:_ -> Pipeline.Validate.Hybrid);
    };
    {
      m_name = "online";
      m_aliases = [];
      m_hints = false;
      m_check = None;
      m_strategy = (fun ~window:_ -> Pipeline.Validate.Online);
    };
    {
      m_name = "hint";
      m_aliases = [ "hinted" ];
      m_hints = true;
      m_check =
        Some
          (fun c f src ->
            Checker.Hint.check ?mem_limit:c.cc_mem_limit ?format:c.cc_format
              ~first_pass:c.cc_first_pass f src);
      m_strategy = (fun ~window:_ -> Pipeline.Validate.Hinted);
    };
    {
      m_name = "window";
      m_aliases = [];
      m_hints = false;
      m_check =
        Some
          (fun c f src ->
            Checker.Window.check ?mem_limit:c.cc_mem_limit ?format:c.cc_format
              ~window:c.cc_window ~first_pass:c.cc_first_pass f src);
      m_strategy = (fun ~window -> Pipeline.Validate.Window window);
    };
  ]

(* --- check -------------------------------------------------------------- *)

let strategy_arg =
  let parse s =
    match
      List.find_opt
        (fun m -> m.m_name = s || List.mem s m.m_aliases)
        modes
    with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print fmt m = Format.pp_print_string fmt m.m_name in
  Arg.(
    value
    & opt (conv (parse, print)) (List.hd modes)
    & info [ "strategy"; "s"; "mode" ] ~docv:"S"
        ~doc:
          "Checking mode: $(b,df) (fast, memory-hungry), $(b,bf) \
           (streaming, bounded memory), $(b,hybrid) (best of both, the \
           paper's future work), $(b,hint) (one-pass checking of a \
           deletion-hinted trace, see $(b,rescheck hint)), $(b,window) \
           (bf with at most $(b,--window) learned clauses resident), or — \
           for $(b,validate) only — $(b,online) (lint and check the live \
           solver stream while it is being produced).")

(* --window or --mem-limit below 1 is a usage error (exit 2), like any
   other bad input *)
let at_least_one flag n =
  if n < 1 then begin
    Printf.eprintf "error: --%s must be >= 1 (got %d)\n" flag n;
    exit 2
  end

let window_arg =
  Arg.(
    value & opt int 4096
    & info [ "window" ] ~docv:"N"
        ~doc:
          "Window size for $(b,--mode window): at most $(b,N) learned \
           clauses stay arena-resident; everything alive at a window \
           boundary is spilled and reloaded on demand.  Ignored by the \
           other modes.  Must be at least 1.")

let mem_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-limit" ] ~docv:"WORDS"
        ~doc:
          "Simulated memory budget in words (the paper's 800 MB cap).  Must \
           be at least 1.")

let check_cmd =
  let run () formula_path trace_path mode window mem_limit no_lint
      format_override json analyze refusal_file =
    at_least_one "window" window;
    Option.iter (at_least_one "mem-limit") mem_limit;
    (* [refuse] is the single exit point for every refusal and rejection:
       when --refusal names a file, the structured capture (status,
       message, position, involved ids and codes, journal tail) lands
       there for [rescheck explain]; stdout is already fully printed by
       the time it runs, so the capture never perturbs the verdict. *)
    let refuse ?pos ?(ids = []) ?(codes = []) ~status ~code message =
      (match refusal_file with
       | Some file ->
         Analysis.Explain.write_refusal ~file ~command:"check"
           ~exit_code:code ~status ~message ?pos ~ids ~codes ()
       | None -> ());
      exit code
    in
    let mode_check =
      match mode.m_check with
      | Some c -> c
      | None ->
        prerr_endline
          "error: --mode online belongs to `validate' (check replays an \
           existing trace; pass - or a FIFO to stream one in)";
        exit 2
    in
    let f = load_formula formula_path in
    (* "-" reads the trace from stdin; a named trace that has no
       seekable length (a FIFO) is likewise streamed.  Streamed bytes
       are spooled to a temp file as pass one consumes them, so the
       multi-pass checkers can re-read the trace afterwards. *)
    let input_channel =
      if trace_path = "-" then Some stdin
      else
        match open_in_bin trace_path with
        | exception Sys_error m -> input_error m
        | ic -> (
          match in_channel_length ic with
          | _ ->
            close_in_noerr ic;
            None
          | exception Sys_error _ -> Some ic)
    in
    let spool = ref None in
    let remove_spool () =
      match !spool with
      | Some (path, oc) ->
        close_out_noerr oc;
        (try Sys.remove path with Sys_error _ -> ())
      | None -> ()
    in
    let cur, source =
      match input_channel with
      | None ->
        let src = Trace.Reader.From_file trace_path in
        if format_override = None then ignore (detect_format src);
        (* version negotiation: refuse a hinted trace up front when the
           selected mode cannot honour deletion hints, instead of
           failing mid-check *)
        (match Trace.Reader.sniff_version src with
         | 1 -> ()
         | 2 when mode.m_hints -> ()
         | v ->
           let msg =
             Printf.sprintf
               "trace format version %d is not supported by --mode %s" v
               mode.m_name
           in
           Printf.printf "c bad trace: %s\n" msg;
           print_endline "s BAD TRACE (version)";
           refuse ~status:"s BAD TRACE (version)" ~code:2 msg
         | exception Sys_error m -> input_error m);
        (Trace.Reader.cursor ?format:format_override src, src)
      | Some ic ->
        let path = Filename.temp_file "rescheck_spool" ".trc" in
        let oc = open_out_bin path in
        spool := Some (path, oc);
        let cur =
          Trace.Reader.channel_cursor ?format:format_override
            ~tap:(output_string oc) ic
        in
        (match format_override, Trace.Reader.detect_cursor cur with
         | None, `Ambiguous msg ->
           remove_spool ();
           ambiguous_format_exit msg
         | _ -> ());
        (cur, Trace.Reader.From_file path)
    in
    (* One tee'd pass: the linter taps the events pass one decodes, so
       the trace is parsed once, not twice.  A trace that cannot even
       lint is bad input (exit 2), not a refuted proof (exit 1). *)
    let lint_stream =
      if no_lint then None
      else
        Some
          (Analysis.Lint.stream_start ~formula:f
             ~binary:(Trace.Reader.is_binary_cursor cur) ())
    in
    (* the DAG analyzer taps the same single parse as the linter *)
    let dag_stream =
      if analyze then
        Some
          (Analysis.Dag.stream_start
             ~binary:(Trace.Reader.is_binary_cursor cur) ())
      else None
    in
    let tapped =
      let base = Trace.Source.of_cursor ~close_cursor:true cur in
      let base =
        match lint_stream with
        | None -> base
        | Some t -> Trace.Source.tap (Analysis.Lint.stream_event t) base
      in
      match dag_stream with
      | None -> base
      | Some t -> Trace.Source.tap (Analysis.Dag.stream_event t) base
    in
    let first_pass =
      (* closing the first pass (the checkers do, even on failure) also
         flushes the spool, so later passes re-read complete bytes *)
      Trace.Source.make
        ~close:(fun () ->
          Trace.Source.close tapped;
          match !spool with Some (_, oc) -> flush oc | None -> ())
        ~pos:(fun () -> Trace.Source.last_pos tapped)
        (fun () -> Trace.Source.next tapped)
    in
    let checked, seconds =
      try
        Obs.Ctl.time (fun () ->
            mode_check
              {
                cc_mem_limit = mem_limit;
                cc_format = format_override;
                cc_first_pass = first_pass;
                cc_window = window;
              }
              f source)
      with Proof.Clause_db.Out_of_memory_simulated e ->
        remove_spool ();
        Printf.printf
          "s MEMORY OUT (budget %d words, needed %d)\n" e.limit_words
          e.wanted;
        exit 3
    in
    let lint_fail report =
      Format.printf "@[<v>%a@]@." Analysis.Lint.pp report;
      print_endline "s BAD TRACE (lint)";
      remove_spool ();
      let errors =
        List.filter
          (fun (d : Analysis.Lint.diagnostic) ->
            Analysis.Lint.severity_of d.code = Analysis.Lint.Error)
          report.Analysis.Lint.diagnostics
      in
      let pos, message =
        match errors with
        | d :: _ ->
          ( Some d.Analysis.Lint.pos,
            Printf.sprintf "%s: %s"
              (Analysis.Lint.code_id d.Analysis.Lint.code)
              d.Analysis.Lint.message )
        | [] -> (None, "trace failed lint")
      in
      refuse ?pos
        ~codes:
          (List.map
             (fun (d : Analysis.Lint.diagnostic) ->
               Analysis.Lint.code_id d.Analysis.Lint.code)
             errors)
        ~status:"s BAD TRACE (lint)" ~code:2 message
    in
    (match checked with
     | Ok report ->
       (match lint_stream with
        | Some t ->
          let lint = Analysis.Lint.stream_finish t in
          if not (Analysis.Lint.clean lint) then lint_fail lint
        | None -> ());
       remove_spool ();
       if json then
         (* deterministic by construction: the JSON report carries no
            elapsed seconds, so this output is diffable across runs *)
         print_endline (Checker.Report.to_json report)
       else begin
         (match dag_stream with
          | Some t -> (
            match Analysis.Dag.stream_finish t with
            | Ok p -> print_dag_summary p
            | Error e ->
              Printf.printf "c dag: analysis unavailable (%s)\n"
                e.Analysis.Dag.message)
          | None -> ());
         Format.printf "%a@." Checker.Report.pp report;
         Printf.printf "c checked in %.3f s\n" seconds
       end;
       print_endline "s VERIFIED UNSATISFIABLE";
       exit 0
     | Error Proof.Diagnostics.Hints_unsupported ->
       (* streamed/spooled hinted input reaches the checker before the
          version gate can see the file; the refusal also truncates the
          spool, so re-linting it would only mask the real cause *)
       remove_spool ();
       Printf.printf "c bad trace: %s\n"
         (Proof.Diagnostics.to_string Proof.Diagnostics.Hints_unsupported);
       print_endline "s BAD TRACE (version)";
       refuse ~status:"s BAD TRACE (version)" ~code:2
         (Proof.Diagnostics.to_string Proof.Diagnostics.Hints_unsupported)
     | Error d ->
       (* the tee'd lint stopped where the checker stopped; re-lint the
          (spooled) trace in full so the report matches a standalone
          `rescheck lint` run byte for byte *)
       (if not no_lint then
          let report =
            Analysis.Lint.run ?format:format_override ~formula:f source
          in
          if not (Analysis.Lint.clean report) then lint_fail report);
       remove_spool ();
       (match d with
        | Proof.Diagnostics.Malformed_trace _ ->
          (* unparsable input escapes the bad-input way, even under
             --no-lint, so scripts can tell the failure classes apart *)
          Printf.printf "c bad trace: %s\n"
            (Proof.Diagnostics.to_string d);
          print_endline "s BAD TRACE (parse)";
          refuse
            ?pos:(Proof.Diagnostics.position d)
            ~codes:[ "L001" ] ~status:"s BAD TRACE (parse)" ~code:2
            (Proof.Diagnostics.to_string d)
        | _ ->
          Printf.printf "c check failed: %s\n"
            (Proof.Diagnostics.to_string d);
          print_endline "s CHECK FAILED";
          refuse
            ?pos:(Proof.Diagnostics.position d)
            ~ids:(Proof.Diagnostics.ids d)
            ~status:"s CHECK FAILED" ~code:1
            (Proof.Diagnostics.to_string d)))
  in
  let trace_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Resolution trace produced by solve; $(b,-) reads it from \
             stdin, and a FIFO is streamed (and spooled for the \
             multi-pass modes).")
  in
  let no_lint_arg =
    Arg.(
      value & flag
      & info [ "no-lint" ]
          ~doc:
            "Skip the structural lint pre-pass and hand the trace straight \
             to the semantic checker.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "On success, print the report as deterministic JSON (no \
             elapsed-seconds line) instead of the human-readable text.")
  in
  let refusal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "refusal" ] ~docv:"FILE"
          ~doc:
            "On a refusal (exit 2) or rejected proof (exit 1), write a \
             structured $(b,rescheck-refusal/1) capture — status, message, \
             position, the clause ids and lint codes involved, and the \
             journal tail — to $(docv), consumable by $(b,rescheck \
             explain).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate an unsatisfiability trace against its formula.  The \
          trace encoding is auto-detected unless $(b,--format) forces it; \
          linting and pass one share a single parse.  Exit codes: 0 \
          verified, 1 proof rejected, 2 bad input (lint or parse failure, \
          ambiguous encoding, or a bad $(b,--window) or \
          $(b,--mem-limit)), 3 memory-out.")
    Term.(
      const run $ telemetry_term $ formula_arg $ trace_pos $ strategy_arg
      $ window_arg $ mem_limit_arg $ no_lint_arg $ in_format_arg
      $ json_arg $ analyze_flag_arg $ refusal_arg)

(* --- lint --------------------------------------------------------------- *)

let lint_cmd =
  let run () trace_path formula_path json max_diags format_override =
    let formula = Option.map load_formula formula_path in
    let src = Trace.Reader.From_file trace_path in
    if format_override = None then ignore (detect_format src);
    let report =
      try
        Analysis.Lint.run ?format:format_override ?formula
          ~max_diagnostics:max_diags src
      with Sys_error m -> input_error m
    in
    if json then print_endline (Analysis.Lint.to_json report)
    else begin
      Format.printf "@[<v>%a@]@." Analysis.Lint.pp report;
      print_endline
        (if Analysis.Lint.clean report then "s LINT OK" else "s LINT FAILED")
    end;
    exit (if Analysis.Lint.clean report then 0 else 1)
  in
  let trace_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Resolution trace to lint.")
  in
  let formula_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "formula"; "f" ] ~docv:"FORMULA"
          ~doc:
            "Cross-check the trace header against this DIMACS formula and \
             lint the formula's clauses (L4xx codes).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically validate a trace in one streaming pass — no clause \
          construction, no resolution.  Exit codes: 0 clean (warnings \
          allowed), 1 lint errors, 2 unreadable input or ambiguous \
          encoding.")
    Term.(
      const run $ telemetry_term $ trace_pos $ formula_opt $ json_arg
      $ max_diags_arg $ in_format_arg)

(* --- analyze ------------------------------------------------------------- *)

let analyze_cmd =
  let run () trace_path json max_diags format_override =
    let src = Trace.Reader.From_file trace_path in
    if format_override = None then ignore (detect_format src);
    match
      Analysis.Dag.run ?format:format_override ~max_diagnostics:max_diags
        src
    with
    | exception Sys_error m -> input_error m
    | Error e ->
      (* a trace without a profilable DAG is bad input, same exit class
         as a lint error or an unparsable trace *)
      Printf.printf "c cannot analyze: %s at %s\n" e.Analysis.Dag.message
        (Trace.Reader.pos_to_string e.Analysis.Dag.pos);
      print_endline "s BAD TRACE (analyze)";
      exit 2
    | Ok p ->
      if json then print_endline (Analysis.Dag.to_json p)
      else begin
        Format.printf "@[<v>%a@]@." Analysis.Dag.pp p;
        print_endline "s ANALYZE OK"
      end;
      exit 0
  in
  let trace_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Resolution trace to analyze.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the profile as machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically profile the whole proof DAG in one streaming pass — \
          reachability from the final conflict, dead and duplicate \
          derivations (L5xx warnings), chain shape, def/use lifetimes and \
          per-strategy peak-live predictions; clause literals are never \
          materialised.  Exit codes: 0 profiled (warnings allowed), 2 \
          unreadable, unparsable or structurally broken input.")
    Term.(
      const run $ telemetry_term $ trace_pos $ json_arg $ max_diags_arg
      $ in_format_arg)

(* --- validate ------------------------------------------------------------ *)

let validate_cmd =
  let run () formula_path mode window format pre seed no_restarts
      no_deletion minimize sanitize analyze =
    at_least_one "window" window;
    let f = load_formula formula_path in
    let config = config_of seed no_restarts no_deletion minimize sanitize in
    let strategy = mode.m_strategy ~window in
    let o =
      or_sanitizer_exit (fun () ->
          Pipeline.Validate.run ~config ~format ~strategy ~analyze ~pre f)
    in
    print_stats o.stats;
    (match o.pre with
     | Some (s : Solver.Simplify.stats) ->
       Printf.printf
         "c pre: %d units, %d pures, %d subsumed, %d strengthened, %d \
          vars eliminated (+%d resolvents), %d failed literals, %d \
          derived records, %d rounds\n"
         s.units_propagated s.pure_literals s.subsumed_removed
         s.strengthened s.eliminated_vars s.resolvents_added
         s.failed_literals s.derived_records s.rounds
     | None -> ());
    Printf.printf "c solve %.3f s, check %.3f s, trace %d bytes\n"
      o.solve_seconds o.check_seconds o.trace_bytes;
    (match o.online with
     | Some info ->
       Printf.printf "c online: peak buffered %d bytes%s\n"
         info.peak_buffered_bytes
         (match o.verdict with
          | Pipeline.Validate.Unsat_verified _
          | Pipeline.Validate.Unsat_check_failed _ ->
            Printf.sprintf ", live lint %s (%d errors, %d warnings)"
              (if Analysis.Lint.clean info.lint then "clean" else "dirty")
              info.lint.Analysis.Lint.errors
              info.lint.Analysis.Lint.warnings
          | _ -> "")
     | None -> ());
    (match o.dag with Some p -> print_dag_summary p | None -> ());
    (match o.verdict with
     | Pipeline.Validate.Sat_verified _ ->
       print_endline "s SATISFIABLE (model verified)";
       exit 10
     | Pipeline.Validate.Unsat_verified report ->
       Format.printf "%a@." Checker.Report.pp report;
       print_endline "s UNSATISFIABLE (proof verified)";
       exit 20
     | Pipeline.Validate.Sat_model_wrong i ->
       Printf.printf "c SOLVER BUG: clause %d not satisfied by the model\n" i;
       exit 1
     | Pipeline.Validate.Unsat_check_failed d ->
       Printf.printf "c SOLVER BUG: %s\n" (Proof.Diagnostics.to_string d);
       exit 1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Solve and independently validate the answer in one step.  With \
          $(b,--mode online) the solver's live event stream is teed into \
          the linter and the checker's counting pass while solving runs, \
          so the full encoded trace is never held in memory.")
    Term.(
      const run $ telemetry_term $ formula_arg $ strategy_arg $ window_arg
      $ format_arg $ pre_arg $ seed_arg $ no_restarts_arg $ no_deletion_arg
      $ minimize_arg $ sanitize_arg $ analyze_flag_arg)

(* --- core ---------------------------------------------------------------- *)

let core_cmd =
  let run () formula_path rounds output minimal pre =
    match load_formula formula_path with
    | f when minimal -> (
      match Pipeline.Muc.minimize ~pre f with
      | Error `Sat ->
        print_endline "s SATISFIABLE (no unsat core)";
        exit 10
      | Ok r ->
        Printf.printf
          "c minimal unsatisfiable core: %d of %d clauses (%d solver calls)\n"
          (Sat.Cnf.nclauses r.formula) (Sat.Cnf.nclauses f) r.solver_calls;
        (match output with
         | Some path ->
           Sat.Dimacs.write_file
             ~comment:(Printf.sprintf "minimal unsat core of %s" formula_path)
             path r.formula;
           Printf.printf "c core written to %s\n" path
         | None -> ());
        exit 20)
    | f -> (
      match Pipeline.Unsat_core.shrink ~pre ~max_rounds:rounds f with
      | Error `Sat ->
        print_endline "s SATISFIABLE (no unsat core)";
        exit 10
      | Error (`Check_failed d) ->
        Printf.printf "c check failed: %s\n" (Proof.Diagnostics.to_string d);
        exit 1
      | Ok s ->
        let rows =
          List.mapi
            (fun i (it : Pipeline.Unsat_core.iteration) ->
              [ string_of_int (i + 1); string_of_int it.clauses;
                string_of_int it.vars ])
            s.iterations
        in
        Harness.Table.print
          (Harness.Table.render
             ~headers:[ "iteration"; "clauses"; "vars" ]
             ([ [ "0 (input)"; string_of_int s.initial.clauses;
                  string_of_int s.initial.vars ] ] @ rows));
        Printf.printf "c fixed point: %b after %d rounds\n" s.reached_fixpoint
          s.rounds;
        (match output with
         | Some path ->
           Sat.Dimacs.write_file
             ~comment:
               (Printf.sprintf "unsat core of %s (%d rounds)" formula_path
                  s.rounds)
             path s.final_core;
           Printf.printf "c core written to %s\n" path
         | None -> ());
        exit 20)
  in
  let rounds_arg =
    Arg.(
      value & opt int 30
      & info [ "rounds"; "r" ] ~docv:"N"
          ~doc:"Maximum shrinking iterations (the paper measured 30).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Write the final core as DIMACS.")
  in
  let minimal_arg =
    Arg.(
      value & flag
      & info [ "minimal"; "m" ]
          ~doc:
            "Minimise destructively to a minimal unsatisfiable core \
             (every clause necessary).")
  in
  Cmd.v
    (Cmd.info "core"
       ~doc:
         "Extract and iteratively shrink an unsatisfiable core (§4).  With \
          $(b,--pre) each extraction preprocesses first; indices still \
          point into the input formula.")
    Term.(
      const run $ telemetry_term $ formula_arg $ rounds_arg $ output_arg
      $ minimal_arg $ pre_arg)

(* --- simplify ------------------------------------------------------------ *)

let simplify_stats_json ~verdict ~original ~remaining
    (s : Solver.Simplify.stats) =
  Printf.sprintf
    "{\"verdict\":\"%s\",\"original_clauses\":%d,\"remaining_clauses\":%d,\
     \"rounds\":%d,\"derived_records\":%d,\"passes\":{\
     \"units_propagated\":%d,\"pure_literals\":%d,\
     \"tautologies_removed\":%d,\"subsumed_removed\":%d,\
     \"duplicates_removed\":%d,\"strengthened\":%d,\"eliminated_vars\":%d,\
     \"resolvents_added\":%d,\"failed_literals\":%d}}"
    verdict original remaining s.rounds s.derived_records s.units_propagated
    s.pure_literals s.tautologies_removed s.subsumed_removed
    s.duplicates_removed s.strengthened s.eliminated_vars s.resolvents_added
    s.failed_literals

let simplify_cmd =
  let run () formula_path output trace_path format json =
    let f = load_formula formula_path in
    let writer =
      Option.map (fun _ -> Trace.Writer.create ~version:1 format) trace_path
    in
    let outcome, stats =
      Obs.Span.scope ~cat:"pipeline" "simplify.cli" @@ fun () ->
      Solver.Simplify.run ?trace:(Option.map Trace.Writer.as_sink writer) f
    in
    (match writer, trace_path with
     | Some w, Some path ->
       Trace.Writer.to_file w path;
       if not json then
         Printf.printf "c trace written to %s (%d bytes)\n" path
           (Trace.Writer.bytes_written w)
     | _ -> ());
    if not json then begin
      Printf.printf
        "c units %d, pures %d, tautologies %d, subsumed %d, duplicates %d\n"
        stats.units_propagated stats.pure_literals stats.tautologies_removed
        stats.subsumed_removed stats.duplicates_removed;
      Printf.printf
        "c strengthened %d, eliminated %d vars (+%d resolvents), failed \
         literals %d\n"
        stats.strengthened stats.eliminated_vars stats.resolvents_added
        stats.failed_literals;
      Printf.printf "c %d derived records in %d rounds\n"
        stats.derived_records stats.rounds
    end;
    let finish ~verdict ~remaining code =
      if json then
        print_endline
          (simplify_stats_json ~verdict ~original:(Sat.Cnf.nclauses f)
             ~remaining stats);
      exit code
    in
    (match outcome with
     | Solver.Simplify.P_unsat ->
       if not json then print_endline "s UNSATISFIABLE (by preprocessing)";
       finish ~verdict:"unsat" ~remaining:0 20
     | Solver.Simplify.P_sat _ ->
       if not json then print_endline "s SATISFIABLE (by preprocessing)";
       finish ~verdict:"sat" ~remaining:0 10
     | Solver.Simplify.P_simplified { clauses; units; _ } ->
       (* the surviving clause set as a formula: forced assignments have
          been applied, so the unit clauses are not repeated in it *)
       let formula =
         Sat.Cnf.of_clauses (Sat.Cnf.nvars f) (List.map snd clauses)
       in
       if not json then begin
         Printf.printf "c %d/%d clauses remain (%d forced units)\n"
           (Sat.Cnf.nclauses formula) (Sat.Cnf.nclauses f)
           (List.length units);
         match output with
         | Some path ->
           Sat.Dimacs.write_file
             ~comment:(Printf.sprintf "simplified from %s" formula_path)
             path formula;
           Printf.printf "c written to %s\n" path
         | None -> print_string (Sat.Dimacs.to_string formula)
       end
       else
         Option.iter
           (fun path ->
             Sat.Dimacs.write_file
               ~comment:(Printf.sprintf "simplified from %s" formula_path)
               path formula)
           output;
       finish ~verdict:"simplified"
         ~remaining:(Sat.Cnf.nclauses formula + List.length units)
         0)
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace"; "t" ] ~docv:"FILE"
          ~doc:
            "Write the simplifier's proof-emitting trace here: one \
             $(b,Learned) record per derived clause, resolving original \
             clauses.  When preprocessing alone proves UNSAT the trace is \
             complete and $(b,rescheck check) validates it against the \
             input formula; otherwise it is the (documented) proof prefix \
             a seeded search run would extend.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the outcome and per-pass statistics as deterministic \
             JSON instead of the human-readable text (the formula itself \
             is only written with $(b,--output)).")
  in
  Cmd.v
    (Cmd.info "simplify"
       ~doc:
         "Preprocess a formula (units, pure literals, subsumption, \
          self-subsuming resolution, bounded variable elimination, \
          failed-literal probing) into an equisatisfiable smaller one.  \
          Every derived clause carries a resolution justification; \
          $(b,--trace) captures them.  Exit codes: 0 simplified, 10/20 \
          decided by preprocessing alone, 2 malformed DIMACS.")
    Term.(
      const run $ telemetry_term $ formula_arg $ output_arg $ trace_arg
      $ format_arg $ json_arg)

(* --- trim ---------------------------------------------------------------- *)

let trim_cmd =
  let run () formula_path trace_path output format_opt =
    ignore (load_formula formula_path);
    let src = Trace.Reader.From_file trace_path in
    let detected = detect_format src in
    (* by default the trimmed trace keeps the input's encoding;
       --format rewrites into the other one *)
    let w = Trace.Writer.create (Option.value ~default:detected format_opt) in
    match Analysis.Dag.trim src w with
    | Error e ->
      Printf.printf "c cannot trim: %s at %s\n" e.Analysis.Dag.message
        (Trace.Reader.pos_to_string e.Analysis.Dag.pos);
      print_endline "s BAD TRACE (analyze)";
      exit 2
    | Ok (stats, _profile) ->
      Trace.Writer.to_file w output;
      Printf.printf
        "c trim: kept %d of %d learned clauses (%d dead dropped), %d -> \
         %d records, %d -> %d bytes -> %s\n"
        stats.kept_learned
        (stats.kept_learned + stats.dropped_learned)
        stats.dropped_learned stats.records_in stats.records_out
        stats.bytes_in stats.bytes_out output;
      exit 0
  in
  let trace_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Resolution trace produced by solve.")
  in
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Trimmed trace path.")
  in
  let out_format_arg =
    Arg.(
      value
      & opt (some format_conv) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Encoding of the trimmed trace ($(b,ascii) or $(b,binary)); \
             defaults to the input's encoding.")
  in
  Cmd.v
    (Cmd.info "trim"
       ~doc:
         "Shrink a trace to its core-reachable records: dead derivations \
          (never used to reach the final conflict) and trailing junk are \
          dropped, through a static analysis of the proof DAG — the proof \
          is not replayed.  Every checking strategy reaches an identical \
          verdict and core on the trimmed trace, and trimming again is a \
          no-op.  Exit codes: 0 trimmed, 2 unreadable, unparsable or \
          structurally broken input.")
    Term.(
      const run $ telemetry_term $ formula_arg $ trace_pos $ output_arg
      $ out_format_arg)

(* --- hint --------------------------------------------------------------- *)

let hint_cmd =
  let run () trace_path output format_opt strip =
    let src = Trace.Reader.From_file trace_path in
    let detected = detect_format src in
    (* like trim: the output keeps the input's encoding unless --format
       rewrites into the other one *)
    let out_format = Option.value ~default:detected format_opt in
    if strip then (
      let w = Trace.Writer.create ~version:1 out_format in
      match Analysis.Dag.strip_hints src w with
      | Error e ->
        Printf.printf "c cannot strip: %s at %s\n" e.Analysis.Dag.message
          (Trace.Reader.pos_to_string e.Analysis.Dag.pos);
        print_endline "s BAD TRACE (parse)";
        exit 2
      | Ok stats ->
        Trace.Writer.to_file w output;
        Printf.printf
          "c strip: dropped %d delete records, %d -> %d records, %d bytes \
           -> %s\n"
          stats.Analysis.Dag.dropped_hints stats.Analysis.Dag.h_records_in
          stats.Analysis.Dag.h_records_out
          (Trace.Writer.bytes_written w)
          output;
        exit 0)
    else (
      let w = Trace.Writer.create ~version:2 out_format in
      match Analysis.Dag.hint src w with
      | Error e ->
        Printf.printf "c cannot hint: %s at %s\n" e.Analysis.Dag.message
          (Trace.Reader.pos_to_string e.Analysis.Dag.pos);
        print_endline "s BAD TRACE (analyze)";
        exit 2
      | Ok (stats, _profile) ->
        Trace.Writer.to_file w output;
        Printf.printf
          "c hint: %d delete records cover %d clauses (%d pinned for the \
           final chain, %d stale hints dropped), %d -> %d records, %d \
           bytes -> %s\n"
          stats.Analysis.Dag.hints stats.Analysis.Dag.hinted_clauses
          stats.Analysis.Dag.pinned stats.Analysis.Dag.dropped_hints
          stats.Analysis.Dag.h_records_in stats.Analysis.Dag.h_records_out
          (Trace.Writer.bytes_written w)
          output;
        exit 0)
  in
  let trace_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Resolution trace produced by solve.")
  in
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Hinted trace path.")
  in
  let out_format_arg =
    Arg.(
      value
      & opt (some format_conv) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Encoding of the output trace ($(b,ascii) or $(b,binary)); \
             defaults to the input's encoding.")
  in
  let strip_arg =
    Arg.(
      value & flag
      & info [ "strip" ]
          ~doc:
            "Reverse direction: drop every deletion hint and write a plain \
             version-1 trace that any mode can check.")
  in
  Cmd.v
    (Cmd.info "hint"
       ~doc:
         "Rewrite a trace into the deletion-hinted format (version 2): a \
          static last-use analysis of the proof DAG inserts delete records \
          at each clause's final reference, so $(b,check --mode hint) can \
          validate the proof in one pass at breadth-first's peak memory.  \
          Clauses the final conflict chain needs are pinned (never hinted) \
          and hinting an already-hinted trace is a no-op on the schedule.  \
          With $(b,--strip) the rewrite runs the other way.  Exit codes: 0 \
          written, 2 unreadable, unparsable or structurally broken input.")
    Term.(
      const run $ telemetry_term $ trace_pos $ output_arg $ out_format_arg
      $ strip_arg)

(* --- drup ---------------------------------------------------------------- *)

let drup_cmd =
  let run formula_path trace_path output verify =
    let f = load_formula formula_path in
    match Pipeline.Drup.of_trace f (Trace.Reader.From_file trace_path) with
    | Error d ->
      Printf.printf "c conversion failed: %s\n"
        (Proof.Diagnostics.to_string d);
      exit 1
    | Ok derivation ->
      (if verify then
         match Checker.Rup.check f derivation with
         | Ok stats ->
           Printf.printf "c RUP-verified: %d steps, %d propagations\n"
             stats.clauses_checked stats.propagations
         | Error e ->
           Printf.printf "c RUP verification failed: %s\n"
             (Format.asprintf "%a" Checker.Rup.pp_failure e);
           exit 1);
      let text = Pipeline.Drup.to_string derivation in
      (match output with
       | Some path ->
         let oc = open_out path in
         output_string oc text;
         close_out oc;
         Printf.printf "c DRUP written to %s (%d clauses, %d bytes)\n" path
           (List.length derivation) (String.length text)
       | None -> print_string text);
      exit 0
  in
  let trace_pos =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Resolution trace produced by solve.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"DRUP output path.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Re-check the derivation with the built-in RUP checker.")
  in
  Cmd.v
    (Cmd.info "drup"
       ~doc:
         "Convert a resolve-source trace into a DRUP derivation (the \
          modern proof format).")
    Term.(const run $ formula_arg $ trace_pos $ output_arg $ verify_arg)

(* --- mc ------------------------------------------------------------------ *)

let parse_system spec =
  match String.split_on_char ':' spec with
  | [ "ring"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 2 -> Ok (Circuit.Transition.token_ring ~nodes:n)
    | _ -> Error "ring:<nodes>, nodes >= 2")
  | [ "ring-buggy"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 2 -> Ok (Circuit.Transition.token_ring_buggy ~nodes:n)
    | _ -> Error "ring-buggy:<nodes>, nodes >= 2")
  | [ "counter"; w; l; t ] -> (
    match int_of_string_opt w, int_of_string_opt l, int_of_string_opt t with
    | Some width, Some limit, Some target -> (
      match Circuit.Transition.saturating_counter ~width ~limit ~target with
      | ts -> Ok ts
      | exception Invalid_argument m -> Error m)
    | _ -> Error "counter:<width>:<limit>:<target>")
  | [ "mutex" ] -> Ok (Circuit.Transition.mutex ())
  | _ ->
    Error
      "unknown system (ring:<n>, ring-buggy:<n>, counter:<w>:<l>:<t>, mutex)"

let mc_cmd =
  let run spec bound unbounded =
    match parse_system spec with
    | Error m -> input_error m
    | Ok ts ->
      if unbounded then begin
        match Pipeline.Bmc_engine.interpolation_mc ts with
        | Pipeline.Bmc_engine.Proved_safe { iterations; reachable_nodes } ->
          Printf.printf
            "s SAFE (all depths; %d interpolation rounds, invariant %d BDD \
             nodes)\n"
            iterations reachable_nodes;
          exit 0
        | Pipeline.Bmc_engine.Counterexample { depth } ->
          Printf.printf "s UNSAFE (violated within %d steps)\n" depth;
          exit 1
        | Pipeline.Bmc_engine.Inconclusive { iterations } ->
          Printf.printf "s UNKNOWN (after %d rounds)\n" iterations;
          exit 3
        | Pipeline.Bmc_engine.Mc_check_failed d ->
          Printf.printf "c proof rejected: %s\n"
            (Proof.Diagnostics.to_string d);
          exit 4
      end
      else begin
        match Pipeline.Bmc_engine.bmc ~max_depth:bound ts with
        | Pipeline.Bmc_engine.Cex d ->
          Printf.printf "s UNSAFE (counterexample at depth %d)\n" d;
          exit 1
        | Pipeline.Bmc_engine.Safe_up_to d ->
          Printf.printf "s SAFE UP TO DEPTH %d (use --unbounded to close)\n" d;
          exit 0
        | Pipeline.Bmc_engine.Check_failed x ->
          Printf.printf "c proof rejected: %s\n"
            (Proof.Diagnostics.to_string x);
          exit 4
      end
  in
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SYSTEM"
          ~doc:
            "Transition system: $(b,ring:N), $(b,ring-buggy:N), \
             $(b,counter:W:LIMIT:TARGET), or $(b,mutex).")
  in
  let bound_arg =
    Arg.(
      value & opt int 10
      & info [ "bound"; "k" ] ~docv:"K" ~doc:"BMC depth bound.")
  in
  let unbounded_arg =
    Arg.(
      value & flag
      & info [ "unbounded"; "u" ]
          ~doc:"Interpolation-based unbounded checking instead of BMC.")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Model-check a built-in transition system: BMC with validated \
          proofs, or interpolation-based unbounded checking.")
    Term.(const run $ spec_arg $ bound_arg $ unbounded_arg)

(* --- gen ----------------------------------------------------------------- *)

let gen_cmd =
  let run name list output =
    if list then begin
      List.iter
        (fun (fam : Gen.Families.family) ->
          Printf.printf "%-14s (stands in for %s)\n" fam.name
            fam.paper_analogue)
        (Gen.Families.suite ());
      exit 0
    end;
    match name with
    | None ->
      prerr_endline "error: FAMILY required (or use --list)";
      exit 2
    | Some name -> (
      match Gen.Families.find name with
      | None ->
        Printf.eprintf "error: unknown family %S (try --list)\n" name;
        exit 2
      | Some fam ->
        let f = fam.generate () in
        let doc =
          Sat.Dimacs.to_string
            ~comment:
              (Printf.sprintf "%s: analogue of %s" fam.name fam.paper_analogue)
            f
        in
        (match output with
         | Some path ->
           let oc = open_out path in
           output_string oc doc;
           close_out oc;
           Printf.printf "c %s: %d vars, %d clauses -> %s\n" fam.name
             (Sat.Cnf.nvars f) (Sat.Cnf.nclauses f) path
         | None -> print_string doc);
        exit 0)
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FAMILY" ~doc:"Benchmark family name.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list"; "l" ] ~doc:"List available families.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark instance as DIMACS.")
    Term.(const run $ name_arg $ list_arg $ output_arg)

(* --- explain -------------------------------------------------------------- *)

let explain_cmd =
  let run trace_path refusal_path json window format_override =
    (match Analysis.Explain.read_refusal refusal_path with
     | Error msg -> input_error msg
     | Ok refusal -> (
       match
         Analysis.Explain.build ?format:format_override ~window
           ~trace:(Trace.Reader.From_file trace_path)
           ~refusal ()
       with
       | report ->
         if json then print_endline (Analysis.Explain.to_json report)
         else Format.printf "%a@?" Analysis.Explain.pp report;
         exit 0
       | exception Sys_error msg -> input_error msg))
  in
  let trace_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"The trace the refusal is about.")
  in
  let refusal_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"REFUSAL"
          ~doc:
            "A $(b,rescheck-refusal/1) capture, as written by $(b,check \
             --refusal).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the report as a deterministic $(b,rescheck-explain/1) \
             JSON document instead of the human-readable text.")
  in
  let window_arg =
    Arg.(
      value & opt int 5
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Context records to keep on each side of the offending record \
             (default 5).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct the context of a captured refusal: the offending \
          record with a surrounding trace window, the DAG neighborhood of \
          the clause ids involved, documentation for the lint codes cited, \
          and the journal tail recorded at refusal time.  Works on the \
          refused trace itself — parse errors in the window are reported, \
          not fatal.  Exit codes: 0 report produced, 2 unreadable trace or \
          refusal file.")
    Term.(
      const run $ trace_pos $ refusal_pos $ json_arg $ window_arg
      $ in_format_arg)

(* --- profile diff --------------------------------------------------------- *)

(* Flatten a rescheck-run-profile/1 document into comparable scalars:
   counters as themselves, gauges as .value/.max, histograms as
   .count/.sum.  Bucket shapes are deliberately not compared — two runs
   with equal counts and sums but different bucketing are within noise
   for gating purposes. *)
let flatten_profile j =
  let open Obs.Json in
  let metrics = Option.value ~default:(Obj []) (member "metrics" j) in
  let fields k = Option.value ~default:[] (Option.bind (member k metrics) obj) in
  let scalars = ref [] in
  let add name v = scalars := (name, v) :: !scalars in
  List.iter
    (fun (name, v) -> Option.iter (add name) (number v))
    (fields "counters");
  List.iter
    (fun (name, v) ->
      Option.iter (add (name ^ ".value")) (Option.bind (member "value" v) number);
      Option.iter (add (name ^ ".max")) (Option.bind (member "max" v) number))
    (fields "gauges");
  List.iter
    (fun (name, v) ->
      Option.iter (add (name ^ ".count")) (Option.bind (member "count" v) number);
      Option.iter (add (name ^ ".sum")) (Option.bind (member "sum" v) number))
    (fields "histograms");
  List.sort (fun (a, _) (b, _) -> String.compare a b) !scalars

let profile_diff_cmd =
  let run a_path b_path json gate =
    let load path =
      match Obs.Json.of_file path with
      | j -> (
        match Obs.Json.(Option.bind (member "schema" j) string) with
        | Some "rescheck-run-profile/1" -> j
        | _ ->
          Printf.eprintf "error: %s: not a rescheck-run-profile/1 file\n" path;
          exit 2)
      | exception Sys_error msg -> input_error msg
      | exception Obs.Json.Parse_error msg ->
        Printf.eprintf "error: %s: %s\n" path msg;
        exit 2
    in
    let ja = load a_path and jb = load b_path in
    let fa = flatten_profile ja and fb = flatten_profile jb in
    let wall j =
      Obs.Json.(
        Option.bind (member "env" j) (fun e ->
            Option.bind (member "wall_seconds" e) number))
    in
    (* drift of b relative to a; a zero baseline with a non-zero value is
       unbounded drift and always trips a gate *)
    let pct a b =
      if a = 0.0 then if b = 0.0 then 0.0 else infinity
      else Float.abs (b -. a) /. Float.abs a *. 100.0
    in
    let shared, only_a =
      List.partition_map
        (fun (name, va) ->
          match List.assoc_opt name fb with
          | Some vb -> Left (name, va, vb)
          | None -> Right name)
        fa
    in
    let only_b =
      List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name fa then None else Some name)
        fb
    in
    let gated =
      match gate with
      | None -> []
      | Some limit ->
        List.filter (fun (_, va, vb) -> pct va vb > limit) shared
    in
    let jf = Obs.Metrics.json_float in
    if json then begin
      let b = Buffer.create 2048 in
      Buffer.add_string b
        (Printf.sprintf
           {|{"schema":"rescheck-profile-diff/1","a":"%s","b":"%s","wall_seconds":{"a":%s,"b":%s},"metrics":[|}
           (Obs.Metrics.json_escape a_path)
           (Obs.Metrics.json_escape b_path)
           (match wall ja with Some w -> jf w | None -> "null")
           (match wall jb with Some w -> jf w | None -> "null"));
      List.iteri
        (fun i (name, va, vb) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               {|{"name":"%s","a":%s,"b":%s,"pct":%s}|}
               (Obs.Metrics.json_escape name)
               (jf va) (jf vb)
               (let p = pct va vb in
                if Float.is_finite p then jf p else "\"inf\"")))
        shared;
      let names l =
        String.concat ","
          (List.map
             (fun n -> Printf.sprintf {|"%s"|} (Obs.Metrics.json_escape n))
             l)
      in
      Buffer.add_string b
        (Printf.sprintf
           {|],"only_a":[%s],"only_b":[%s],"gate":%s,"over_gate":%d}|}
           (names only_a) (names only_b)
           (match gate with Some g -> jf g | None -> "null")
           (List.length gated));
      print_endline (Buffer.contents b)
    end
    else begin
      Printf.printf "profile diff: %s vs %s\n" a_path b_path;
      (match (wall ja, wall jb) with
       | Some wa, Some wb ->
         Printf.printf "  wall_seconds: %.6f -> %.6f (info only)\n" wa wb
       | _ -> ());
      List.iter
        (fun (name, va, vb) ->
          if va <> vb then
            let p = pct va vb in
            Printf.printf "  %-32s %s -> %s (%s%%)\n" name (jf va) (jf vb)
              (if Float.is_finite p then jf p else "inf"))
        shared;
      List.iter (fun n -> Printf.printf "  only in A: %s\n" n) only_a;
      List.iter (fun n -> Printf.printf "  only in B: %s\n" n) only_b;
      if shared <> [] && List.for_all (fun (_, va, vb) -> va = vb) shared then
        Printf.printf "  %d metrics identical\n" (List.length shared)
    end;
    match gated with
    | [] -> exit 0
    | _ ->
      List.iter
        (fun (name, va, vb) ->
          Printf.eprintf "profile diff: %s drifted %s -> %s (gate %s%%)\n"
            name (jf va) (jf vb)
            (match gate with Some g -> jf g | None -> "?"))
        gated;
      exit 1
  in
  let a_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"Baseline run profile.")
  in
  let b_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Candidate run profile.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the diff as a deterministic \
             $(b,rescheck-profile-diff/1) JSON document.")
  in
  let gate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "gate" ] ~docv:"PCT"
          ~doc:
            "Fail (exit 1) when any metric present in both profiles \
             drifts by more than $(docv) percent.  Wall-clock and \
             metrics present on only one side are reported but never \
             gated.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two rescheck-run-profile/1 files metric by metric: \
          counters, gauge levels and high-water marks, histogram counts \
          and sums.  Exit codes: 0 within gate (or no gate), 1 gated \
          drift, 2 bad input.")
    Term.(const run $ a_pos $ b_pos $ json_arg $ gate_arg)

let profile_cmd =
  Cmd.group
    (Cmd.info "profile"
       ~doc:"Cross-run analytics over recorded run profiles.")
    [ profile_diff_cmd ]

let () =
  let info =
    Cmd.info "rescheck" ~version:"1.0.0"
      ~doc:
        "A CDCL SAT solver with resolution-trace generation and an \
         independent checker (Zhang & Malik, DATE 2003)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd; check_cmd; lint_cmd; analyze_cmd; explain_cmd;
            validate_cmd; core_cmd; trim_cmd; hint_cmd; simplify_cmd;
            drup_cmd; mc_cmd; gen_cmd; profile_cmd;
          ]))
