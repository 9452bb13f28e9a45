type strategy =
  | Depth_first
  | Breadth_first
  | Hybrid
  | Online
  | Hinted           (* native deletion hints + one-pass hinted check *)
  | Window of int    (* window-shifting BF with this window size *)

type verdict =
  | Sat_verified of Sat.Assignment.t
  | Unsat_verified of Checker.Report.t
  | Sat_model_wrong of int
  | Unsat_check_failed of Proof.Diagnostics.failure

type online_info = {
  peak_buffered_bytes : int;
  lint : Analysis.Lint.report;
}

type outcome = {
  verdict : verdict;
  stats : Solver.Cdcl.stats;
  trace_bytes : int;
  solve_seconds : float;
  check_seconds : float;
  online : online_info option;
  dag : Analysis.Dag.profile option;
  pre : Solver.Simplify.stats option;
}

(* Telemetry mirrors of the outcome's byte statistics. *)
let m_trace_bytes =
  Obs.Metrics.gauge Obs.Metrics.global "pipeline.trace_bytes"
let m_peak_buffered =
  Obs.Metrics.gauge Obs.Metrics.global "pipeline.peak_buffered_bytes"

(* Simplify then continue the same proof with the seeded solver: the
   simplifier's records and the CDCL records land in the one sink, so
   the combined trace checks against the original formula.  The SAT
   model is lifted back through [reconstruct] before it leaves this
   function, so callers always hold a model of the input. *)
let solve_into_sink ?config ~pre ~version sink f =
  if not pre then
    let result, stats = Solver.Cdcl.solve ?config ~trace:sink f in
    (result, stats, None)
  else begin
    let sconfig =
      { Solver.Simplify.default_config with emit_deletes = version = 2 }
    in
    let outcome, sstats = Solver.Simplify.run ~config:sconfig ~trace:sink f in
    let result, stats =
      match outcome with
      | Solver.Simplify.P_unsat -> (Solver.Cdcl.Unsat, Solver.Cdcl.empty_stats)
      | Solver.Simplify.P_sat a -> (Solver.Cdcl.Sat a, Solver.Cdcl.empty_stats)
      | Solver.Simplify.P_simplified
          { clauses; units; next_id; reconstruct; _ } ->
        let seed =
          {
            Solver.Cdcl.seed_nvars = Sat.Cnf.nvars f;
            seed_clauses =
              clauses @ List.map (fun (id, l) -> (id, [| l |])) units;
            seed_first_learned = next_id;
          }
        in
        let result, stats = Solver.Cdcl.solve_seeded ?config ~trace:sink seed in
        (match result with
         | Solver.Cdcl.Sat a -> (Solver.Cdcl.Sat (reconstruct a), stats)
         | Solver.Cdcl.Unsat -> (Solver.Cdcl.Unsat, stats))
    in
    (result, stats, Some sstats)
  end

let solve_encode ?config ~version ~format ~pre f =
  let w = Trace.Writer.create ~version format in
  let result, stats, pre_stats =
    Obs.Span.scope ~cat:"pipeline" "pipeline.solve_encode" @@ fun () ->
    solve_into_sink ?config ~pre ~version (Trace.Writer.as_sink w) f
  in
  (result, stats, pre_stats, Trace.Writer.contents w)

let solve_with_trace ?config ?(version = 1) ?(format = Trace.Writer.Ascii)
    ?(pre = false) f =
  let result, stats, _pre_stats, trace =
    solve_encode ?config ~version ~format ~pre f
  in
  (result, stats, trace)

let run_buffered ?config ?format ~strategy ~analyze ~pre f =
  (* the hinted strategy asks the solver for native deletion hints,
     which need a version-2 trace *)
  let config, version =
    match strategy with
    | Hinted ->
      let c = Option.value ~default:Solver.Cdcl.default_config config in
      (Some { c with Solver.Cdcl.emit_deletes = true }, 2)
    | _ -> (config, 1)
  in
  let format = Option.value ~default:Trace.Writer.Ascii format in
  let (result, stats, pre_stats, trace), solve_seconds =
    Obs.Ctl.time (fun () -> solve_encode ?config ~version ~format ~pre f)
  in
  if Obs.Ctl.on () then
    Obs.Metrics.Gauge.set m_trace_bytes (float_of_int (String.length trace));
  let verdict, check_seconds =
    Obs.Ctl.time (fun () ->
        Obs.Span.scope ~cat:"pipeline" "pipeline.check" @@ fun () ->
        match result with
        | Solver.Cdcl.Sat a -> (
          match Sat.Model.first_falsified a f with
          | None -> Sat_verified a
          | Some i -> Sat_model_wrong i)
        | Solver.Cdcl.Unsat -> (
          let source = Trace.Reader.From_string trace in
          let checked =
            match strategy with
            | Depth_first -> Checker.Df.check f source
            | Breadth_first -> Checker.Bf.check f source
            | Hybrid -> Checker.Hybrid.check f source
            | Hinted -> Checker.Hint.check f source
            | Window window -> Checker.Window.check ~window f source
            | Online -> assert false
          in
          match checked with
          | Ok report -> Unsat_verified report
          | Error failure -> Unsat_check_failed failure))
  in
  (* the analyze stage profiles the proof DAG from the buffered trace; a
     SAT answer has no proof to profile *)
  let dag =
    if analyze && result = Solver.Cdcl.Unsat then
      match Analysis.Dag.run (Trace.Reader.From_string trace) with
      | Ok p -> Some p
      | Error _ -> None
    else None
  in
  { verdict; stats; trace_bytes = String.length trace; solve_seconds;
    check_seconds; online = None; dag; pre = pre_stats }

(* Online validation: the solver's live event stream is teed into the
   linter, the streaming encoder (which spools encoded chunks to a temp
   file for the checker's second pass) and BF's pass-one ingest, so
   counting and linting overlap solving and the full encoded trace is
   never resident — the encoder's [peak_buffered] is bounded by its flush
   threshold, not the proof size.  The ingest drives the exact same
   kernel validation and the reconstruction pass re-reads the identical
   bytes, so verdicts, reports, cores and failure diagnostics match the
   file-based breadth-first path bit for bit (timings aside). *)
let run_online ?config ~format ~analyze ~pre f =
  let spool = Filename.temp_file "rescheck_online" ".trc" in
  let oc = open_out_bin spool in
  let cleanup () =
    close_out_noerr oc;
    try Sys.remove spool with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let wstats, encoder = Trace.Writer.to_channel format oc in
      let ingest = Checker.Bf.ingest f in
      let binary = format = Trace.Writer.Binary in
      let lint_stream = Analysis.Lint.stream_start ~formula:f ~binary () in
      let counter, tail =
        Trace.Sink.counting
          (Trace.Sink.tee [ encoder; Checker.Bf.ingest_sink ingest ])
      in
      (* the linter comes first in the tee: its position for an event is
         the encoder's state *before* that event is written, which is
         exactly where a re-parse of the spooled trace reports it *)
      let pos () =
        if binary then Trace.Reader.Byte wstats.Trace.Writer.bytes
        else Trace.Reader.Line (counter.Trace.Sink.events + 1)
      in
      (* the DAG analyzer rides the same tee as the linter: it profiles
         the live stream with no extra read of the trace *)
      let dag_stream =
        if analyze then Some (Analysis.Dag.stream_start ~binary ()) else None
      in
      let sink =
        Trace.Sink.tee
          (Analysis.Lint.sink lint_stream ~pos
           ::
           (match dag_stream with
            | Some t -> [ Analysis.Dag.sink t ~pos; tail ]
            | None -> [ tail ]))
      in
      let (result, stats, pre_stats), solve_seconds =
        Obs.Ctl.time (fun () ->
            (* on the online timeline this span brackets solving plus the
               teed lint/encode/ingest work interleaved with it *)
            Obs.Span.scope ~cat:"pipeline" "pipeline.online_stream"
            @@ fun () -> solve_into_sink ?config ~pre ~version:1 sink f)
      in
      Trace.Sink.close sink;
      flush oc;
      let lint = Analysis.Lint.stream_finish lint_stream in
      let online =
        Some { peak_buffered_bytes = wstats.Trace.Writer.peak_buffered; lint }
      in
      if Obs.Ctl.on () then begin
        Obs.Metrics.Gauge.set m_trace_bytes
          (float_of_int wstats.Trace.Writer.bytes);
        Obs.Metrics.Gauge.set m_peak_buffered
          (float_of_int wstats.Trace.Writer.peak_buffered)
      end;
      let verdict, check_seconds =
        Obs.Ctl.time (fun () ->
            Obs.Span.scope ~cat:"pipeline" "pipeline.check" @@ fun () ->
            match result with
            | Solver.Cdcl.Sat a -> (
              match Sat.Model.first_falsified a f with
              | None -> Sat_verified a
              | Some i -> Sat_model_wrong i)
            | Solver.Cdcl.Unsat -> (
              match
                Checker.Bf.finish ingest (Trace.Reader.From_file spool)
              with
              | Ok report -> Unsat_verified report
              | Error failure -> Unsat_check_failed failure))
      in
      (* a SAT answer's partial trace has no conflict, so the analyzer
         legitimately refuses it — the profile is simply absent *)
      let dag =
        match dag_stream with
        | Some t -> (
          match Analysis.Dag.stream_finish t with
          | Ok p -> Some p
          | Error _ -> None)
        | None -> None
      in
      { verdict; stats; trace_bytes = wstats.Trace.Writer.bytes;
        solve_seconds; check_seconds; online; dag; pre = pre_stats })

let run ?config ?format ?(strategy = Depth_first) ?(analyze = false)
    ?(pre = false) f =
  match strategy with
  | Online ->
    let format = Option.value ~default:Trace.Writer.Ascii format in
    run_online ?config ~format ~analyze ~pre f
  | _ -> run_buffered ?config ?format ~strategy ~analyze ~pre f
