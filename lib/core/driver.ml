let run ?(cleanup = ignore) body =
  Fun.protect ~finally:cleanup @@ fun () ->
  try Ok (body ()) with
  | Proof.Diagnostics.Check_failed f -> Error f
  | Trace.Reader.Parse_error { pos; msg } ->
    Error (Proof.Diagnostics.of_parse_error ~pos msg)

(* --- passes --------------------------------------------------------------- *)

let source ?format ?io ?first_pass source =
  match first_pass with
  | Some s -> s
  | None ->
    Trace.Source.of_cursor ~close_cursor:true
      (Trace.Reader.cursor ?format ?io source)

let pass_one ~cat ?(name = "check.pass_one") src f =
  Obs.Span.scope ~cat name @@ fun () ->
  Fun.protect ~finally:(fun () -> Trace.Source.close src) (fun () -> f src)

let pass_two ~cat f = Obs.Span.scope ~cat "check.pass_two" f

let conflict = function
  | Some id -> id
  | None -> Proof.Diagnostics.fail Proof.Diagnostics.Missing_final_conflict

let final_chain k ~l0 ?fetch conflict_id =
  let fetch =
    match fetch with
    | Some f -> f
    | None -> Proof.Kernel.find k ~context:"empty-clause construction"
  in
  Proof.Kernel.final_chain_ids k ~l0 ~fetch ~conflict_id

(* --- the report ----------------------------------------------------------- *)

let gauge = Obs.Metrics.gauge Obs.Metrics.global
let g_built = gauge "checker.clauses_built"
let g_learned = gauge "checker.total_learned"
let g_steps = gauge "checker.resolution_steps"
let g_core = gauge "checker.core_clauses"
let g_peak_mem = gauge "checker.peak_mem_words"
let g_peak_live = gauge "kernel.peak_live_clauses"
let g_arena_peak = gauge "kernel.arena_peak_bytes"
let g_jobs = gauge "par.jobs"
let g_wavefronts = gauge "par.wavefronts"
let g_max_width = gauge "par.max_wavefront_width"

let observe (r : Report.t) =
  let set g v = Obs.Metrics.Gauge.set g (float_of_int v) in
  set g_built r.clauses_built;
  set g_learned r.total_learned;
  set g_steps r.resolution_steps;
  set g_core (List.length r.core_original_ids);
  set g_peak_mem r.peak_mem_words;
  set g_peak_live r.peak_live_clauses;
  set g_arena_peak r.arena_bytes_resident;
  if r.wavefronts > 0 then begin
    set g_jobs r.jobs;
    set g_wavefronts r.wavefronts;
    set g_max_width r.max_wavefront_width
  end

let report ?(core = false) ?(jobs = 1) ?(wavefronts = 0)
    ?(max_wavefront_width = 0) k ~total_learned =
  let c = Proof.Kernel.counters k in
  let r =
    {
      Report.clauses_built = c.clauses_built;
      total_learned;
      resolution_steps = c.resolution_steps;
      core_original_ids = (if core then Proof.Kernel.core_ids k else []);
      learned_built_ids = Proof.Kernel.built_ids k;
      core_vars = (if core then Proof.Kernel.core_var_count k else 0);
      peak_mem_words = Harness.Meter.peak_words (Proof.Kernel.meter k);
      peak_live_clauses = c.peak_live_clauses;
      arena_bytes_resident = c.arena_peak_bytes;
      jobs;
      wavefronts;
      max_wavefront_width;
    }
  in
  if Obs.Ctl.on () then observe r;
  r

(* --- use counts ----------------------------------------------------------- *)

(* In temp-file mode [counts] caches only the counters of clauses alive
   in the store; every other total is read back from the file. *)
type uses = {
  counts : (int, int) Hashtbl.t;
  mutable file : (string * in_channel) option;
}

let uses () = { counts = Hashtbl.create 4096; file = None }

let read_count ic id =
  seek_in ic (4 * id);
  let b0 = input_byte ic in
  let b1 = input_byte ic in
  let b2 = input_byte ic in
  let b3 = input_byte ic in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let count u id =
  match Hashtbl.find_opt u.counts id with
  | Some n -> n
  | None -> (
    match u.file with
    | None -> 0
    | Some (_, ic) -> ( try read_count ic id with End_of_file -> 0))

let add_use u id = Hashtbl.replace u.counts id (1 + count u id)

let count_uses u = function
  | Trace.Event.Learned l -> Array.iter (add_use u) l.sources
  | Trace.Event.Level0 v -> add_use u v.ante
  | Trace.Event.Final_conflict id -> add_use u id
  | Trace.Event.Header _ | Trace.Event.Delete _ -> ()

(* Drop one use; true when it was the last. *)
let drop u id =
  match count u id with
  | 0 -> false
  | 1 ->
    Hashtbl.remove u.counts id;
    true
  | n ->
    Hashtbl.replace u.counts id (n - 1);
    false

let release u k id = if drop u id then Proof.Kernel.release_id k id

(* Stream the trace once per chunk of the id space, accumulate that
   chunk's counts in a bounded slab, and append the slab to the file. *)
let count_to_file u ~chunk ?format ?io source =
  let chunk = max 1 chunk in
  let cur = Trace.Reader.cursor ?format ?io source in
  Fun.protect ~finally:(fun () -> Trace.Reader.close cur) @@ fun () ->
  let each_use f =
    Trace.Reader.rewind cur;
    Trace.Reader.iter_cursor cur (function
      | Trace.Event.Learned l -> Array.iter f l.sources
      | Trace.Event.Level0 v -> f v.ante
      | Trace.Event.Final_conflict id -> f id
      | Trace.Event.Header _ | Trace.Event.Delete _ -> ())
  in
  let max_id = ref 0 in
  each_use (fun id -> if id > !max_id then max_id := id);
  let path = Filename.temp_file "bf_counts" ".bin" in
  u.file <- Some (path, open_in_bin path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let slab = Array.make chunk 0 in
  let lo = ref 0 in
  while !lo <= !max_id do
    Array.fill slab 0 chunk 0;
    let hi = !lo + chunk in
    each_use (fun id ->
        if id >= !lo && id < hi then slab.(id - !lo) <- slab.(id - !lo) + 1);
    Array.iter
      (fun n ->
        output_byte oc (n land 0xff);
        output_byte oc ((n lsr 8) land 0xff);
        output_byte oc ((n lsr 16) land 0xff);
        output_byte oc ((n lsr 24) land 0xff))
      slab;
    lo := hi
  done

let remove_file u =
  match u.file with
  | Some (path, ic) ->
    u.file <- None;
    close_in_noerr ic;
    (try Sys.remove path with Sys_error _ -> ())
  | None -> ()

let mark_needed u ~defs ~antes conflict_id =
  add_use u conflict_id;
  (* every recorded antecedent may be used by the empty-clause chain *)
  Sat.Vec.iter (add_use u) antes;
  let reached = ref 0 in
  for i = Sat.Vec.length defs - 1 downto 0 do
    let id, sources = Sat.Vec.get defs i in
    if count u id > 0 then begin
      incr reached;
      Array.iter (add_use u) sources
    end
  done;
  !reached

(* --- the rebuild pass ----------------------------------------------------- *)

let rebuild k u ~context ?(needed_only = false) ?fetch ?drained
    ?(on_record = ignore) ?format ?io source =
  let fetch =
    match fetch with Some f -> f | None -> Proof.Kernel.find k ~context
  in
  let drained =
    match drained with Some f -> f | None -> Proof.Kernel.release_id k
  in
  let cur = Trace.Reader.cursor ?format ?io source in
  Fun.protect ~finally:(fun () -> Trace.Reader.close cur) @@ fun () ->
  Trace.Reader.iter_cursor cur (function
    | Trace.Event.Learned l ->
      let n = count u l.id in
      if n > 0 || not needed_only then begin
        let h =
          Proof.Kernel.chain_ids k ~context ~fetch ~learned_id:l.id l.sources
        in
        if n > 0 then begin
          Proof.Kernel.define k l.id h;
          (* temp-file mode: cache the counter while the clause is alive *)
          if Option.is_some u.file then Hashtbl.replace u.counts l.id n
        end
        else Proof.Clause_db.release (Proof.Kernel.db k) h;
        Array.iter (fun s -> if drop u s then drained s) l.sources;
        on_record l.id
      end
    | Trace.Event.Header _ | Trace.Event.Level0 _
    | Trace.Event.Final_conflict _ | Trace.Event.Delete _ -> ())
