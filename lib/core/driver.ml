let run ?(cleanup = ignore) body =
  Fun.protect ~finally:cleanup @@ fun () ->
  try Ok (body ()) with
  | Proof.Diagnostics.Check_failed f -> Error f
  | Trace.Reader.Parse_error { pos; msg } ->
    Error (Proof.Diagnostics.of_parse_error ~pos msg)

(* --- passes --------------------------------------------------------------- *)

let source ?format ?first_pass source =
  match first_pass with
  | Some s -> s
  | None ->
    Trace.Source.of_cursor ~close_cursor:true
      (Trace.Reader.cursor ?format source)

let pass_one ~cat ?(name = "check.pass_one") src f =
  Obs.Span.scope ~cat name @@ fun () ->
  Fun.protect ~finally:(fun () -> Trace.Source.close src) (fun () -> f src)

let pass_two ~cat f = Obs.Span.scope ~cat "check.pass_two" f

let conflict = function
  | Some id -> id
  | None -> Proof.Diagnostics.fail Proof.Diagnostics.Missing_final_conflict

let final_chain k ~l0 ?miss conflict_id =
  let miss =
    match miss with
    | Some f -> f
    | None -> Proof.Kernel.find k ~context:"empty-clause construction"
  in
  Proof.Kernel.final_chain k ~l0 ~miss ~conflict_id

(* --- the report ----------------------------------------------------------- *)

let gauge = Obs.Metrics.gauge Obs.Metrics.global
let g_built = gauge "checker.clauses_built"
let g_learned = gauge "checker.total_learned"
let g_steps = gauge "checker.resolution_steps"
let g_core = gauge "checker.core_clauses"
let g_peak_mem = gauge "checker.peak_mem_words"
let g_peak_live = gauge "kernel.peak_live_clauses"
let g_arena_peak = gauge "kernel.arena_peak_bytes"

let observe (r : Report.t) =
  let set g v = Obs.Metrics.Gauge.set g (float_of_int v) in
  set g_built r.clauses_built;
  set g_learned r.total_learned;
  set g_steps r.resolution_steps;
  set g_core (List.length r.core_original_ids);
  set g_peak_mem r.peak_mem_words;
  set g_peak_live r.peak_live_clauses;
  set g_arena_peak r.arena_bytes_resident

let report ?(core = false) k ~total_learned =
  let c = Proof.Kernel.counters k in
  let r =
    {
      Report.clauses_built = c.clauses_built;
      total_learned;
      resolution_steps = c.resolution_steps;
      core_original_ids = (if core then Proof.Kernel.core_ids k else []);
      learned_built_ids = Proof.Kernel.built_ids k;
      core_vars = (if core then Proof.Kernel.core_var_count k else 0);
      peak_mem_words = Proof.Clause_db.peak_mem_words (Proof.Kernel.db k);
      peak_live_clauses = c.peak_live_clauses;
      arena_bytes_resident = c.arena_peak_bytes;
    }
  in
  if Obs.Ctl.on () then observe r;
  r

(* --- use counts ----------------------------------------------------------- *)

type uses = int Trace.Idtab.t

let uses k = Trace.Idtab.create (Proof.Kernel.id_range k)

let count u id =
  match Trace.Idtab.find u id with n -> n | exception Not_found -> 0

let add_use u id = Trace.Idtab.replace u id (1 + count u id)

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
    Trace.Idtab.remove u id;
    true
  | n ->
    Trace.Idtab.replace u id (n - 1);
    false

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

let rebuild k u ~context ?(needed_only = false) ?miss ?drained
    ?(on_record = ignore) ?format source =
  let miss =
    match miss with Some f -> f | None -> Proof.Kernel.find k ~context
  in
  let drained =
    match drained with Some f -> f | None -> Proof.Kernel.release_id k
  in
  let cur = Trace.Reader.cursor ?format source in
  Fun.protect ~finally:(fun () -> Trace.Reader.close cur) @@ fun () ->
  Trace.Reader.iter_cursor cur (function
    | Trace.Event.Learned l ->
      let n = count u l.id in
      if n > 0 || not needed_only then begin
        let h =
          Proof.Kernel.chain k ~context ~miss ~learned_id:l.id l.sources
        in
        if n > 0 then Proof.Kernel.define k l.id h
        else Proof.Clause_db.release (Proof.Kernel.db k) h;
        for i = 0 to Array.length l.sources - 1 do
          let s = l.sources.(i) in
          if drop u s then drained s
        done;
        on_record l.id
      end
    | Trace.Event.Header _ | Trace.Event.Level0 _
    | Trace.Event.Final_conflict _ | Trace.Event.Delete _ -> ())
