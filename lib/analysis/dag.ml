type peaks = {
  df : int;
  bf : int;
  hybrid : int;
}

type hist = (int * int) list

type profile = {
  binary : bool;
  events : int;
  learned : int;
  level0 : int;
  nvars : int;
  originals : int;
  conflict_id : int;
  topological : bool;
  forward_refs : int;
  dangling_refs : int;
  reachable_learned : int;
  dead_learned : int;
  core_originals : int;
  duplicate_derivations : int;
  singleton_chains : int;
  max_depth : int;
  depth_hist : hist;
  max_width : int;
  widest_depth : int;
  max_fanin : int;
  total_arcs : int;
  lifetime_max : int;
  lifetime_mean : float;
  lifetime_hist : hist;
  first_gap_max : int;
  first_gap_mean : float;
  predicted_peak_live : peaks;
  warnings : int;
  dropped : int;
  by_code : (string * int) list;
  diagnostics : Lint.diagnostic list;
}

type error = {
  pos : Trace.Reader.pos;
  message : string;
}

(* --- growable int arrays ------------------------------------------------- *)

(* The whole analysis state lives in a few of these: flat int storage, no
   per-record boxing, so memory stays a small constant times the number of
   clause ids plus antecedent arcs — the property the dag.table_bytes
   gauge reports and the acceptance test bounds. *)
type ibuf = {
  mutable a : int array;
  mutable n : int;
}

let ibuf_create cap = { a = Array.make (max cap 16) 0; n = 0 }

(* [ibuf_reserve b k] makes room for [k] more values.  The copy is an
   int loop: [Array.blit] into an array on the major heap would go
   through the write barrier for every word. *)
let ibuf_reserve b k =
  if b.n + k > Array.length b.a then begin
    let a' = Array.make (max (b.n + k) (2 * Array.length b.a)) 0 in
    for i = 0 to b.n - 1 do
      Array.unsafe_set a' i (Array.unsafe_get b.a i)
    done;
    b.a <- a'
  end

let ibuf_push b x =
  ibuf_reserve b 1;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let ibuf_get b i = b.a.(i)

(* --- telemetry ----------------------------------------------------------- *)

let m_records = Obs.Metrics.counter Obs.Metrics.global "dag.records"
let m_dead = Obs.Metrics.counter Obs.Metrics.global "dag.dead_derivations"

let m_duplicates =
  Obs.Metrics.counter Obs.Metrics.global "dag.duplicate_derivations"

let m_trim_kept = Obs.Metrics.counter Obs.Metrics.global "dag.trim_kept"
let m_trim_dropped = Obs.Metrics.counter Obs.Metrics.global "dag.trim_dropped"
let g_ids = Obs.Metrics.gauge Obs.Metrics.global "dag.tracked_ids"
let g_bytes = Obs.Metrics.gauge Obs.Metrics.global "dag.table_bytes"

(* --- streaming state ----------------------------------------------------- *)

type stream = {
  cap : int;
  s_binary : bool;
  mutable err : error option;  (* first structural defect, if any *)
  mutable end_pos : Trace.Reader.pos;
  mutable n_events : int;
  mutable n_learned : int;
  mutable n_level0 : int;
  mutable header : (int * int) option;  (* nvars, num_original *)
  id_range : Trace.Idtab.range;  (* num_original + 2 per learned record *)
  slot_of_id : int Trace.Idtab.t;  (* learned id -> slot *)
  ids : ibuf;   (* slot -> clause id *)
  ord : ibuf;   (* slot -> record ordinal of the definition *)
  dpos : ibuf;  (* slot -> definition position (line or byte) *)
  off : ibuf;   (* slot -> offset into [arcs] *)
  len : ibuf;   (* slot -> source count *)
  arcs : ibuf;  (* flattened antecedent ids *)
  l0_ante : ibuf;  (* pre-conflict level-0 antecedent ids *)
  l0_ord : ibuf;
  pins : ibuf;  (* every level-0 antecedent and every conflict id *)
  mutable conflict : (int * int * int) option;  (* id, ordinal, position *)
}

let pos_int = function
  | Trace.Reader.Line n -> n
  | Trace.Reader.Byte n -> n

let pos_of t n = if t.s_binary then Trace.Reader.Byte n else Trace.Reader.Line n

let stream_start ?(max_diagnostics = 100) ~binary () =
  let id_range = Trace.Idtab.range 0 in
  {
    cap = max max_diagnostics 0;
    s_binary = binary;
    err = None;
    end_pos = (if binary then Trace.Reader.Byte 4 else Trace.Reader.Line 1);
    n_events = 0;
    n_learned = 0;
    n_level0 = 0;
    header = None;
    id_range;
    slot_of_id = Trace.Idtab.create id_range;
    ids = ibuf_create 1024;
    ord = ibuf_create 1024;
    dpos = ibuf_create 1024;
    off = ibuf_create 1024;
    len = ibuf_create 1024;
    arcs = ibuf_create 4096;
    l0_ante = ibuf_create 64;
    l0_ord = ibuf_create 64;
    pins = ibuf_create 64;
    conflict = None;
  }

(* [slot t id] is the slot of the learned record defining [id], or [-1]
   when none does: one dense-table read for a solver's ids. *)
let slot t id =
  match Trace.Idtab.find t.slot_of_id id with
  | j -> j
  | exception Not_found -> -1

let fail t pos fmt =
  Printf.ksprintf
    (fun message -> if t.err = None then t.err <- Some { pos; message })
    fmt

let stream_event t pos (e : Trace.Event.t) =
  t.end_pos <- pos;
  match t.err with
  | Some _ -> ()
  | None ->
    let ordinal = t.n_events in
    t.n_events <- ordinal + 1;
    if Obs.Ctl.on () then Obs.Metrics.Counter.incr m_records 1;
    (match e, t.header with
     | Trace.Event.Header _, _ | _, Some _ -> ()
     | _, None -> fail t pos "record precedes the trace header");
    (match e with
     | Trace.Event.Header h ->
       (match t.header with
        | Some _ -> fail t pos "second header record"
        | None ->
          if h.nvars <= 0 || h.num_original <= 0 then
            fail t pos "header declares %d variables, %d original clauses"
              h.nvars h.num_original
          else begin
            t.header <- Some (h.nvars, h.num_original);
            Trace.Idtab.widen t.id_range h.num_original
          end)
     | Trace.Event.Learned { id; sources } ->
       t.n_learned <- t.n_learned + 1;
       Trace.Idtab.widen t.id_range 2;
       let norig = match t.header with Some (_, n) -> n | None -> 0 in
       if id <= norig then
         fail t pos "learned-clause id %d lies in the original range 1..%d" id
           norig
       else if Trace.Idtab.mem t.slot_of_id id then
         fail t pos "learned-clause id %d defined twice" id
       else begin
         Trace.Idtab.replace t.slot_of_id id t.ids.n;
         ibuf_push t.ids id;
         ibuf_push t.ord ordinal;
         ibuf_push t.dpos (pos_int pos);
         ibuf_push t.off t.arcs.n;
         ibuf_push t.len (Array.length sources);
         let l = Array.length sources in
         ibuf_reserve t.arcs l;
         for k = 0 to l - 1 do
           t.arcs.a.(t.arcs.n + k) <- sources.(k)
         done;
         t.arcs.n <- t.arcs.n + l
       end
     | Trace.Event.Level0 { ante; _ } ->
       t.n_level0 <- t.n_level0 + 1;
       ibuf_push t.pins ante;
       (* roots of the reachability closure — but only while the proof is
          still in progress: trailing level-0 records after the conflict
          are dropped by the trimmer and must not revive dead clauses *)
       if t.conflict = None then begin
         ibuf_push t.l0_ante ante;
         ibuf_push t.l0_ord ordinal
       end
     | Trace.Event.Final_conflict id ->
       ibuf_push t.pins id;
       if t.conflict = None then
         t.conflict <- Some (id, ordinal, pos_int pos)
     | Trace.Event.Delete _ ->
       (* deletion hints are memory advice, not proof structure: they do
          not affect reachability, lifetimes, or the predicted peaks *)
       ())

let sink t ~pos = Trace.Sink.make (fun e -> stream_event t (pos ()) e)

(* --- sealing the analysis ------------------------------------------------ *)

let hist_of_values values =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun v ->
      let b = Obs.Metrics.Histogram.bucket_index v in
      let n = try Hashtbl.find tbl b with Not_found -> 0 in
      Hashtbl.replace tbl b (n + 1))
    values;
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Peak of the refcount-zero deletion schedule: each selected clause is
   resident from its defining record to its last use (a never-used clause
   is built and freed within its own record), so the peak is the maximum
   overlap of those intervals — a diff-array sweep over record ordinals. *)
let sweep_peak ~n_events ~selected ~ord_of ~last_use_of count =
  let diff = Array.make (n_events + 2) 0 in
  for i = 0 to count - 1 do
    if selected i then begin
      let s = ord_of i in
      let e = max s (last_use_of i) in
      diff.(s) <- diff.(s) + 1;
      diff.(e + 1) <- diff.(e + 1) - 1
    end
  done;
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun d ->
      live := !live + d;
      if !live > !peak then peak := !live)
    diff;
  !peak

let set_table_bytes words =
  if Obs.Ctl.on () then Obs.Metrics.Gauge.set g_bytes (float (8 * words))

(* What the trimmer and the hint converter need beyond the profile. *)
type sealed = {
  profile : profile;
  reach : bool array;    (* slot -> reachable from the conflict and roots *)
  last_use : int array;  (* slot -> ordinal of its last use, or -1 *)
  words : int;           (* the tables' size, in words *)
}

(* [finish_internal] seals the stream.  Every table is indexed by slot,
   and an id reaches its slot through [slot_of_id]: one lookup per arc
   for classification and depth together, and one per arc of a
   reachable clause for the closure and the hybrid sweep. *)
let finish_internal ?end_pos t =
  let end_pos = match end_pos with Some p -> p | None -> t.end_pos in
  match t.err with
  | Some e -> Error e
  | None ->
    (match t.header, t.conflict with
     | None, _ -> Error { pos = end_pos; message = "trace has no header record" }
     | _, None ->
       Error
         {
           pos = end_pos;
           message = "trace ends without a final-conflict record";
         }
     | Some (nvars, norig), Some (conflict_id, conflict_ord, conflict_pos) ->
       let n = t.ids.n in
       let original id = id >= 1 && id <= norig in
       if not (original conflict_id || slot t conflict_id >= 0) then
         Error
           {
             pos = pos_of t conflict_pos;
             message =
               Printf.sprintf "final conflict references undefined clause %d"
                 conflict_id;
           }
       else begin
         let arcs = t.arcs.a and off = t.off.a and len = t.len.a in
         let ord = t.ord.a in
         (* -- pass over the arcs: reference classes, depth, uses -------- *)
         let forward_refs = ref 0 and dangling_refs = ref 0 in
         let depth = Array.make (max n 1) 0 in
         let last_use = Array.make (max n 1) (-1) in
         let first_use = Array.make (max n 1) max_int in
         let use ~ordinal j =
           if ordinal > last_use.(j) then last_use.(j) <- ordinal;
           if ordinal < first_use.(j) then first_use.(j) <- ordinal
         in
         for i = 0 to n - 1 do
           let ordinal = ord.(i) in
           let d = ref 0 in
           for k = off.(i) to off.(i) + len.(i) - 1 do
             let s = arcs.(k) in
             if not (original s) then begin
               let j = slot t s in
               if j < 0 then incr dangling_refs
               else if j >= i then incr forward_refs
               else begin
                 use ~ordinal j;
                 if depth.(j) > !d then d := depth.(j)
               end
             end
           done;
           depth.(i) <- !d + 1
         done;
         (* level-0 antecedents and the conflict reference without
            defining *)
         let site ~ordinal s =
           if not (original s) then begin
             let j = slot t s in
             if j < 0 then incr dangling_refs
             else if ord.(j) > ordinal then incr forward_refs
             else use ~ordinal j
           end
         in
         for k = 0 to t.l0_ante.n - 1 do
           site ~ordinal:(ibuf_get t.l0_ord k) (ibuf_get t.l0_ante k)
         done;
         site ~ordinal:conflict_ord conflict_id;
         (* -- backward reachability from the conflict + level-0 roots -- *)
         let reach = Array.make (max n 1) false in
         let orig_used = Array.make (norig + 1) false in
         let stack = Array.make (max n 1) 0 and top = ref 0 in
         let root id =
           if original id then orig_used.(id) <- true
           else begin
             let j = slot t id in
             if j >= 0 && not reach.(j) then begin
               reach.(j) <- true;
               stack.(!top) <- j;
               incr top
             end
           end
         in
         root conflict_id;
         for k = 0 to t.l0_ante.n - 1 do
           root (ibuf_get t.l0_ante k)
         done;
         while !top > 0 do
           decr top;
           let i = stack.(!top) in
           for k = off.(i) to off.(i) + len.(i) - 1 do
             root arcs.(k)
           done
         done;
         let reachable_learned = ref 0 in
         for i = 0 to n - 1 do
           if reach.(i) then incr reachable_learned
         done;
         let reachable_learned = !reachable_learned in
         let core_originals = ref 0 in
         Array.iter (fun u -> if u then incr core_originals) orig_used;
         (* -- duplicate derivations ------------------------------------- *)
         (* Open addressing over the chains' slices of [arcs]: [firsts]
            holds the slot of each distinct chain's first derivation, at
            most half full. *)
         let dup_of = Array.make (max n 1) (-1) in
         let buckets = ref 16 in
         while !buckets < 2 * n do
           buckets := 2 * !buckets
         done;
         let mask = !buckets - 1 in
         let firsts = Array.make !buckets (-1) in
         let same_chain i j =
           len.(i) = len.(j)
           &&
           let k = ref 0 in
           while !k < len.(i) && arcs.(off.(i) + !k) = arcs.(off.(j) + !k) do
             incr k
           done;
           !k = len.(i)
         in
         for i = 0 to n - 1 do
           let h = ref len.(i) in
           for k = off.(i) to off.(i) + len.(i) - 1 do
             h := (!h lxor arcs.(k)) * 0x2545F4914F6CDD1D
           done;
           let b = ref ((!h lxor (!h lsr 32)) land mask) in
           while firsts.(!b) >= 0 && not (same_chain firsts.(!b) i) do
             b := (!b + 1) land mask
           done;
           if firsts.(!b) >= 0 then dup_of.(i) <- firsts.(!b)
           else firsts.(!b) <- i
         done;
         (* -- shape: depth histogram, per-depth width, fan-in ----------- *)
         let max_depth = Array.fold_left max 0 (Array.sub depth 0 n) in
         let width = Array.make (max_depth + 1) 0 in
         for i = 0 to n - 1 do
           width.(depth.(i)) <- width.(depth.(i)) + 1
         done;
         let max_width = ref 0 and widest_depth = ref 0 in
         Array.iteri
           (fun d w ->
             if w > !max_width then begin
               max_width := w;
               widest_depth := d
             end)
           width;
         let max_fanin = ref 0 in
         for i = 0 to n - 1 do
           if len.(i) > !max_fanin then max_fanin := len.(i)
         done;
         (* -- lifetimes ------------------------------------------------- *)
         let lifetimes = ref [] and gaps = ref [] in
         let lifetime_max = ref 0 and lifetime_sum = ref 0 in
         let gap_max = ref 0 and gap_sum = ref 0 in
         let used = ref 0 in
         for i = 0 to n - 1 do
           if last_use.(i) >= 0 then begin
             incr used;
             let span = last_use.(i) - ord.(i) in
             let gap = first_use.(i) - ord.(i) in
             lifetimes := span :: !lifetimes;
             gaps := gap :: !gaps;
             lifetime_sum := !lifetime_sum + span;
             gap_sum := !gap_sum + gap;
             if span > !lifetime_max then lifetime_max := span;
             if gap > !gap_max then gap_max := gap
           end
         done;
         let mean sum = if !used = 0 then 0.0 else float sum /. float !used in
         (* -- predicted peaks ------------------------------------------- *)
         let ord_of i = ord.(i) in
         let bf_peak =
           sweep_peak ~n_events:t.n_events
             ~selected:(fun _ -> true)
             ~ord_of
             ~last_use_of:(fun i -> last_use.(i))
             n
         in
         (* hybrid rebuilds only the core-reachable clauses, so a clause's
            last use is its last use by a *reachable* consumer (or a
            level-0 / conflict site, which are reachable by definition) *)
         let hyb_last = Array.make (max n 1) (-1) in
         let hyb_use ~ordinal j =
           if ordinal > hyb_last.(j) then hyb_last.(j) <- ordinal
         in
         for i = 0 to n - 1 do
           if reach.(i) then
             for k = off.(i) to off.(i) + len.(i) - 1 do
               let s = arcs.(k) in
               if not (original s) then begin
                 let j = slot t s in
                 if j >= 0 && j < i then hyb_use ~ordinal:ord.(i) j
               end
             done
         done;
         let hyb_site ~ordinal s =
           if not (original s) then begin
             let j = slot t s in
             if j >= 0 then hyb_use ~ordinal j
           end
         in
         for k = 0 to t.l0_ante.n - 1 do
           hyb_site ~ordinal:(ibuf_get t.l0_ord k) (ibuf_get t.l0_ante k)
         done;
         hyb_site ~ordinal:conflict_ord conflict_id;
         let hybrid_peak =
           sweep_peak ~n_events:t.n_events
             ~selected:(fun i -> reach.(i))
             ~ord_of
             ~last_use_of:(fun i -> hyb_last.(i))
             n
         in
         let predicted_peak_live =
           {
             df = reachable_learned;
             bf = bf_peak;
             hybrid = hybrid_peak;
           }
         in
         (* -- L5xx diagnostics, in record order ------------------------- *)
         (* a message is formatted only for a diagnostic the cap keeps *)
         let dup_count = ref 0 and singleton_count = ref 0 in
         let dead_count = ref 0 in
         let diags = ref [] and kept = ref 0 and dropped = ref 0 in
         let emit i code message =
           if !kept < t.cap then begin
             incr kept;
             let pos = pos_of t (ibuf_get t.dpos i) in
             diags := { Lint.code; pos; message = message () } :: !diags
           end
           else incr dropped
         in
         for i = 0 to n - 1 do
           let id = ibuf_get t.ids i in
           if dup_of.(i) >= 0 then begin
             incr dup_count;
             emit i Lint.Duplicate_derivation (fun () ->
                 Printf.sprintf "clause %d repeats the derivation of clause %d"
                   id
                   (ibuf_get t.ids dup_of.(i)))
           end;
           if len.(i) = 1 then begin
             incr singleton_count;
             emit i Lint.Singleton_chain (fun () ->
                 Printf.sprintf "clause %d is derived from the single source %d"
                   id arcs.(off.(i)))
           end;
           if not reach.(i) then begin
             incr dead_count;
             emit i Lint.Dead_derivation (fun () ->
                 Printf.sprintf
                   "clause %d is never used to reach the final conflict" id)
           end
         done;
         let by_code =
           List.filter
             (fun (_, count) -> count > 0)
             [
               (Lint.code_id Lint.Dead_derivation, !dead_count);
               (Lint.code_id Lint.Duplicate_derivation, !dup_count);
               (Lint.code_id Lint.Singleton_chain, !singleton_count);
             ]
           |> List.sort (fun (a, _) (b, _) -> String.compare a b)
         in
         (* -- telemetry: the analysis footprint is a few int tables ----- *)
         let id_slots = Trace.Idtab.capacity t.slot_of_id in
         let words =
           Array.length t.ids.a + Array.length t.ord.a
           + Array.length t.dpos.a + Array.length t.off.a
           + Array.length t.len.a + Array.length t.arcs.a
           + Array.length t.l0_ante.a + Array.length t.l0_ord.a
           + Array.length t.pins.a
           (* the id table's dense part: a word and a byte per slot *)
           + id_slots + ((id_slots + 7) / 8)
           + Array.length depth + Array.length last_use
           + Array.length first_use + Array.length hyb_last
           + Array.length dup_of + Array.length firsts
           + Array.length reach + Array.length stack
           + Array.length orig_used + Array.length width
           + (2 * (t.n_events + 2))
         in
         if Obs.Ctl.on () then begin
           Obs.Metrics.Counter.incr m_dead !dead_count;
           Obs.Metrics.Counter.incr m_duplicates !dup_count;
           Obs.Metrics.Gauge.set g_ids (float (n + norig));
           set_table_bytes words
         end;
         let profile =
           {
             binary = t.s_binary;
             events = t.n_events;
             learned = t.n_learned;
             level0 = t.n_level0;
             nvars;
             originals = norig;
             conflict_id;
             topological = !forward_refs = 0;
             forward_refs = !forward_refs;
             dangling_refs = !dangling_refs;
             reachable_learned;
             dead_learned = !dead_count;
             core_originals = !core_originals;
             duplicate_derivations = !dup_count;
             singleton_chains = !singleton_count;
             max_depth;
             depth_hist =
               hist_of_values (Array.to_list (Array.sub depth 0 n));
             max_width = !max_width;
             widest_depth = !widest_depth;
             max_fanin = !max_fanin;
             total_arcs = t.arcs.n;
             lifetime_max = !lifetime_max;
             lifetime_mean = mean !lifetime_sum;
             lifetime_hist = hist_of_values !lifetimes;
             first_gap_max = !gap_max;
             first_gap_mean = mean !gap_sum;
             predicted_peak_live;
             warnings = !dup_count + !singleton_count + !dead_count;
             dropped = !dropped;
             by_code;
             diagnostics = List.rev !diags;
           }
         in
         Ok { profile; reach; last_use; words }
       end)

let stream_finish ?end_pos t =
  match finish_internal ?end_pos t with
  | Ok s -> Ok s.profile
  | Error e -> Error e

(* --- one-shot drivers ---------------------------------------------------- *)

(* Feed a whole serialised trace through a stream.  Unlike the linter a
   parse failure is terminal: a trace that does not decode has no DAG. *)
let feed ?format ?max_diagnostics source =
  let cur = Trace.Reader.cursor ?format source in
  let binary = Trace.Reader.is_binary_cursor cur in
  let t = stream_start ?max_diagnostics ~binary () in
  let result =
    try
      let continue = ref true in
      while !continue do
        match Trace.Reader.next cur with
        | Some e -> stream_event t (Trace.Reader.last_pos cur) e
        | None -> continue := false
      done;
      Ok t
    with Trace.Reader.Parse_error { pos; msg } -> Error { pos; message = msg }
  in
  let end_pos = Trace.Reader.last_pos cur in
  Trace.Reader.close cur;
  (result, end_pos)

let run ?format ?max_diagnostics source =
  Obs.Span.scope ~cat:"analysis" "dag.run" @@ fun () ->
  match feed ?format ?max_diagnostics source with
  | Error e, _ -> Error e
  | Ok t, end_pos -> stream_finish ~end_pos t

type trim_stats = {
  records_in : int;
  records_out : int;
  kept_learned : int;
  dropped_learned : int;
  dropped_after_conflict : int;
  bytes_in : int;
  bytes_out : int;
}

let trim ?format ?max_diagnostics source w =
  Obs.Span.scope ~cat:"analysis" "dag.trim" @@ fun () ->
  match feed ?format ?max_diagnostics source with
  | Error e, _ -> Error e
  | Ok t, end_pos ->
    (match finish_internal ~end_pos t with
     | Error e -> Error e
     | Ok { profile; reach; _ } ->
       let reachable id =
         let j = slot t id in
         j >= 0 && reach.(j)
       in
       if profile.forward_refs > 0 || profile.dangling_refs > 0 then
         Error
           {
             pos = end_pos;
             message =
               Printf.sprintf
                 "trace has %d forward and %d dangling references; refusing \
                  to trim a proof whose reference order is broken"
                 profile.forward_refs profile.dangling_refs;
           }
       else begin
         (* pass two: re-read and emit only the core-reachable subgraph;
            the event stream is never materialised *)
         let cur = Trace.Reader.cursor ?format source in
         let records_out = ref 0 and kept_learned = ref 0 in
         let dropped_learned = ref 0 and dropped_after = ref 0 in
         let seen_conflict = ref false in
         let emit e =
           incr records_out;
           Trace.Writer.emit w e
         in
         Trace.Reader.iter_cursor cur (fun e ->
             if !seen_conflict then incr dropped_after
             else
               match e with
               | Trace.Event.Header _ | Trace.Event.Level0 _ -> emit e
               | Trace.Event.Learned { id; _ } ->
                 if reachable id then begin
                   incr kept_learned;
                   emit e
                 end
                 else incr dropped_learned
               | Trace.Event.Final_conflict _ ->
                 seen_conflict := true;
                 emit e
               | Trace.Event.Delete ids ->
                 (* keep only hints for clauses that survive the trim *)
                 let norig =
                   match t.header with Some (_, n) -> n | None -> 0
                 in
                 let kept =
                   Array.of_list
                     (List.filter
                        (fun id -> id <= norig || reachable id)
                        (Array.to_list ids))
                 in
                 if Array.length kept > 0 then
                   emit (Trace.Event.Delete kept));
         Trace.Reader.close cur;
         if Obs.Ctl.on () then begin
           Obs.Metrics.Counter.incr m_trim_kept !kept_learned;
           Obs.Metrics.Counter.incr m_trim_dropped
             (!dropped_learned + !dropped_after)
         end;
         Ok
           ( {
               records_in = t.n_events;
               records_out = !records_out;
               kept_learned = !kept_learned;
               dropped_learned = !dropped_learned;
               dropped_after_conflict = !dropped_after;
               bytes_in = Trace.Reader.size_bytes source;
               bytes_out = Trace.Writer.bytes_written w;
             },
             profile )
       end)

(* --- deletion-hint conversion -------------------------------------------- *)

type hint_stats = {
  h_records_in : int;
  h_records_out : int;
  hints : int;
  hinted_clauses : int;
  pinned : int;
  dropped_hints : int;
}

(* [hint source w] rewrites a trace into its deletion-hinted form: every
   clause id gets a [Delete] record right after the record of its last
   use (dead derivations right after their own definition), except ids
   the empty-clause construction needs at the very end — the final
   conflict and every level-0 antecedent stay pinned.  Existing hints in
   the input are discarded and regenerated, so hinting is idempotent.
   The schedule comes from the tables the analysis pass holds, so the
   emitting read is the only re-read. *)
let hint ?format ?max_diagnostics source w =
  Obs.Span.scope ~cat:"analysis" "dag.hint" @@ fun () ->
  if Trace.Writer.version w < 2 then
    invalid_arg "Dag.hint: deletion hints require a version-2 trace writer";
  match feed ?format ?max_diagnostics source with
  | Error e, _ -> Error e
  | Ok t, end_pos ->
    (match finish_internal ~end_pos t with
     | Error e -> Error e
     | Ok { profile; last_use; words; _ } ->
       if profile.forward_refs > 0 || profile.dangling_refs > 0 then
         Error
           {
             pos = end_pos;
             message =
               Printf.sprintf
                 "trace has %d forward and %d dangling references; refusing \
                  to hint a proof whose reference order is broken"
                 profile.forward_refs profile.dangling_refs;
           }
       else begin
         (* One index per clause: an original is its own id, learned
            slot [j] is [norig + 1 + j]. *)
         let norig = profile.originals and n = t.ids.n in
         let nodes = norig + 1 + n in
         let id_of x =
           if x <= norig then x else ibuf_get t.ids (x - norig - 1)
         in
         (* last uses: the last learned record naming the clause as a
            source.  A learned clause's is [last_use]: with every
            reference in order, its only other uses are at the pinned
            level-0 and conflict sites. *)
         let arcs = t.arcs.a and off = t.off.a and len = t.len.a in
         let last = Array.make nodes (-1) in
         for i = 0 to n - 1 do
           for k = off.(i) to off.(i) + len.(i) - 1 do
             if arcs.(k) <= norig then last.(arcs.(k)) <- ibuf_get t.ord i
           done;
           last.(norig + 1 + i) <- last_use.(i)
         done;
         (* pins: the empty-clause construction resolves with them after
            the last trace record; ids no record defines count too *)
         let pinned = Bytes.make nodes '\000' in
         let strays = ref [] in
         for k = 0 to t.pins.n - 1 do
           let p = ibuf_get t.pins k in
           if p >= 1 && p <= norig then Bytes.set pinned p '\001'
           else
             match slot t p with
             | -1 -> strays := p :: !strays
             | j -> Bytes.set pinned (norig + 1 + j) '\001'
         done;
         let n_pinned = ref (List.length (List.sort_uniq compare !strays)) in
         Bytes.iter (fun c -> if c <> '\000' then incr n_pinned) pinned;
         (* die_at: the unpinned ids bucketed by the ordinal of their
            last use, [die.(fin.(o)) .. die.(fin.(o + 1) - 1)] for the
            record at ordinal [o] *)
         let dies x = last.(x) >= 0 && Bytes.get pinned x = '\000' in
         let fin = Array.make (t.n_events + 1) 0 in
         let total = ref 0 in
         for x = 1 to nodes - 1 do
           if dies x then begin
             fin.(last.(x)) <- fin.(last.(x)) + 1;
             incr total
           end
         done;
         for o = 1 to t.n_events do
           fin.(o) <- fin.(o) + fin.(o - 1)
         done;
         let die = Array.make !total 0 in
         for x = 1 to nodes - 1 do
           if dies x then begin
             let o = last.(x) in
             fin.(o) <- fin.(o) - 1;
             die.(fin.(o)) <- id_of x
           end
         done;
         set_table_bytes
           (words + nodes + ((nodes + 7) / 8) + Array.length fin
          + Array.length die);
         (* the one re-read: re-emit with grouped deletes where ids
            drain *)
         let cur = Trace.Reader.cursor ?format source in
         let records_in = ref 0 and records_out = ref 0 in
         let hints = ref 0 and hinted = ref 0 and dropped = ref 0 in
         let seen_conflict = ref false in
         let emit e =
           incr records_out;
           Trace.Writer.emit w e
         in
         let emit_delete ids =
           emit (Trace.Event.Delete ids);
           incr hints;
           hinted := !hinted + Array.length ids
         in
         Trace.Reader.iter_cursor cur (fun e ->
             let o = !records_in in
             incr records_in;
             (match e with
              | Trace.Event.Delete _ -> incr dropped
              | Trace.Event.Final_conflict _ ->
                seen_conflict := true;
                emit e
              | Trace.Event.Header _ | Trace.Event.Level0 _ -> emit e
              | Trace.Event.Learned l ->
                emit e;
                let x = norig + 1 + slot t l.id in
                if (not !seen_conflict) && last.(x) < 0
                   && Bytes.get pinned x = '\000'
                then
                  (* dead derivation: checked, then freed on the spot *)
                  emit_delete [| l.id |]);
             if (not !seen_conflict) && o < t.n_events && fin.(o + 1) > fin.(o)
             then begin
               let ids = Array.sub die fin.(o) (fin.(o + 1) - fin.(o)) in
               Array.sort Int.compare ids;
               emit_delete ids
             end);
         Trace.Reader.close cur;
         Ok
           ( {
               h_records_in = !records_in;
               h_records_out = !records_out;
               hints = !hints;
               hinted_clauses = !hinted;
               pinned = !n_pinned;
               dropped_hints = !dropped;
             },
             profile )
       end)

(* [strip_hints source w] is the downgrade path: drop every [Delete]
   record and emit the rest unchanged, turning a version-2 trace back
   into one every hint-blind strategy accepts. *)
let strip_hints ?format source w =
  try
    let cur = Trace.Reader.cursor ?format source in
    let records_in = ref 0 and records_out = ref 0 and dropped = ref 0 in
    Trace.Reader.iter_cursor cur (fun e ->
        incr records_in;
        match e with
        | Trace.Event.Delete _ -> incr dropped
        | Trace.Event.Header _ | Trace.Event.Learned _ | Trace.Event.Level0 _
        | Trace.Event.Final_conflict _ ->
          incr records_out;
          Trace.Writer.emit w e);
    Trace.Reader.close cur;
    Ok
      {
        h_records_in = !records_in;
        h_records_out = !records_out;
        hints = 0;
        hinted_clauses = 0;
        pinned = 0;
        dropped_hints = !dropped;
      }
  with Trace.Reader.Parse_error { pos; msg } -> Error { pos; message = msg }

(* --- rendering ----------------------------------------------------------- *)

let warning_summary p =
  match p.by_code with
  | [] -> "none"
  | l -> String.concat " " (List.map (fun (id, n) -> Printf.sprintf "%s:%d" id n) l)

let pp fmt p =
  List.iter
    (fun d -> Format.fprintf fmt "%a@," Lint.pp_diagnostic d)
    p.diagnostics;
  if p.dropped > 0 then
    Format.fprintf fmt "... %d further diagnostics dropped@," p.dropped;
  Format.fprintf fmt
    "proof dag: %s format, %d records (%d learned, %d level-0, %d originals), \
     conflict clause %d@,"
    (if p.binary then "binary" else "ascii")
    p.events p.learned p.level0 p.originals p.conflict_id;
  Format.fprintf fmt
    "reachable: %d/%d learned, %d dead, core %d/%d originals; topological %s \
     (%d forward, %d dangling refs)@,"
    p.reachable_learned p.learned p.dead_learned p.core_originals p.originals
    (if p.topological then "yes" else "no")
    p.forward_refs p.dangling_refs;
  Format.fprintf fmt
    "shape: depth %d, max width %d at depth %d, max fan-in %d, %d arcs@,"
    p.max_depth p.max_width p.widest_depth p.max_fanin p.total_arcs;
  Format.fprintf fmt
    "lifetime: last-use span max %d mean %.1f, first-use gap max %d mean \
     %.1f@,"
    p.lifetime_max p.lifetime_mean p.first_gap_max p.first_gap_mean;
  Format.fprintf fmt
    "predicted peak live: df %d, bf %d, hybrid %d; warnings %s"
    p.predicted_peak_live.df p.predicted_peak_live.bf
    p.predicted_peak_live.hybrid (warning_summary p)

let hist_json h =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i (b, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%d,%d]" b n))
    h;
  Buffer.add_char buf ']';
  Buffer.contents buf

let to_json p =
  let f = Obs.Metrics.json_float in
  Printf.sprintf
    "{\"format\":\"%s\",\"events\":%d,\"learned\":%d,\"level0\":%d,\
     \"nvars\":%d,\"originals\":%d,\"conflict_id\":%d,\"topological\":%b,\
     \"forward_refs\":%d,\"dangling_refs\":%d,\"reachable_learned\":%d,\
     \"dead_learned\":%d,\"core_originals\":%d,\"duplicate_derivations\":%d,\
     \"singleton_chains\":%d,\
     \"depth\":{\"max\":%d,\"buckets\":%s},\
     \"width\":{\"max\":%d,\"at_depth\":%d},\
     \"fanin\":{\"max\":%d,\"total_arcs\":%d},\
     \"lifetime\":{\"max\":%d,\"mean\":%s,\"buckets\":%s},\
     \"first_use_gap\":{\"max\":%d,\"mean\":%s},\
     \"predicted_peak_live\":{\"df\":%d,\"bf\":%d,\"hybrid\":%d},\
     \"warnings\":%d,\"dropped\":%d,\"by_code\":%s,\"diagnostics\":%s}"
    (if p.binary then "binary" else "ascii")
    p.events p.learned p.level0 p.nvars p.originals p.conflict_id
    p.topological p.forward_refs p.dangling_refs p.reachable_learned
    p.dead_learned p.core_originals p.duplicate_derivations p.singleton_chains
    p.max_depth (hist_json p.depth_hist) p.max_width p.widest_depth p.max_fanin
    p.total_arcs p.lifetime_max (f p.lifetime_mean) (hist_json p.lifetime_hist)
    p.first_gap_max (f p.first_gap_mean) p.predicted_peak_live.df
    p.predicted_peak_live.bf p.predicted_peak_live.hybrid p.warnings p.dropped
    (Lint.by_code_json p.by_code)
    (Lint.diagnostics_json p.diagnostics)

(* --- DAG neighborhood (refusal forensics) -------------------------------- *)

type node = {
  n_id : int;
  n_kind : [ `Original | `Learned | `Undefined ];
  n_def_pos : Trace.Reader.pos option;
  n_sources : int array;
  n_uses : int;
  n_used_by : int list;
  n_deleted_at : Trace.Reader.pos option;
}

let neighborhood ?format ?(max_used_by = 8) ~ids source =
  (* Best-effort by contract: [explain] runs this over the very traces
     the checker refused, so a parse error simply ends the pass — what
     was collected up to the refusal point is exactly the context a
     positioned failure can see anyway. *)
  let targets = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace targets id ()) ids;
  let nodes = Hashtbl.create 8 in
  let node id =
    match Hashtbl.find_opt nodes id with
    | Some n -> n
    | None ->
      let n =
        ref
          {
            n_id = id;
            n_kind = `Undefined;
            n_def_pos = None;
            n_sources = [||];
            n_uses = 0;
            n_used_by = [];
            n_deleted_at = None;
          }
      in
      Hashtbl.replace nodes id n;
      n
  in
  let originals = ref 0 in
  let cur = Trace.Reader.cursor ?format source in
  (try
     let continue = ref true in
     while !continue do
       match Trace.Reader.next cur with
       | None -> continue := false
       | Some e -> (
         let pos = Trace.Reader.last_pos cur in
         match e with
         | Trace.Event.Header h -> originals := h.num_original
         | Trace.Event.Learned l ->
           if Hashtbl.mem targets l.id then begin
             let n = node l.id in
             if !n.n_def_pos = None then
               n :=
                 {
                   !n with
                   n_kind = `Learned;
                   n_def_pos = Some pos;
                   n_sources = Array.copy l.sources;
                 }
           end;
           Array.iter
             (fun s ->
               if Hashtbl.mem targets s then begin
                 let n = node s in
                 let used_by =
                   if List.length !n.n_used_by < max_used_by then
                     !n.n_used_by @ [ l.id ]
                   else !n.n_used_by
                 in
                 n := { !n with n_uses = !n.n_uses + 1; n_used_by = used_by }
               end)
             l.sources
         | Trace.Event.Level0 v ->
           if Hashtbl.mem targets v.ante then begin
             let n = node v.ante in
             n := { !n with n_uses = !n.n_uses + 1 }
           end
         | Trace.Event.Final_conflict id ->
           if Hashtbl.mem targets id then begin
             let n = node id in
             n := { !n with n_uses = !n.n_uses + 1 }
           end
         | Trace.Event.Delete del ->
           Array.iter
             (fun id ->
               if Hashtbl.mem targets id then begin
                 let n = node id in
                 if !n.n_deleted_at = None then
                   n := { !n with n_deleted_at = Some pos }
               end)
             del)
     done
   with Trace.Reader.Parse_error _ -> ());
  Trace.Reader.close cur;
  List.map
    (fun id ->
      let n = !(node id) in
      if n.n_kind = `Undefined && id >= 1 && id <= !originals then
        { n with n_kind = `Original }
      else n)
    (List.sort_uniq compare ids)
