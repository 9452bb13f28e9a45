module Idtab = Trace.Idtab

type t = {
  db : Clause_db.t;
  formula : Sat.Cnf.t;
  num_original : int;
  ids : Idtab.range;                            (* id tables' dense bound *)
  handles : Clause_db.handle Idtab.t;           (* one ref owned per entry *)
  core : unit Idtab.t;                          (* original ids materialised *)
  mutable built_ids : int list;                 (* learned ids chained *)
  mutable built_sorted : int list option;       (* memoised sorted built_ids *)
  mutable built : int;
  mutable steps : int;
  mutable merges : int;
  mutable scratch : int array;                  (* chain result buffer *)
  acc : Resolvent.t;                            (* chain's running resolvent *)
  final_acc : Resolvent.t;                      (* final_chain's: fetch chains *)
}

(* Telemetry handles, resolved once.  The kernel updates them at chain
   granularity (one learned clause), never per resolution step. *)
let m_chains = Obs.Metrics.counter Obs.Metrics.global "kernel.chains"
let m_steps = Obs.Metrics.counter Obs.Metrics.global "kernel.resolution_steps"
let m_live = Obs.Metrics.gauge Obs.Metrics.global "kernel.live_clauses"
let m_arena = Obs.Metrics.gauge Obs.Metrics.global "kernel.arena_bytes"
let m_chain_len =
  Obs.Metrics.histogram Obs.Metrics.global "kernel.chain_length"
let m_stream_events =
  Obs.Metrics.counter Obs.Metrics.global "kernel.stream_events"

let create ?mem_limit formula =
  let db = Clause_db.create ?mem_limit () in
  let num_original = Sat.Cnf.nclauses formula in
  (* widened by 2 per learned record a stream reads: a solver numbers its
     learned clauses [num_original + 1 ..] in stream order *)
  let ids = Idtab.range num_original in
  {
    db;
    formula;
    num_original;
    ids;
    handles = Idtab.create ids;
    core = Idtab.create ids;
    built_ids = [];
    built_sorted = None;
    built = 0;
    steps = 0;
    merges = 0;
    scratch = Array.make 64 0;
    acc = Resolvent.create ();
    final_acc = Resolvent.create ();
  }

let db t = t.db
let num_original t = t.num_original
let is_original t id = id >= 1 && id <= t.num_original
let id_range t = t.ids

(* --- id table ---------------------------------------------------------- *)

let define t id h = Idtab.replace t.handles id h
let defined t id = Idtab.mem t.handles id

let find t ~context id =
  match Idtab.find t.handles id with
  | h -> h
  | exception Not_found ->
    if is_original t id then begin
      Idtab.replace t.core id ();
      let h = Clause_db.alloc t.db (Sat.Cnf.clause t.formula (id - 1)) in
      Idtab.replace t.handles id h;
      h
    end
    else Diagnostics.fail (Diagnostics.Unknown_clause { context; id })

let release_id t id =
  match Idtab.find t.handles id with
  | exception Not_found -> ()
  | h ->
    Idtab.remove t.handles id;
    Clause_db.release t.db h

(* --- resolution -------------------------------------------------------- *)

let ensure_scratch t n =
  if Array.length t.scratch < n then
    t.scratch <- Array.make (max n (2 * Array.length t.scratch)) 0

(* [peek t id] is the read-only id lookup: never materialises an original,
   never mutates. *)
let peek t id = Idtab.find_opt t.handles id

(* One telemetry update per completed chain: counters for the chain and
   its resolution steps, live gauges for the arena, and a sampler tick. *)
let observe_chain t ~nsources ~steps =
  if Obs.Ctl.on () then begin
    Obs.Metrics.Counter.incr m_chains 1;
    Obs.Metrics.Counter.incr m_steps steps;
    Obs.Metrics.Histogram.observe m_chain_len nsources;
    Obs.Metrics.Gauge.set m_live (float_of_int (Clause_db.live_clauses t.db));
    Obs.Metrics.Gauge.set m_arena
      (float_of_int (8 * Clause_db.live_words t.db));
    Obs.Sampler.tick ()
  end

let chain t ~context ~fetch ~combine ~learned_id ids =
  if Array.length ids = 0 then
    Diagnostics.fail (Diagnostics.Empty_source_list learned_id);
  t.built <- t.built + 1;
  t.built_ids <- learned_id :: t.built_ids;
  t.built_sorted <- None;
  let db = t.db and last = Array.length ids - 1 in
  let h0, a0 = fetch ids.(0) in
  if last = 0 then begin
    (* a degenerate learned clause is the source clause itself *)
    Clause_db.retain db h0;
    observe_chain t ~nsources:1 ~steps:0;
    (h0, a0)
  end
  else begin
    Resolvent.start t.acc (Clause_db.arena db) (Clause_db.offset h0)
      (Clause_db.size db h0);
    let result = ref h0 and ann = ref a0 in
    let c1_id = ref ids.(0) and booked = ref 0 in
    for idx = 1 to last do
      let h, a = fetch ids.(idx) in
      let n = Clause_db.size db h in
      let pivot =
        Resolvent.step t.acc ~context ~c1_id:!c1_id ~c2_id:ids.(idx)
          (Clause_db.arena db) (Clause_db.offset h) n
      in
      t.steps <- t.steps + 1;
      t.merges <- t.merges + Resolvent.merges t.acc;
      (* each intermediate is booked in the store as if allocated, and
         credited when the next one replaces it; only the chain's result
         is written to the arena *)
      let len = Resolvent.length t.acc in
      if idx < last then Clause_db.book db len
      else begin
        ensure_scratch t len;
        let len = Resolvent.blit t.acc t.scratch in
        result := Clause_db.alloc_sorted db t.scratch len
      end;
      if idx > 1 then Clause_db.unbook db !booked;
      booked := len;
      ann := combine ~pivot !ann a;
      c1_id := learned_id (* intermediate resolvents belong to the learned id *)
    done;
    observe_chain t ~nsources:(last + 1) ~steps:last;
    (!result, !ann)
  end

let unit_combine ~pivot:_ () () = ()

let chain_ids t ~context ~fetch ~learned_id ids =
  fst
    (chain t ~context
       ~fetch:(fun id -> (fetch id, ()))
       ~combine:unit_combine ~learned_id ids)

(* --- streaming traversal ----------------------------------------------- *)

type pass = {
  total_learned : int;
  final_conflict : int option;
}

type residency = [ `Full | `Defs | `None ]

let residency_words = function
  | Trace.Event.Header _ -> 2
  | Trace.Event.Learned l -> 2 + Array.length l.sources
  | Trace.Event.Level0 _ -> 3
  | Trace.Event.Final_conflict _ -> 1
  | Trace.Event.Delete ids -> 1 + Array.length ids

(* The validating pass is an incremental state machine so that it can be
   driven either by pulling from a {!Trace.Source.t} ({!stream_pass}, the
   file-based checkers) or by having events pushed into it live from the
   solver (the online validator's BF ingest).  Both drivers share the
   exact same per-event validation and memory charges, which is what makes
   online and file-based reports bit-identical. *)

type stream = {
  sk : t;
  s_stream_order : bool;
  s_l0 : Level0.t option;
  s_charge : residency;
  s_accept_hints : bool;
  seen : unit Idtab.t;  (* learned ids defined so far *)
  mutable saw_header : bool;
  mutable s_total : int;
  mutable s_conf : int option;
}

let stream_start t ?(stream_order = true) ?l0 ?(charge = `None)
    ?(accept_hints = false) () =
  {
    sk = t;
    s_stream_order = stream_order;
    s_l0 = l0;
    s_charge = charge;
    s_accept_hints = accept_hints;
    seen = Idtab.create t.ids;
    saw_header = false;
    s_total = 0;
    s_conf = None;
  }

let stream_feed st e =
  let t = st.sk in
  if Obs.Ctl.on () then begin
    Obs.Metrics.Counter.incr m_stream_events 1;
    Obs.Sampler.tick ()
  end;
  (match st.s_charge with
   | `Full -> Clause_db.charge t.db (residency_words e)
   | `Defs -> (
     match e with
     | Trace.Event.Learned _ -> Clause_db.charge t.db (residency_words e)
     | _ -> ())
   | `None -> ());
  match e with
  | Trace.Event.Header h ->
    st.saw_header <- true;
    if h.nvars <> Sat.Cnf.nvars t.formula || h.num_original <> t.num_original
    then
      Diagnostics.fail
        (Diagnostics.Header_mismatch
           { trace_nvars = h.nvars; trace_norig = h.num_original;
             formula_nvars = Sat.Cnf.nvars t.formula;
             formula_norig = t.num_original })
  | Trace.Event.Learned l ->
    Idtab.widen t.ids 2;
    if is_original t l.id then
      Diagnostics.fail (Diagnostics.Shadows_original l.id);
    if Idtab.mem st.seen l.id then
      Diagnostics.fail (Diagnostics.Duplicate_definition l.id);
    if Array.length l.sources = 0 then
      Diagnostics.fail (Diagnostics.Empty_source_list l.id);
    if st.s_stream_order then
      Array.iter
        (fun s ->
          if not (is_original t s) && not (Idtab.mem st.seen s) then
            Diagnostics.fail
              (Diagnostics.Forward_reference { id = l.id; source = s }))
        l.sources;
    Idtab.replace st.seen l.id ();
    st.s_total <- st.s_total + 1
  | Trace.Event.Level0 v -> (
    match st.s_l0 with
    | Some l0 -> Level0.add l0 ~var:v.var ~value:v.value ~ante:v.ante
    | None -> ())
  | Trace.Event.Final_conflict id -> st.s_conf <- Some id
  | Trace.Event.Delete _ ->
    (* deletion hints are advice the hinted checker acts on itself; every
       other mode refuses them up front so a version-2 trace can never be
       silently mis-checked by a hint-blind strategy *)
    if not st.s_accept_hints then
      Diagnostics.fail Diagnostics.Hints_unsupported

let stream_finish st =
  if not st.saw_header then Diagnostics.fail Diagnostics.Missing_header;
  { total_learned = st.s_total; final_conflict = st.s_conf }

let stream_pass t ?stream_order ?l0 ?charge ?on_event src =
  let st = stream_start t ?stream_order ?l0 ?charge () in
  Trace.Source.iter
    (fun e ->
      stream_feed st e;
      match on_event with Some f -> f e | None -> ())
    src;
  stream_finish st

type proof = {
  sources : int array Idtab.t;
  l0 : Level0.t;
  final_conflict : int option;
  total_learned : int;
}

let load t ?(stream_order = false) ?(charge = `None) src =
  let sources = Idtab.create t.ids in
  let l0 = Level0.create () in
  let pass =
    stream_pass t ~stream_order ~l0 ~charge
      ~on_event:(function
        | Trace.Event.Learned l -> Idtab.replace sources l.id l.sources
        | _ -> ())
      src
  in
  {
    sources;
    l0;
    final_conflict = pass.final_conflict;
    total_learned = pass.total_learned;
  }

(* --- recursive traversal ------------------------------------------------ *)

type 'a annotation = {
  of_original : int -> Sat.Lit.t array -> 'a;
  combine : pivot:Sat.Lit.var -> 'a -> 'a -> 'a;
}

let unit_annotation =
  { of_original = (fun _ _ -> ()); combine = (fun ~pivot:_ () () -> ()) }

type 'a builder = {
  bk : t;
  bsources : int array Idtab.t;
  ann : 'a Idtab.t;
  spec : 'a annotation;
  in_progress : unit Idtab.t;
}

let builder t ~sources spec =
  {
    bk = t;
    bsources = sources;
    ann = Idtab.create t.ids;
    spec;
    in_progress = Idtab.create t.ids;
  }

let context_build = "depth-first build"

let materialise_original b id =
  let h = find b.bk ~context:context_build id in
  Idtab.replace b.ann id (b.spec.of_original id (Clause_db.lits b.bk.db h))

(* Figure 3's recursive_build, iteratively with an explicit work stack so
   deep proofs cannot overflow the OCaml call stack. *)
let build b root =
  let k = b.bk in
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      if defined k id then begin
        Idtab.remove b.in_progress id;
        stack := rest
      end
      else if is_original k id then begin
        materialise_original b id;
        stack := rest
      end
      else begin
        match Idtab.find_opt b.bsources id with
        | None ->
          Diagnostics.fail
            (Diagnostics.Unknown_clause { context = context_build; id })
        | Some srcs ->
          let missing = ref 0 in
          Array.iter
            (fun s ->
              if !missing = 0 && not (defined k s) && not (is_original k s)
              then missing := s)
            srcs;
          (* original sources are built inline: they never recurse *)
          Array.iter
            (fun s ->
              if is_original k s && not (defined k s) then
                materialise_original b s)
            srcs;
          if !missing = 0 then begin
            let fetch s =
              (* find first: it raises Unknown_clause for ids the proof
                 never defined (e.g. a 0 source), before any annotation
                 lookup *)
              let h = find k ~context:context_build s in
              match Idtab.find b.ann s with
              | a -> (h, a)
              | exception Not_found ->
                (* an original materialised outside this builder *)
                let a = b.spec.of_original s (Clause_db.lits k.db h) in
                Idtab.replace b.ann s a;
                (h, a)
            in
            let h, a =
              chain k ~context:"learned-clause reconstruction" ~fetch
                ~combine:(fun ~pivot a1 a2 -> b.spec.combine ~pivot a1 a2)
                ~learned_id:id srcs
            in
            define k id h;
            Idtab.replace b.ann id a;
            Idtab.remove b.in_progress id;
            stack := rest
          end
          else begin
            if Idtab.mem b.in_progress !missing then
              Diagnostics.fail (Diagnostics.Cyclic_definition !missing);
            Idtab.replace b.in_progress id ();
            Idtab.replace b.in_progress !missing ();
            stack := !missing :: !stack
          end
      end
  done;
  let h = find b.bk ~context:context_build root in
  match Idtab.find_opt b.ann root with
  | Some a -> (h, a)
  | None ->
    let a = b.spec.of_original root (Clause_db.lits b.bk.db h) in
    Idtab.replace b.ann root a;
    (h, a)

(* --- the empty-clause construction -------------------------------------- *)

let context_final = "empty-clause construction"

let final_chain t ~l0 ~fetch ~combine ~conflict_id =
  let db = t.db and acc = t.final_acc in
  let h0, a0 = fetch conflict_id in
  Clause_db.iter_lits db h0 (fun l ->
      if not (Level0.lit_false l0 l) then
        Diagnostics.fail
          (Diagnostics.Final_literal_not_false
             { clause_id = conflict_id; lit = l }));
  Resolvent.start acc (Clause_db.arena db) (Clause_db.offset h0)
    (Clause_db.size db h0);
  let ann = ref a0 and cur_id = ref conflict_id in
  (* the length booked for the running resolvent; -1 while it is still
     the conflict clause, which the store already holds *)
  let booked = ref (-1) and steps = ref 0 in
  (* the order of the next level-0 record to try, walked down once *)
  let cursor = ref (Level0.count l0 - 1) in
  while Resolvent.length acc > 0 do
    (* reverse chronological choice: the literal whose variable was
       assigned last — the paper's choose_literal, which guarantees
       termination in at most n resolutions.  Every literal has a level-0
       record at or below the cursor (the conflict's were checked false;
       each antecedent's other literals by [check_antecedent], as earlier
       than the pivot it replaced), so the first variable the cursor
       meets is the deepest, and the cursor never moves back up. *)
    while not (Resolvent.mem acc (Level0.var_at l0 !cursor)) do
      decr cursor
    done;
    let v = Level0.var_at l0 !cursor in
    let ante_id = Level0.ante l0 v in
    let ha, aa = fetch ante_id in
    (match Level0.check_antecedent l0 ~var:v (Clause_db.lits db ha) with
     | None -> ()
     | Some reason ->
       Diagnostics.fail
         (Diagnostics.Antecedent_mismatch { var = v; ante = ante_id; reason }));
    (* the arena is read after [fetch], which may have grown it *)
    let pivot =
      Resolvent.step acc ~context:context_final ~c1_id:!cur_id ~c2_id:ante_id
        (Clause_db.arena db) (Clause_db.offset ha) (Clause_db.size db ha)
    in
    t.merges <- t.merges + Resolvent.merges acc;
    (* each resolvent, the empty clause included, is booked as if
       allocated before the one it replaces is credited *)
    let len = Resolvent.length acc in
    Clause_db.book db len;
    t.steps <- t.steps + 1;
    if pivot <> v then
      Diagnostics.fail
        (Diagnostics.Wrong_pivot
           { context = context_final; expected = v; actual = pivot });
    if !booked >= 0 then Clause_db.unbook db !booked;
    booked := len;
    incr steps;
    ann := combine ~pivot !ann aa;
    cur_id := -1 (* intermediate chain resolvent *)
  done;
  if !booked >= 0 then Clause_db.unbook db !booked;
  (!ann, !steps)

let final_chain_ids t ~l0 ~fetch ~conflict_id =
  snd
    (final_chain t ~l0
       ~fetch:(fun id -> (fetch id, ()))
       ~combine:unit_combine ~conflict_id)

(* --- counters ----------------------------------------------------------- *)

type counters = {
  clauses_built : int;
  resolution_steps : int;
  merged_literals : int;
  peak_live_clauses : int;
  arena_peak_bytes : int;
}

let counters t =
  {
    clauses_built = t.built;
    resolution_steps = t.steps;
    merged_literals = t.merges;
    peak_live_clauses = Clause_db.peak_live_clauses t.db;
    arena_peak_bytes = 8 * Clause_db.peak_words t.db;
  }

let resolution_steps t = t.steps

(* The built list is memoised: it is re-read per report, and an
   O(n log n) sort per call shows up on large traces.  The cache is
   invalidated by {!chain}. *)
let built_ids t =
  match t.built_sorted with
  | Some ids -> ids
  | None ->
    let ids = List.sort Int.compare t.built_ids in
    t.built_sorted <- Some ids;
    ids

let core_ids t = Idtab.keys t.core

let core_var_count t =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun id ->
      Array.iter
        (fun l -> Hashtbl.replace seen (Sat.Lit.var l) ())
        (Sat.Cnf.clause t.formula (id - 1)))
    (core_ids t);
  Hashtbl.length seen
