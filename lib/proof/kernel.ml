module Idtab = Trace.Idtab

type t = {
  db : Clause_db.t;
  formula : Sat.Cnf.t;
  num_original : int;
  ids : Idtab.range;                            (* id tables' dense bound *)
  handles : Clause_db.handle Idtab.t;           (* one ref owned per entry *)
  core : unit Idtab.t;                          (* original ids materialised *)
  mutable built_ids : int array;                (* learned ids chained ... *)
  mutable built : int;                          (* ... in [0 .. built - 1] *)
  mutable built_sorted : int list;              (* sorted built_ids ... *)
  mutable sorted_upto : int;                    (* ... of the first this many *)
  mutable steps : int;
  mutable pivots : int array;                   (* the last chain's pivots *)
  mutable final_pivots : int array;             (* final_chain's *)
  acc : Resolvent.t;                            (* chain's running resolvent *)
  final_acc : Resolvent.t;                      (* final_chain's: miss chains *)
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
    built_ids = Array.make 64 0;
    built = 0;
    built_sorted = [];
    sorted_upto = 0;
    steps = 0;
    pivots = Array.make 64 0;
    final_pivots = Array.make 64 0;
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

(* The cold growth paths of the kernel's int buffers, kept out of the
   chain loop: their stores are its only pointer stores. *)
let grown a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline never] grow_built t = t.built_ids <- grown t.built_ids (t.built + 1)
let[@inline never] grow_pivots t n = t.pivots <- grown t.pivots n

let[@inline never] grow_final_pivots t n =
  t.final_pivots <- grown t.final_pivots n

(* the handle [id] is bound to, else [miss id]'s *)
let lookup t ~miss id =
  match Idtab.find t.handles id with h -> h | exception Not_found -> miss id

let chain t ~context ~miss ~learned_id ids =
  let last = Array.length ids - 1 in
  if last < 0 then Diagnostics.fail (Diagnostics.Empty_source_list learned_id);
  if t.built = Array.length t.built_ids then grow_built t;
  t.built_ids.(t.built) <- learned_id;
  t.built <- t.built + 1;
  let db = t.db in
  let h0 = lookup t ~miss ids.(0) in
  if last = 0 then begin
    (* a degenerate learned clause is the source clause itself *)
    Clause_db.retain db h0;
    observe_chain t ~nsources:1 ~steps:0;
    h0
  end
  else begin
    if Array.length t.pivots < last then grow_pivots t last;
    let acc = t.acc and pivots = t.pivots and handles = t.handles in
    Resolvent.start acc (Clause_db.arena db) (Clause_db.offset h0)
      (Clause_db.size db h0);
    (* The loop reads each operand's header and literals in place and
       makes no call but the step and the booking: the arena is re-read
       only after [miss], which may have stored a clause and grown it,
       and a size goes through [Clause_db.size] only for its debug-mode
       use-after-free guard. *)
    let debug = Clause_db.debug_enabled () and hw = Clause_db.header_words in
    let arena = ref (Clause_db.arena db) in
    let result = ref h0 and c1_id = ref ids.(0) and booked = ref (-1) in
    for idx = 1 to last do
      let id = ids.(idx) in
      let h =
        match Idtab.find handles id with
        | h -> h
        | exception Not_found ->
          let h = miss id in
          arena := Clause_db.arena db;
          h
      in
      let a = !arena in
      let n = if debug then Clause_db.size db h else a.{h} in
      let pivot =
        Resolvent.step acc ~context ~c1_id:!c1_id ~c2_id:id a (h + hw) n
      in
      pivots.(idx - 1) <- pivot;
      t.steps <- t.steps + 1;
      (* each intermediate is booked in the store as if allocated, and
         credited when the next one replaces it; only the chain's result
         is written to the arena, straight into its slot *)
      let len = Resolvent.length acc in
      if idx < last then Clause_db.rebook db ~prev:!booked len
      else begin
        let r = Clause_db.alloc_slot db len in
        ignore (Resolvent.blit acc (Clause_db.arena db) (r + hw));
        if !booked >= 0 then Clause_db.unbook db !booked;
        result := r
      end;
      booked := len;
      c1_id := learned_id (* intermediate resolvents belong to the learned id *)
    done;
    observe_chain t ~nsources:(last + 1) ~steps:last;
    !result
  end

let pivot t i = t.pivots.(i)

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

type builder = {
  bk : t;
  bsources : int array Idtab.t;
  in_progress : unit Idtab.t;
  miss : int -> Clause_db.handle;
  on_built : int -> unit;
}

let context_build = "depth-first build"

let builder ?(on_built = ignore) t ~sources =
  {
    bk = t;
    bsources = sources;
    in_progress = Idtab.create t.ids;
    miss = find t ~context:context_build;
    on_built;
  }

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
        ignore (b.miss id);
        stack := rest
      end
      else begin
        match Idtab.find_opt b.bsources id with
        | None ->
          Diagnostics.fail
            (Diagnostics.Unknown_clause { context = context_build; id })
        | Some srcs ->
          (* the first source still to build; original sources are built
             inline, as they never recurse *)
          let missing = ref 0 in
          for i = 0 to Array.length srcs - 1 do
            let s = srcs.(i) in
            if not (defined k s) then
              if is_original k s then ignore (b.miss s)
              else if !missing = 0 then missing := s
          done;
          if !missing = 0 then begin
            let h =
              chain k ~context:"learned-clause reconstruction" ~miss:b.miss
                ~learned_id:id srcs
            in
            define k id h;
            b.on_built id;
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
  b.miss root

(* --- the empty-clause construction -------------------------------------- *)

let context_final = "empty-clause construction"

let final_chain t ~l0 ~miss ~conflict_id =
  let db = t.db and acc = t.final_acc in
  let h0 = lookup t ~miss conflict_id in
  Array.iter
    (fun l ->
      if not (Level0.lit_false l0 l) then
        Diagnostics.fail
          (Diagnostics.Final_literal_not_false
             { clause_id = conflict_id; lit = l }))
    (Clause_db.lits db h0);
  Resolvent.start acc (Clause_db.arena db) (Clause_db.offset h0)
    (Clause_db.size db h0);
  let cur_id = ref conflict_id in
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
    let ha = lookup t ~miss ante_id in
    (match Level0.check_antecedent l0 ~var:v (Clause_db.lits db ha) with
     | None -> ()
     | Some reason ->
       Diagnostics.fail
         (Diagnostics.Antecedent_mismatch { var = v; ante = ante_id; reason }));
    (* the arena is read after [miss], which may have grown it *)
    let pivot =
      Resolvent.step acc ~context:context_final ~c1_id:!cur_id ~c2_id:ante_id
        (Clause_db.arena db) (Clause_db.offset ha) (Clause_db.size db ha)
    in
    (* each resolvent, the empty clause included, is booked as if
       allocated before the one it replaces is credited *)
    let len = Resolvent.length acc in
    Clause_db.rebook db ~prev:!booked len;
    t.steps <- t.steps + 1;
    if pivot <> v then
      Diagnostics.fail
        (Diagnostics.Wrong_pivot
           { context = context_final; expected = v; actual = pivot });
    booked := len;
    if !steps = Array.length t.final_pivots then
      grow_final_pivots t (!steps + 1);
    t.final_pivots.(!steps) <- pivot;
    incr steps;
    cur_id := -1 (* intermediate chain resolvent *)
  done;
  if !booked >= 0 then Clause_db.unbook db !booked;
  !steps

let final_pivot t i = t.final_pivots.(i)

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
    merged_literals = Resolvent.merges t.acc + Resolvent.merges t.final_acc;
    peak_live_clauses = Clause_db.peak_live_clauses t.db;
    arena_peak_bytes = 8 * Clause_db.peak_words t.db;
  }

let resolution_steps t = t.steps

(* The sorted list is memoised: it is re-read per report, and an
   O(n log n) sort per call shows up on large traces.  A {!chain} since
   the last sort leaves [sorted_upto] behind [built]. *)
let built_ids t =
  if t.sorted_upto < t.built then begin
    t.built_sorted <-
      List.sort Int.compare (Array.to_list (Array.sub t.built_ids 0 t.built));
    t.sorted_upto <- t.built
  end;
  t.built_sorted

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
