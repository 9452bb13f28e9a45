type result =
  | Sat of Sat.Assignment.t
  | Unsat

type restart_sequence = Geometric | Luby

type config = {
  var_decay : float;
  restart_first : int;
  restart_inc : float;
  restart_sequence : restart_sequence;
  enable_restarts : bool;
  enable_deletion : bool;
  enable_minimization : bool;
  max_learned_factor : float;
  max_learned_inc : float;
  random_decision_freq : float;
  seed : int;
  sanitize : bool;
  emit_deletes : bool;
  inprocess_interval : int;
}

let default_config = {
  var_decay = 0.95;
  restart_first = 100;
  restart_inc = 1.5;
  restart_sequence = Geometric;
  enable_restarts = true;
  enable_deletion = true;
  (* off by default: conflict-clause minimization postdates the paper
     (MiniSat 1.13); enabling it keeps traces valid — see the ablation *)
  enable_minimization = false;
  max_learned_factor = 1.0 /. 3.0;
  max_learned_inc = 1.1;
  random_decision_freq = 0.02;
  seed = 91648253;
  sanitize = false;
  emit_deletes = false;
  inprocess_interval = 0;
}

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned_clauses : int;
  learned_literals : int;
  deleted_clauses : int;
  restarts : int;
  max_decision_level : int;
}

(* for outcomes settled before search starts (e.g. by the simplifier) *)
let empty_stats = {
  decisions = 0;
  propagations = 0;
  conflicts = 0;
  learned_clauses = 0;
  learned_literals = 0;
  deleted_clauses = 0;
  restarts = 0;
  max_decision_level = 0;
}

(* Telemetry handles, resolved once at load.  Every update below is
   guarded by [Obs.Ctl.on ()] at per-conflict granularity — never inside
   propagation — so the disabled path costs one branch per conflict. *)
let m_conflicts = Obs.Metrics.counter Obs.Metrics.global "solver.conflicts"
let m_decisions = Obs.Metrics.gauge Obs.Metrics.global "solver.decisions"
let m_propagations = Obs.Metrics.gauge Obs.Metrics.global "solver.propagations"
let m_learned_alive = Obs.Metrics.gauge Obs.Metrics.global "solver.learned_alive"
let m_arena_words = Obs.Metrics.gauge Obs.Metrics.global "solver.arena_words"
let m_learned_lits =
  Obs.Metrics.histogram Obs.Metrics.global "solver.learned_clause_lits"

(* Truth values, one byte per literal in [t.vals].  Set for both
   polarities on assignment, so a literal's value is one load; a
   variable's value is that of its positive literal. *)
let v_false = '\000'
let v_true = '\001'
let v_unassigned = '\002'

(* Every clause lives in one flat [int array], the arena: a two-word
   header [cid; size] followed by its [size] literals, of which the first
   two are the watched ones.  Clauses sit in cid order, and a watch entry
   is a header offset, so propagation stores no pointer (no write
   barrier) and reaches a literal in one load from the entry.  What a
   clause carries besides its literals is kept per cid: its header
   offset, a flag byte and its activity. *)
let f_learned = 1
let f_deleted = 2
let f_attached = 4              (* unit and tautological clauses are not watched *)

(* The dev profile compiles every module with -opaque, so nothing from
   another module is inlined here: the hot loops (propagate, enqueue,
   unassign, analyze) read the arrays below with inline literal
   arithmetic (var = l lsr 1, negation = l lxor 1) and call no function
   of Sat.Vec or Sat.Lit. *)
type t = {
  cfg : config;
  tracer : Trace.Sink.t option;
  nvars : int;
  mutable arena : int array;                (* the clauses, in cid order *)
  mutable top : int;                        (* arena words in use *)
  mutable wasted : int;                     (* words of deleted clauses below [top] *)
  mutable n_clauses : int;                  (* highest cid *)
  mutable offs : int array;                 (* per cid: header offset, -1 once compacted away *)
  mutable flags : Bytes.t;                  (* per cid: f_learned, f_deleted, f_attached *)
  mutable cact : float array;               (* per cid: clause activity *)
  watches : int array array;                (* per literal: headers of watching clauses *)
  wlen : int array;                         (* per literal: live watch count *)
  vals : Bytes.t;                           (* per literal: v_false/true/unassigned *)
  level : int array;                        (* per var *)
  reason : int array;                       (* per var: antecedent cid or 0 *)
  pos : int array;                          (* per var: trail position *)
  trail : int array;                        (* literals, assignment order *)
  mutable trail_len : int;
  mutable trail_lim : int array;            (* trail length at each decision *)
  mutable n_levels : int;                   (* decision level *)
  mutable qhead : int;
  activity : float array;                   (* per var: VSIDS score *)
  incs : float array;                       (* [var_inc] and [cla_inc] slots *)
  order : Heap.t;
  phase : Bytes.t;                          (* per var: saved polarity *)
  seen : Bytes.t;                           (* per var: conflict-analysis mark *)
  lbuf : int array;                         (* analyze's learned-clause buffer *)
  mutable learnts : int array;              (* live learned cids, ascending *)
  mutable n_learnts : int;
  dirty : int array;                        (* literals whose watch list holds a deleted clause *)
  mutable n_dirty : int;
  dirty_mark : Bytes.t;                     (* per literal: on [dirty] *)
  rng : Sat.Rng.t;
  mutable max_learned : float;
  mutable last_inprocess : int;
  mutable s_decisions : int;
  mutable s_propagations : int;
  mutable s_conflicts : int;
  mutable s_learned : int;
  mutable s_learned_lits : int;
  mutable s_deleted : int;
  mutable s_restarts : int;
  mutable s_max_level : int;
}

let lit_value s l = Bytes.get s.vals l

let var_value s v = Bytes.get s.vals (v lsl 1)

let decision_level s = s.n_levels

let has s cid f = Char.code (Bytes.get s.flags cid) land f <> 0

let emit s e =
  match s.tracer with
  | None -> ()
  | Some sink -> Trace.Sink.push sink e

(* --- assignment ------------------------------------------------------- *)

let enqueue s l reason =
  let v = l lsr 1 in
  assert (lit_value s l = v_unassigned);
  Bytes.set s.vals l v_true;
  Bytes.set s.vals (l lxor 1) v_false;
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- reason;
  s.pos.(v) <- s.trail_len;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* [a]'s first [n] slots in an array about twice as long, the rest
   [fill] *)
let grow a n fill =
  let b = Array.make ((2 * n) + 4) fill in
  Array.blit a 0 b 0 n;
  b

let new_level s =
  if s.n_levels = Array.length s.trail_lim then
    s.trail_lim <- grow s.trail_lim s.n_levels 0;
  s.trail_lim.(s.n_levels) <- s.trail_len;
  s.n_levels <- s.n_levels + 1

(* --- two-watched-literal propagation ---------------------------------- *)

let watch s l h =
  let n = s.wlen.(l) in
  if n = Array.length s.watches.(l) then
    s.watches.(l) <- grow s.watches.(l) n 0;
  s.watches.(l).(n) <- h;
  s.wlen.(l) <- n + 1

(* Propagate all pending assignments; returns the cid of a conflicting
   clause, or 0.  This is the hot loop: when literal [fl] becomes false we
   visit only the clauses watching [fl], trying to move the watch to a
   non-false literal (MiniSat-style in-place watch repair).  A clause
   that becomes unit is the reason of its slot-0 literal, and that slot
   stays put while the literal is true: see [locked].  Watch lists hold
   no deleted clause here: deletions are purged before search resumes.
   No clause is added while propagating, so the arena stays put.

   The watch loop reads without bounds checks: the first [wlen] entries
   of a watch list are headers of live clauses below [top], and every
   literal in the arena was range-checked when its clause came in
   ([Sat.Cnf], [Incremental.add_clause]), so it indexes [vals].  The
   sanitizer checks the headers. *)
let propagate s =
  let vals = s.vals in
  let arena = s.arena in
  let conflict = ref 0 in
  while !conflict = 0 && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.s_propagations <- s.s_propagations + 1;
    let fl = l lxor 1 in
    let ws = s.watches.(fl) in
    let n = s.wlen.(fl) in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let h = Array.unsafe_get ws !i in
      incr i;
      let c0 = h + 2 in
      (* normalise: watched false literal at slot 1 *)
      let first =
        let a0 = Array.unsafe_get arena c0 in
        if a0 <> fl then a0
        else begin
          let a1 = Array.unsafe_get arena (c0 + 1) in
          Array.unsafe_set arena c0 a1;
          Array.unsafe_set arena (c0 + 1) fl;
          a1
        end
      in
      if Bytes.unsafe_get vals first = v_true then begin
        (* clause satisfied; keep the watch *)
        Array.unsafe_set ws !j h;
        incr j
      end
      else begin
        (* search a replacement watch *)
        let stop = c0 + Array.unsafe_get arena (h + 1) in
        let k = ref (c0 + 2) in
        while
          !k < stop
          && Bytes.unsafe_get vals (Array.unsafe_get arena !k) = v_false
        do
          incr k
        done;
        if !k < stop then begin
          let lk = Array.unsafe_get arena !k in
          Array.unsafe_set arena (c0 + 1) lk;
          Array.unsafe_set arena !k fl;
          watch s lk h
          (* watch moved: do not keep in ws *)
        end
        else begin
          (* unit or conflicting *)
          Array.unsafe_set ws !j h;
          incr j;
          if Bytes.unsafe_get vals first = v_false then begin
            conflict := Array.unsafe_get arena h;
            (* keep the remaining watches intact *)
            while !i < n do
              Array.unsafe_set ws !j (Array.unsafe_get ws !i);
              incr i;
              incr j
            done
          end
          else enqueue s first (Array.unsafe_get arena h)
        end
      end
    done;
    s.wlen.(fl) <- !j
  done;
  if !conflict <> 0 then s.qhead <- s.trail_len;
  !conflict

(* --- backtracking ------------------------------------------------------ *)

let unassign s l =
  let v = l lsr 1 in
  Bytes.set s.phase v (if l land 1 = 0 then '\001' else '\000');
  Bytes.set s.vals l v_unassigned;
  Bytes.set s.vals (l lxor 1) v_unassigned;
  s.reason.(v) <- 0;
  Heap.insert s.order v

(* Undo all assignments above [lvl]; this is the paper's assertion-based
   back_track(blevel). *)
let backtrack s lvl =
  if s.n_levels > lvl then begin
    let keep = s.trail_lim.(lvl) in
    for i = s.trail_len - 1 downto keep do
      unassign s s.trail.(i)
    done;
    s.trail_len <- keep;
    s.n_levels <- lvl;
    s.qhead <- keep
  end

(* --- VSIDS -------------------------------------------------------------- *)

(* The two bump increments live in [s.incs], a float array, which stores
   them unboxed: as mutable float fields of the state record, every decay
   would box a fresh float and store it through the write barrier.  The
   caller re-sifts the bumped variable in the heap, so these four make no
   call at all. *)
let var_inc = 0
let cla_inc = 1

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.incs.(var_inc);
  if s.activity.(v) > 1e100 then begin
    for u = 1 to s.nvars do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.incs.(var_inc) <- s.incs.(var_inc) *. 1e-100
  end

let var_decay s = s.incs.(var_inc) <- s.incs.(var_inc) /. s.cfg.var_decay

let cla_bump s cid =
  let a = s.cact.(cid) +. s.incs.(cla_inc) in
  s.cact.(cid) <- a;
  if a > 1e20 then begin
    for i = 0 to s.n_learnts - 1 do
      let c = s.learnts.(i) in
      s.cact.(c) <- s.cact.(c) *. 1e-20
    done;
    s.incs.(cla_inc) <- s.incs.(cla_inc) *. 1e-20
  end

let cla_decay s = s.incs.(cla_inc) <- s.incs.(cla_inc) /. 0.999

(* --- conflict analysis (paper Figure 2, 1UIP stop criterion) ----------- *)

(* Is learned literal [q] implied by the rest of the clause?  True when
   every other literal of its reason is marked [seen] (in the clause) or
   was assigned at level 0. *)
let removable s q =
  let v = q lsr 1 in
  let r = s.reason.(v) in
  r <> 0
  &&
  let h = s.offs.(r) in
  let stop = h + 2 + s.arena.(h + 1) in
  let ok = ref true and k = ref (h + 2) in
  while !ok && !k < stop do
    let u = s.arena.(!k) lsr 1 in
    if not (u = v || s.level.(u) = 0 || Bytes.get s.seen u = '\001') then
      ok := false;
    incr k
  done;
  !ok

(* Returns (learned clause length, asserting level, resolve sources in
   resolution order); the clause is the first [length] slots of [lbuf],
   the UIP at slot 0.  The source list is what §3.1's first solver
   modification records: the conflicting clause followed by every
   antecedent resolved against.  Distinct variables, so at most [nvars]
   literals. *)
let analyze s confl_cid =
  let arena = s.arena in
  let cur_level = s.n_levels in
  let sources = ref [ confl_cid ] in
  let lbuf = s.lbuf in
  let n = ref 1 in                     (* slot 0 reserved for the UIP *)
  let path_count = ref 0 in
  let p = ref 0 in
  let idx = ref (s.trail_len - 1) in
  let confl = ref confl_cid in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if has s c f_learned then cla_bump s c;
    let h = s.offs.(c) in
    for k = h + 2 to h + 1 + arena.(h + 1) do
      let q = arena.(k) in
      if q <> !p then begin
        let v = q lsr 1 in
        if Bytes.get s.seen v = '\000' && s.level.(v) > 0 then begin
          Bytes.set s.seen v '\001';
          var_bump s v;
          Heap.update s.order v;
          if s.level.(v) >= cur_level then incr path_count
          else begin
            lbuf.(!n) <- q;
            incr n
          end
        end
      end
    done;
    (* next literal to expand: deepest marked trail entry *)
    while Bytes.get s.seen (s.trail.(!idx) lsr 1) = '\000' do
      decr idx
    done;
    p := s.trail.(!idx);
    decr idx;
    Bytes.set s.seen (!p lsr 1) '\000';
    decr path_count;
    if !path_count = 0 then continue := false
    else begin
      let r = s.reason.(!p lsr 1) in
      assert (r <> 0);
      sources := r :: !sources;
      confl := r
    end
  done;
  lbuf.(0) <- !p lxor 1;
  (* Local clause minimization: a literal q is redundant when every other
     literal of reason(var q) is already in the clause or was assigned at
     level 0.  Each removal is one more resolution, so the reason IDs are
     appended to the resolve sources; processing removable literals in
     decreasing trail position guarantees no removed literal is ever
     re-introduced (a reason only mentions earlier assignments), keeping
     the checker's left-to-right chain exact up to level-0 literals.
     Every literal stays marked until all are judged, so a removal does
     not change what later literals see. *)
  if s.cfg.enable_minimization && !n > 1 then begin
    for i = 1 to !n - 1 do
      Bytes.set s.seen (lbuf.(i) lsr 1) '\001'
    done;
    let removed = ref [] in
    let kept = ref 1 in
    for i = 1 to !n - 1 do
      let q = lbuf.(i) in
      if removable s q then removed := q :: !removed
      else begin
        lbuf.(!kept) <- q;
        incr kept
      end
    done;
    n := !kept;
    List.iter (fun q -> Bytes.set s.seen (q lsr 1) '\000') !removed;
    let by_pos_desc =
      List.sort
        (fun a b -> Int.compare s.pos.(b lsr 1) s.pos.(a lsr 1))
        !removed
    in
    List.iter (fun q -> sources := s.reason.(q lsr 1) :: !sources) by_pos_desc
  end;
  (* asserting level: deepest among the non-UIP literals *)
  let blevel = ref 0 in
  let swap_slot = ref 1 in
  for i = 1 to !n - 1 do
    let lv = s.level.(lbuf.(i) lsr 1) in
    if lv > !blevel then begin
      blevel := lv;
      swap_slot := i
    end
  done;
  (* put a deepest literal at slot 1 so the new clause is correctly
     watched after backtracking *)
  if !n > 1 then begin
    let tmp = lbuf.(1) in
    lbuf.(1) <- lbuf.(!swap_slot);
    lbuf.(!swap_slot) <- tmp
  end;
  for i = 0 to !n - 1 do
    Bytes.set s.seen (lbuf.(i) lsr 1) '\000'
  done;
  (!n, !blevel, List.rev !sources)

(* --- learned clause management ----------------------------------------- *)

(* The next cid, with a slot in every per-cid table: no header offset
   and zero activity; the caller sets its flags *)
let next_cid s =
  let cid = s.n_clauses + 1 in
  if cid = Array.length s.offs then begin
    s.offs <- grow s.offs cid (-1);
    s.cact <- grow s.cact cid 0.0;
    s.flags <- Bytes.extend s.flags 0 (cid + 4)
  end;
  s.n_clauses <- cid;
  cid

(* Append the first [n] literals of [src] as the next clause; returns its
   cid.  The arena doubles only when the clause does not fit: [purge]
   compacts it whenever deleted clauses hold a fifth of the words in
   use. *)
let new_clause s src n learned attached =
  let cid = next_cid s in
  let h = s.top in
  if h + 2 + n > Array.length s.arena then begin
    let a = Array.make (max (2 * Array.length s.arena) (h + 2 + n)) 0 in
    Array.blit s.arena 0 a 0 h;
    s.arena <- a
  end;
  s.arena.(h) <- cid;
  s.arena.(h + 1) <- n;
  Array.blit src 0 s.arena (h + 2) n;
  s.top <- h + 2 + n;
  s.offs.(cid) <- h;
  Bytes.set s.flags cid
    (Char.chr
       ((if learned then f_learned else 0)
       lor if attached then f_attached else 0));
  if learned then begin
    if s.n_learnts = Array.length s.learnts then
      s.learnts <- grow s.learnts s.n_learnts 0;
    s.learnts.(s.n_learnts) <- cid;
    s.n_learnts <- s.n_learnts + 1
  end;
  if attached && n >= 2 then begin
    watch s src.(0) h;
    watch s src.(1) h
  end;
  cid

let mark_dirty s l =
  if Bytes.get s.dirty_mark l = '\000' then begin
    Bytes.set s.dirty_mark l '\001';
    s.dirty.(s.n_dirty) <- l;
    s.n_dirty <- s.n_dirty + 1
  end

(* Deleting only marks the clause; [purge] drops it from its two watch
   lists and from [learnts] once the batch is done, and its words stay in
   the arena until a compaction. *)
let delete_clause s cid =
  if not (has s cid f_deleted) then begin
    Bytes.set s.flags cid
      (Char.chr (Char.code (Bytes.get s.flags cid) lor f_deleted));
    s.s_deleted <- s.s_deleted + 1;
    let h = s.offs.(cid) in
    let n = s.arena.(h + 1) in
    s.wasted <- s.wasted + 2 + n;
    if has s cid f_attached && n >= 2 then begin
      mark_dirty s s.arena.(h + 2);
      mark_dirty s s.arena.(h + 3)
    end
  end

(* Drop the deleted clauses from the first [n] slots of [a] (header
   offsets if [headers], else cids), keeping the live ones in order;
   returns how many are live. *)
let drop_deleted s a n ~headers =
  let j = ref 0 in
  for i = 0 to n - 1 do
    let x = a.(i) in
    if not (has s (if headers then s.arena.(x) else x) f_deleted) then begin
      a.(!j) <- x;
      incr j
    end
  done;
  !j

(* Slide the live clauses down over the deleted ones, in place.  Arena
   order is cid order, so every clause moves to a lower offset and never
   over a header not yet read.  Each watch entry is first remapped
   through the cid in its old header, so [purge] must have dropped every
   deleted clause from the watch lists. *)
let compact_arena s =
  let a = s.arena in
  let h = ref 0 and dst = ref 0 in
  while !h < s.top do
    let cid = a.(!h) in
    if has s cid f_deleted then s.offs.(cid) <- -1
    else begin
      s.offs.(cid) <- !dst;
      dst := !dst + 2 + a.(!h + 1)
    end;
    h := !h + 2 + a.(!h + 1)
  done;
  Array.iteri
    (fun l ws ->
      for i = 0 to s.wlen.(l) - 1 do
        ws.(i) <- s.offs.(a.(ws.(i)))
      done)
    s.watches;
  h := 0;
  while !h < s.top do
    let len = 2 + a.(!h + 1) in
    let target = s.offs.(a.(!h)) in
    if target >= 0 then Array.blit a !h a target len;
    h := !h + len
  done;
  s.top <- !dst;
  s.wasted <- 0

(* Filter every watch list a deletion touched, once, and the learned
   vector.  Live entries keep their relative order, so propagation visits
   clauses exactly as if each deleted clause had been unwatched on its
   own.  Once the deleted clauses hold more than a fifth of the words in
   use, those words are reclaimed. *)
let purge s =
  for t = 0 to s.n_dirty - 1 do
    let l = s.dirty.(t) in
    Bytes.set s.dirty_mark l '\000';
    s.wlen.(l) <- drop_deleted s s.watches.(l) s.wlen.(l) ~headers:true
  done;
  s.n_dirty <- 0;
  s.n_learnts <- drop_deleted s s.learnts s.n_learnts ~headers:false;
  if 5 * s.wasted > s.top then compact_arena s

(* Is clause [cid] the antecedent of an assigned variable?  Every reason
   clause holds its implied literal in slot 0 — propagation, learning and
   the unit loaders all enqueue slot 0, and propagation never moves a
   true slot-0 literal — so slot 0 is the only place to look.  The clause
   has at least one literal. *)
let locked s cid =
  let v = s.arena.(s.offs.(cid) + 2) lsr 1 in
  var_value s v <> v_unassigned && s.reason.(v) = cid

(* Remove low-activity learned clauses.  Clauses that are the antecedent of
   a currently assigned variable are kept — the paper's §2.1 requirement —
   as are binary clauses.  The candidates are gathered in descending id
   order: [Array.sort] is not stable, so ties in activity fall out by
   that order. *)
let reduce_db s =
  let candidates = ref [] in
  for i = 0 to s.n_learnts - 1 do
    let c = s.learnts.(i) in
    if s.arena.(s.offs.(c) + 1) > 2 && not (locked s c) then
      candidates := c :: !candidates
  done;
  let arr = Array.of_list !candidates in
  Array.sort (fun a b -> Float.compare s.cact.(a) s.cact.(b)) arr;
  let to_delete = Array.length arr / 2 in
  for i = 0 to to_delete - 1 do
    delete_clause s arr.(i)
  done;
  purge s;
  (* native deletion hints (trace format version 2): one batched delete
     per reduction, covering exactly the clauses removed above.  Sound
     because deleted clauses are invisible to BCP from here on — they
     can never become an antecedent, a learned source, or the final
     conflict — and locked clauses (reasons on the trail, level 0
     included) are never candidates. *)
  if s.cfg.emit_deletes && to_delete > 0 && s.tracer <> None then begin
    let ids = Array.sub arr 0 to_delete in
    Array.sort compare ids;
    emit s (Trace.Event.Delete ids)
  end;
  if Obs.Journal.on () then
    Obs.Journal.record ~sub:"solver" "db_reduce"
      [
        ("candidates", Array.length arr);
        ("deleted", to_delete);
        ("learned_alive", s.n_learnts);
        ("conflicts", s.s_conflicts);
      ]

(* --- trace for the final level-0 conflict (§3.1 modifications 2 and 3) - *)

let emit_final_conflict s confl_cid =
  (match s.tracer with
   | None -> ()
   | Some _ ->
     for i = 0 to s.trail_len - 1 do
       let v = s.trail.(i) lsr 1 in
       emit s
         (Trace.Event.Level0
            { var = v; value = var_value s v = v_true; ante = s.reason.(v) })
     done);
  emit s (Trace.Event.Final_conflict confl_cid)

(* --- inprocessing (level-0 clause simplification during search) --------- *)

(* Simplify the attached clause set against the level-0 assignment.  Runs
   at decision level 0 on a BCP fixpoint, so an unsatisfied clause's
   literals are level-0-false or unassigned:
   - a clause with a true literal at level 0 is deleted (no proof needed,
     removal only weakens the formula);
   - a clause with false literals at level 0 is replaced by its
     shortening, emitted as a [Learned] record whose chain resolves the
     old clause against the reasons of the removed variables in
     decreasing trail position — the exact shape conflict-clause
     minimization already emits, so the checker carries the extra
     level-0 literals of the reasons and the final conflict chain
     resolves them away.
   Locked clauses (reasons of level-0 assignments) are skipped, which
   also keeps every level-0 antecedent alive for the final conflict.
   Replacements inherit the learned flag: a strengthened original must
   never become eligible for clause-database reduction. *)
let inprocess s =
  assert (decision_level s = 0);
  let hints = ref [] in
  let hint c =
    (* originals are only safe to hint once a chain has referenced them:
       a satisfied original was possibly never materialised by the
       checker, so only learned clauses are hinted on deletion *)
    if s.cfg.emit_deletes && s.tracer <> None then hints := c :: !hints
  in
  for c = 1 to s.n_clauses do
    if has s c f_attached && (not (has s c f_deleted)) && not (locked s c)
    then begin
      let h = s.offs.(c) in
      let lits = Array.sub s.arena (h + 2) s.arena.(h + 1) in
      let learned = has s c f_learned in
      let n_true = ref 0 and false_lits = ref [] in
      Array.iter
        (fun l ->
          match lit_value s l with
          | v when v = v_true -> incr n_true
          | v when v = v_false -> false_lits := l :: !false_lits
          | _ -> ())
        lits;
      if !n_true > 0 then begin
        delete_clause s c;
        if learned then hint c
      end
      else if !false_lits <> [] then begin
        let keep =
          Array.of_list
            (List.filter (fun l -> lit_value s l <> v_false)
               (Array.to_list lits))
        in
        (* [keep] has >= 2 literals on a conflict-free BCP fixpoint: an
           empty or unit remainder would have conflicted or propagated *)
        if Array.length keep >= 2
           && Array.for_all
                (fun l -> s.reason.(Sat.Lit.var l) <> 0)
                (Array.of_list !false_lits)
        then begin
          let by_pos_desc =
            List.sort
              (fun a b ->
                Int.compare s.pos.(Sat.Lit.var b) s.pos.(Sat.Lit.var a))
              !false_lits
          in
          let sources =
            c :: List.map (fun l -> s.reason.(Sat.Lit.var l)) by_pos_desc
          in
          let cr = new_clause s keep (Array.length keep) learned true in
          emit s
            (Trace.Event.Learned { id = cr; sources = Array.of_list sources });
          delete_clause s c;
          (* the old clause was just referenced, so the checker has it
             materialised whether learned or original: safe to hint *)
          if s.cfg.emit_deletes && s.tracer <> None then hints := c :: !hints
        end
      end
    end
  done;
  purge s;
  if !hints <> [] then begin
    let ids = Array.of_list !hints in
    Array.sort compare ids;
    emit s (Trace.Event.Delete ids)
  end

(* --- runtime sanitizer (ASan-style invariant checks) -------------------- *)

exception Sanitizer_violation of string

let violation fmt =
  Printf.ksprintf (fun m -> raise (Sanitizer_violation m)) fmt

(* Verify the solver's internal invariants wholesale.  Enabled by
   [config.sanitize] and run at decision boundaries (BCP fixpoints), where
   every invariant below is supposed to hold; each check is O(state size),
   so the sanitizer multiplies runtime but changes no behaviour.  The
   checks, in order:
     1. trail / decision-level consistency (trail_lim monotone, every
        trail literal true with matching [pos] and [level], the literal
        truth table set for both polarities of exactly the trail's
        variables, queue drained);
     2. the arena: every live clause's header names its cid, the headers
        tile [0, top) in cid order, and [wasted] is exactly the words of
        the deleted clauses not yet compacted away;
     3. implication-graph sanity and acyclicity: each assigned variable's
        reason clause is alive, holds the variable's true literal in slot
        0 (what [locked] reads), and has every other literal false and
        assigned strictly earlier on the trail — edges only point
        backwards, so no cycle can exist;
     4. BCP-fixpoint semantics for attached clauses: none falsified, no
        unpropagated unit;
     5. the watched-literal invariant propagation relies on: a false
        watched literal has a true partner, assigned at a level no deeper
        than the false literal's;
     6. two-watched integrity: every watch entry is the header of a live,
        attached clause holding the watched literal in slot 0 or 1, and
        every watchable clause is watched exactly twice;
     7. the learned vector is exactly the live learned clauses, in
        ascending id order. *)
let sanitize_state s =
  let n = s.trail_len in
  let nlevels = s.n_levels in
  if s.qhead <> n then
    violation "propagation queue not drained: qhead %d, trail %d" s.qhead n;
  for d = 1 to nlevels - 1 do
    if s.trail_lim.(d - 1) > s.trail_lim.(d) then
      violation "trail_lim not monotone at level %d" d
  done;
  if nlevels > 0 && s.trail_lim.(nlevels - 1) > n then
    violation "trail_lim exceeds trail length";
  let d = ref 0 in
  for i = 0 to n - 1 do
    while !d < nlevels && s.trail_lim.(!d) <= i do incr d done;
    let l = s.trail.(i) in
    let v = Sat.Lit.var l in
    if v < 1 || v > s.nvars then violation "trail var %d out of range" v;
    if lit_value s l <> v_true then
      violation "trail literal %s not true" (Sat.Lit.to_string l);
    if s.pos.(v) <> i then
      violation "var %d: pos %d but trail index %d" v s.pos.(v) i;
    if s.level.(v) <> !d then
      violation "var %d: level %d but trail says %d" v s.level.(v) !d
  done;
  let assigned = ref 0 in
  for v = 1 to s.nvars do
    let p = lit_value s (Sat.Lit.pos v) and q = lit_value s (Sat.Lit.neg v) in
    if p <> v_unassigned then incr assigned;
    let agree =
      if p = v_unassigned then q = v_unassigned
      else q <> p && q <> v_unassigned
    in
    if not agree then
      violation "var %d: literal values %d and %d disagree" v (Char.code p)
        (Char.code q)
  done;
  if !assigned <> n then
    violation "%d variables assigned but trail holds %d" !assigned n;
  let a = s.arena in
  let live c = not (has s c f_deleted) in
  for c = 1 to s.n_clauses do
    if live c then begin
      let h = s.offs.(c) in
      if h < 0 || h + 1 >= s.top || a.(h) <> c then
        violation "clause %d: the header at offset %d does not name it" c h
    end
  done;
  let h = ref 0 and last = ref 0 and dead_words = ref 0 in
  while !h < s.top do
    let c = a.(!h) in
    if c <= !last || c > s.n_clauses || s.offs.(c) <> !h then
      violation "arena offset %d: header of clause %d, out of cid order \
                 after clause %d" !h c !last;
    let len = if !h + 1 < s.top then 2 + a.(!h + 1) else 0 in
    if len < 2 || !h + len > s.top then
      violation "clause %d runs past the arena's %d words" c s.top;
    if not (live c) then dead_words := !dead_words + len;
    last := c;
    h := !h + len
  done;
  if !dead_words <> s.wasted then
    violation "arena counts %d wasted words, deleted clauses hold %d" s.wasted
      !dead_words;
  for v = 1 to s.nvars do
    if var_value s v <> v_unassigned && s.reason.(v) <> 0 then begin
      let r = s.reason.(v) in
      if r < 1 || r > s.n_clauses then
        violation "var %d: reason %d is not a clause id" v r;
      if not (live r) then violation "var %d: reason clause %d deleted" v r;
      let h = s.offs.(r) in
      let len = a.(h + 1) in
      if len = 0 || Sat.Lit.var a.(h + 2) <> v then
        violation "reason %d does not hold var %d in slot 0" r v;
      if lit_value s a.(h + 2) <> v_true then
        violation "reason %d holds var %d in the false phase" r v;
      for k = h + 3 to h + 1 + len do
        let q = a.(k) in
        if lit_value s q <> v_false then
          violation "reason %d of var %d: literal %s not false" r v
            (Sat.Lit.to_string q);
        if s.pos.(Sat.Lit.var q) >= s.pos.(v) then
          violation
            "implication edge not chronological: var %d implied at trail %d \
             by var %d at trail %d"
            v s.pos.(v) (Sat.Lit.var q)
            s.pos.(Sat.Lit.var q)
      done
    end
  done;
  for c = 1 to s.n_clauses do
    if has s c f_attached && live c then begin
      let h = s.offs.(c) in
      let len = a.(h + 1) in
      let nf = ref 0 and nt = ref 0 in
      for k = h + 2 to h + 1 + len do
        match lit_value s a.(k) with
        | v when v = v_false -> incr nf
        | v when v = v_true -> incr nt
        | _ -> ()
      done;
      if !nt = 0 then begin
        if !nf = len then
          violation "clause %d falsified at a decision boundary" c;
        if !nf = len - 1 then
          violation "clause %d unit but not propagated" c
      end;
      if len >= 2 then
        for w = 0 to 1 do
          let fl = a.(h + 2 + w) and partner = a.(h + 3 - w) in
          if lit_value s fl = v_false then begin
            if lit_value s partner <> v_true then
              violation "clause %d: watched literal %s false, partner %s \
                         not true"
                c (Sat.Lit.to_string fl) (Sat.Lit.to_string partner);
            if s.level.(Sat.Lit.var partner) > s.level.(Sat.Lit.var fl) then
              violation "clause %d: true watch %s is deeper than false \
                         watch %s"
                c (Sat.Lit.to_string partner) (Sat.Lit.to_string fl)
          end
        done
    end
  done;
  let watched = Array.make (s.n_clauses + 1) 0 in
  Array.iteri
    (fun l ws ->
      for i = 0 to s.wlen.(l) - 1 do
        let h = ws.(i) in
        let c = if h >= 0 && h + 1 < s.top then a.(h) else 0 in
        if c < 1 || c > s.n_clauses || s.offs.(c) <> h then
          violation "watch list of %d holds offset %d, not a clause header" l h;
        if not (live c) then
          violation "watch list of %d holds deleted clause %d" l c;
        if (not (has s c f_attached)) || a.(h + 1) < 2
           || (a.(h + 2) <> l && a.(h + 3) <> l)
        then
          violation "clause %d watched on literal %d, not in its slots" c l;
        watched.(c) <- watched.(c) + 1
      done)
    s.watches;
  for c = 1 to s.n_clauses do
    if has s c f_attached && live c && a.(s.offs.(c) + 1) >= 2
       && watched.(c) <> 2
    then violation "clause %d carried by %d watch lists, expected 2" c watched.(c)
  done;
  let k = ref 0 in
  for c = 1 to s.n_clauses do
    if has s c f_learned && live c then begin
      if !k >= s.n_learnts || s.learnts.(!k) <> c then
        violation "learned clause %d not at slot %d of the learned vector" c !k;
      incr k
    end
  done;
  if !k <> s.n_learnts then
    violation "learned vector holds %d clauses, %d are live" s.n_learnts !k

(* --- decisions ---------------------------------------------------------- *)

let pick_branch_var s =
  let v = ref 0 in
  (* a formula without variables has nothing to draw from *)
  if
    s.nvars > 0
    && s.cfg.random_decision_freq > 0.0
    && Sat.Rng.float s.rng < s.cfg.random_decision_freq
  then begin
    let u = 1 + Sat.Rng.int s.rng s.nvars in
    if var_value s u = v_unassigned then v := u
  end;
  (try
     while !v = 0 do
       let u = Heap.pop_max s.order in
       if var_value s u = v_unassigned then v := u
     done
   with Not_found -> ());
  !v

let decide s =
  let v = pick_branch_var s in
  if v = 0 then false
  else begin
    s.s_decisions <- s.s_decisions + 1;
    new_level s;
    if decision_level s > s.s_max_level then s.s_max_level <- decision_level s;
    let sign = Bytes.get s.phase v = '\001' in
    enqueue s (Sat.Lit.make v (not sign)) 0;
    true
  end

(* --- initial clause loading -------------------------------------------- *)

(* Load the original clauses, preserving the paper's ID convention:
   clause i of the file owns ID i+1 whether or not it is degenerate.
   Returns the cid of an immediately conflicting clause, or 0. *)
let load_original s f =
  let conflict = ref 0 in
  Sat.Cnf.iter_clauses
    (fun _ c ->
      let dedup =
        match Sat.Clause.normalize c with
        | Some d -> d
        | None -> [||]   (* tautology: keep the record, never attach *)
      in
      let taut = Sat.Clause.is_tautology c in
      if !conflict <> 0 || taut then
        ignore (new_clause s c (Array.length c) false false)
      else
        match Array.length dedup with
        | 0 -> conflict := new_clause s dedup 0 false false
        | 1 ->
          let cr = new_clause s dedup 1 false false in
          let l = dedup.(0) in
          (match lit_value s l with
           | v when v = v_false -> conflict := cr
           | v when v = v_true -> ()
           | _ -> enqueue s l cr)
        | n -> ignore (new_clause s dedup n false true))
    f;
  !conflict

(* --- top level (paper Figure 1) ---------------------------------------- *)

let make_state cfg tracer nvars =
  let activity = Array.make (nvars + 1) 0.0 in
  let order = Heap.create nvars ~score:activity in
  let s = {
    cfg;
    tracer;
    nvars;
    arena = Array.make 1024 0;
    top = 0;
    wasted = 0;
    n_clauses = 0;
    offs = Array.make 64 (-1);
    flags = Bytes.make 64 '\000';
    cact = Array.make 64 0.0;
    watches = Array.make ((2 * nvars) + 2) [||];
    wlen = Array.make ((2 * nvars) + 2) 0;
    vals = Bytes.make ((2 * nvars) + 2) v_unassigned;
    level = Array.make (nvars + 1) 0;
    reason = Array.make (nvars + 1) 0;
    pos = Array.make (nvars + 1) 0;
    trail = Array.make (max nvars 1) 0;
    trail_len = 0;
    trail_lim = [||];
    n_levels = 0;
    qhead = 0;
    activity;
    incs = [| 1.0; 1.0 |];
    order;
    phase = Bytes.make (nvars + 1) '\000';
    seen = Bytes.make (nvars + 1) '\000';
    lbuf = Array.make (nvars + 1) 0;
    learnts = [||];
    n_learnts = 0;
    dirty = Array.make ((2 * nvars) + 2) 0;
    n_dirty = 0;
    dirty_mark = Bytes.make ((2 * nvars) + 2) '\000';
    rng = Sat.Rng.create cfg.seed;
    max_learned = 0.0;
    last_inprocess = 0;
    s_decisions = 0;
    s_propagations = 0;
    s_conflicts = 0;
    s_learned = 0;
    s_learned_lits = 0;
    s_deleted = 0;
    s_restarts = 0;
    s_max_level = 0;
  } in
  for v = 1 to nvars do
    Heap.insert s.order v
  done;
  s

let stats_of s = {
  decisions = s.s_decisions;
  propagations = s.s_propagations;
  conflicts = s.s_conflicts;
  learned_clauses = s.s_learned;
  learned_literals = s.s_learned_lits;
  deleted_clauses = s.s_deleted;
  restarts = s.s_restarts;
  max_decision_level = s.s_max_level;
}

let extract_model s =
  let a = Sat.Assignment.create s.nvars in
  for v = 1 to s.nvars do
    (* variables untouched by any clause stay unassigned in the model and
       are defaulted to false so the model is total *)
    Sat.Assignment.set a v (var_value s v = v_true)
  done;
  a

(* Collect the subset of assumptions a falsified assumption literal [p]
   depends on: walk the implication graph from [p] back to assumption
   decisions (MiniSat's analyzeFinal). *)
let analyze_final s p =
  if decision_level s = 0 then [ p ]
  else begin
    let failed = ref [ p ] in
    Bytes.set s.seen (Sat.Lit.var p) '\001';
    let bottom = s.trail_lim.(0) in
    for i = s.trail_len - 1 downto bottom do
      let l = s.trail.(i) in
      let v = Sat.Lit.var l in
      if Bytes.get s.seen v = '\001' then begin
        (if s.reason.(v) = 0 then
           (* a decision inside the assumption prefix: an assumption
              (possibly the complement of [p] itself, when contradictory
              literals were both assumed) *)
           failed := l :: !failed
         else begin
           let h = s.offs.(s.reason.(v)) in
           for k = h + 2 to h + 1 + s.arena.(h + 1) do
             let u = Sat.Lit.var s.arena.(k) in
             if s.level.(u) > 0 then Bytes.set s.seen u '\001'
           done
         end);
        Bytes.set s.seen v '\000'
      end
    done;
    Bytes.set s.seen (Sat.Lit.var p) '\000';
    !failed
  end

type search_outcome =
  | O_sat of Sat.Assignment.t
  | O_unsat_formula
  | O_unsat_assumptions of int list

(* The main CDCL loop (paper Figure 1), with an assumption prefix: the
   first [n] decision levels are reserved for the assumption literals; a
   falsified assumption ends the search with the failed subset. *)
(* the Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (0-based index),
   ported from MiniSat's luby() *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let search s assumptions =
  let config = s.cfg in
  let assumptions = Array.of_list assumptions in
  let n_assumptions = Array.length assumptions in
  let restart_index = ref 0 in
  let restart_budget = ref config.restart_first in
  let conflicts_since_restart = ref 0 in
  let answer = ref None in
  while !answer = None do
    let confl = propagate s in
    if confl <> 0 then begin
      s.s_conflicts <- s.s_conflicts + 1;
      incr conflicts_since_restart;
      if Obs.Ctl.on () then begin
        Obs.Metrics.Counter.incr m_conflicts 1;
        Obs.Metrics.Gauge.set m_decisions (float_of_int s.s_decisions);
        Obs.Metrics.Gauge.set m_propagations (float_of_int s.s_propagations);
        Obs.Metrics.Gauge.set m_learned_alive (float_of_int s.n_learnts);
        Obs.Metrics.Gauge.set m_arena_words
          (float_of_int (Array.length s.arena));
        Obs.Sampler.tick ()
      end;
      if decision_level s = 0 then begin
        emit_final_conflict s confl;
        answer := Some O_unsat_formula
      end
      else begin
        let len, blevel, sources = analyze s confl in
        let cr = new_clause s s.lbuf len true true in
        s.s_learned <- s.s_learned + 1;
        s.s_learned_lits <- s.s_learned_lits + len;
        if Obs.Ctl.on () then Obs.Metrics.Histogram.observe m_learned_lits len;
        emit s
          (Trace.Event.Learned { id = cr; sources = Array.of_list sources });
        backtrack s blevel;
        enqueue s s.lbuf.(0) cr;
        var_decay s;
        cla_decay s
      end
    end
    else begin
      (* no conflict: a BCP fixpoint, i.e. a decision boundary — the spot
         where every sanitizer invariant must hold *)
      if config.sanitize then sanitize_state s;
      (* maybe restart, maybe reduce, then branch *)
      if
        config.enable_restarts
        && !conflicts_since_restart >= !restart_budget
        && decision_level s > 0
      then begin
        s.s_restarts <- s.s_restarts + 1;
        conflicts_since_restart := 0;
        incr restart_index;
        (match config.restart_sequence with
         | Geometric ->
           (* growing interval: the termination caveat of §2.2 *)
           restart_budget :=
             int_of_float
               (float_of_int !restart_budget *. config.restart_inc)
         | Luby ->
           restart_budget := config.restart_first * luby !restart_index);
        if Obs.Journal.on () then
          Obs.Journal.record ~sub:"solver" "restart"
            [
              ("restarts", s.s_restarts);
              ("conflicts", s.s_conflicts);
              ("next_budget", !restart_budget);
              ("learned_alive", s.n_learnts);
            ];
        backtrack s 0
      end;
      if
        config.enable_deletion
        && float_of_int s.n_learnts > s.max_learned
      then begin
        reduce_db s;
        s.max_learned <- s.max_learned *. config.max_learned_inc
      end;
      if
        config.inprocess_interval > 0
        && s.s_conflicts - s.last_inprocess >= config.inprocess_interval
      then begin
        s.last_inprocess <- s.s_conflicts;
        backtrack s 0;
        inprocess s
      end;
      (* place pending assumptions as decisions, then branch freely *)
      let rec branch () =
        let dl = decision_level s in
        if dl < n_assumptions then begin
          let p = assumptions.(dl) in
          let v = lit_value s p in
          if v = v_true then begin
            (* already holds: open an empty decision level for it *)
            new_level s;
            branch ()
          end
          else if v = v_false then
            answer := Some (O_unsat_assumptions (analyze_final s p))
          else begin
            s.s_decisions <- s.s_decisions + 1;
            new_level s;
            enqueue s p 0
          end
        end
        else if not (decide s) then answer := Some (O_sat (extract_model s))
      in
      branch ()
    end
  done;
  match !answer with
  | Some o -> o
  | None -> assert false

(* The start every solve shares: build the state, fill it with [load] —
   which returns the cid of an immediately conflicting clause, or 0 — and
   run the level-0 BCP.  A conflict there is final: its level-0 records
   are emitted and the state comes back dead. *)
let start config trace ~nvars ~nclauses load =
  let s = make_state config trace nvars in
  s.max_learned <- config.max_learned_factor *. float_of_int nclauses;
  let conflict =
    match load s with
    | 0 ->
      let c = propagate s in
      if c <> 0 then begin
        s.s_conflicts <- s.s_conflicts + 1;
        if Obs.Ctl.on () then Obs.Metrics.Counter.incr m_conflicts 1
      end;
      c
    | c -> c
  in
  if conflict <> 0 then emit_final_conflict s conflict
  else if config.sanitize then sanitize_state s;
  (s, conflict = 0)

let finish (s, alive) =
  if not alive then (Unsat, stats_of s)
  else
    match search s [] with
    | O_sat a -> (Sat a, stats_of s)
    | O_unsat_formula -> (Unsat, stats_of s)
    | O_unsat_assumptions _ -> assert false

let setup config trace f =
  let nclauses = Sat.Cnf.nclauses f in
  start config trace ~nvars:(Sat.Cnf.nvars f) ~nclauses (fun s ->
      emit s
        (Trace.Event.Header { nvars = s.nvars; num_original = nclauses });
      load_original s f)

let solve ?(config = default_config) ?trace f =
  Obs.Span.scope ~cat:"solver" "solve" @@ fun () ->
  finish (setup config trace f)

(* --- solving a pre-seeded id space (checked preprocessing) -------------- *)

type seed = {
  seed_nvars : int;
  seed_clauses : (int * Sat.Clause.t) list;
  seed_first_learned : int;
}

(* Ids the simplifier used for clauses it has since removed are parked as
   deleted placeholders with no words in the arena, so cids stay the
   trace's ids. *)
let pad_to s id =
  while s.n_clauses + 1 < id do
    Bytes.set s.flags (next_cid s) (Char.chr f_deleted)
  done

(* Load the surviving clause set under the simplifier's ids, in id order.
   The clauses arrive normalized (no tautologies, no duplicate literals)
   and at a propagation fixpoint, so an immediate conflict cannot arise —
   but the degenerate paths are kept for robustness.  Returns the cid of
   an immediately conflicting clause, or 0. *)
let load_seeded s seed =
  let conflict = ref 0 in
  List.iter
    (fun (id, c) ->
      pad_to s id;
      if s.n_clauses + 1 <> id then
        invalid_arg "Cdcl.solve_seeded: seed clause ids not increasing";
      match Array.length c with
      | 0 ->
        let cr = new_clause s c 0 false false in
        if !conflict = 0 then conflict := cr
      | 1 ->
        let cr = new_clause s c 1 false false in
        let l = c.(0) in
        if !conflict = 0 then (
          match lit_value s l with
          | v when v = v_false -> conflict := cr
          | v when v = v_true -> ()
          | _ -> enqueue s l cr)
      | n -> ignore (new_clause s c n false true))
    (List.sort (fun (a, _) (b, _) -> compare a b) seed.seed_clauses);
  pad_to s seed.seed_first_learned;
  !conflict

(* [solve_seeded] continues a trace the simplifier opened: no header is
   emitted (the simplifier owns it), learned ids start at
   [seed_first_learned], and level-0 records cite the seeded unit
   clauses, so the combined trace checks against the original formula. *)
let solve_seeded ?(config = default_config) ?trace seed =
  Obs.Span.scope ~cat:"solver" "solve_seeded" @@ fun () ->
  finish
    (start config trace ~nvars:seed.seed_nvars
       ~nclauses:(List.length seed.seed_clauses)
       (fun s -> load_seeded s seed))

type assumed_result =
  | A_sat of Sat.Assignment.t
  | A_unsat_assumptions of Sat.Lit.t list
  | A_unsat

module Incremental = struct
  type session = {
    state : t;
    mutable alive : bool;
  }

  type nonrec t = session

  let create ?(config = default_config) f =
    let state, alive = setup config None f in
    { state; alive }

  let stats i = stats_of i.state

  let add_clause i c =
    let s = i.state in
    Array.iter
      (fun l ->
        let v = Sat.Lit.var l in
        if v < 1 || v > s.nvars then
          invalid_arg "Incremental.add_clause: variable out of range")
      c;
    if i.alive then begin
      backtrack s 0;
      match Sat.Clause.normalize c with
      | None -> ignore (new_clause s c (Array.length c) false false)
      | Some d -> (
        match Array.length d with
        | 0 -> i.alive <- false
        | 1 -> (
          let cr = new_clause s d 1 false false in
          match lit_value s d.(0) with
          | v when v = v_true -> ()
          | v when v = v_false -> i.alive <- false
          | _ ->
            enqueue s d.(0) cr;
            if propagate s <> 0 then i.alive <- false)
        | _ -> (
          (* attach, watching non-false slots when possible so level-0
             units propagate immediately *)
          let d = Array.copy d in
          let len = Array.length d in
          let place slot from =
            let k = ref from in
            while !k < len && lit_value s d.(!k) = v_false do incr k done;
            if !k < len then begin
              let tmp = d.(slot) in
              d.(slot) <- d.(!k);
              d.(!k) <- tmp;
              true
            end
            else false
          in
          let have0 = place 0 0 in
          let have1 = have0 && place 1 1 in
          if not have0 then i.alive <- false
          else if not have1 then begin
            let cr = new_clause s d len false false in
            if lit_value s d.(0) = v_unassigned then begin
              enqueue s d.(0) cr;
              if propagate s <> 0 then i.alive <- false
            end
          end
          else ignore (new_clause s d len false true)))
    end

  let solve ?(assumptions = []) i =
    let s = i.state in
    List.iter
      (fun l ->
        let v = Sat.Lit.var l in
        if v < 1 || v > s.nvars then
          invalid_arg "Incremental.solve: assumption variable out of range")
      assumptions;
    if not i.alive then A_unsat
    else begin
      backtrack s 0;
      if propagate s <> 0 then begin
        i.alive <- false;
        A_unsat
      end
      else
        match search s assumptions with
        | O_sat a ->
          let a' = Sat.Assignment.copy a in
          backtrack s 0;
          A_sat a'
        | O_unsat_formula ->
          i.alive <- false;
          A_unsat
        | O_unsat_assumptions failed ->
          backtrack s 0;
          A_unsat_assumptions failed
    end
end
