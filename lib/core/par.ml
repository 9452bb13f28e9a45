(* Parallel breadth-first checking: the §3.3 two-pass discipline with
   pass two executed as topological wavefronts across OCaml domains.

   Pass one is the sequential BF counting pass, extended to label every
   learned clause with its level — [1 + max (level of sources)], originals
   at level 0 — so clauses in the same wavefront cannot depend on each
   other.  Pass two replays one wavefront at a time: a fixed pool of
   worker domains pulls chunks of the wavefront's resolution chains off a
   shared queue and replays each in its own {!Proof.Resolvent}
   accumulator, reading store operands in place from a
   {!Proof.Clause_db.ro} view frozen at dispatch, while the shared
   {!Proof.Clause_db} stays read-only.  At the wavefront barrier
   the main thread — alone — commits every result in stream order:
   allocates the resolvents, folds the counter deltas in, defines or
   drops each clause by its use count, and releases drained sources.
   All mutation being single-threaded and in stream order makes verdicts,
   cores and diagnostics bit-identical to sequential BF at any job count.

   Global wavefronts would wreck BF's memory guarantee: level-1 clauses
   from the very start and the very end of the trace would all be built
   (and stay live) before any level-2 clause releases its sources,
   inflating the live window several-fold.  Wavefronts are therefore
   scheduled {e within stream windows} of [window] learned clauses:
   inside a window the level rule applies with sources from earlier
   windows (already committed) counting as level 0.  At every window
   boundary the live set is exactly sequential BF's at the same stream
   point, so peak live clauses exceed BF's by at most one window's delayed
   releases, while each window still exposes its internal width to the
   worker pool.

   Failures keep BF's first-failure semantics without giving up
   parallelism: workers skip any task at or past the earliest failing
   stream index seen so far, later wavefronts run restricted to earlier
   stream indices, and the reported failure is the minimum-stream-index
   one — exactly the failure sequential BF stops at. *)

type task = {
  id : int;
  sources : int array;
  seq : int;  (* index among learned records, stream order *)
}

type outcome =
  | Single  (* one-source chain: the learned clause aliases its source *)
  | Clause of { lits : int array; steps : int; merges : int }
  | Fail of Proof.Diagnostics.failure
  | Skipped

(* BF uses this context string for every chain failure; reusing it verbatim
   keeps parallel diagnostics bit-identical to sequential ones. *)
let context = "breadth-first reconstruction"

(* Main-thread telemetry handles.  Worker domains never touch these: they
   record into a private {!Obs.Metrics.shard} that the main thread folds
   into the global registry at each wavefront barrier. *)
let m_width = Obs.Metrics.histogram Obs.Metrics.global "par.wavefront_width"
let m_fronts = Obs.Metrics.counter Obs.Metrics.global "par.fronts_replayed"

let peek_handle k id =
  match Proof.Kernel.peek k id with
  | Some h -> h
  | None ->
    (* unreachable for sources.(0): pass one enforced stream order and
       originals are materialised before their wavefront is dispatched *)
    Proof.Diagnostics.fail (Proof.Diagnostics.Unknown_clause { context; id })

(* Replay one learned clause's chain in the domain's accumulator — the
   worker-side mirror of {!Proof.Kernel.chain}, including its [c1_id]
   convention: intermediate resolvents belong to the learned id.  Every
   operand is read in place from the frozen view. *)
let run_task k acc view t =
  let n = Array.length t.sources in
  if n = 1 then Single
  else
    try
      let arena = Proof.Clause_db.ro_arena view in
      let h0 = peek_handle k t.sources.(0) in
      Proof.Resolvent.start acc arena (Proof.Clause_db.offset h0)
        (Proof.Clause_db.ro_size view h0);
      let merges = ref 0 in
      for i = 1 to n - 1 do
        let h = peek_handle k t.sources.(i) in
        ignore
          (Proof.Resolvent.step acc ~context
             ~c1_id:(if i = 1 then t.sources.(0) else t.id)
             ~c2_id:t.sources.(i) arena (Proof.Clause_db.offset h)
             (Proof.Clause_db.ro_size view h));
        merges := !merges + Proof.Resolvent.merges acc
      done;
      Clause
        { lits = Proof.Resolvent.to_array acc; steps = n - 1; merges = !merges }
    with Proof.Diagnostics.Check_failed f -> Fail f

(* --- the worker pool ---------------------------------------------------- *)

(* Workers claim chunks of the current wavefront off [next]; the main
   thread publishes a wavefront under the mutex and sleeps on [finished]
   until [unfinished] drains.  Mutex hand-offs order the workers' result
   writes before the main thread's barrier reads, so the plain [results]
   array needs no atomics: each slot has exactly one writer per wavefront
   and is read only after the barrier. *)
type pool = {
  m : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable tasks : task array;
  mutable results : outcome array;
  mutable view : Proof.Clause_db.ro;  (* frozen at every dispatch *)
  mutable next : int;
  mutable unfinished : int;
  mutable limit_seq : int;  (* run only tasks with [seq] below this *)
  mutable chunk : int;      (* claim granularity for this wavefront *)
  mutable stop : bool;
  mutable crashed : exn option;  (* first non-diagnostic worker exception *)
}

let make_pool db =
  {
    m = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    tasks = [||];
    results = [||];
    view = Proof.Clause_db.freeze db;
    next = 0;
    unfinished = 0;
    limit_seq = max_int;
    chunk = 1;
    stop = false;
    crashed = None;
  }

let worker kernel ~nvars pool shard () =
  let acc = Proof.Resolvent.create nvars in
  (* lock-free per-domain telemetry: the shard has one writer (this
     worker) and is read and zeroed by the main thread only at barriers *)
  let sh_tasks = Obs.Metrics.shard_counter shard "par.tasks_replayed" in
  let sh_steps = Obs.Metrics.shard_counter shard "par.steps_replayed" in
  let running = ref true in
  while !running do
    Mutex.lock pool.m;
    while pool.next >= Array.length pool.tasks && not pool.stop do
      Condition.wait pool.work pool.m
    done;
    if pool.stop then begin
      Mutex.unlock pool.m;
      running := false
    end
    else begin
      let lo = pool.next in
      let hi = min (Array.length pool.tasks) (lo + pool.chunk) in
      pool.next <- hi;
      let limit = pool.limit_seq in
      (* the mutex hand-off that published this wavefront also published
         its frozen view, so the read is ordered after the freeze *)
      let view = pool.view in
      Mutex.unlock pool.m;
      for i = lo to hi - 1 do
        let t = pool.tasks.(i) in
        let r =
          if t.seq >= limit then Skipped
          else
            try run_task kernel acc view t
            with e ->
              Mutex.lock pool.m;
              if pool.crashed = None then pool.crashed <- Some e;
              Mutex.unlock pool.m;
              Skipped
        in
        (if Obs.Ctl.on () then
           match r with
           | Clause { steps; _ } ->
             Obs.Metrics.Counter.incr sh_tasks 1;
             Obs.Metrics.Counter.incr sh_steps steps
           | Single -> Obs.Metrics.Counter.incr sh_tasks 1
           | Fail _ | Skipped -> ());
        pool.results.(i) <- r
      done;
      Mutex.lock pool.m;
      pool.unfinished <- pool.unfinished - (hi - lo);
      if pool.unfinished = 0 then Condition.signal pool.finished;
      Mutex.unlock pool.m
    end
  done

let dispatch pool tasks results ~view ~limit_seq ~jobs =
  Mutex.lock pool.m;
  pool.tasks <- tasks;
  pool.results <- results;
  pool.view <- view;
  pool.next <- 0;
  pool.unfinished <- Array.length tasks;
  pool.limit_seq <- limit_seq;
  (* ~4 claims per worker per wavefront: cheap balancing on narrow fronts,
     bounded queue traffic on wide ones *)
  pool.chunk <- max 1 (min 32 (Array.length tasks / (jobs * 4)));
  Condition.broadcast pool.work;
  while pool.unfinished > 0 do
    Condition.wait pool.finished pool.m
  done;
  pool.tasks <- [||];
  Mutex.unlock pool.m

let shutdown pool domains =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  List.iter Domain.join domains

(* --- the checker -------------------------------------------------------- *)

let default_window = 128

let check ?mem_limit ?format ?io ?(jobs = 1) ?(window = default_window)
    ?first_pass formula source =
  if jobs < 1 then invalid_arg "Par.check: jobs must be >= 1";
  let window = max 1 window in
  let kernel = Proof.Kernel.create ?mem_limit formula in
  Driver.run @@ fun () ->
  (* pass one: BF's counting/validation pass, also collecting the
     resolve-source lists as tasks.  The lists are charged to the store
     (the parallel checker, unlike BF, must hold them until their
     wavefront commits), and pass one is the only trace read, so the
     whole check can run off a single-shot stream. *)
  let uses = Driver.uses kernel in
  let tasks_rev = ref [] in
  let seq = ref 0 in
  let l0 = Proof.Level0.create () in
  let pass =
    Driver.pass_one ~cat:"par" (Driver.source ?format ?io ?first_pass source)
      (Proof.Kernel.stream_pass kernel ~stream_order:true ~l0 ~charge:`Defs
         ~on_event:(fun e ->
           Driver.count_uses uses e;
           match e with
           | Trace.Event.Learned l ->
             tasks_rev :=
               { id = l.id; sources = l.sources; seq = !seq } :: !tasks_rev;
             incr seq
           | Trace.Event.Header _ | Trace.Event.Level0 _
           | Trace.Event.Final_conflict _ | Trace.Event.Delete _ -> ()))
  in
  let conf_id = Driver.conflict pass.final_conflict in
  (* cut the stream into windows and bucket each window's tasks into
     wavefronts by their window-local level (sources from earlier
     windows are committed before the window starts, hence level 0) *)
  let tasks = Array.of_list (List.rev !tasks_rev) in
  let n_tasks = Array.length tasks in
  let fronts_rev = ref [] in
  let llevel = Hashtbl.create 256 in
  let start = ref 0 in
  while !start < n_tasks do
    let stop = min n_tasks (!start + window) in
    Hashtbl.reset llevel;
    let depth = ref 0 in
    for i = !start to stop - 1 do
      let t = tasks.(i) in
      let l =
        1
        + Array.fold_left
            (fun acc s ->
              match Hashtbl.find_opt llevel s with
              | Some ls -> max acc ls
              | None -> acc)
            0 t.sources
      in
      Hashtbl.replace llevel t.id l;
      if l > !depth then depth := l
    done;
    let buckets = Array.make !depth [] in
    for i = stop - 1 downto !start do
      let t = tasks.(i) in
      let l = Hashtbl.find llevel t.id in
      buckets.(l - 1) <- t :: buckets.(l - 1)
    done;
    Array.iter (fun b -> fronts_rev := Array.of_list b :: !fronts_rev) buckets;
    start := stop
  done;
  let fronts = Array.of_list (List.rev !fronts_rev) in
  let max_width =
    Array.fold_left (fun acc f -> max acc (Array.length f)) 0 fronts
  in
  let min_fail = ref None in
  let min_fail_seq = ref max_int in
  let record_failure t f =
    if t.seq < !min_fail_seq then begin
      min_fail := Some f;
      min_fail_seq := t.seq
    end
  in
  (* the single-threaded barrier commit: stream order within the
     wavefront, mirroring BF's define-then-release per learned clause *)
  let db = Proof.Kernel.db kernel in
  let commit tasks results =
    Array.iteri
      (fun i t ->
        match results.(i) with
        | Skipped -> ()
        | Fail f -> record_failure t f
        | Single ->
          if t.seq < !min_fail_seq then begin
            let h = Proof.Kernel.find kernel ~context t.sources.(0) in
            Proof.Kernel.record_external_chain kernel ~learned_id:t.id
              ~steps:0 ~merges:0;
            if Driver.count uses t.id > 0 then begin
              Proof.Clause_db.retain db h;
              Proof.Kernel.define kernel t.id h
            end;
            Array.iter (Driver.release uses kernel) t.sources
          end
        | Clause { lits; steps; merges } ->
          if t.seq < !min_fail_seq then begin
            let h = Proof.Clause_db.alloc_sorted db lits (Array.length lits) in
            Proof.Kernel.record_external_chain kernel ~learned_id:t.id
              ~steps ~merges;
            if Driver.count uses t.id > 0 then Proof.Kernel.define kernel t.id h
            else Proof.Clause_db.release db h;
            Array.iter (Driver.release uses kernel) t.sources
          end)
      tasks;
    (* the source lists pass one charged (2 + length words each) are
       released at their barrier *)
    Proof.Clause_db.credit db
      (Array.fold_left (fun acc t -> acc + 2 + Array.length t.sources) 0 tasks)
  in
  (* materialise the originals a wavefront resolves against before its
     workers start, so the store is strictly read-only while they run *)
  let materialise_originals tasks =
    Array.iter
      (fun t ->
        Array.iter
          (fun s ->
            if
              Proof.Kernel.is_original kernel s
              && Proof.Kernel.peek kernel s = None
            then ignore (Proof.Kernel.find kernel ~context s))
          t.sources)
      tasks
  in
  let pool = make_pool db in
  let nvars = Sat.Cnf.nvars formula in
  let shards = Array.init jobs (fun _ -> Obs.Metrics.shard ()) in
  let domains =
    if jobs > 1 && Array.length fronts > 0 then
      List.init jobs (fun i ->
          Domain.spawn (worker kernel ~nvars pool shards.(i)))
    else []
  in
  let inline_acc = Proof.Resolvent.create nvars in
  Driver.pass_two ~cat:"par" (fun () ->
      Fun.protect
        ~finally:(fun () -> shutdown pool domains)
        (fun () ->
          Array.iter
            (fun front ->
              let width = Array.length front in
              let sp =
                Obs.Span.enter ~cat:"par"
                  ~args:[ ("width", width) ] "check.wavefront"
              in
              materialise_originals front;
              (* freeze after materialisation: the view must cover
                 every original this wavefront resolves against, and
                 any relocation the materialisation caused *)
              let view = Proof.Clause_db.freeze db in
              let results = Array.make width Skipped in
              if domains = [] then
                Array.iteri
                  (fun i t ->
                    results.(i) <-
                      (if t.seq >= !min_fail_seq then Skipped
                       else run_task kernel inline_acc view t))
                  front
              else begin
                dispatch pool front results ~view ~limit_seq:!min_fail_seq
                  ~jobs;
                (* [dispatch] returning is the barrier: every worker is
                   idle again, so folding the shards races with no one *)
                if Obs.Ctl.on () then
                  Array.iter
                    (Obs.Metrics.merge_shard Obs.Metrics.global)
                    shards;
                match pool.crashed with
                | Some e -> raise e
                | None -> ()
              end;
              commit front results;
              if Obs.Ctl.on () then begin
                Obs.Metrics.Counter.incr m_fronts 1;
                Obs.Metrics.Histogram.observe m_width width;
                Obs.Sampler.tick ()
              end;
              if Obs.Journal.on () then
                Obs.Journal.record ~sub:"par" "wavefront"
                  [ ("width", width); ("jobs", jobs) ];
              Obs.Span.leave sp)
            fronts;
          match !min_fail with
          | Some f -> Proof.Diagnostics.fail f
          | None -> ignore (Driver.final_chain kernel ~l0 conf_id)));
  Driver.report kernel ~total_learned:pass.total_learned ~jobs
    ~wavefronts:(Array.length fronts) ~max_wavefront_width:max_width
