(* Window-shifting breadth-first checking.

   Pass one is breadth-first's counting pass verbatim: validate record
   shape and stream order, count every clause's uses.  Pass two replays
   the trace through a window scheduler: learned records are processed
   in windows of [window] definitions, and when a window fills, every
   clause still alive — learned clauses with undrained use counts, plus
   any materialised originals — is evicted from the arena.  Learned
   clauses are spilled byte-for-byte through a frozen arena view
   ({!Proof.Clause_db.freeze}) into a temp file; originals need no spill
   because the formula itself backs them.  A later reference reloads the
   clause transiently for the one chain that needs it and releases it
   right after, so the arena never holds more than [window] learned
   clauses plus one chain's operands.

   The schedule changes nothing the checker observes: verdicts, cores
   (empty, like breadth-first), built sets, resolution step counts and
   diagnostics are identical to {!Bf.check} on every trace. *)

type stats = {
  windows : int;      (* boundaries crossed *)
  spilled : int;      (* learned clauses written to the spill file *)
  reloaded : int;     (* transient reloads from the spill file *)
  max_resident : int; (* high-water defined-and-live learned clauses *)
}

let g_resident =
  Obs.Metrics.gauge Obs.Metrics.global "window.resident_clauses"

let g_spilled = Obs.Metrics.gauge Obs.Metrics.global "window.spilled_clauses"

type spill = {
  path : string;
  oc : out_channel;
  ic : in_channel;
  index : (int, int * int) Hashtbl.t; (* id -> (byte offset, lit count) *)
}

let spill_create () =
  let path = Filename.temp_file "window_spill" ".bin" in
  { path; oc = open_out_bin path; ic = open_in_bin path;
    index = Hashtbl.create 256 }

let spill_close s =
  close_out_noerr s.oc;
  close_in_noerr s.ic;
  try Sys.remove s.path with Sys_error _ -> ()

type state = {
  kernel : Proof.Kernel.t;
  live : (int, unit) Hashtbl.t;      (* learned ids resident in the arena *)
  orig_live : (int, unit) Hashtbl.t; (* originals materialised this window *)
  spill : spill;
  mutable scratch : int array;
  mutable transients : Proof.Clause_db.handle list;
  mutable fill : int;       (* learned records in the current window *)
  mutable windows : int;
  mutable spilled : int;
  mutable reloaded : int;
  mutable max_resident : int;
}

(* a clause whose uses drained leaves the window and the spill index *)
let drained st id =
  Proof.Kernel.release_id st.kernel id;
  Hashtbl.remove st.live id;
  Hashtbl.remove st.orig_live id;
  Hashtbl.remove st.spill.index id

let ensure_scratch st n =
  if Array.length st.scratch < n then
    st.scratch <- Array.make (max n (2 * Array.length st.scratch)) 0

(* Shift the window: spill every live learned clause out through a frozen
   view, drop materialised originals (the formula backs them), and start
   the next window with an empty arena. *)
let boundary st =
  st.windows <- st.windows + 1;
  st.fill <- 0;
  if Hashtbl.length st.live > 0 then begin
    let db = Proof.Kernel.db st.kernel in
    let ro = Proof.Clause_db.freeze db in
    let ids = Hashtbl.fold (fun id () acc -> id :: acc) st.live [] in
    List.iter
      (fun id ->
        let h = Option.get (Proof.Kernel.peek st.kernel id) in
        let n = Proof.Clause_db.ro_size ro h in
        ensure_scratch st n;
        let n = Proof.Clause_db.ro_copy_lits ro h st.scratch in
        let off = pos_out st.spill.oc in
        for i = 0 to n - 1 do
          output_binary_int st.spill.oc st.scratch.(i)
        done;
        Hashtbl.replace st.spill.index id (off, n);
        st.spilled <- st.spilled + 1;
        Proof.Kernel.release_id st.kernel id)
      ids;
    if Obs.Journal.on () then
      Obs.Journal.record ~sub:"window" "spill"
        [
          ("window", st.windows);
          ("clauses", List.length ids);
          ("spilled_total", st.spilled);
        ];
    Hashtbl.reset st.live;
    flush st.spill.oc
  end;
  Hashtbl.iter
    (fun id () -> Proof.Kernel.release_id st.kernel id)
    st.orig_live;
  Hashtbl.reset st.orig_live

let reload st ~context id =
  match Hashtbl.find_opt st.spill.index id with
  | None -> Proof.Kernel.find st.kernel ~context id (* raises Unknown_clause *)
  | Some (off, n) ->
    ensure_scratch st n;
    seek_in st.spill.ic off;
    for i = 0 to n - 1 do
      st.scratch.(i) <- input_binary_int st.spill.ic
    done;
    st.reloaded <- st.reloaded + 1;
    if Obs.Journal.on () then
      Obs.Journal.record ~sub:"window" "reload"
        [ ("id", id); ("lits", n); ("reloaded_total", st.reloaded) ];
    let h =
      Proof.Clause_db.alloc_sorted (Proof.Kernel.db st.kernel) st.scratch n
    in
    st.transients <- h :: st.transients;
    h

(* Clause lookup for pass two and the final chain: arena-resident first,
   then originals from the formula, then the spill file. *)
let fetch st ~context id =
  match Proof.Kernel.peek st.kernel id with
  | Some h -> h
  | None ->
    if Proof.Kernel.is_original st.kernel id then begin
      let h = Proof.Kernel.find st.kernel ~context id in
      Hashtbl.replace st.orig_live id ();
      h
    end
    else reload st ~context id

let drop_transients st =
  let db = Proof.Kernel.db st.kernel in
  List.iter (fun h -> Proof.Clause_db.release db h) st.transients;
  st.transients <- []

(* After each rebuilt record: drop its transient reloads, track the
   resident set, and shift the window once it is full. *)
let after_record st ~window id =
  drop_transients st;
  if Proof.Kernel.defined st.kernel id then begin
    Hashtbl.replace st.live id ();
    let r = Hashtbl.length st.live in
    if r > st.max_resident then st.max_resident <- r
  end;
  st.fill <- st.fill + 1;
  if st.fill >= window then boundary st

let check ?meter ?format ?io ?first_pass ?on_stats ~window formula source =
  if window < 1 then
    invalid_arg "Window.check: window size must be at least 1";
  let kernel = Proof.Kernel.create ?meter formula in
  let st =
    {
      kernel;
      live = Hashtbl.create 256;
      orig_live = Hashtbl.create 256;
      spill = spill_create ();
      scratch = Array.make 64 0;
      transients = [];
      fill = 0;
      windows = 0;
      spilled = 0;
      reloaded = 0;
      max_resident = 0;
    }
  in
  let cleanup () =
    spill_close st.spill;
    if Obs.Ctl.on () then begin
      Obs.Metrics.Gauge.set g_resident (float_of_int st.max_resident);
      Obs.Metrics.Gauge.set g_spilled (float_of_int st.spilled)
    end;
    match on_stats with
    | None -> ()
    | Some f ->
      f
        {
          windows = st.windows;
          spilled = st.spilled;
          reloaded = st.reloaded;
          max_resident = st.max_resident;
        }
  in
  Driver.run ~cleanup @@ fun () ->
  (* pass one: breadth-first's validating/counting pass *)
  let l0 = Proof.Level0.create () in
  let stream = Proof.Kernel.stream_start kernel ~stream_order:true ~l0 () in
  let uses = Driver.uses () in
  Driver.pass_one ~cat:"window" (Driver.source ?format ?io ?first_pass source)
    (Trace.Source.iter (fun e ->
         Proof.Kernel.stream_feed stream e;
         Driver.count_uses uses e));
  let pass = Proof.Kernel.stream_finish stream in
  let conf_id = Driver.conflict pass.final_conflict in
  (* pass two: windowed reconstruction with eager frees and spills *)
  Driver.pass_two ~cat:"window" (fun () ->
      Driver.rebuild kernel uses ~context:"breadth-first reconstruction"
        ~fetch:(fetch st ~context:"breadth-first reconstruction")
        ~drained:(drained st) ~on_record:(after_record st ~window) ?format ?io
        source;
      let fetch = fetch st ~context:"empty-clause construction" in
      ignore (Driver.final_chain kernel ~l0 ~fetch conf_id);
      drop_transients st);
  Driver.report kernel ~total_learned:pass.total_learned
