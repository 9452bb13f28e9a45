(* Hinted one-pass forward checking (trace format version 2).

   The trace's resolve-source lists already carry the resolution order,
   so the only information breadth-first checking buys with its counting
   pass is each clause's last use.  A hinted trace supplies exactly that
   as [Event.Delete] records, letting this checker run a single forward
   pass: every learned clause is rebuilt and defined the moment its
   record arrives, and freed the moment a hint says its uses are
   drained.  Peak residency follows the hint schedule (the refcount-zero
   schedule when hints come from [rescheck hint]) at one trace read.

   Hints are advice about memory, never about validity: a wrong hint can
   only make the checker fail (clause referenced after its delete hint)
   or retain clauses longer — it can never produce a wrong verdict.  On
   a version-1 trace (no hints) the pass still checks everything and
   simply never frees, so verdicts, cores and diagnostics match
   breadth-first on every trace both can read. *)

let check ?mem_limit ?format ?first_pass formula source =
  let kernel = Proof.Kernel.create ?mem_limit formula in
  Driver.run @@ fun () ->
  let l0 = Proof.Level0.create () in
  let stream =
    Proof.Kernel.stream_start kernel ~stream_order:true ~l0
      ~accept_hints:true ()
  in
  let context = "hinted one-pass reconstruction" in
  (* ids already freed by a hint, kept only to diagnose bad hints — the
     hot path never touches this table until something goes wrong *)
  let deleted = Trace.Idtab.create (Proof.Kernel.id_range kernel) in
  let src = Driver.source ?format ?first_pass source in
  let bad_hint id reason =
    Proof.Diagnostics.fail
      (Proof.Diagnostics.Positioned
         {
           pos = Trace.Source.last_pos src;
           failure = Proof.Diagnostics.Bad_delete_hint { id; reason };
         })
  in
  (* Every id the kernel's table does not bind funnels through here, so
     a reference to a clause a hint already freed is reported as the bad
     hint it is, not as a bare unknown id. *)
  let miss id =
    if Trace.Idtab.mem deleted id then
      bad_hint id "is referenced after its delete hint"
    else Proof.Kernel.find kernel ~context id
  in
  let delete ids =
    Array.iter
      (fun id ->
        match Proof.Kernel.peek kernel id with
        | Some _ ->
          Trace.Idtab.replace deleted id ();
          Proof.Kernel.release_id kernel id
        | None ->
          if Trace.Idtab.mem deleted id then bad_hint id "is deleted twice"
          else if Proof.Kernel.is_original kernel id then
            bad_hint id "is an original clause that was never referenced"
          else bad_hint id "is not defined at this point in the trace")
      ids
  in
  Driver.pass_one ~cat:"hint" ~name:"check.one_pass" src
    (Trace.Source.iter (fun e ->
         Proof.Kernel.stream_feed stream e;
         match e with
         | Trace.Event.Header _ | Trace.Event.Level0 _
         | Trace.Event.Final_conflict _ -> ()
         | Trace.Event.Learned l ->
           let h =
             Proof.Kernel.chain kernel ~context ~miss ~learned_id:l.id
               l.sources
           in
           Proof.Kernel.define kernel l.id h
         | Trace.Event.Delete ids -> delete ids));
  let pass = Proof.Kernel.stream_finish stream in
  let conf_id = Driver.conflict pass.final_conflict in
  ignore (Driver.final_chain kernel ~l0 ~miss conf_id);
  Driver.report kernel ~total_learned:pass.total_learned
