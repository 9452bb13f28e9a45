(* The paper's §5 future-work checker on the shared kernel: pass one keeps
   only the resolve-source ID lists (charged to the store's simulated
   account, like DF's trace residency but literal-free), a reverse sweep
   computes the exact needed set and per-clause use counts, the lists are
   released (and credited back), and pass two rebuilds only the needed
   clauses BF-style with use-count freeing. *)

let check ?mem_limit ?format ?first_pass formula source =
  let kernel = Proof.Kernel.create ?mem_limit formula in
  Driver.run @@ fun () ->
  (* pass one: collect source lists (charged: this is the part of the
     trace the hybrid must hold, like DF) and validate record shape and
     stream order, like BF *)
  let l0 = Proof.Level0.create () in
  let defs = Sat.Vec.create ~dummy:(0, [||]) in
  let antes = Sat.Vec.create ~dummy:0 in
  let pass =
    Driver.pass_one ~cat:"hybrid"
      (Driver.source ?format ?first_pass source)
      (Proof.Kernel.stream_pass kernel ~stream_order:true ~l0 ~charge:`Defs
         ~on_event:(function
           | Trace.Event.Learned l -> Sat.Vec.push defs (l.id, l.sources)
           | Trace.Event.Level0 v -> Sat.Vec.push antes v.ante
           | Trace.Event.Header _ | Trace.Event.Final_conflict _
           | Trace.Event.Delete _ -> ()))
  in
  let conf_id = Driver.conflict pass.final_conflict in
  (* uses among the clauses reachable from the conflict *)
  let uses = Driver.uses kernel in
  ignore (Driver.mark_needed uses ~defs ~antes conf_id);
  (* release the source lists: pass two re-reads them from the stream *)
  Proof.Clause_db.credit (Proof.Kernel.db kernel)
    (Sat.Vec.fold (fun acc (_, s) -> acc + 2 + Array.length s) 0 defs);
  Sat.Vec.clear defs;
  Driver.pass_two ~cat:"hybrid" (fun () ->
      Driver.rebuild kernel uses ~context:"hybrid reconstruction"
        ~needed_only:true ?format source;
      ignore (Driver.final_chain kernel ~l0 conf_id));
  Driver.report ~core:true kernel ~total_learned:pass.total_learned
