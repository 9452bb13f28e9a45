(* Depth-first checking (§3.2, Figure 3) on the shared kernel: load the
   whole trace (charged to the meter — the paper's stated DF
   disadvantage), then reconstruct on demand through the resolve-source
   DAG from the final conflict, so only proof-relevant clauses are ever
   built and the touched originals form an unsat core. *)

let check ?meter ?format ?io ?first_pass formula source =
  let k = Proof.Kernel.create ?meter formula in
  Driver.run @@ fun () ->
  (* depth-first reads the trace exactly once, so the whole check can
     run off a single-shot stream (pipe/FIFO) with no re-read *)
  let proof =
    Driver.pass_one ~cat:"df"
      (Driver.source ?format ?io ?first_pass source)
      (Proof.Kernel.load k ~charge:`Full)
  in
  let conf_id = Driver.conflict proof.final_conflict in
  Driver.pass_two ~cat:"df" (fun () ->
      let b =
        Proof.Kernel.builder k ~sources:proof.sources
          Proof.Kernel.unit_annotation
      in
      let fetch id = fst (Proof.Kernel.build b id) in
      ignore (Driver.final_chain k ~l0:proof.l0 ~fetch conf_id));
  Driver.report ~core:true k ~total_learned:proof.total_learned
