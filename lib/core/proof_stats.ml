type t = {
  learned_total : int;
  learned_needed : int;
  resolution_steps : int;
  dag_depth : int;
  max_clause_width : int;
  mean_clause_width : float;
  final_chain_length : int;
}

(* Measure while rebuilding breadth-first through the kernel: clause
   literals give widths, the source lists give DAG depth (originals have
   depth 0), and the needed-set sweep counts the proof-relevant part. *)
let analyze formula source =
  let k = Proof.Kernel.create formula in
  Driver.run @@ fun () ->
  let context = "proof statistics" in
  let fetch id = Proof.Kernel.find k ~context id in
  let depth = Hashtbl.create 1024 in
  let defs = Sat.Vec.create ~dummy:(0, [||]) in
  let antes = Sat.Vec.create ~dummy:0 in
  let l0 = Proof.Level0.create () in
  let width_sum = ref 0 in
  let width_max = ref 0 in
  let depth_of id =
    if Proof.Kernel.is_original k id then 0
    else Option.value ~default:0 (Hashtbl.find_opt depth id)
  in
  let pass =
    Driver.pass_one ~cat:"stats" (Driver.source source)
      (Proof.Kernel.stream_pass k ~stream_order:true ~l0
         ~on_event:(function
           | Trace.Event.Header _ | Trace.Event.Final_conflict _
           | Trace.Event.Delete _ -> ()
           | Trace.Event.Learned l ->
             let h =
               Proof.Kernel.chain_ids k ~context ~fetch ~learned_id:l.id
                 l.sources
             in
             Proof.Kernel.define k l.id h;
             let w = Proof.Clause_db.size (Proof.Kernel.db k) h in
             width_sum := !width_sum + w;
             if w > !width_max then width_max := w;
             let d =
               1
               + Array.fold_left (fun acc s -> max acc (depth_of s)) 0 l.sources
             in
             Hashtbl.replace depth l.id d;
             Sat.Vec.push defs (l.id, l.sources)
           | Trace.Event.Level0 v -> Sat.Vec.push antes v.ante))
  in
  let total = pass.total_learned in
  let conf_id = Driver.conflict pass.final_conflict in
  (* run the final chain for its length and validity *)
  let chain_len = Driver.final_chain k ~l0 ~fetch conf_id in
  {
    learned_total = total;
    learned_needed = Driver.mark_needed (Driver.uses ()) ~defs ~antes conf_id;
    resolution_steps = Proof.Kernel.resolution_steps k;
    dag_depth =
      Sat.Vec.fold
        (fun acc id -> max acc (depth_of id))
        (depth_of conf_id) antes;
    max_clause_width = !width_max;
    mean_clause_width =
      (if total = 0 then 0.0
       else float_of_int !width_sum /. float_of_int total);
    final_chain_length = chain_len;
  }

let pp fmt s =
  Format.fprintf fmt
    "@[<v>learned: %d (%d needed)@,resolution steps: %d@,DAG depth: %d@,\
     clause width: mean %.1f, max %d@,final chain: %d steps@]"
    s.learned_total s.learned_needed s.resolution_steps s.dag_depth
    s.mean_clause_width s.max_clause_width s.final_chain_length
