type counting = [ `In_memory | `Temp_file of int (* chunk size *) ]

(* Incremental pass-one ingest: the validating/counting pass fed one
   event at a time, so it can sit behind a {!Trace.Sink.t} and consume
   the solver's live event stream (online validation) as well as a
   decoded file.  A violation is recorded, not raised — the solver
   cannot be interrupted mid-push — and every later event is ignored, so
   the first failure reported is exactly the one file-based BF stops
   at. *)
type ingest = {
  kernel : Proof.Kernel.t;
  uses : Driver.uses;
  stream : Proof.Kernel.stream;
  l0 : Proof.Level0.t;
  count_in_memory : bool;
  mutable failed : Proof.Diagnostics.failure option;
}

let make_ingest ?mem_limit ~count_in_memory formula =
  let kernel = Proof.Kernel.create ?mem_limit formula in
  let l0 = Proof.Level0.create () in
  {
    kernel;
    uses = Driver.uses kernel;
    stream = Proof.Kernel.stream_start kernel ~stream_order:true ~l0 ();
    l0;
    count_in_memory;
    failed = None;
  }

let ingest formula = make_ingest ~count_in_memory:true formula

let ingest_failed g = g.failed

let ingest_event g e =
  if g.failed = None then
    try
      Proof.Kernel.stream_feed g.stream e;
      (* a hint never gets here: stream_feed refuses it first *)
      if g.count_in_memory then Driver.count_uses g.uses e
    with Proof.Diagnostics.Check_failed f -> g.failed <- Some f

let ingest_sink g = Trace.Sink.make (ingest_event g)

(* Pass two: rebuild every learned clause in stream order — the 100%
   Built column — releasing each clause the moment its uses drain. *)
let pass_two ?format ?io g source =
  Option.iter Proof.Diagnostics.fail g.failed;
  let pass = Proof.Kernel.stream_finish g.stream in
  let conf_id = Driver.conflict pass.final_conflict in
  Driver.pass_two ~cat:"bf" (fun () ->
      Driver.rebuild g.kernel g.uses ~context:"breadth-first reconstruction"
        ?format ?io source;
      ignore (Driver.final_chain g.kernel ~l0:g.l0 conf_id));
  Driver.report g.kernel ~total_learned:pass.total_learned

let finish ?format ?io g source =
  Driver.run (fun () -> pass_two ?format ?io g source)

let check ?mem_limit ?format ?io ?(counting = `In_memory) ?first_pass
    formula source =
  let g =
    make_ingest ?mem_limit ~count_in_memory:(counting = `In_memory) formula
  in
  Driver.run ~cleanup:(fun () -> Driver.remove_file g.uses) @@ fun () ->
  (* pass one: validate record shape / stream order and count uses;
     ingest records the first violation, so draining stops there *)
  Driver.pass_one ~cat:"bf" (Driver.source ?format ?io ?first_pass source)
    (fun src ->
      let rec drain () =
        if g.failed = None then
          match Trace.Source.next src with
          | Some e ->
            ingest_event g e;
            drain ()
          | None -> ()
      in
      drain ());
  (match counting with
   | `In_memory -> ()
   | `Temp_file _ when g.failed <> None ->
     (* pass two reports the failure before it reads a count; the
        counting passes would scale with the largest id a record names *)
     ()
   | `Temp_file chunk ->
     (* the paper's chunked counting passes re-read the trace from its
        re-readable source; only now is a spooled stream complete *)
     Driver.count_to_file g.uses ~chunk ?format ?io source);
  pass_two ?format ?io g source
