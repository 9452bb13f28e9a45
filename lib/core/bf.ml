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
  mutable failed : Proof.Diagnostics.failure option;
}

let make_ingest ?mem_limit formula =
  let kernel = Proof.Kernel.create ?mem_limit formula in
  let l0 = Proof.Level0.create () in
  {
    kernel;
    uses = Driver.uses kernel;
    stream = Proof.Kernel.stream_start kernel ~stream_order:true ~l0 ();
    l0;
    failed = None;
  }

let ingest formula = make_ingest formula

let ingest_failed g = g.failed

let ingest_event g e =
  if g.failed = None then
    try
      Proof.Kernel.stream_feed g.stream e;
      (* a hint never gets here: stream_feed refuses it first *)
      Driver.count_uses g.uses e
    with Proof.Diagnostics.Check_failed f -> g.failed <- Some f

let ingest_sink g = Trace.Sink.make (ingest_event g)

(* Pass two: rebuild every learned clause in stream order — the 100%
   Built column — releasing each clause the moment its uses drain. *)
let pass_two ?format g source =
  Option.iter Proof.Diagnostics.fail g.failed;
  let pass = Proof.Kernel.stream_finish g.stream in
  let conf_id = Driver.conflict pass.final_conflict in
  Driver.pass_two ~cat:"bf" (fun () ->
      Driver.rebuild g.kernel g.uses ~context:"breadth-first reconstruction"
        ?format source;
      ignore (Driver.final_chain g.kernel ~l0:g.l0 conf_id));
  Driver.report g.kernel ~total_learned:pass.total_learned

let finish ?format g source =
  Driver.run (fun () -> pass_two ?format g source)

let check ?mem_limit ?format ?first_pass formula source =
  let g = make_ingest ?mem_limit formula in
  Driver.run @@ fun () ->
  (* pass one: validate record shape / stream order and count uses;
     ingest records the first violation, so draining stops there *)
  Driver.pass_one ~cat:"bf" (Driver.source ?format ?first_pass source)
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
  pass_two ?format g source
