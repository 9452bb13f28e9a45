module D = Proof.Diagnostics

(* Rebuild every learned clause in stream order (the breadth-first
   discipline) through the shared kernel and record its literals. *)
let of_trace f source =
  let k = Proof.Kernel.create f in
  let src = Trace.Source.of_cursor ~close_cursor:true (Trace.Reader.cursor source) in
  let context = "drup conversion" in
  let miss = Proof.Kernel.find k ~context in
  let order = ref [] in
  try
    let (_ : Proof.Kernel.pass) =
      Proof.Kernel.stream_pass k ~stream_order:true
        ~on_event:(fun e ->
          match e with
          | Trace.Event.Learned l ->
            let h =
              Proof.Kernel.chain k ~context ~miss ~learned_id:l.id l.sources
            in
            Proof.Kernel.define k l.id h;
            order := Proof.Clause_db.lits (Proof.Kernel.db k) h :: !order
          | Trace.Event.Header _ | Trace.Event.Level0 _
          | Trace.Event.Final_conflict _ | Trace.Event.Delete _ -> ())
        src
    in
    Ok (List.rev ([||] :: !order))
  with
  | D.Check_failed d -> Error d
  | Trace.Reader.Parse_error { pos; msg } ->
    Error (D.of_parse_error ~pos msg)

let to_string derivation =
  let buf = Buffer.create 4096 in
  List.iter
    (fun c ->
      Array.iter
        (fun l ->
          Buffer.add_string buf (Sat.Lit.to_string l);
          Buffer.add_char buf ' ')
        c;
      Buffer.add_string buf "0\n")
    derivation;
  Buffer.contents buf

let parse s =
  let clauses = ref [] in
  let cur = ref [] in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> 'c' then
           String.split_on_char ' ' line
           |> List.iter (fun w ->
                  if w <> "" then
                    match int_of_string_opt w with
                    | Some 0 ->
                      clauses := Sat.Clause.of_lits (List.rev !cur) :: !clauses;
                      cur := []
                    | Some d -> cur := Sat.Lit.of_int d :: !cur
                    | None -> failwith ("Drup.parse: bad token " ^ w)));
  if !cur <> [] then failwith "Drup.parse: trailing literals";
  List.rev !clauses
