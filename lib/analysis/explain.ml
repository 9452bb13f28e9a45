type refusal = {
  r_command : string;
  r_exit_code : int;
  r_status : string;
  r_message : string;
  r_pos : Trace.Reader.pos option;
  r_ids : int list;
  r_codes : string list;
  r_journal : Obs.Json.t;
}

let esc = Obs.Metrics.json_escape

let pos_json = function
  | None -> "null"
  | Some (Trace.Reader.Line n) -> Printf.sprintf {|{"line":%d}|} n
  | Some (Trace.Reader.Byte n) -> Printf.sprintf {|{"byte":%d}|} n

let refusal_json r =
  Printf.sprintf
    {|{"schema":"rescheck-refusal/1","command":"%s","exit_code":%d,"status":"%s","message":"%s","pos":%s,"ids":[%s],"codes":[%s],"journal":%s}|}
    (esc r.r_command) r.r_exit_code (esc r.r_status) (esc r.r_message)
    (pos_json r.r_pos)
    (String.concat "," (List.map string_of_int r.r_ids))
    (String.concat ","
       (List.map (fun c -> Printf.sprintf {|"%s"|} (esc c)) r.r_codes))
    (Obs.Json.to_string r.r_journal)

let write_refusal ~file ~command ~exit_code ~status ~message ?pos ?(ids = [])
    ?(codes = []) () =
  let journal =
    (* parse our own journal rendering back into a [Json.t]; the writer
       is total so this cannot fail, and it keeps the refusal record a
       single self-contained document *)
    Obs.Json.of_string (Obs.Journal.to_json ())
  in
  let r =
    {
      r_command = command;
      r_exit_code = exit_code;
      r_status = status;
      r_message = message;
      r_pos = pos;
      r_ids = List.sort_uniq compare ids;
      r_codes = List.sort_uniq compare codes;
      r_journal = journal;
    }
  in
  try
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (refusal_json r);
        output_char oc '\n')
  with Sys_error msg -> Printf.eprintf "rescheck: cannot write refusal: %s\n" msg

let read_refusal file =
  match Obs.Json.of_file file with
  | exception Sys_error msg -> Error msg
  | exception Obs.Json.Parse_error msg ->
    Error (Printf.sprintf "%s: %s" file msg)
  | j -> (
    let open Obs.Json in
    match member "schema" j |> Option.map string with
    | Some (Some "rescheck-refusal/1") ->
      let str k d = Option.value ~default:d (Option.bind (member k j) string) in
      let pos =
        match member "pos" j with
        | Some (Obj _ as p) -> (
          match (Option.bind (member "line" p) int, Option.bind (member "byte" p) int) with
          | Some n, _ -> Some (Trace.Reader.Line n)
          | None, Some n -> Some (Trace.Reader.Byte n)
          | None, None -> None)
        | _ -> None
      in
      let ints k =
        match Option.bind (member k j) list with
        | Some l -> List.filter_map int l
        | None -> []
      in
      let strs k =
        match Option.bind (member k j) list with
        | Some l -> List.filter_map string l
        | None -> []
      in
      Ok
        {
          r_command = str "command" "";
          r_exit_code =
            Option.value ~default:2 (Option.bind (member "exit_code" j) int);
          r_status = str "status" "";
          r_message = str "message" "";
          r_pos = pos;
          r_ids = ints "ids";
          r_codes = strs "codes";
          r_journal =
            Option.value ~default:(Obj []) (member "journal" j);
        }
    | _ -> Error (Printf.sprintf "%s: not a rescheck-refusal/1 file" file))

(* --- trace window --------------------------------------------------------- *)

type window_entry = {
  w_pos : Trace.Reader.pos;
  w_text : string;
  w_offending : bool;
}

type report = {
  e_refusal : refusal;
  e_window : window_entry list;
  e_nodes : Dag.node list;
  e_docs : (string * string * string) list;
}

let pos_ord = function Trace.Reader.Line n -> n | Trace.Reader.Byte n -> n

(* Collect up to [window] records on each side of the refusal position.
   The trace is hostile (the checker refused it), so a record that does
   not decode becomes an ["<unparsable: ...>"] window entry — for parse
   refusals that entry is the offending record itself.  ASCII cursors
   re-synchronise on the next line after an error; binary ones cannot,
   so the window simply ends there. *)
let trace_window ?format ~window ~pos source =
  let cur = Trace.Reader.cursor ?format source in
  let target = Option.map pos_ord pos in
  let before = Queue.create () in
  let offending = ref None in
  let after = ref [] in
  let n_after = ref 0 in
  let classify p text =
    let o = pos_ord p in
    match target with
    | Some t when o < t ->
      Queue.push (p, text) before;
      if Queue.length before > window then ignore (Queue.pop before);
      true
    | Some t when !offending = None && o >= t ->
      (* first record at or past the position is the offending one; a
         byte position inside a record still lands here *)
      offending := Some (p, text);
      true
    | None when !offending = None && Queue.length before < window ->
      (* no position: the window is the head of the trace *)
      Queue.push (p, text) before;
      true
    | None -> false
    | Some _ ->
      after := (p, text) :: !after;
      incr n_after;
      !n_after < window
  in
  let continue = ref true in
  while !continue do
    match Trace.Reader.next cur with
    | None -> continue := false
    | Some e ->
      let p = Trace.Reader.last_pos cur in
      let text = Format.asprintf "%a" Trace.Event.pp e in
      if not (classify p text) then continue := false
    | exception Trace.Reader.Parse_error { pos = p; msg } ->
      let text = Printf.sprintf "<unparsable: %s>" msg in
      if not (classify p text) then continue := false
      else if Trace.Reader.is_binary_cursor cur then continue := false
  done;
  Trace.Reader.close cur;
  let entries =
    List.concat
      [
        Queue.fold (fun acc (p, t) -> (p, t, false) :: acc) [] before
        |> List.rev;
        (match !offending with Some (p, t) -> [ (p, t, true) ] | None -> []);
        List.rev_map (fun (p, t) -> (p, t, false)) !after;
      ]
  in
  List.map
    (fun (w_pos, w_text, w_offending) -> { w_pos; w_text; w_offending })
    entries

let build ?format ?(window = 5) ~trace ~refusal () =
  let e_window =
    trace_window ?format ~window ~pos:refusal.r_pos trace
  in
  let e_nodes =
    if refusal.r_ids = [] then []
    else Dag.neighborhood ?format ~ids:refusal.r_ids trace
  in
  let e_docs =
    List.filter_map
      (fun code ->
        Option.map (fun (title, doc) -> (code, title, doc)) (Lint.code_doc code))
      (List.sort_uniq compare refusal.r_codes)
  in
  { e_refusal = refusal; e_window; e_nodes; e_docs }

(* --- rendering ------------------------------------------------------------ *)

let journal_entries j =
  match Obs.Json.(Option.bind (member "entries" j) list) with
  | Some l -> l
  | None -> []

let pp fmt r =
  let f = r.e_refusal in
  Format.fprintf fmt "refusal: %s (exit %d) from `rescheck %s`@\n" f.r_status
    f.r_exit_code f.r_command;
  Format.fprintf fmt "  %s@\n" f.r_message;
  (match f.r_pos with
   | Some p -> Format.fprintf fmt "  at %a@\n" Trace.Reader.pp_pos p
   | None -> ());
  if r.e_window <> [] then begin
    Format.fprintf fmt "@\ntrace window:@\n";
    List.iter
      (fun w ->
        Format.fprintf fmt "  %s %a: %s@\n"
          (if w.w_offending then ">>" else "  ")
          Trace.Reader.pp_pos w.w_pos w.w_text)
      r.e_window
  end;
  if r.e_nodes <> [] then begin
    Format.fprintf fmt "@\ndag neighborhood:@\n";
    List.iter
      (fun (n : Dag.node) ->
        Format.fprintf fmt "  clause %d: %s" n.Dag.n_id
          (match n.Dag.n_kind with
           | `Original -> "original"
           | `Learned -> "learned"
           | `Undefined -> "never defined");
        (match n.Dag.n_def_pos with
         | Some p -> Format.fprintf fmt ", defined at %a" Trace.Reader.pp_pos p
         | None -> ());
        if Array.length n.Dag.n_sources > 0 then
          Format.fprintf fmt ", sources [%s]"
            (String.concat " "
               (Array.to_list (Array.map string_of_int n.Dag.n_sources)));
        Format.fprintf fmt ", %d use%s" n.Dag.n_uses
          (if n.Dag.n_uses = 1 then "" else "s");
        if n.Dag.n_used_by <> [] then
          Format.fprintf fmt " (by %s)"
            (String.concat " " (List.map string_of_int n.Dag.n_used_by));
        (match n.Dag.n_deleted_at with
         | Some p -> Format.fprintf fmt ", deleted at %a" Trace.Reader.pp_pos p
         | None -> ());
        Format.fprintf fmt "@\n")
      r.e_nodes
  end;
  if r.e_docs <> [] then begin
    Format.fprintf fmt "@\nlint codes:@\n";
    List.iter
      (fun (code, title, doc) ->
        Format.fprintf fmt "  %s (%s): %s@\n" code title doc)
      r.e_docs
  end;
  let tail = journal_entries f.r_journal in
  if tail <> [] then begin
    Format.fprintf fmt "@\njournal tail (%d entries):@\n" (List.length tail);
    List.iter
      (fun e -> Format.fprintf fmt "  %s@\n" (Obs.Json.to_string e))
      tail
  end

let to_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b {|{"schema":"rescheck-explain/1","refusal":|};
  Buffer.add_string b (refusal_json r.e_refusal);
  Buffer.add_string b {|,"window":[|};
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf {|{"pos":%s,"text":"%s","offending":%b}|}
           (pos_json (Some w.w_pos))
           (esc w.w_text) w.w_offending))
    r.e_window;
  Buffer.add_string b {|],"dag":[|};
  List.iteri
    (fun i (n : Dag.node) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           {|{"id":%d,"kind":"%s","def_pos":%s,"sources":[%s],"uses":%d,"used_by":[%s],"deleted_at":%s}|}
           n.Dag.n_id
           (match n.Dag.n_kind with
            | `Original -> "original"
            | `Learned -> "learned"
            | `Undefined -> "undefined")
           (pos_json n.Dag.n_def_pos)
           (String.concat ","
              (Array.to_list (Array.map string_of_int n.Dag.n_sources)))
           n.Dag.n_uses
           (String.concat "," (List.map string_of_int n.Dag.n_used_by))
           (pos_json n.Dag.n_deleted_at)))
    r.e_nodes;
  Buffer.add_string b {|],"codes":[|};
  List.iteri
    (fun i (code, title, doc) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf {|{"code":"%s","title":"%s","doc":"%s"}|} (esc code)
           (esc title) (esc doc)))
    r.e_docs;
  Buffer.add_string b "]}";
  Buffer.contents b
