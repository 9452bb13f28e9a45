type span =
  | Off
  | Open of {
      name : string;
      cat : string;
      ts : float; (* us *)
      tid : int;
    }

type event = {
  e_name : string;
  e_cat : string;
  e_ts : float;
  e_dur : float;
  e_tid : int;
  e_seq : int; (* insertion order, the sort tiebreak *)
}

(* The timeline is process-wide; appends only happen when telemetry is
   on, so the mutex is never touched on the disabled path. *)
let lock = Mutex.create ()
let events : event list ref = ref []
let n_events = ref 0

let record e =
  Mutex.lock lock;
  events := e :: !events;
  incr n_events;
  Mutex.unlock lock

let enter ?(cat = "") name =
  if not (Ctl.on ()) then Off
  else
    Open
      {
        name;
        cat;
        ts = Ctl.now_us ();
        tid = (Domain.self () :> int);
      }

let leave s =
  match s with
  | Off -> ()
  | Open { name; cat; ts; tid } ->
    record
      {
        e_name = name;
        e_cat = cat;
        e_ts = ts;
        e_dur = Ctl.now_us () -. ts;
        e_tid = tid;
        e_seq = 0;
      }

let scope ?cat name f =
  if not (Ctl.on ()) then f ()
  else begin
    let s = enter ?cat name in
    Fun.protect ~finally:(fun () -> leave s) f
  end

let count () =
  Mutex.lock lock;
  let n = !n_events in
  Mutex.unlock lock;
  n

let reset () =
  Mutex.lock lock;
  events := [];
  n_events := 0;
  Mutex.unlock lock

let sorted () =
  Mutex.lock lock;
  let evs = !events in
  Mutex.unlock lock;
  (* restore insertion order as the tiebreak for equal timestamps *)
  let evs = List.rev evs in
  let evs = List.mapi (fun i e -> { e with e_seq = i }) evs in
  List.sort
    (fun a b ->
      match Float.compare a.e_ts b.e_ts with
      | 0 -> Int.compare a.e_seq b.e_seq
      | c -> c)
    evs

let event_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"name\":\"";
  Buffer.add_string buf (Metrics.json_escape e.e_name);
  Buffer.add_string buf "\",\"cat\":\"";
  Buffer.add_string buf (Metrics.json_escape e.e_cat);
  Buffer.add_string buf "\",\"ph\":\"X\",\"ts\":";
  Buffer.add_string buf (Printf.sprintf "%.3f" e.e_ts);
  Buffer.add_string buf ",\"dur\":";
  Buffer.add_string buf (Printf.sprintf "%.3f" e.e_dur);
  Buffer.add_string buf ",\"pid\":1,\"tid\":";
  Buffer.add_string buf (string_of_int e.e_tid);
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_trace_json () =
  let evs = sorted () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Buffer.add_string buf (event_json e))
    evs;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let aggregate () =
  let totals = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let key = (e.e_name, e.e_cat) in
      let n, t =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals key)
      in
      Hashtbl.replace totals key (n + 1, t +. e.e_dur))
    (sorted ());
  Hashtbl.fold (fun (name, cat) (n, t) acc -> (name, cat, n, t) :: acc) totals []
  |> List.sort compare
