(* Wall-clock spans around the benchmark's calls into each layer.

   A span's self time is its duration minus the part covered by spans
   opened inside it; self times accumulate per layer name.  Spans nest, so
   summing the self times of a root span and everything under it gives the
   root's duration exactly — the ledger identity the traced run reports.

   [inject] adds busy work inside one layer's wrapper, to show that the
   ledger names the layer that moved. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9

type frame = { mutable covered : float }

type t = {
  self : (string, float) Hashtbl.t;
  total : (string, float) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
  mutable stack : frame list;
  mutable inject : (string * float) option;
}

let create () =
  {
    self = Hashtbl.create 16;
    total = Hashtbl.create 16;
    calls = Hashtbl.create 16;
    stack = [];
    inject = None;
  }

let reset t =
  Hashtbl.reset t.self;
  Hashtbl.reset t.total;
  Hashtbl.reset t.calls;
  t.stack <- []

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)
let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v)
let self t layer = get t.self layer
let total t layer = get t.total layer
let calls t layer = Option.value ~default:0 (Hashtbl.find_opt t.calls layer)

let spin seconds =
  let stop = now () +. seconds in
  while now () < stop do
    ()
  done

let span t layer f =
  let frame = { covered = 0. } in
  t.stack <- frame :: t.stack;
  let start = now () in
  let finish () =
    (match t.inject with
     | Some (l, s) when l = layer -> spin s
     | _ -> ());
    let d = now () -. start in
    t.stack <- List.tl t.stack;
    (match t.stack with
     | parent :: _ -> parent.covered <- parent.covered +. d
     | [] -> ());
    add t.total layer d;
    add t.self layer (d -. frame.covered);
    Hashtbl.replace t.calls layer (calls t layer + 1)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e
