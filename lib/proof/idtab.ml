type range = { mutable limit : int }

let range limit = { limit }
let widen r k = r.limit <- r.limit + k

(* The dense part: [vals.(id)] is [id]'s value where [present] holds a
   nonzero byte.  Every bound id in [1, Array.length vals) is dense, never
   in the overflow.  Slot 0 is never a key (zero lives in the overflow):
   it holds the filler that unbound slots point at, the first value the
   dense part stored, so the caller owes no dummy value. *)
type 'a t = {
  range : range;
  mutable vals : 'a array;
  mutable present : Bytes.t;
  overflow : (int, 'a) Hashtbl.t;
}

let overflowed = Atomic.make 0
let overflow_stores () = Atomic.get overflowed

let create range =
  { range; vals = [||]; present = Bytes.empty; overflow = Hashtbl.create 8 }

let capacity t = Array.length t.vals

let find t id =
  if id > 0 && id < Array.length t.vals then
    if Bytes.unsafe_get t.present id <> '\000' then Array.unsafe_get t.vals id
    else raise_notrace Not_found
  else Hashtbl.find t.overflow id

let find_opt t id =
  match find t id with v -> Some v | exception Not_found -> None

let mem t id =
  if id > 0 && id < Array.length t.vals then
    Bytes.unsafe_get t.present id <> '\000'
  else Hashtbl.mem t.overflow id

let set_dense t id v =
  Bytes.unsafe_set t.present id '\001';
  Array.unsafe_set t.vals id v

(* Cover [id], which the range allows, doubling past it when the range
   allows that too; overflow bindings for ids the dense part now covers
   move in. *)
let grow t id v =
  let cap = Array.length t.vals in
  let cap' = 1 + min t.range.limit (max id (max 15 ((2 * cap) - 1))) in
  let vals = Array.make cap' (if cap = 0 then v else t.vals.(0)) in
  Array.blit t.vals 0 vals 0 cap;
  let present = Bytes.make cap' '\000' in
  Bytes.blit t.present 0 present 0 cap;
  t.vals <- vals;
  t.present <- present;
  if Hashtbl.length t.overflow > 0 then begin
    let lo = max 1 cap in
    let moved =
      Hashtbl.fold
        (fun k x acc -> if k >= lo && k < cap' then (k, x) :: acc else acc)
        t.overflow []
    in
    List.iter
      (fun (k, x) ->
        Hashtbl.remove t.overflow k;
        set_dense t k x)
      moved
  end

let replace t id v =
  if id > 0 && id >= Array.length t.vals && id <= t.range.limit then
    grow t id v;
  if id > 0 && id < Array.length t.vals then set_dense t id v
  else begin
    Atomic.incr overflowed;
    Hashtbl.replace t.overflow id v
  end

let remove t id =
  if id > 0 && id < Array.length t.vals then begin
    Bytes.unsafe_set t.present id '\000';
    (* drop the reference, so a removed value can be collected *)
    Array.unsafe_set t.vals id (Array.unsafe_get t.vals 0)
  end
  else Hashtbl.remove t.overflow id

(* Overflow ids are below 1 or past the dense part, so the three runs
   concatenate in order. *)
let keys t =
  let low, high =
    Hashtbl.fold
      (fun k _ (lo, hi) -> if k < 1 then (k :: lo, hi) else (lo, k :: hi))
      t.overflow ([], [])
  in
  let acc = ref (List.sort Int.compare high) in
  for id = Array.length t.vals - 1 downto 1 do
    if Bytes.unsafe_get t.present id <> '\000' then acc := id :: !acc
  done;
  List.sort Int.compare low @ !acc
