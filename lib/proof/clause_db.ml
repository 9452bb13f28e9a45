type handle = int

exception Use_after_free of handle
exception Refcount_underflow of handle
exception Out_of_memory_simulated of { limit_words : int; wanted : int }

(* Debug guards: when enabled, API entry points verify the handle still
   holds a reference, and releasing past zero raises instead of silently
   corrupting the freelist.  One flag read per clause-level operation (the
   per-literal [lit] accessor stays unguarded — it sits in the resolution
   kernel's innermost loop). *)
let debug = ref false
let set_debug b = debug := b
let debug_enabled () = !debug

type arena =
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Per-clause layout at offset [h]:
     arena.{h}     length (also the slot's capacity)
     arena.{h+1}   reference count
     arena.{h+2..} duplicate-free packed literals, the largest variable's
                   last
   The simulated account is charged [len + clause_overhead] words per
   clause — the accounting the individual checkers used before the
   shared store, kept so the simulated-memory experiments stay
   comparable. *)
let header_words = 2
let clause_overhead = 3

type t = {
  mutable arena : arena;
  mutable top : int;                    (* bump pointer *)
  mutable freelist : int list array;    (* capacity -> free offsets *)
  limit : int;                          (* simulated budget; max_int: none *)
  mutable mem : int;                    (* simulated words charged *)
  mutable peak_mem : int;
  mutable live : int;
  mutable peak_live : int;
  mutable allocated : int;
  mutable resident : int;               (* live arena words *)
  mutable peak_resident : int;
}

let make_arena n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* Virtual address space is cheap on 64-bit hosts: one large reservation
   up front makes growth-by-relocation (a full copy of the arena) a cold
   path instead of a steady doubling.  The pages are untouched until the
   bump pointer reaches them, so the reservation costs address space, not
   RSS; under a tight [ulimit -v] the allocation itself can fail, in which
   case the reservation halves until it fits (the doubling grower then
   covers the rest). *)
let default_reserve_words = 1 lsl 23 (* 8 Mi words = 64 MiB *)

let min_reserve_words = 1024

let m_reserved =
  Obs.Metrics.gauge Obs.Metrics.global "arena.reserved_bytes"

let note_reserved words =
  if Obs.Ctl.on () then
    Obs.Metrics.Gauge.set m_reserved (float_of_int (8 * words))

let rec reserve_arena words =
  if words <= min_reserve_words then make_arena min_reserve_words
  else
    match make_arena words with
    | arena -> arena
    | exception Out_of_memory ->
      if Obs.Journal.on () then
        Obs.Journal.record ~sub:"arena" "reserve_fallback"
          [ ("wanted_words", words); ("retry_words", words / 2) ];
      reserve_arena (words / 2)

let create ?mem_limit ?(reserve = default_reserve_words) () =
  let limit = Option.value mem_limit ~default:max_int in
  if limit < 1 then invalid_arg "Clause_db.create: mem_limit must be >= 1";
  let arena = reserve_arena (max min_reserve_words reserve) in
  note_reserved (Bigarray.Array1.dim arena);
  {
    arena;
    top = 0;
    freelist = Array.make 64 [];
    limit;
    mem = 0;
    peak_mem = 0;
    live = 0;
    peak_live = 0;
    allocated = 0;
    resident = 0;
    peak_resident = 0;
  }

let charge db words =
  let next = db.mem + words in
  if next > db.limit then
    raise (Out_of_memory_simulated { limit_words = db.limit; wanted = next });
  db.mem <- next;
  if next > db.peak_mem then db.peak_mem <- next

(* an int test, not [Stdlib.max]: that one is polymorphic, a C call on
   every resolution step through [unbook] *)
let credit db words =
  let next = db.mem - words in
  db.mem <- (if next < 0 then 0 else next)

let mem_words db = db.mem
let peak_mem_words db = db.peak_mem

let reserved_words db = Bigarray.Array1.dim db.arena

let ensure_capacity db words =
  let cap = Bigarray.Array1.dim db.arena in
  if db.top + words > cap then begin
    let cap' = ref (cap * 2) in
    while db.top + words > !cap' do
      cap' := !cap' * 2
    done;
    let arena' = make_arena !cap' in
    Bigarray.Array1.blit db.arena (Bigarray.Array1.sub arena' 0 cap);
    db.arena <- arena';
    if Obs.Journal.on () then
      Obs.Journal.record ~sub:"arena" "grow"
        [ ("from_words", cap); ("to_words", !cap') ];
    (* the gauge tracks the current reservation, not a running sum — a
       relocation replaces the old region rather than adding to it *)
    note_reserved !cap'
  end

let slot db n =
  match if n < Array.length db.freelist then db.freelist.(n) else [] with
  | h :: rest ->
    db.freelist.(n) <- rest;
    h
  | [] ->
    ensure_capacity db (header_words + n);
    let h = db.top in
    db.top <- db.top + header_words + n;
    h

(* A clause's account, apart from its arena slot: all an intermediate
   chain resolvent ever takes from the store. *)
let book db n =
  (* the account may refuse (simulated memory-out) — charge it first so
     a refused clause leaves the store untouched *)
  charge db (n + clause_overhead);
  db.live <- db.live + 1;
  if db.live > db.peak_live then db.peak_live <- db.live;
  db.allocated <- db.allocated + 1;
  db.resident <- db.resident + header_words + n;
  if db.resident > db.peak_resident then db.peak_resident <- db.resident

let unbook db n =
  credit db (n + clause_overhead);
  db.live <- db.live - 1;
  db.resident <- db.resident - (header_words + n)

(* a chain's next intermediate, booked before the one it replaces is
   taken off, as an allocation before a release *)
let rebook db ~prev n =
  book db n;
  if prev >= 0 then unbook db prev

let alloc_slot db n =
  book db n;
  let h = slot db n in
  db.arena.{h} <- n;
  db.arena.{h + 1} <- 1;
  h

let alloc db c =
  let n = Array.length c in
  let buf = Array.make n 0 in
  Array.blit c 0 buf 0 n;
  Resolvent.sort buf n;
  (* drop exact duplicates in place; both phases of a variable are
     distinct packed ints and are kept *)
  let k = ref 0 in
  for i = 0 to n - 1 do
    if !k = 0 || buf.(!k - 1) <> buf.(i) then begin
      buf.(!k) <- buf.(i);
      incr k
    end
  done;
  let h = alloc_slot db !k in
  for i = 0 to !k - 1 do
    db.arena.{h + header_words + i} <- buf.(i)
  done;
  h

let check_live db h =
  if !debug && db.arena.{h + 1} <= 0 then raise (Use_after_free h)

let size db h =
  check_live db h;
  db.arena.{h}

let lit db h i : Sat.Lit.t = db.arena.{h + header_words + i}

let lits db h =
  let n = size db h in
  let a = Array.init n (fun i -> lit db h i) in
  Resolvent.sort a n;
  a

let arena db = db.arena
let offset h = h + header_words

let refcount db h = db.arena.{h + 1}

let retain db h =
  check_live db h;
  db.arena.{h + 1} <- db.arena.{h + 1} + 1

let release db h =
  if !debug && db.arena.{h + 1} <= 0 then raise (Refcount_underflow h);
  let rc = db.arena.{h + 1} - 1 in
  db.arena.{h + 1} <- rc;
  if rc <= 0 then begin
    let n = db.arena.{h} in
    unbook db n;
    (* a slot's capacity is below the bump pointer, so the freelist
       array is bounded by the arena *)
    let len = Array.length db.freelist in
    if n >= len then begin
      let a = Array.make (max (n + 1) (2 * len)) [] in
      Array.blit db.freelist 0 a 0 len;
      db.freelist <- a
    end;
    db.freelist.(n) <- h :: db.freelist.(n)
  end

let live_clauses db = db.live
let peak_live_clauses db = db.peak_live
let clauses_allocated db = db.allocated
let live_words db = db.resident
let peak_words db = db.peak_resident
