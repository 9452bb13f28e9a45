(* Every arena parameter below carries this type: where the element kind
   is unknown at an access, the read compiles to a C call, not a load. *)
type arena = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* --- the one int sort ---------------------------------------------------- *)

(* Introsort: median-of-three quicksort down to short runs, finished by
   insertion sort, with a heapsort fallback past 2 log2 n levels so a
   hostile input cannot drive it quadratic. *)

let insertion (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let heapsort (a : int array) lo hi =
  let rec sift i n =
    let c = (2 * i) + 1 in
    if c < n then begin
      let c = if c + 1 < n && a.(lo + c + 1) > a.(lo + c) then c + 1 else c in
      if a.(lo + c) > a.(lo + i) then begin
        let x = a.(lo + i) in
        a.(lo + i) <- a.(lo + c);
        a.(lo + c) <- x;
        sift c n
      end
    end
  in
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for k = n - 1 downto 1 do
    let x = a.(lo) in
    a.(lo) <- a.(lo + k);
    a.(lo + k) <- x;
    sift 0 k
  done

let rec introsort (a : int array) lo hi depth =
  if hi - lo <= 16 then insertion a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi - 1) in
    let p =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    (* Hoare partition around the value [p], which the run holds *)
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    introsort a lo (!j + 1) (depth - 1);
    introsort a !i hi (depth - 1)
  end

let sort a n =
  if n > Array.length a then invalid_arg "Resolvent.sort: length past the array";
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  introsort a 0 n (2 * log2 n)

(* --- the accumulator ----------------------------------------------------- *)

(* Per-variable mark bits: [1] and [2] are the phases present in the
   running resolvent, [on_stack] says the variable is already on the
   touched stack (it stays set when the variable is resolved away, until
   [blit] drops the variable from the stack).  A literal is
   [var * 2 + sign] (Sat.Lit), decoded inline below: the step loops make
   no call per literal. *)
let on_stack = 4

type t = {
  mutable marks : Bytes.t;
  mutable touched : int array;  (* variables with a mark, in first-touch order *)
  mutable ntouched : int;
  mutable len : int;            (* literals in the running resolvent *)
  mutable merges : int;         (* merged literals, over every step *)
}

(* the marks start small: [reserve] grows them to each operand's largest
   variable, so no table is sized by a header's declared count *)
let create () =
  {
    marks = Bytes.make 64 '\000';
    touched = Array.make 64 0;
    ntouched = 0;
    len = 0;
    merges = 0;
  }

let length t = t.len
let merges t = t.merges

(* grow the marks to cover the operand's largest variable, its last
   literal's *)
let reserve t (arena : arena) off n =
  if n > 0 then begin
    let v = arena.{off + n - 1} lsr 1 in
    let cap = Bytes.length t.marks in
    if v >= cap then begin
      let marks = Bytes.make (max (v + 1) (2 * cap)) '\000' in
      Bytes.blit t.marks 0 marks 0 cap;
      t.marks <- marks
    end
  end

let push t v =
  if t.ntouched = Array.length t.touched then begin
    let a = Array.make (2 * t.ntouched) 0 in
    Array.blit t.touched 0 a 0 t.ntouched;
    t.touched <- a
  end;
  t.touched.(t.ntouched) <- v;
  t.ntouched <- t.ntouched + 1

let start t (arena : arena) off n =
  for i = 0 to t.ntouched - 1 do
    Bytes.set t.marks t.touched.(i) '\000'
  done;
  t.ntouched <- 0;
  t.len <- 0;
  reserve t arena off n;
  for i = off to off + n - 1 do
    let l = arena.{i} in
    let v = l lsr 1 and b = 1 lsl (l land 1) in
    let m = Char.code (Bytes.get t.marks v) in
    if m land b = 0 then begin
      if m = 0 then push t v;
      Bytes.set t.marks v (Char.unsafe_chr (m lor b lor on_stack));
      t.len <- t.len + 1
    end
  done

(* One walk of the touched stack: drop the variables resolved away
   (clearing their marks), write each live variable's phases, then swap
   the largest variable's literal to the end. *)
let blit t (dst : arena) off =
  let marks = t.marks and touched = t.touched in
  let live = ref 0 and k = ref off and top = ref (-1) and at = ref off in
  for i = 0 to t.ntouched - 1 do
    let v = touched.(i) in
    let m = Char.code (Bytes.get marks v) in
    if m land 3 = 0 then Bytes.set marks v '\000'
    else begin
      touched.(!live) <- v;
      incr live;
      if v > !top then begin
        top := v;
        at := !k
      end;
      if m land 1 <> 0 then begin
        dst.{!k} <- v lsl 1;
        incr k
      end;
      if m land 2 <> 0 then begin
        dst.{!k} <- (v lsl 1) lor 1;
        incr k
      end
    end
  done;
  t.ntouched <- !live;
  let last = !k - 1 in
  if last >= off then begin
    let l = dst.{!at} in
    dst.{!at} <- dst.{last};
    dst.{last} <- l
  end;
  !k - off

let to_array t =
  let buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout t.len in
  let n = blit t buf 0 in
  let a = Array.init n (fun i -> buf.{i}) in
  sort a n;
  a

(* a variable past the marks was never marked *)
let mem t v =
  v >= 0 && v < Bytes.length t.marks
  && Char.code (Bytes.unsafe_get t.marks v) land 3 <> 0

(* The slow path of a failed step: rebuild the diagnostic from sorted
   copies, the running resolvent when nothing clashes, else the clashing
   variables ascending. *)
let clash_failure t ~context ~c1_id ~c2_id (arena : arena) off n =
  let c2 = Array.init n (fun i -> arena.{off + i}) in
  sort c2 n;
  let vars =
    Array.fold_left
      (fun acc l ->
        let v = l lsr 1 in
        let clashes = Char.code (Bytes.get t.marks v) land (2 lsr (l land 1)) <> 0 in
        match acc with
        | u :: _ when u = v -> acc
        | _ -> if clashes then v :: acc else acc)
      [] c2
  in
  match List.rev vars with
  | [] ->
    Diagnostics.fail
      (Diagnostics.No_clash { context; c1_id; c2_id; c1 = to_array t; c2 })
  | vars -> Diagnostics.fail (Diagnostics.Multiple_clash { context; c1_id; c2_id; vars })

let step t ~context ~c1_id ~c2_id (arena : arena) off n =
  reserve t arena off n;
  let marks = t.marks in
  (* the clash walk: operand literals whose opposite phase is marked,
     counted when the variable differs from the last one counted.  One
     clashing variable counts once wherever its phases sit; a second
     makes the count at least 2. *)
  let pivot = ref 0 and clashes = ref 0 in
  for i = off to off + n - 1 do
    let l = arena.{i} in
    let v = l lsr 1 in
    if Char.code (Bytes.get marks v) land (2 lsr (l land 1)) <> 0 && v <> !pivot
    then begin
      pivot := v;
      incr clashes
    end
  done;
  if !clashes <> 1 then clash_failure t ~context ~c1_id ~c2_id arena off n;
  let pivot = !pivot in
  (* the merge walk: mark the operand's other literals in *)
  let merges = ref 0 in
  for i = off to off + n - 1 do
    let l = arena.{i} in
    let v = l lsr 1 in
    if v <> pivot then begin
      let m = Char.code (Bytes.get marks v) and b = 1 lsl (l land 1) in
      if m land b <> 0 then incr merges
      else begin
        if m = 0 then push t v;
        Bytes.set marks v (Char.unsafe_chr (m lor b lor on_stack));
        t.len <- t.len + 1
      end
    end
  done;
  let m = Char.code (Bytes.get marks pivot) in
  t.len <- t.len - (m land 1) - ((m lsr 1) land 1);
  Bytes.set marks pivot (Char.unsafe_chr on_stack);
  t.merges <- t.merges + !merges;
  pivot
