type t = {
  score : float array;
  heap : int array;              (* heap.(i) = variable at heap slot i *)
  mutable size : int;
  indices : int array;           (* indices.(v) = slot of v, or -1 *)
}

let create n ~score =
  { score; heap = Array.make n 0; size = 0; indices = Array.make (n + 1) (-1) }

let size h = h.size
let is_empty h = h.size = 0
let mem h v = h.indices.(v) >= 0

let swap h i j =
  let vi = h.heap.(i) and vj = h.heap.(j) in
  h.heap.(i) <- vj;
  h.heap.(j) <- vi;
  h.indices.(vi) <- j;
  h.indices.(vj) <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.score.(h.heap.(i)) > h.score.(h.heap.(parent)) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = h.size in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < n && h.score.(h.heap.(l)) > h.score.(h.heap.(!best)) then best := l;
  if r < n && h.score.(h.heap.(r)) > h.score.(h.heap.(!best)) then best := r;
  if !best <> i then begin
    swap h i !best;
    sift_down h !best
  end

let insert h v =
  if not (mem h v) then begin
    h.heap.(h.size) <- v;
    h.indices.(v) <- h.size;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)
  end

let pop_max h =
  if is_empty h then raise Not_found;
  let top = h.heap.(0) in
  swap h 0 (h.size - 1);
  h.size <- h.size - 1;
  h.indices.(top) <- -1;
  if not (is_empty h) then sift_down h 0;
  top

let update h v =
  let i = h.indices.(v) in
  if i >= 0 then begin
    sift_up h i;
    sift_down h h.indices.(v)
  end
