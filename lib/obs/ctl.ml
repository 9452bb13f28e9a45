let enabled = ref false

let[@inline] on () = !enabled

let base = ref (Unix.gettimeofday ())

(* wall clock clamped to non-decreasing: exported span timestamps must be
   monotone (the CI trace validation asserts it), and gettimeofday may
   step under NTP *)
let last = ref 0.0

let now_s () =
  let t = Unix.gettimeofday () -. !base in
  if t > !last then begin
    last := t;
    t
  end
  else !last

let now_us () = now_s () *. 1e6

let time f =
  let t0 = now_s () in
  let x = f () in
  (x, now_s () -. t0)

let enable () =
  base := Unix.gettimeofday ();
  last := 0.0;
  enabled := true

let disable () = enabled := false
