(* Tests for the VSIDS variable-order heap. *)

let test_pop_order () =
  let score = [| 0.0; 5.0; 1.0; 9.0; 3.0 |] in
  let h = Solver.Heap.create 4 ~score in
  List.iter (Solver.Heap.insert h) [ 1; 2; 3; 4 ];
  Alcotest.check Alcotest.int "max first" 3 (Solver.Heap.pop_max h);
  Alcotest.check Alcotest.int "then 1" 1 (Solver.Heap.pop_max h);
  Alcotest.check Alcotest.int "then 4" 4 (Solver.Heap.pop_max h);
  Alcotest.check Alcotest.int "then 2" 2 (Solver.Heap.pop_max h);
  Alcotest.check Alcotest.bool "now empty" true (Solver.Heap.is_empty h)

let test_duplicate_insert () =
  let h = Solver.Heap.create 3 ~score:(Array.init 4 float_of_int) in
  Solver.Heap.insert h 2;
  Solver.Heap.insert h 2;
  Alcotest.check Alcotest.int "no duplicates" 1 (Solver.Heap.size h);
  Alcotest.check Alcotest.bool "mem" true (Solver.Heap.mem h 2);
  Alcotest.check Alcotest.bool "not mem" false (Solver.Heap.mem h 1)

let test_update_after_bump () =
  let score = Array.make 6 0.0 in
  let h = Solver.Heap.create 5 ~score in
  for v = 1 to 5 do
    score.(v) <- float_of_int v;
    Solver.Heap.insert h v
  done;
  (* bump variable 2 above everything and notify the heap *)
  score.(2) <- 100.0;
  Solver.Heap.update h 2;
  Alcotest.check Alcotest.int "bumped var pops first" 2 (Solver.Heap.pop_max h);
  (* lower variable 5 below everything *)
  score.(5) <- -1.0;
  Solver.Heap.update h 5;
  Alcotest.check Alcotest.int "next is 4" 4 (Solver.Heap.pop_max h);
  Alcotest.check Alcotest.int "then 3" 3 (Solver.Heap.pop_max h);
  Alcotest.check Alcotest.int "then 1" 1 (Solver.Heap.pop_max h);
  Alcotest.check Alcotest.int "then demoted 5" 5 (Solver.Heap.pop_max h)

let test_pop_empty_raises () =
  let h = Solver.Heap.create 2 ~score:(Array.make 3 0.0) in
  Alcotest.check_raises "pop on empty" Not_found (fun () ->
      ignore (Solver.Heap.pop_max h))

(* heap sort = List.sort on random scores *)
let prop_heap_sort =
  Helpers.qtest ~count:200 "pop_max yields descending scores"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sat.Rng.create seed in
      let n = 1 + Sat.Rng.int rng 40 in
      let score = Array.init (n + 1) (fun _ -> Sat.Rng.float rng) in
      let h = Solver.Heap.create n ~score in
      for v = 1 to n do
        Solver.Heap.insert h v
      done;
      let out = ref [] in
      while not (Solver.Heap.is_empty h) do
        out := Solver.Heap.pop_max h :: !out
      done;
      let ascending = List.map (fun v -> score.(v)) !out in
      List.sort Float.compare ascending = ascending)

let suite =
  [
    ( "heap",
      [
        Alcotest.test_case "pop order" `Quick test_pop_order;
        Alcotest.test_case "duplicate insert" `Quick test_duplicate_insert;
        Alcotest.test_case "update after bump" `Quick test_update_after_bump;
        Alcotest.test_case "pop empty raises" `Quick test_pop_empty_raises;
        prop_heap_sort;
      ] );
  ]
