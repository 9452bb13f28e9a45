(* Clause_db lifetime guards and the freelist path: releasing the last
   reference must recycle the slot, and in debug mode any touch of a dead
   handle must raise instead of silently reading recycled memory.  Also
   the store's simulated memory account: rate, peak, limit and floor. *)

module Db = Proof.Clause_db

let with_debug f =
  let was = Db.debug_enabled () in
  Db.set_debug true;
  Fun.protect ~finally:(fun () -> Db.set_debug was) f

let c ints = Sat.Clause.of_ints ints

let test_freelist_reuse () =
  let db = Db.create () in
  let h1 = Db.alloc db (c [ 1; -2; 3 ]) in
  Alcotest.check Alcotest.int "live" 1 (Db.live_clauses db);
  Db.release db h1;
  Alcotest.check Alcotest.int "live after release" 0 (Db.live_clauses db);
  (* same size bin: the freed slot must be recycled, not fresh arena *)
  let h2 = Db.alloc db (c [ 4; 5; -6 ]) in
  Alcotest.check Alcotest.int "slot reused" h1 h2;
  Alcotest.check Alcotest.int "size" 3 (Db.size db h2);
  let got = Array.to_list (Array.map Sat.Lit.to_int (Db.lits db h2)) in
  Alcotest.(check (list int)) "reused slot holds new clause"
    (List.sort compare [ 4; 5; -6 ])
    (List.sort compare got)

let test_use_after_free () =
  with_debug (fun () ->
      let db = Db.create () in
      let h = Db.alloc db (c [ 1; 2 ]) in
      Db.release db h;
      Alcotest.check_raises "size on dead handle" (Db.Use_after_free h)
        (fun () -> ignore (Db.size db h));
      Alcotest.check_raises "retain on dead handle" (Db.Use_after_free h)
        (fun () -> Db.retain db h))

let test_refcount_underflow () =
  with_debug (fun () ->
      let db = Db.create () in
      let h = Db.alloc db (c [ 1; 2; 3 ]) in
      Db.release db h;
      Alcotest.check_raises "double release" (Db.Refcount_underflow h)
        (fun () -> Db.release db h))

let test_retain_release_balance () =
  with_debug (fun () ->
      let db = Db.create () in
      let h = Db.alloc db (c [ 1; -2 ]) in
      Db.retain db h;
      Db.release db h;
      (* one reference left: still live and readable *)
      Alcotest.check Alcotest.int "still live" 2 (Db.size db h);
      Db.release db h;
      Alcotest.check_raises "now dead" (Db.Use_after_free h) (fun () ->
          ignore (Db.size db h)))

(* --- the reserved region ------------------------------------------------ *)

let ints db h = Array.to_list (Array.map Sat.Lit.to_int (Db.lits db h))

let test_reservation () =
  let db = Db.create ~reserve:4096 () in
  Alcotest.check Alcotest.bool "reservation honours the request" true
    (Db.reserved_words db >= 4096);
  let h = Db.alloc db (c [ 1; -2; 3 ]) in
  Alcotest.(check (list int)) "clause reads back" [ 1; -2; 3 ] (ints db h)

(* Outgrowing the reservation relocates the arena: every clause must
   read back unchanged from the new region. *)
let test_relocation_keeps_contents () =
  let db = Db.create ~reserve:1024 () in
  let h = Db.alloc db (c [ 7; -8 ]) in
  let before = ints db h in
  let keep = ref [] in
  for i = 1 to 500 do
    keep := Db.alloc db (c [ (3 * i) + 10; -((3 * i) + 11); (3 * i) + 12 ]) :: !keep
  done;
  Alcotest.check Alcotest.bool "arena grew past the tiny reservation" true
    (Db.reserved_words db > 1024);
  Alcotest.(check (list int)) "contents survive relocation" before (ints db h)

(* --- the simulated memory account -------------------------------------- *)

let test_account () =
  let db = Db.create () in
  Db.charge db 100;
  Db.charge db 50;
  Alcotest.check Alcotest.int "live" 150 (Db.mem_words db);
  Alcotest.check Alcotest.int "peak" 150 (Db.peak_mem_words db);
  Db.credit db 120;
  Alcotest.check Alcotest.int "live after credit" 30 (Db.mem_words db);
  Alcotest.check Alcotest.int "peak sticky" 150 (Db.peak_mem_words db);
  Db.charge db 10;
  Alcotest.check Alcotest.int "peak unchanged below high-water" 150
    (Db.peak_mem_words db)

let test_account_limit () =
  let db = Db.create ~mem_limit:100 () in
  Db.charge db 90;
  (match Db.charge db 20 with
   | () -> Alcotest.fail "limit not enforced"
   | exception Db.Out_of_memory_simulated e ->
     Alcotest.check Alcotest.int "limit reported" 100 e.limit_words;
     Alcotest.check Alcotest.int "wanted reported" 110 e.wanted);
  Alcotest.check Alcotest.int "refused charge not booked" 90
    (Db.mem_words db);
  Db.charge db 10;
  Alcotest.check Alcotest.int "the limit itself fits" 100 (Db.mem_words db)

let test_account_credit_floor () =
  let db = Db.create () in
  Db.charge db 5;
  Db.credit db 50;
  Alcotest.check Alcotest.int "never negative" 0 (Db.mem_words db)

(* the store charges before it touches the arena, so a refused clause
   leaves every counter where it was *)
let test_refused_alloc () =
  let db = Db.create ~mem_limit:10 () in
  ignore (Db.alloc db (c [ 1; 2; 3 ]));
  let live = Db.live_clauses db and words = Db.live_words db in
  let allocated = Db.clauses_allocated db in
  (match Db.alloc db (c [ 4; 5; 6; 7 ]) with
   | _ -> Alcotest.fail "over-budget clause stored"
   | exception Db.Out_of_memory_simulated e ->
     Alcotest.check Alcotest.int "wanted" 13 e.wanted);
  Alcotest.check Alcotest.int "live clauses" live (Db.live_clauses db);
  Alcotest.check Alcotest.int "resident words" words (Db.live_words db);
  Alcotest.check Alcotest.int "allocated" allocated (Db.clauses_allocated db);
  Alcotest.check Alcotest.int "account" 6 (Db.mem_words db)

let test_limit_validated () =
  List.iter
    (fun limit ->
      match Db.create ~mem_limit:limit () with
      | _ -> Alcotest.failf "mem_limit %d accepted" limit
      | exception Invalid_argument _ -> ())
    [ 0; -5 ]

let suite =
  [
    ( "clause_db account",
      [
        Alcotest.test_case "accounting and sticky peak" `Quick test_account;
        Alcotest.test_case "limit reporting" `Quick test_account_limit;
        Alcotest.test_case "credit floor" `Quick test_account_credit_floor;
        Alcotest.test_case "refused alloc leaves store" `Quick
          test_refused_alloc;
        Alcotest.test_case "limit below 1 rejected" `Quick test_limit_validated;
      ] );
    ( "clause_db debug guards",
      [
        Alcotest.test_case "freelist reuses released slot" `Quick
          test_freelist_reuse;
        Alcotest.test_case "use-after-free raises in debug mode" `Quick
          test_use_after_free;
        Alcotest.test_case "refcount underflow raises in debug mode" `Quick
          test_refcount_underflow;
        Alcotest.test_case "retain/release balance" `Quick
          test_retain_release_balance;
        Alcotest.test_case "reservation honoured" `Quick test_reservation;
        Alcotest.test_case "relocation keeps contents" `Quick
          test_relocation_keeps_contents;
      ] );
  ]
