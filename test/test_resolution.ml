(* Tests for the shared resolution kernel's sorted-merge resolution and
   the arena-backed clause store beneath it, including agreement with the
   reference Clause.resolve. *)

let kernel () = Proof.Kernel.create (Sat.Cnf.create 64)

let resolve k c1 c2 =
  Proof.Kernel.resolve_lits k ~context:"test" ~c1_id:1 ~c2_id:2 c1 c2

let sorted c = List.sort Int.compare (Sat.Clause.to_ints c)

let test_basic () =
  let k = kernel () in
  let r, pivot =
    resolve k (Sat.Clause.of_ints [ 1; 2 ]) (Sat.Clause.of_ints [ -2; 3 ])
  in
  Alcotest.check Alcotest.int "pivot" 2 pivot;
  Alcotest.check (Alcotest.list Alcotest.int) "resolvent" [ 1; 3 ] (sorted r)

let test_dedup () =
  let k = kernel () in
  let r, _ =
    resolve k (Sat.Clause.of_ints [ 1; 3; 5 ]) (Sat.Clause.of_ints [ -1; 3; 5 ])
  in
  Alcotest.check (Alcotest.list Alcotest.int) "shared literals once"
    [ 3; 5 ] (sorted r)

let test_empty_resolvent () =
  let k = kernel () in
  let r, _ = resolve k (Sat.Clause.of_ints [ 9 ]) (Sat.Clause.of_ints [ -9 ]) in
  Alcotest.check Alcotest.int "empty" 0 (Array.length r)

let expect_failure f pred name =
  try
    ignore (f ());
    Alcotest.failf "%s: no failure raised" name
  with Proof.Diagnostics.Check_failed d ->
    if not (pred d) then
      Alcotest.failf "%s: wrong diagnostic %s" name
        (Proof.Diagnostics.to_string d)

let test_no_clash () =
  let k = kernel () in
  expect_failure
    (fun () -> resolve k (Sat.Clause.of_ints [ 1; 2 ]) (Sat.Clause.of_ints [ 2; 3 ]))
    (function Proof.Diagnostics.No_clash _ -> true | _ -> false)
    "no clash"

let test_multiple_clash () =
  let k = kernel () in
  expect_failure
    (fun () ->
      resolve k (Sat.Clause.of_ints [ 1; 2; 5 ]) (Sat.Clause.of_ints [ -1; -2 ]))
    (function
      | Proof.Diagnostics.Multiple_clash m -> m.vars = [ 1; 2 ]
      | _ -> false)
    "multiple clash"

let test_kernel_reuse () =
  (* scratch state from earlier rounds must not leak *)
  let k = kernel () in
  ignore (resolve k (Sat.Clause.of_ints [ 1; 2 ]) (Sat.Clause.of_ints [ -2; 3 ]));
  let r, _ =
    resolve k (Sat.Clause.of_ints [ 4; 5 ]) (Sat.Clause.of_ints [ -5; 6 ])
  in
  Alcotest.check (Alcotest.list Alcotest.int) "second round clean" [ 4; 6 ]
    (sorted r)

(* chain over pre-allocated store clauses, watching the step counter *)
let chain_over k clauses ids ~learned_id =
  let db = Proof.Kernel.db k in
  let handles =
    Array.map (fun c -> Proof.Clause_db.alloc db c) clauses
  in
  let before = Proof.Kernel.resolution_steps k in
  let h =
    Proof.Kernel.chain_ids k ~context:"test"
      ~fetch:(fun i -> handles.(i))
      ~learned_id ids
  in
  (Proof.Clause_db.lits db h, Proof.Kernel.resolution_steps k - before)

let test_chain_single () =
  let k = kernel () in
  let c, steps =
    chain_over k [| [||]; Sat.Clause.of_ints [ 1; 2 ] |] [| 1 |] ~learned_id:9
  in
  Alcotest.check Alcotest.int "no steps" 0 steps;
  Alcotest.check (Alcotest.list Alcotest.int) "clause itself" [ 1; 2 ] (sorted c)

let test_chain_sequence () =
  (* (1 2)(−2 3)(−3 4) chains to (1 4) in two steps *)
  let k = kernel () in
  let c, steps =
    chain_over k
      [| [||]; Sat.Clause.of_ints [ 1; 2 ]; Sat.Clause.of_ints [ -2; 3 ];
         Sat.Clause.of_ints [ -3; 4 ] |]
      [| 1; 2; 3 |] ~learned_id:9
  in
  Alcotest.check Alcotest.int "two steps" 2 steps;
  Alcotest.check (Alcotest.list Alcotest.int) "chained resolvent" [ 1; 4 ]
    (sorted c)

let test_chain_empty_sources () =
  let k = kernel () in
  expect_failure
    (fun () ->
      Proof.Kernel.chain_ids k ~context:"test"
        ~fetch:(fun _ -> Alcotest.fail "unexpected fetch")
        ~learned_id:7 [||])
    (function Proof.Diagnostics.Empty_source_list 7 -> true | _ -> false)
    "empty sources"

(* --- the clause store ---------------------------------------------------- *)

let test_db_sorts_and_dedups () =
  let db = Proof.Clause_db.create () in
  let h = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 3; -1; 3; 2; -1 ]) in
  Alcotest.check (Alcotest.list Alcotest.int) "sorted, duplicate-free"
    [ -1; 2; 3 ]
    (sorted (Proof.Clause_db.lits db h));
  (* both phases of a variable are distinct literals and are kept *)
  let t = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 1; -1 ]) in
  Alcotest.check Alcotest.int "tautology keeps both phases" 2
    (Proof.Clause_db.size db t)

let test_db_refcount_and_reuse () =
  let db = Proof.Clause_db.create () in
  let h = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 1; 2; 3 ]) in
  Proof.Clause_db.retain db h;
  Alcotest.check Alcotest.int "refcount after retain" 2
    (Proof.Clause_db.refcount db h);
  Proof.Clause_db.release db h;
  Alcotest.check Alcotest.int "still live" 1 (Proof.Clause_db.live_clauses db);
  Proof.Clause_db.release db h;
  Alcotest.check Alcotest.int "drained" 0 (Proof.Clause_db.live_clauses db);
  (* a same-capacity allocation reuses the freed slot *)
  let h' = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 4; 5; 6 ]) in
  Alcotest.check Alcotest.int "slot recycled" h h';
  Alcotest.check Alcotest.int "peak live" 1 (Proof.Clause_db.peak_live_clauses db)

let test_db_meter_accounting () =
  let db = Proof.Clause_db.create () in
  let h = Proof.Clause_db.alloc db (Sat.Clause.of_ints [ 1; 2 ]) in
  (* historical checker rate: literals + 3 words *)
  Alcotest.check Alcotest.int "charged" 5 (Proof.Clause_db.mem_words db);
  Proof.Clause_db.release db h;
  Alcotest.check Alcotest.int "credited" 0 (Proof.Clause_db.mem_words db);
  Alcotest.check Alcotest.int "peak" 5 (Proof.Clause_db.peak_mem_words db)

let test_db_grows () =
  let db = Proof.Clause_db.create () in
  (* push well past the initial arena capacity *)
  let handles =
    List.init 500 (fun i ->
        Proof.Clause_db.alloc db (Sat.Clause.of_ints [ i + 1; -(i + 2); i + 3 ]))
  in
  List.iteri
    (fun i h ->
      Alcotest.check (Alcotest.list Alcotest.int)
        (Printf.sprintf "clause %d intact" i)
        (List.sort Int.compare [ i + 1; -(i + 2); i + 3 ])
        (sorted (Proof.Clause_db.lits db h)))
    handles

(* agreement with the reference implementation on random valid pairs *)
let prop_matches_reference =
  Helpers.qtest ~count:300 "kernel = Clause.resolve"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sat.Rng.create seed in
      let nvars = 10 in
      let v = 1 + Sat.Rng.int rng nvars in
      let lits_without exclude n =
        List.init n (fun _ ->
            let u = ref v in
            while List.mem !u exclude do
              u := 1 + Sat.Rng.int rng nvars
            done;
            Sat.Lit.make !u (Sat.Rng.bool rng))
      in
      let c1 =
        Sat.Clause.of_lits (Sat.Lit.pos v :: lits_without [ v ] (Sat.Rng.int rng 5))
      in
      let c2 =
        Sat.Clause.of_lits (Sat.Lit.neg v :: lits_without [ v ] (Sat.Rng.int rng 5))
      in
      match Sat.Clause.clashing_vars c1 c2 with
      | [ u ] when u = v ->
        let reference = Sat.Clause.resolve c1 c2 v in
        let k = Proof.Kernel.create (Sat.Cnf.create nvars) in
        let r, pivot =
          Proof.Kernel.resolve_lits k ~context:"qc" ~c1_id:1 ~c2_id:2 c1 c2
        in
        pivot = v && sorted r = sorted reference
      | _ -> QCheck.assume_fail ())

let suite =
  [
    ( "resolution-kernel",
      [
        Alcotest.test_case "basic" `Quick test_basic;
        Alcotest.test_case "dedup" `Quick test_dedup;
        Alcotest.test_case "empty resolvent" `Quick test_empty_resolvent;
        Alcotest.test_case "no clash" `Quick test_no_clash;
        Alcotest.test_case "multiple clash" `Quick test_multiple_clash;
        Alcotest.test_case "kernel reuse" `Quick test_kernel_reuse;
        Alcotest.test_case "chain single" `Quick test_chain_single;
        Alcotest.test_case "chain sequence" `Quick test_chain_sequence;
        Alcotest.test_case "chain empty" `Quick test_chain_empty_sources;
        Alcotest.test_case "db sorts and dedups" `Quick test_db_sorts_and_dedups;
        Alcotest.test_case "db refcount and reuse" `Quick
          test_db_refcount_and_reuse;
        Alcotest.test_case "db meter accounting" `Quick test_db_meter_accounting;
        Alcotest.test_case "db arena growth" `Quick test_db_grows;
        prop_matches_reference;
      ] );
  ]
