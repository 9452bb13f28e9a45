(* Tests for the shared resolution kernel's checked resolution step and
   the arena-backed clause store beneath it, including agreement with the
   reference Clause.resolve. *)

let kernel () = Proof.Kernel.create (Sat.Cnf.create 64)

(* one checked step: the two-source chain [c1; c2], its resolvent and
   pivot *)
let resolve k c1 c2 =
  let db = Proof.Kernel.db k in
  let hs = [| Proof.Clause_db.alloc db c1; Proof.Clause_db.alloc db c2 |] in
  let h, pivot =
    Proof.Kernel.chain k ~context:"test"
      ~fetch:(fun id -> (hs.(id - 1), -1))
      ~combine:(fun ~pivot _ _ -> pivot)
      ~learned_id:3 [| 1; 2 |]
  in
  let r = Proof.Clause_db.lits db h in
  Array.iter (Proof.Clause_db.release db) [| h; hs.(0); hs.(1) |];
  (r, pivot)

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

(* --- chains against the pairwise reference -------------------------------- *)

(* The store's view of a clause: sorted, duplicate-free, both phases kept. *)
let stored c = Array.of_list (List.sort_uniq Int.compare (Array.to_list c))

(* What folding [Sat.Clause.resolve] over [sources] gives: the resolvent,
   the pivots, the merged-literal count of the successful steps, and the
   diagnostic of the first bad step, if any. *)
let reference_chain ~context ~learned_id ids sources =
  let cur = ref (stored sources.(0)) in
  let pivots = ref [] and merges = ref 0 and steps = ref 0 in
  let failure = ref None in
  let i = ref 1 in
  while !failure = None && !i < Array.length sources do
    let c2 = stored sources.(!i) in
    let c1_id = if !i = 1 then ids.(0) else learned_id and c2_id = ids.(!i) in
    (match Sat.Clause.clashing_vars !cur c2 with
     | [ v ] ->
       Array.iter
         (fun l -> if Sat.Lit.var l <> v && Sat.Clause.mem l !cur then incr merges)
         c2;
       cur := Sat.Clause.resolve !cur c2 v;
       pivots := v :: !pivots;
       incr steps
     | [] ->
       failure :=
         Some (Proof.Diagnostics.No_clash { context; c1_id; c2_id; c1 = !cur; c2 })
     | vars ->
       failure :=
         Some (Proof.Diagnostics.Multiple_clash { context; c1_id; c2_id; vars }));
    incr i
  done;
  (!cur, List.rev !pivots, !steps, !merges, !failure)

(* A random chain over at most 64 variables: mostly valid steps (the new
   source clashes on one literal of the running resolvent), some with
   merged literals, duplicate literals or both phases of a fresh
   variable, and now and then a random source that is likely invalid. *)
let random_chain rng =
  let nvars = 4 + Sat.Rng.int rng 61 in
  let lit () = Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng) in
  let len = 2 + Sat.Rng.int rng 39 in
  let first = Array.init (1 + Sat.Rng.int rng 6) (fun _ -> lit ()) in
  let cur = ref (stored first) in
  let next () =
    let cl = !cur in
    if Array.length cl = 0 || Sat.Rng.int rng 40 = 0 then
      Array.init (Sat.Rng.int rng 5) (fun _ -> lit ())
    else begin
      let pivot = Sat.Lit.negate cl.(Sat.Rng.int rng (Array.length cl)) in
      let extra = ref [ pivot ] in
      for _ = 1 to Sat.Rng.int rng 5 do
        let l = lit () in
        (* a literal the running resolvent holds in the other phase would
           be a second clash: keep those rare *)
        if not (Sat.Clause.mem (Sat.Lit.negate l) cl) || Sat.Rng.int rng 40 = 0
        then extra := l :: !extra
      done;
      if Sat.Rng.int rng 4 = 0 then
        extra := cl.(Sat.Rng.int rng (Array.length cl)) :: !extra;
      if Sat.Rng.int rng 6 = 0 then extra := List.hd !extra :: !extra;
      if Sat.Rng.int rng 10 = 0 then begin
        let l = lit () in
        if not (Sat.Clause.mem l cl || Sat.Clause.mem (Sat.Lit.negate l) cl)
        then extra := l :: Sat.Lit.negate l :: !extra
      end;
      Array.of_list !extra
    end
  in
  Array.init len (fun i ->
      if i = 0 then first
      else begin
        let c = next () in
        (match Sat.Clause.clashing_vars !cur (stored c) with
         | [ v ] -> cur := Sat.Clause.resolve !cur (stored c) v
         | _ -> ());
        c
      end)

(* Runs [Kernel.chain] over [sources] on [k] (store handles for ids
   1 .. n) and compares it with the reference fold. *)
let check_chain_against_reference k ~name sources =
  let db = Proof.Kernel.db k in
  let context = "test" and learned_id = 1000 in
  let ids = Array.init (Array.length sources) (fun i -> i + 1) in
  let handles = Array.map (Proof.Clause_db.alloc db) sources in
  let before = Proof.Kernel.counters k in
  let outcome =
    match
      Proof.Kernel.chain k ~context
        ~fetch:(fun id -> (handles.(id - 1), []))
        ~combine:(fun ~pivot ps _ -> pivot :: ps)
        ~learned_id ids
    with
    | h, pivots ->
      let lits = Proof.Clause_db.lits db h in
      Proof.Clause_db.release db h;
      Ok (lits, List.rev pivots)
    | exception Proof.Diagnostics.Check_failed d -> Error d
  in
  Array.iter (Proof.Clause_db.release db) handles;
  let after = Proof.Kernel.counters k in
  let r_lits, r_pivots, r_steps, r_merges, r_failure =
    reference_chain ~context ~learned_id ids sources
  in
  let ck what = Printf.sprintf "%s: %s" name what in
  Alcotest.check Alcotest.int (ck "steps") r_steps
    (after.resolution_steps - before.resolution_steps);
  Alcotest.check Alcotest.int (ck "merges") r_merges
    (after.merged_literals - before.merged_literals);
  match outcome, r_failure with
  | Ok (lits, pivots), None ->
    Alcotest.check (Alcotest.list Alcotest.int) (ck "resolvent")
      (Array.to_list r_lits) (Array.to_list lits);
    Alcotest.check (Alcotest.list Alcotest.int) (ck "pivots") r_pivots pivots
  | Error d, Some r ->
    if d <> r then
      Alcotest.failf "%s: diagnostic %s, reference %s" name
        (Proof.Diagnostics.to_string d) (Proof.Diagnostics.to_string r)
  | Ok _, Some r ->
    Alcotest.failf "%s: accepted; reference fails with %s" name
      (Proof.Diagnostics.to_string r)
  | Error d, None ->
    Alcotest.failf "%s: failed with %s; reference accepts" name
      (Proof.Diagnostics.to_string d)

let test_chain_differential () =
  (* one kernel for every chain: a failed chain must leave nothing behind
     for the next *)
  let k = kernel () in
  let rng = Sat.Rng.create 20030307 in
  let failed = ref 0 in
  for i = 1 to 600 do
    let sources = random_chain rng in
    let _, _, _, _, failure =
      reference_chain ~context:"test" ~learned_id:1000
        (Array.init (Array.length sources) (fun i -> i + 1))
        sources
    in
    if failure <> None then incr failed;
    check_chain_against_reference k ~name:(Printf.sprintf "chain %d" i) sources
  done;
  (* both outcomes must be exercised *)
  if !failed < 30 || !failed > 570 then
    Alcotest.failf "%d of 600 random chains fail: generator out of balance"
      !failed

let test_chain_after_failure () =
  let k = kernel () in
  let c = Sat.Clause.of_ints in
  (* (1 2 3)(−1 4)(−2 −4): the last step clashes on 2 and 4 *)
  check_chain_against_reference k ~name:"multiple clash"
    [| c [ 1; 2; 3 ]; c [ -1; 4 ]; c [ -2; -4 ] |];
  (* (1 2 3)(−1 4)(5 6): no clash, reported against the running resolvent *)
  check_chain_against_reference k ~name:"no clash"
    [| c [ 1; 2; 3 ]; c [ -1; 4 ]; c [ 5; 6 ] |];
  (* the same variables, now a valid chain on the same kernel *)
  check_chain_against_reference k ~name:"good after failures"
    [| c [ 1; 2; 3 ]; c [ -1; 4 ]; c [ -2; 5 ]; c [ -4; 3 ] |]

(* --- the store's account across a chain ------------------------------------ *)

let account_sources =
  Array.map Sat.Clause.of_ints
    [| [ 1; 2; 3; 10 ]; [ -1; 4; 5; 11 ]; [ -2; 6; 10 ]; [ -3; 7; 8; 9 ];
       [ -4; 12 ]; [ -5 ] |]

(* a kernel holding the account sources, and the chain over the first
   [n] of them *)
let account_chain ?mem_limit n =
  let k = Proof.Kernel.create ?mem_limit (Sat.Cnf.create 64) in
  let db = Proof.Kernel.db k in
  let handles = Array.map (Proof.Clause_db.alloc db) account_sources in
  let run () =
    Proof.Kernel.chain_ids k ~context:"test"
      ~fetch:(fun id -> handles.(id - 1))
      ~learned_id:99 (Array.init n (fun i -> i + 1))
  in
  (db, handles, run)

let test_chain_account () =
  (* every intermediate is charged, counted live and resident, then
     credited when the next replaces it: the store ends exactly where it
     did when intermediates were allocated in the arena *)
  List.iter
    (fun (n, (mem, peak_mem, live, peak_live, peak_words)) ->
      let db, _, run = account_chain n in
      ignore (run ());
      let ck what = Printf.sprintf "%d sources: %s" n what in
      Alcotest.check Alcotest.int (ck "mem_words") mem
        (Proof.Clause_db.mem_words db);
      Alcotest.check Alcotest.int (ck "peak_mem_words") peak_mem
        (Proof.Clause_db.peak_mem_words db);
      Alcotest.check Alcotest.int (ck "live_clauses") live
        (Proof.Clause_db.live_clauses db);
      Alcotest.check Alcotest.int (ck "peak_live_clauses") peak_live
        (Proof.Clause_db.peak_live_clauses db);
      Alcotest.check Alcotest.int (ck "peak_words") peak_words
        (Proof.Clause_db.peak_words db))
    [
      (1, (36, 36, 6, 6, 30));
      (2, (45, 45, 7, 7, 38));
      (3, (45, 54, 7, 8, 46));
      (6, (46, 58, 7, 8, 50));
    ]

let test_chain_memory_out () =
  List.iter
    (fun (limit, wanted) ->
      let _, _, run = account_chain ~mem_limit:limit 6 in
      match run () with
      | _ -> Alcotest.failf "limit %d: chain fitted" limit
      | exception Proof.Clause_db.Out_of_memory_simulated o ->
        Alcotest.check Alcotest.int "limit echoed" limit o.limit_words;
        Alcotest.check Alcotest.int
          (Printf.sprintf "limit %d: wanted" limit)
          wanted o.wanted)
    (* the third and the fourth intermediate trip these *)
    [ (55, 56); (57, 58) ]

let test_chain_released_source () =
  let was = Proof.Clause_db.debug_enabled () in
  Proof.Clause_db.set_debug true;
  Fun.protect ~finally:(fun () -> Proof.Clause_db.set_debug was) @@ fun () ->
  let db, handles, run = account_chain 4 in
  Proof.Clause_db.release db handles.(2);
  match run () with
  | _ -> Alcotest.fail "chained over a released source"
  | exception Proof.Clause_db.Use_after_free h ->
    Alcotest.check Alcotest.int "the released handle" handles.(2) h

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
        let r, pivot = resolve k c1 c2 in
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
        Alcotest.test_case "chain = Clause.resolve fold" `Quick
          test_chain_differential;
        Alcotest.test_case "chain after failed chains" `Quick
          test_chain_after_failure;
        Alcotest.test_case "chain store account" `Quick test_chain_account;
        Alcotest.test_case "chain memory-out" `Quick test_chain_memory_out;
        Alcotest.test_case "chain over released source" `Quick
          test_chain_released_source;
        Alcotest.test_case "db sorts and dedups" `Quick test_db_sorts_and_dedups;
        Alcotest.test_case "db refcount and reuse" `Quick
          test_db_refcount_and_reuse;
        Alcotest.test_case "db meter accounting" `Quick test_db_meter_accounting;
        Alcotest.test_case "db arena growth" `Quick test_db_grows;
        prop_matches_reference;
      ] );
  ]
