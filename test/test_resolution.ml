(* Tests for the shared resolution kernel's checked resolution step and
   the arena-backed clause store beneath it, including agreement with the
   reference Clause.resolve. *)

let kernel () = Proof.Kernel.create (Sat.Cnf.create 64)

(* the id table's lookup, for chains over ids the test has bound *)
let unbound id = Alcotest.failf "id %d is unbound" id

(* one checked step: the two-source chain [c1; c2], its resolvent and
   pivot *)
let resolve k c1 c2 =
  let db = Proof.Kernel.db k in
  Proof.Kernel.define k 1 (Proof.Clause_db.alloc db c1);
  Proof.Kernel.define k 2 (Proof.Clause_db.alloc db c2);
  let h =
    Proof.Kernel.chain k ~context:"test" ~miss:unbound ~learned_id:3 [| 1; 2 |]
  in
  let pivot = Proof.Kernel.pivot k 0 in
  let r = Proof.Clause_db.lits db h in
  Proof.Clause_db.release db h;
  List.iter (Proof.Kernel.release_id k) [ 1; 2 ];
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
  Array.iteri
    (fun i c -> Proof.Kernel.define k i (Proof.Clause_db.alloc db c))
    clauses;
  let before = Proof.Kernel.resolution_steps k in
  let h = Proof.Kernel.chain k ~context:"test" ~miss:unbound ~learned_id ids in
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
      Proof.Kernel.chain k ~context:"test"
        ~miss:(fun _ -> Alcotest.fail "unexpected lookup")
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

(* Runs [Kernel.chain] over [ids] on [k], looking each id up in [k]'s
   table, and collects the pivots of its steps. *)
let kernel_chain k ~context ~learned_id ids =
  match
    Proof.Kernel.chain k ~context ~miss:(Proof.Kernel.find k ~context)
      ~learned_id ids
  with
  | h -> Ok (h, List.init (Array.length ids - 1) (Proof.Kernel.pivot k))
  | exception Proof.Diagnostics.Check_failed d -> Error d

(* Compares a kernel chain's outcome (the sorted resolvent and the
   pivots, or the diagnostic) and the steps and merges it counted with
   the reference fold over the same sources. *)
let expect_reference ~name ~(before : Proof.Kernel.counters)
    ~(after : Proof.Kernel.counters) outcome reference =
  let r_lits, r_pivots, r_steps, r_merges, r_failure = reference in
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

(* Runs [Kernel.chain] over [sources] on [k] (ids 1 .. n, bound to
   fresh store clauses for the chain) and compares it with the reference
   fold. *)
let check_chain_against_reference k ~name sources =
  let db = Proof.Kernel.db k in
  let context = "test" and learned_id = 1000 in
  let ids = Array.init (Array.length sources) (fun i -> i + 1) in
  Array.iteri
    (fun i c -> Proof.Kernel.define k ids.(i) (Proof.Clause_db.alloc db c))
    sources;
  let before = Proof.Kernel.counters k in
  let outcome =
    Result.map
      (fun (h, pivots) ->
        let lits = Proof.Clause_db.lits db h in
        Proof.Clause_db.release db h;
        (lits, pivots))
      (kernel_chain k ~context ~learned_id ids)
  in
  Array.iter (Proof.Kernel.release_id k) ids;
  let after = Proof.Kernel.counters k in
  expect_reference ~name ~before ~after outcome
    (reference_chain ~context ~learned_id ids sources)

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

(* --- nested chains against the reference ---------------------------------- *)

(* A kernel holding a growing pool of clauses: fresh source clauses, and
   the results of earlier chains, which later chains read as the kernel
   stored them.  The reference works on each clause's sorted literals. *)
type pool = {
  pk : Proof.Kernel.t;
  ids : int Sat.Vec.t;                      (* every id bound so far *)
  learned : int Sat.Vec.t;                  (* the ids of chain results *)
  clauses : (int, Sat.Clause.t) Hashtbl.t;  (* id -> sorted literals *)
  mutable next_id : int;
}

let pool () =
  {
    pk = kernel ();
    ids = Sat.Vec.create ~dummy:0;
    learned = Sat.Vec.create ~dummy:0;
    clauses = Hashtbl.create 64;
    next_id = 0;
  }

let bind p id c =
  Sat.Vec.push p.ids id;
  Hashtbl.replace p.clauses id (stored c)

(* binds a fresh id to a new store clause *)
let add_source p c =
  p.next_id <- p.next_id + 1;
  Proof.Kernel.define p.pk p.next_id
    (Proof.Clause_db.alloc (Proof.Kernel.db p.pk) c);
  bind p p.next_id c;
  p.next_id

(* An operand's marks are sized from its last literal: that literal must
   carry the clause's largest variable, whatever order the rest keep. *)
let last_var_is_largest db h =
  let n = Proof.Clause_db.size db h in
  n = 0
  ||
  let last = Sat.Lit.var (Proof.Clause_db.lit db h (n - 1)) in
  Array.for_all (fun l -> Sat.Lit.var l <= last) (Proof.Clause_db.lits db h)

(* Chains [ids] on the pool's kernel under a fresh learned id, compares
   it with the reference, and binds the result to that id; true when the
   chain failed. *)
let run_nested p ~name ids =
  let context = "test" and db = Proof.Kernel.db p.pk in
  p.next_id <- p.next_id + 1;
  let learned_id = p.next_id in
  let before = Proof.Kernel.counters p.pk in
  let outcome = kernel_chain p.pk ~context ~learned_id ids in
  let after = Proof.Kernel.counters p.pk in
  let outcome =
    Result.map
      (fun (h, pivots) ->
        if not (last_var_is_largest db h) then
          Alcotest.failf "%s: the stored result's last literal is not over \
                          its largest variable" name;
        let lits = Proof.Clause_db.lits db h in
        Proof.Kernel.define p.pk learned_id h;
        bind p learned_id lits;
        Sat.Vec.push p.learned learned_id;
        (lits, pivots))
      outcome
  in
  expect_reference ~name ~before ~after outcome
    (reference_chain ~context ~learned_id ids
       (Array.map (Hashtbl.find p.clauses) ids));
  Result.is_error outcome

(* A chain over the pool's clauses and new ones, over variables past the
   marks' initial 64 bytes.  It starts from an earlier result half the
   time and follows the reference's running resolvent: each step takes an
   earlier clause, a result if possible, that clashes with it on one
   variable when a few draws find one, else a new clause built to clash
   (with a merged literal, a duplicate or a tautological pair now and
   then); rarely an arbitrary clause, which likely fails. *)
let nested_chain rng p ~nvars =
  let lit () = Sat.Lit.make (1 + Sat.Rng.int rng nvars) (Sat.Rng.bool rng) in
  let pick_in v = Sat.Vec.get v (Sat.Rng.int rng (Sat.Vec.length v)) in
  let pick () = pick_in p.ids in
  let pick_result () =
    if Sat.Vec.length p.learned > 0 && Sat.Rng.int rng 4 > 0 then
      pick_in p.learned
    else pick ()
  in
  let clause = Hashtbl.find p.clauses in
  let fresh () =
    let c = Array.init (1 + Sat.Rng.int rng 5) (fun _ -> lit ()) in
    if Sat.Rng.int rng 5 = 0 then
      let l = lit () in
      Array.append c [| l; Sat.Lit.negate l |]
    else c
  in
  let first =
    if Sat.Vec.length p.learned > 0 && Sat.Rng.bool rng then pick_in p.learned
    else add_source p (fresh ())
  in
  let ids = ref [ first ] and cur = ref (clause first) and valid = ref true in
  let len = 2 + Sat.Rng.int rng 6 in
  while !valid && List.length !ids < len do
    let cl = !cur in
    let earlier = ref None in
    if Sat.Rng.bool rng then
      for _ = 1 to 12 do
        if !earlier = None then begin
          let id = pick_result () in
          match Sat.Clause.clashing_vars cl (clause id) with
          | [ _ ] -> earlier := Some id
          | _ -> ()
        end
      done;
    let next =
      match !earlier with
      | Some id -> id
      | None when Array.length cl = 0 || Sat.Rng.int rng 30 = 0 ->
        if Sat.Rng.bool rng then pick () else add_source p (fresh ())
      | None ->
        let pivot = Sat.Lit.negate cl.(Sat.Rng.int rng (Array.length cl)) in
        let extra = ref [ pivot ] in
        for _ = 1 to Sat.Rng.int rng 4 do
          let l = lit () in
          if
            (not (Sat.Clause.mem (Sat.Lit.negate l) cl))
            || Sat.Rng.int rng 30 = 0
          then extra := l :: !extra
        done;
        if Sat.Rng.int rng 4 = 0 then
          extra := cl.(Sat.Rng.int rng (Array.length cl)) :: !extra;
        if Sat.Rng.int rng 6 = 0 then extra := List.hd !extra :: !extra;
        if Sat.Rng.int rng 6 = 0 then begin
          let l = lit () in
          if not (Sat.Clause.mem l cl || Sat.Clause.mem (Sat.Lit.negate l) cl)
          then extra := l :: Sat.Lit.negate l :: !extra
        end;
        add_source p (Array.of_list !extra)
    in
    (match Sat.Clause.clashing_vars cl (clause next) with
     | [ v ] -> cur := Sat.Clause.resolve cl (clause next) v
     | _ -> valid := false);
    ids := next :: !ids
  done;
  Array.of_list (List.rev !ids)

let test_nested_chains () =
  let c = Sat.Clause.of_ints in
  (* Variable 100 is the largest of the first result, touched before 5
     and 7 and with both phases present: a store that keeps the largest
     variable's literal last, without sorting, may split its phases, here
     by 5.  The next chains read that result against running resolvents
     that hold both phases of 100: one where 5 clashes too, one where
     nothing else does. *)
  let p = pool () in
  let s0 = add_source p (c [ -3; 100; -100 ]) in
  let s1 = add_source p (c [ 3; 5; 7 ]) in
  if run_nested p ~name:"tautological result" [| s0; s1 |] then
    Alcotest.fail "tautological result: the chain failed";
  let r = p.next_id in
  let s2 = add_source p (c [ -5; 100; -100 ]) in
  ignore
    (run_nested p ~name:"split phases, a clashing literal between" [| s2; r |]);
  let s3 = add_source p (c [ 9; 100; -100 ]) in
  ignore (run_nested p ~name:"split phases, nothing else clashes" [| s3; r |]);
  (* random nested chains, one fresh kernel per round so the marks start
     small each time *)
  let rng = Sat.Rng.create 20030310 in
  let chains = ref 0 and failed = ref 0 and nested = ref 0 in
  for round = 1 to 4 do
    let p = pool () in
    let nvars = 65 + Sat.Rng.int rng 200 in
    for i = 1 to 150 do
      let ids = nested_chain rng p ~nvars in
      incr chains;
      if Array.exists (fun id -> Sat.Vec.exists (( = ) id) p.learned) ids
      then incr nested;
      if run_nested p ~name:(Printf.sprintf "round %d, chain %d" round i) ids
      then incr failed
    done
  done;
  (* both outcomes, and chains over earlier results, must be exercised *)
  if !failed < !chains / 20 || !failed > !chains / 2 || !nested < !chains / 2
  then
    Alcotest.failf
      "%d of %d nested chains fail, %d read earlier results: generator out \
       of balance"
      !failed !chains !nested

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
  Array.iteri (fun i h -> Proof.Kernel.define k (i + 1) h) handles;
  let run () =
    Proof.Kernel.chain k ~context:"test" ~miss:unbound ~learned_id:99
      (Array.init n (fun i -> i + 1))
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

(* --- allocation ---------------------------------------------------------- *)

let test_chain_allocation () =
  (* the implication chain (1)(−1 2)(−2 3)...: n steps resolve the first
     n + 1 originals to a unit *)
  let n = 1000 in
  let f = Sat.Cnf.create (n + 1) in
  ignore (Sat.Cnf.add_clause f (Sat.Clause.of_ints [ 1 ]));
  for i = 1 to n do
    ignore (Sat.Cnf.add_clause f (Sat.Clause.of_ints [ -i; i + 1 ]))
  done;
  let k = Proof.Kernel.create f in
  let db = Proof.Kernel.db k in
  let chain ~learned_id ids =
    Proof.Kernel.chain k ~context:"test"
      ~miss:(Proof.Kernel.find k ~context:"test")
      ~learned_id ids
  in
  let ids steps = Array.init (steps + 1) (fun i -> i + 1) in
  (* the first chain defines every source and grows the marks, the
     touched stack and the pivot buffer *)
  Proof.Clause_db.release db (chain ~learned_id:(n + 2) (ids n));
  let words steps learned_id =
    let ids = ids steps in
    let before = Gc.minor_words () in
    let h = chain ~learned_id ids in
    let words = Gc.minor_words () -. before in
    Proof.Clause_db.release db h;
    words
  in
  let short = words 10 (n + 3) and long = words n (n + 4) in
  Alcotest.check (Alcotest.float 0.) "minor words: 1,000 steps as 10" short long

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
        Alcotest.test_case "nested chains = Clause.resolve fold" `Quick
          test_nested_chains;
        Alcotest.test_case "chain store account" `Quick test_chain_account;
        Alcotest.test_case "chain memory-out" `Quick test_chain_memory_out;
        Alcotest.test_case "chain over released source" `Quick
          test_chain_released_source;
        Alcotest.test_case "chain allocates nothing per step" `Quick
          test_chain_allocation;
        Alcotest.test_case "db sorts and dedups" `Quick test_db_sorts_and_dedups;
        Alcotest.test_case "db refcount and reuse" `Quick
          test_db_refcount_and_reuse;
        Alcotest.test_case "db meter accounting" `Quick test_db_meter_accounting;
        Alcotest.test_case "db arena growth" `Quick test_db_grows;
        prop_matches_reference;
      ] );
  ]
