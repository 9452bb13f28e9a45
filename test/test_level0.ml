(* Tests for the level-0 record set and the antecedent check. *)

let make records =
  let l0 = Proof.Level0.create () in
  List.iter
    (fun (var, value, ante) -> Proof.Level0.add l0 ~var ~value ~ante)
    records;
  l0

let test_accessors () =
  let l0 = make [ (3, true, 10); (5, false, 11) ] in
  Alcotest.check Alcotest.int "count" 2 (Proof.Level0.count l0);
  Alcotest.check Alcotest.bool "mem" true (Proof.Level0.mem l0 3);
  Alcotest.check Alcotest.bool "value" true (Proof.Level0.value l0 3);
  Alcotest.check Alcotest.int "ante" 11 (Proof.Level0.ante l0 5);
  Alcotest.check Alcotest.bool "order chronological" true
    (Proof.Level0.order l0 3 < Proof.Level0.order l0 5)

let test_duplicate () =
  try
    ignore (make [ (3, true, 10); (3, false, 11) ]);
    Alcotest.fail "duplicate accepted"
  with Proof.Diagnostics.Check_failed (Proof.Diagnostics.Level0_duplicate_var 3) ->
    ()

let test_unrecorded () =
  let l0 = make [ (3, true, 10) ] in
  try
    ignore (Proof.Level0.value l0 9);
    Alcotest.fail "unrecorded accepted"
  with
  | Proof.Diagnostics.Check_failed
      (Proof.Diagnostics.Level0_var_unrecorded 9) -> ()

let test_lit_false () =
  let l0 = make [ (3, true, 10); (5, false, 11) ] in
  Alcotest.check Alcotest.bool "-3 false under x3=true" true
    (Proof.Level0.lit_false l0 (Sat.Lit.neg 3));
  Alcotest.check Alcotest.bool "3 not false" false
    (Proof.Level0.lit_false l0 (Sat.Lit.pos 3));
  Alcotest.check Alcotest.bool "5 false under x5=false" true
    (Proof.Level0.lit_false l0 (Sat.Lit.pos 5));
  Alcotest.check Alcotest.bool "unrecorded not false" false
    (Proof.Level0.lit_false l0 (Sat.Lit.pos 8))

let check_ante l0 v c = Proof.Level0.check_antecedent l0 ~var:v c

let test_antecedent_ok () =
  (* x3 := true implied by (x3 + ¬x2) after x2 := true *)
  let l0 = make [ (2, true, 1); (3, true, 2) ] in
  Alcotest.check (Alcotest.option Alcotest.string) "valid antecedent" None
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -2 ]))

let some_failure = Alcotest.testable (fun fmt _ -> Format.fprintf fmt "<reason>") (fun a b -> (a = None) = (b = None))

let test_antecedent_missing_implied () =
  let l0 = make [ (2, true, 1); (3, true, 2) ] in
  Alcotest.check some_failure "clause lacks the implied literal"
    (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ -3; -2 ]))

let test_antecedent_not_falsified () =
  (* other literal ¬x2 would be true, so the clause was satisfied, not
     unit *)
  let l0 = make [ (2, false, 1); (3, true, 2) ] in
  Alcotest.check some_failure "other literal not falsified" (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -2 ]))

let test_antecedent_wrong_order () =
  (* x2 assigned after x3: the clause could not have been unit yet *)
  let l0 = make [ (3, true, 2); (2, true, 1) ] in
  Alcotest.check some_failure "assigned after" (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -2 ]))

let test_antecedent_unrecorded_var () =
  let l0 = make [ (3, true, 2) ] in
  Alcotest.check some_failure "unrecorded companion" (Some "x")
    (check_ante l0 3 (Sat.Clause.of_ints [ 3; -7 ]))

(* --- the empty-clause construction against a reference rule --------------- *)

(* A level-0 proof: record [i] (chronological) sets [vars.(i)] to
   [values.(i)] and names original clause [antes.(i)]; the conflict is
   original clause [n + 1]; [conf_at] VAR records precede the CONF
   record, the rest follow it. *)
type l0_proof = {
  nvars : int;
  clauses : Sat.Clause.t array;  (* ids 1 .. n + 1 *)
  records : (int * bool * int) array;
  conf_at : int;
}

(* The literal of record [i] that level 0 falsifies. *)
let falsified vars values i = Sat.Lit.make vars.(i) values.(i)

(* [n] records over shuffled variables (times 1000 when [sparse]), each
   implied by its literal and the negations of 0-3 earlier records', and
   a conflict over a random nonempty subset of the records' falsified
   literals. *)
let random_l0_proof rng ~sparse ~conf_late =
  let n = 1 + Sat.Rng.int rng 40 in
  let scale = if sparse then 1000 else 1 in
  let vars = Array.init n (fun i -> (i + 1) * scale) in
  Sat.Rng.shuffle rng vars;
  let values = Array.init n (fun _ -> Sat.Rng.bool rng) in
  let lit = falsified vars values in
  let antes =
    Array.init n (fun i ->
        Sat.Clause.of_lits
          (Sat.Lit.negate (lit i)
          :: List.init (min i (Sat.Rng.int rng 4)) (fun _ ->
                 lit (Sat.Rng.int rng i))))
  in
  let picked = Array.init n Fun.id in
  Sat.Rng.shuffle rng picked;
  let conflict =
    Array.map lit (Array.sub picked 0 (1 + Sat.Rng.int rng n))
  in
  {
    nvars = n * scale;
    clauses = Array.append antes [| conflict |];
    records = Array.init n (fun i -> (vars.(i), values.(i), i + 1));
    conf_at = (if conf_late then Sat.Rng.int rng n else n);
  }

let conflict_id p = Array.length p.clauses

let l0_formula p = Sat.Cnf.of_clauses p.nvars (Array.to_list p.clauses)

let l0_events p =
  let vars =
    Array.to_list
      (Array.map
         (fun (var, value, ante) -> Trace.Event.Level0 { var; value; ante })
         p.records)
  in
  Trace.Event.Header { nvars = p.nvars; num_original = conflict_id p }
  :: List.filteri (fun i _ -> i < p.conf_at) vars
  @ (Trace.Event.Final_conflict (conflict_id p)
    :: List.filteri (fun i _ -> i >= p.conf_at) vars)

let l0_records p =
  let l0 = Proof.Level0.create () in
  Array.iter
    (fun (var, value, ante) -> Proof.Level0.add l0 ~var ~value ~ante)
    p.records;
  l0

(* The construction's rule on lists: check the conflict falsified, then
   take the resolvent's deepest variable by [Level0.order], check the
   clause [Level0.ante] names and resolve with [Sat.Clause.resolve].
   Returns the pivots and the original ids used, or the first failure. *)
let reference_final p =
  let l0 = l0_records p in
  let stored c = Array.of_list (List.sort_uniq Int.compare (Array.to_list c)) in
  let clause id = stored p.clauses.(id - 1) in
  let conf = conflict_id p in
  match
    List.find_opt
      (fun l -> not (Proof.Level0.lit_false l0 l))
      (Array.to_list (clause conf))
  with
  | Some lit ->
    Error (Proof.Diagnostics.Final_literal_not_false { clause_id = conf; lit })
  | None ->
    let rec go cur pivots core =
      if Array.length cur = 0 then
        Ok (List.rev pivots, List.sort_uniq Int.compare core)
      else begin
        let deeper u v = Proof.Level0.order l0 u > Proof.Level0.order l0 v in
        let v =
          Array.fold_left
            (fun v l -> if deeper (Sat.Lit.var l) v then Sat.Lit.var l else v)
            (Sat.Lit.var cur.(0)) cur
        in
        let ante = Proof.Level0.ante l0 v in
        let c = clause ante in
        match Proof.Level0.check_antecedent l0 ~var:v c with
        | Some reason ->
          Error (Proof.Diagnostics.Antecedent_mismatch { var = v; ante; reason })
        | None -> go (Sat.Clause.resolve cur c v) (v :: pivots) (ante :: core)
      end
    in
    go (clause conf) [] [ conf ]

(* [Kernel.final_chain] on the proof, collecting its pivots. *)
let kernel_final p =
  let k = Proof.Kernel.create (l0_formula p) in
  match
    Proof.Kernel.final_chain k ~l0:(l0_records p)
      ~miss:(Proof.Kernel.find k ~context:"test")
      ~conflict_id:(conflict_id p)
  with
  | steps -> Ok (List.init steps (Proof.Kernel.final_pivot k))
  | exception Proof.Diagnostics.Check_failed d -> Error d

(* The four mutations: two records' orders swapped, a record dropped, an
   antecedent naming the wrong clause, a conflict literal made true. *)
let mutants rng p =
  let n = Array.length p.records in
  let records f = { p with records = f (Array.copy p.records) } in
  let swap =
    records (fun r ->
        let i = Sat.Rng.int rng n in
        let j = if n = 1 then i else (i + 1 + Sat.Rng.int rng (n - 1)) mod n in
        let x = r.(i) in
        r.(i) <- r.(j);
        r.(j) <- x;
        r)
  in
  let drop =
    let i = Sat.Rng.int rng n in
    let r = Array.to_list p.records in
    {
      p with
      records = Array.of_list (List.filteri (fun j _ -> j <> i) r);
      conf_at = min p.conf_at (n - 1);
    }
  in
  let wrong_ante =
    records (fun r ->
        let i = Sat.Rng.int rng n in
        let var, value, ante = r.(i) in
        let other = 1 + Sat.Rng.int rng (conflict_id p - 1) in
        r.(i) <- (var, value, if other >= ante then other + 1 else other);
        r)
  in
  let true_lit =
    let clauses = Array.copy p.clauses in
    let c = Array.copy clauses.(conflict_id p - 1) in
    let i = Sat.Rng.int rng (Array.length c) in
    c.(i) <- Sat.Lit.negate c.(i);
    clauses.(conflict_id p - 1) <- c;
    { p with clauses }
  in
  [ ("swapped", swap); ("dropped", drop); ("wrong antecedent", wrong_ante);
    ("true conflict literal", true_lit) ]

(* The strategies that report a core; the others report none. *)
let reports_core = [ "DF"; "Hybrid" ]

let check_against_reference ~name p =
  let diag = Proof.Diagnostics.to_string in
  let expected = reference_final p in
  let src = Helpers.events_to_source (l0_events p) in
  let f = l0_formula p in
  (match expected, kernel_final p with
   | Ok (pivots, _), Ok ps ->
     Alcotest.check (Alcotest.list Alcotest.int) (name ^ ": pivots") pivots ps
   | Error r, Error d when d = r -> ()
   | Error r, Error d ->
     Alcotest.failf "%s: final_chain fails with %s, reference with %s" name
       (diag d) (diag r)
   | Ok _, Error d ->
     Alcotest.failf "%s: final_chain fails with %s, reference accepts" name
       (diag d)
   | Error r, Ok _ ->
     Alcotest.failf "%s: final_chain accepts, reference fails with %s" name
       (diag r));
  List.iter
    (fun (s, check) ->
      match expected, check f src with
      | Ok (pivots, core), Ok (r : Checker.Report.t) ->
        Alcotest.check Alcotest.int
          (Printf.sprintf "%s: %s steps" name s)
          (List.length pivots) r.resolution_steps;
        Alcotest.check (Alcotest.list Alcotest.int)
          (Printf.sprintf "%s: %s core" name s)
          (if List.mem s reports_core then core else [])
          r.core_original_ids
      | Error r, Error d when d = r -> ()
      | Error r, Error d ->
        Alcotest.failf "%s: %s fails with %s, reference with %s" name s
          (diag d) (diag r)
      | Ok _, Error d ->
        Alcotest.failf "%s: %s fails with %s, reference accepts" name s (diag d)
      | Error r, Ok _ ->
        Alcotest.failf "%s: %s accepts, reference fails with %s" name s
          (diag r))
    Helpers.strategies;
  Result.is_error expected

let test_final_chain_reference () =
  let rng = Sat.Rng.create 20031103 in
  let failed = ref 0 and mutated = ref 0 in
  for i = 1 to 150 do
    let sparse = i mod 3 = 0 and conf_late = i mod 2 = 0 in
    let p = random_l0_proof rng ~sparse ~conf_late in
    let name = Printf.sprintf "proof %d" i in
    if check_against_reference ~name p then
      Alcotest.failf "%s: the reference rejects an unmutated proof" name;
    List.iter
      (fun (m, q) ->
        incr mutated;
        if check_against_reference ~name:(Printf.sprintf "%s, %s" name m) q
        then incr failed)
      (mutants rng p)
  done;
  (* both outcomes must be exercised among the mutants *)
  if !failed < !mutated / 4 || !failed = !mutated then
    Alcotest.failf "%d of %d mutants fail: generator out of balance" !failed
      !mutated

let suite =
  [
    ( "level0",
      [
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "duplicate var" `Quick test_duplicate;
        Alcotest.test_case "unrecorded var" `Quick test_unrecorded;
        Alcotest.test_case "lit_false" `Quick test_lit_false;
        Alcotest.test_case "antecedent ok" `Quick test_antecedent_ok;
        Alcotest.test_case "antecedent missing implied" `Quick
          test_antecedent_missing_implied;
        Alcotest.test_case "antecedent not falsified" `Quick
          test_antecedent_not_falsified;
        Alcotest.test_case "antecedent wrong order" `Quick
          test_antecedent_wrong_order;
        Alcotest.test_case "antecedent unrecorded var" `Quick
          test_antecedent_unrecorded_var;
        Alcotest.test_case "final chain = reference rule" `Quick
          test_final_chain_reference;
      ] );
  ]
