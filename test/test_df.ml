(* Depth-first checker tests: acceptance of genuine traces across
   workload families and solver configurations, rejection of corrupted
   traces with precise diagnostics, and the §3.2 by-products (Built%,
   unsat core). *)

module D = Proof.Diagnostics

let ev_header nvars num_original = Trace.Event.Header { nvars; num_original }
let ev_cl id sources = Trace.Event.Learned { id; sources }
let ev_var var value ante = Trace.Event.Level0 { var; value; ante }
let ev_conf id = Trace.Event.Final_conflict id

(* the smallest unsat formula: (x1)(¬x1), original ids 1 and 2 *)
let tiny_formula =
  Sat.Cnf.of_clauses 1 [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1 ] ]

let tiny_trace = [ ev_header 1 2; ev_var 1 true 1; ev_conf 2 ]

let df f events = Checker.Df.check f (Helpers.events_to_source events)

let test_tiny_accepted () =
  match df tiny_formula tiny_trace with
  | Ok r ->
    Alcotest.check Alcotest.int "no learned clauses" 0 r.total_learned;
    Alcotest.check (Alcotest.list Alcotest.int) "core is both clauses"
      [ 1; 2 ] r.core_original_ids;
    Alcotest.check Alcotest.int "core vars" 1 r.core_vars
  | Error d -> Alcotest.failf "rejected: %s" (D.to_string d)

let expect f events pred name =
  Helpers.expect_df_failure f events pred name

let test_missing_header () =
  expect tiny_formula [ ev_var 1 true 1; ev_conf 2 ]
    (function D.Missing_header -> true | _ -> false)
    "missing header"

let test_header_mismatch () =
  expect tiny_formula [ ev_header 5 2; ev_var 1 true 1; ev_conf 2 ]
    (function D.Header_mismatch _ -> true | _ -> false)
    "nvars mismatch";
  expect tiny_formula [ ev_header 1 9; ev_var 1 true 1; ev_conf 2 ]
    (function D.Header_mismatch _ -> true | _ -> false)
    "clause-count mismatch"

let test_missing_final_conflict () =
  expect tiny_formula [ ev_header 1 2; ev_var 1 true 1 ]
    (function D.Missing_final_conflict -> true | _ -> false)
    "missing final conflict"

let test_missing_var_record () =
  expect tiny_formula [ ev_header 1 2; ev_conf 2 ]
    (function D.Final_literal_not_false _ -> true | _ -> false)
    "missing level-0 record"

let test_wrong_var_value () =
  (* claiming x1=false makes the final clause (¬x1) satisfied *)
  expect tiny_formula [ ev_header 1 2; ev_var 1 false 2; ev_conf 2 ]
    (function D.Final_literal_not_false _ -> true | _ -> false)
    "flipped var value"

let test_bad_antecedent () =
  (* antecedent of x1=true must contain literal x1; clause 2 is (¬x1) *)
  expect tiny_formula [ ev_header 1 2; ev_var 1 true 2; ev_conf 2 ]
    (function D.Antecedent_mismatch _ -> true | _ -> false)
    "antecedent lacking implied literal"

let test_unknown_clause () =
  expect tiny_formula [ ev_header 1 2; ev_var 1 true 1; ev_conf 99 ]
    (function D.Unknown_clause u -> u.id = 99 | _ -> false)
    "unknown final conflict id"

let test_duplicate_definition () =
  expect tiny_formula
    [ ev_header 1 2; ev_cl 3 [| 1; 2 |]; ev_cl 3 [| 2; 1 |];
      ev_var 1 true 1; ev_conf 2 ]
    (function D.Duplicate_definition 3 -> true | _ -> false)
    "duplicate CL id"

let test_shadows_original () =
  expect tiny_formula
    [ ev_header 1 2; ev_cl 2 [| 1; 2 |]; ev_var 1 true 1; ev_conf 2 ]
    (function D.Shadows_original 2 -> true | _ -> false)
    "CL reusing original id"

let test_cycle_detected () =
  (* 3 and 4 defined in terms of each other; final conflict needs 3 *)
  expect tiny_formula
    [ ev_header 1 2; ev_cl 3 [| 4; 1 |]; ev_cl 4 [| 3; 2 |]; ev_conf 3 ]
    (function D.Cyclic_definition _ -> true | _ -> false)
    "cyclic sources"

let test_self_cycle () =
  expect tiny_formula
    [ ev_header 1 2; ev_cl 3 [| 3; 1 |]; ev_conf 3 ]
    (function D.Cyclic_definition _ -> true | _ -> false)
    "self-referential clause"

(* a bigger formula: (1 2)(¬2 3)(¬1 ¬2)(2)(¬3 ¬2) — unsat; craft a real
   resolution trace by hand *)
let crafted_formula =
  Sat.Cnf.of_clauses 3
    [
      Sat.Clause.of_ints [ 1; 2 ];
      Sat.Clause.of_ints [ -2; 3 ];
      Sat.Clause.of_ints [ -1; -2 ];
      Sat.Clause.of_ints [ 2 ];
      Sat.Clause.of_ints [ -3; -2 ];
    ]

(* x2 := true by clause 4; x3 := true by clause 2; x1 := false by clause 3;
   then clause 5 (¬3 ¬2) is conflicting at level 0 *)
let crafted_trace =
  [
    ev_header 3 5;
    ev_var 2 true 4;
    ev_var 3 true 2;
    ev_var 1 false 3;
    ev_conf 5;
  ]

let test_crafted_accepted () =
  match df crafted_formula crafted_trace with
  | Ok r ->
    (* the empty-clause construction should not need clause 1 or 3 *)
    Alcotest.check Alcotest.bool "core excludes unused clause 1" true
      (not (List.mem 1 r.core_original_ids));
    Alcotest.check Alcotest.bool "core includes conflict clause 5" true
      (List.mem 5 r.core_original_ids)
  | Error d -> Alcotest.failf "rejected: %s" (D.to_string d)

let test_no_clash_diagnostic () =
  (* sources (1 2) and (¬2 3) resolve fine; (1 2) and (2) do not clash *)
  expect crafted_formula
    [ ev_header 3 5; ev_cl 6 [| 1; 4 |]; ev_var 2 true 4; ev_var 3 true 2;
      ev_var 1 false 3; ev_cl 7 [| 6; 5 |]; ev_conf 7 ]
    (function D.No_clash _ -> true | _ -> false)
    "no clash in learned chain"

(* --- real traces, positive and mutated -------------------------------- *)

let families_accepted () =
  List.iter
    (fun (fam : Gen.Families.family) ->
      let f = fam.generate () in
      let result, _, trace = Pipeline.Validate.solve_with_trace f in
      match result with
      | Solver.Cdcl.Sat _ -> Alcotest.failf "%s unexpectedly sat" fam.name
      | Solver.Cdcl.Unsat -> (
        match Checker.Df.check f (Trace.Reader.From_string trace) with
        | Ok r ->
          Alcotest.check Alcotest.bool
            (fam.name ^ ": built ratio in (0,1]") true
            (Checker.Report.built_ratio r > 0.0
             && Checker.Report.built_ratio r <= 1.0)
        | Error d ->
          Alcotest.failf "%s rejected: %s" fam.name (D.to_string d)))
    (Gen.Families.quick ())

let binary_trace_accepted () =
  let f = Gen.Php.unsat ~holes:4 in
  let w = Trace.Writer.create Trace.Writer.Binary in
  (match Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink w) f with
   | Solver.Cdcl.Unsat, _ -> ()
   | Solver.Cdcl.Sat _, _ -> Alcotest.fail "php unsat");
  match
    Checker.Df.check f (Trace.Reader.From_string (Trace.Writer.contents w))
  with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "binary trace rejected: %s" (D.to_string d)

let mutation_drop_cl () =
  let f, events = Helpers.unsat_with_events () in
  (* drop the last CL record: it is the one the final conflict depends on
     (or at least plausibly so); the checker must not accept silently *)
  let last_cl =
    List.fold_left
      (fun acc e -> match e with Trace.Event.Learned l -> Some l.id | _ -> acc)
      None events
  in
  match last_cl with
  | None -> Alcotest.fail "expected learned clauses"
  | Some id ->
    let mutated =
      List.filter
        (function Trace.Event.Learned l -> l.id <> id | _ -> true)
        events
    in
    (* the dropped clause is referenced by the final conflict chain in
       php traces; expect Unknown_clause *)
    Helpers.expect_df_failure f mutated
      (function D.Unknown_clause _ -> true | _ -> false)
      "dropped CL"

let mutation_corrupt_sources () =
  let f, events = Helpers.unsat_with_events () in
  (* replace every CL's first source with an arbitrary original clause —
     at least the clauses on the proof path become wrong *)
  let mutated =
    List.map
      (function
        | Trace.Event.Learned l ->
          let sources = Array.copy l.sources in
          sources.(0) <- 1;
          Trace.Event.Learned { l with sources }
        | e -> e)
      events
  in
  match Checker.Df.check f (Helpers.events_to_source mutated) with
  | Ok _ -> Alcotest.fail "corrupted sources accepted"
  | Error _ -> ()

let mutation_flip_var_values () =
  let f, events = Helpers.unsat_with_events () in
  let mutated =
    List.map
      (function
        | Trace.Event.Level0 v -> Trace.Event.Level0 { v with value = not v.value }
        | e -> e)
      events
  in
  match Checker.Df.check f (Helpers.events_to_source mutated) with
  | Ok _ -> Alcotest.fail "flipped level-0 values accepted"
  | Error _ -> ()

let mutation_truncate () =
  let f, events = Helpers.unsat_with_events () in
  (* keep only the first half of the trace (plus no CONF) *)
  let n = List.length events / 2 in
  let mutated = List.filteri (fun i _ -> i < n) events in
  match Checker.Df.check f (Helpers.events_to_source mutated) with
  | Ok _ -> Alcotest.fail "truncated trace accepted"
  | Error _ -> ()

let test_deep_linear_proof () =
  (* a 50k-deep resolve-source chain: recursive_build implemented with
     an explicit stack must not overflow, and all three checkers agree *)
  let n = 50_000 in
  let clauses =
    Sat.Clause.of_ints [ 1 ]
    :: List.init (n - 1) (fun i ->
           Sat.Clause.of_ints [ -(i + 1); i + 2 ])
    @ [ Sat.Clause.of_ints [ -n ] ]
  in
  let f = Sat.Cnf.of_clauses n clauses in
  (* learned chain: L_k = (x_k), built from c_k and the previous link *)
  let events = ref [ ev_header n (n + 1) ] in
  for k = 2 to n do
    let id = n + k in
    let prev = if k = 2 then 1 else n + k - 1 in
    events := ev_cl id [| k; prev |] :: !events
  done;
  events := ev_var n true (2 * n) :: !events;
  events := ev_conf (n + 1) :: !events;
  let source = Helpers.events_to_source (List.rev !events) in
  (match Checker.Df.check f source with
   | Ok r ->
     Alcotest.check Alcotest.int "all links built" (n - 1) r.clauses_built
   | Error d -> Alcotest.failf "df: %s" (D.to_string d));
  (match Checker.Bf.check f source with
   | Ok _ -> ()
   | Error d -> Alcotest.failf "bf: %s" (D.to_string d));
  match Checker.Hybrid.check f source with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "hybrid: %s" (D.to_string d)

let df_memory_limit () =
  (* a small simulated budget turns the check into the paper's
     memory-out rows *)
  let f = Gen.Php.unsat ~holes:5 in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php unsat");
  try
    ignore
      (Checker.Df.check ~mem_limit:100 f (Trace.Reader.From_string trace));
    Alcotest.fail "tiny budget not enforced"
  with Proof.Clause_db.Out_of_memory_simulated _ -> ()

let core_is_unsat () =
  (* §4: the original clauses touched by the proof form an unsatisfiable
     core *)
  let rng = Sat.Rng.create 909 in
  let tried = ref 0 in
  while !tried < 5 do
    let f = Helpers.random_3sat rng ~nvars:12 ~nclauses:70 in
    let result, _, trace = Pipeline.Validate.solve_with_trace f in
    match result with
    | Solver.Cdcl.Sat _ -> ()
    | Solver.Cdcl.Unsat -> (
      incr tried;
      match Checker.Df.check f (Trace.Reader.From_string trace) with
      | Error d -> Alcotest.failf "check failed: %s" (D.to_string d)
      | Ok r ->
        let core =
          Sat.Cnf.restrict_to f
            (List.map (fun id -> id - 1) r.core_original_ids)
        in
        (match Solver.Enumerate.solve core with
         | Solver.Cdcl.Unsat -> ()
         | Solver.Cdcl.Sat _ -> Alcotest.fail "proof core is satisfiable"))
  done

let suite =
  [
    ( "df-crafted",
      [
        Alcotest.test_case "tiny accepted" `Quick test_tiny_accepted;
        Alcotest.test_case "missing header" `Quick test_missing_header;
        Alcotest.test_case "header mismatch" `Quick test_header_mismatch;
        Alcotest.test_case "missing final conflict" `Quick
          test_missing_final_conflict;
        Alcotest.test_case "missing var record" `Quick test_missing_var_record;
        Alcotest.test_case "wrong var value" `Quick test_wrong_var_value;
        Alcotest.test_case "bad antecedent" `Quick test_bad_antecedent;
        Alcotest.test_case "unknown clause" `Quick test_unknown_clause;
        Alcotest.test_case "duplicate definition" `Quick
          test_duplicate_definition;
        Alcotest.test_case "shadows original" `Quick test_shadows_original;
        Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
        Alcotest.test_case "self cycle" `Quick test_self_cycle;
        Alcotest.test_case "crafted accepted + core" `Quick
          test_crafted_accepted;
        Alcotest.test_case "no-clash diagnostic" `Quick
          test_no_clash_diagnostic;
      ] );
    ( "df-real",
      [
        Alcotest.test_case "families accepted" `Slow families_accepted;
        Alcotest.test_case "binary trace accepted" `Quick
          binary_trace_accepted;
        Alcotest.test_case "mutation: drop CL" `Quick mutation_drop_cl;
        Alcotest.test_case "mutation: corrupt sources" `Quick
          mutation_corrupt_sources;
        Alcotest.test_case "mutation: flip values" `Quick
          mutation_flip_var_values;
        Alcotest.test_case "mutation: truncate" `Quick mutation_truncate;
        Alcotest.test_case "deep linear proof" `Quick test_deep_linear_proof;
        Alcotest.test_case "simulated memory limit" `Quick df_memory_limit;
        Alcotest.test_case "proof core is unsat" `Slow core_is_unsat;
      ] );
  ]
