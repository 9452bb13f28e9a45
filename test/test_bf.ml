(* Breadth-first checker tests: agreement with DF on genuine traces,
   stream-order strictness, the bounded-memory guarantee, and rejection of
   corrupted traces. *)

module D = Proof.Diagnostics

let ev_header nvars num_original = Trace.Event.Header { nvars; num_original }
let ev_cl id sources = Trace.Event.Learned { id; sources }
let ev_var var value ante = Trace.Event.Level0 { var; value; ante }
let ev_conf id = Trace.Event.Final_conflict id

let tiny_formula =
  Sat.Cnf.of_clauses 1 [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1 ] ]

let test_tiny_accepted () =
  match
    Checker.Bf.check tiny_formula
      (Helpers.events_to_source [ ev_header 1 2; ev_var 1 true 1; ev_conf 2 ])
  with
  | Ok r -> Alcotest.check Alcotest.int "nothing built" 0 r.clauses_built
  | Error d -> Alcotest.failf "rejected: %s" (D.to_string d)

let test_forward_reference () =
  (* clause 4 uses clause 5, defined later: legal for DF (it is a DAG),
     illegal for the streaming BF pass *)
  let f =
    Sat.Cnf.of_clauses 3
      [
        Sat.Clause.of_ints [ 1; 2 ];
        Sat.Clause.of_ints [ -2; 3 ];
        Sat.Clause.of_ints [ -3; -2 ];
        Sat.Clause.of_ints [ 2 ];
      ]
  in
  let events =
    [
      ev_header 3 4;
      ev_cl 5 [| 6; 3 |];   (* forward reference to 6 *)
      ev_cl 6 [| 1; 2 |];
      ev_var 2 true 4;
      ev_var 3 true 2;
      ev_conf 3;
    ]
  in
  Helpers.expect_bf_failure f events
    (function D.Forward_reference r -> r.id = 5 && r.source = 6 | _ -> false)
    "forward reference"

let test_agreement_with_df () =
  (* same verdict and same resolution-step count on genuine traces *)
  List.iter
    (fun (fam : Gen.Families.family) ->
      let f = fam.generate () in
      let result, _, trace = Pipeline.Validate.solve_with_trace f in
      match result with
      | Solver.Cdcl.Sat _ -> Alcotest.failf "%s unexpectedly sat" fam.name
      | Solver.Cdcl.Unsat -> (
        let src = Trace.Reader.From_string trace in
        match Checker.Df.check f src, Checker.Bf.check f src with
        | Ok df, Ok bf ->
          Alcotest.check Alcotest.int
            (fam.name ^ ": same learned count")
            df.total_learned bf.total_learned;
          Alcotest.check Alcotest.bool
            (fam.name ^ ": BF builds everything") true
            (bf.clauses_built = bf.total_learned);
          Alcotest.check Alcotest.bool
            (fam.name ^ ": DF builds a subset") true
            (df.clauses_built <= bf.clauses_built)
        | Error d, _ ->
          Alcotest.failf "%s: DF rejected: %s" fam.name (D.to_string d)
        | _, Error d ->
          Alcotest.failf "%s: BF rejected: %s" fam.name (D.to_string d)))
    (Gen.Families.quick ())

let test_memory_bounded () =
  (* the §3.3 guarantee: BF peak memory stays far below DF peak on a
     learning-heavy instance *)
  let f = Gen.Php.unsat ~holes:6 in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php unsat");
  let src = Trace.Reader.From_string trace in
  let m_df = Harness.Meter.create () in
  let m_bf = Harness.Meter.create () in
  (match Checker.Df.check ~meter:m_df f src with
   | Ok _ -> ()
   | Error d -> Alcotest.failf "df: %s" (D.to_string d));
  (match Checker.Bf.check ~meter:m_bf f src with
   | Ok _ -> ()
   | Error d -> Alcotest.failf "bf: %s" (D.to_string d));
  let df_peak = Harness.Meter.peak_words m_df in
  let bf_peak = Harness.Meter.peak_words m_bf in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "bf peak (%d) well below df peak (%d)" bf_peak df_peak)
    true
    (bf_peak * 3 < df_peak)

let test_bf_survives_df_memory_limit () =
  (* the paper's Table 2 star rows: a budget DF busts, BF fits *)
  let f = Gen.Php.unsat ~holes:6 in
  let _, _, trace = Pipeline.Validate.solve_with_trace f in
  let src = Trace.Reader.From_string trace in
  let m_df = Harness.Meter.create () in
  (match Checker.Df.check ~meter:m_df f src with
   | Ok _ -> ()
   | Error d -> Alcotest.failf "df: %s" (D.to_string d));
  (* a budget halfway between the two peaks *)
  let budget = Harness.Meter.peak_words m_df / 2 in
  (try
     let m = Harness.Meter.create ~limit_words:budget () in
     ignore (Checker.Df.check ~meter:m f src);
     Alcotest.fail "DF fit in half its own peak"
   with Harness.Meter.Out_of_memory_simulated _ -> ());
  let m = Harness.Meter.create ~limit_words:budget () in
  match Checker.Bf.check ~meter:m f src with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "bf under budget: %s" (D.to_string d)

let test_temp_file_counting () =
  (* the paper's literal implementation: counts in a real temporary file,
     chunked counting passes; must agree with the in-memory mode *)
  let f = Gen.Php.unsat ~holes:5 in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php unsat");
  let src = Trace.Reader.From_string trace in
  let m_mem = Harness.Meter.create () in
  let m_file = Harness.Meter.create () in
  match
    ( Checker.Bf.check ~meter:m_mem f src,
      Checker.Bf.check ~meter:m_file ~counting:(`Temp_file 64) f src )
  with
  | Ok a, Ok b ->
    Alcotest.check Alcotest.int "same built" a.clauses_built b.clauses_built;
    Alcotest.check Alcotest.int "same steps" a.resolution_steps
      b.resolution_steps;
    Alcotest.check Alcotest.int "same peak"
      (Harness.Meter.peak_words m_mem)
      (Harness.Meter.peak_words m_file)
  | Error d, _ | _, Error d ->
    Alcotest.failf "bf failed: %s" (D.to_string d)

(* chunked counting must reproduce the in-memory report *exactly* —
   every field, including the meter peak — for degenerate chunk sizes
   (1 = one ID per pass, 2, and an odd 7), across two proof shapes *)
let test_temp_file_chunk_sizes () =
  let instances =
    [
      ("php", Gen.Php.unsat ~holes:4);
      ("parity", Gen.Parity.odd_cycle 8);
    ]
  in
  List.iter
    (fun (name, f) ->
      let result, _, trace = Pipeline.Validate.solve_with_trace f in
      (match result with
       | Solver.Cdcl.Unsat -> ()
       | Solver.Cdcl.Sat _ -> Alcotest.failf "%s: instance must be unsat" name);
      let src = Trace.Reader.From_string trace in
      let m_mem = Harness.Meter.create () in
      let reference =
        match Checker.Bf.check ~meter:m_mem f src with
        | Ok r -> r
        | Error d -> Alcotest.failf "%s in-memory: %s" name (D.to_string d)
      in
      List.iter
        (fun chunk ->
          let m_file = Harness.Meter.create () in
          match
            Checker.Bf.check ~meter:m_file ~counting:(`Temp_file chunk) f src
          with
          | Error d ->
            Alcotest.failf "%s chunk %d: %s" name chunk (D.to_string d)
          | Ok r ->
            let ctx fld = Printf.sprintf "%s chunk %d: %s" name chunk fld in
            Alcotest.check Alcotest.int (ctx "built") reference.clauses_built
              r.clauses_built;
            Alcotest.check Alcotest.int (ctx "learned")
              reference.total_learned r.total_learned;
            Alcotest.check Alcotest.int (ctx "steps")
              reference.resolution_steps r.resolution_steps;
            Alcotest.check (Alcotest.list Alcotest.int) (ctx "built ids")
              reference.learned_built_ids r.learned_built_ids;
            Alcotest.check Alcotest.int (ctx "peak words")
              reference.peak_mem_words r.peak_mem_words;
            Alcotest.check Alcotest.int (ctx "peak live clauses")
              reference.peak_live_clauses r.peak_live_clauses;
            Alcotest.check Alcotest.int (ctx "arena bytes")
              reference.arena_bytes_resident r.arena_bytes_resident;
            Alcotest.check Alcotest.int (ctx "meter peak")
              (Harness.Meter.peak_words m_mem)
              (Harness.Meter.peak_words m_file))
        [ 1; 2; 7 ])
    instances

let test_temp_file_counting_rejects () =
  let f, events = Helpers.unsat_with_events () in
  let broken =
    List.filter (function Trace.Event.Learned _ -> false | _ -> true) events
  in
  let w = Trace.Writer.create Trace.Writer.Ascii in
  List.iter (Trace.Writer.emit w) broken;
  match
    Checker.Bf.check ~counting:(`Temp_file 128) f
      (Trace.Reader.From_string (Trace.Writer.contents w))
  with
  | Ok _ -> Alcotest.fail "temp-file mode accepted a broken trace"
  | Error _ -> ()

let test_mutations_rejected () =
  let f, events = Helpers.unsat_with_events () in
  let cases =
    [
      ( "drop all CL",
        List.filter
          (function Trace.Event.Learned _ -> false | _ -> true)
          events );
      ( "drop VAR records",
        List.filter
          (function Trace.Event.Level0 _ -> false | _ -> true)
          events );
      ( "drop CONF",
        List.filter
          (function Trace.Event.Final_conflict _ -> false | _ -> true)
          events );
      ( "swap source order",
        List.map
          (function
            | Trace.Event.Learned l when Array.length l.sources >= 2 ->
              let sources = Array.copy l.sources in
              let tmp = sources.(0) in
              sources.(0) <- sources.(Array.length sources - 1);
              sources.(Array.length sources - 1) <- tmp;
              Trace.Event.Learned { l with sources }
            | e -> e)
          events );
    ]
  in
  List.iter
    (fun (name, mutated) ->
      match Checker.Bf.check f (Helpers.events_to_source mutated) with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error _ -> ())
    cases

let test_bf_detects_unused_bad_clause () =
  (* a learned clause never used by the proof but with invalid sources:
     DF skips it (never built), BF builds everything and catches it —
     exactly the structural difference between §3.2 and §3.3 *)
  let f, events = Helpers.unsat_with_events () in
  let max_id =
    List.fold_left
      (fun acc e -> match e with Trace.Event.Learned l -> max acc l.id | _ -> acc)
      0 events
  in
  (* sources [1; 1] cannot resolve: same clause twice has no clash *)
  let bogus = Trace.Event.Learned { id = max_id + 1; sources = [| 1; 1 |] } in
  let mutated =
    (* insert before the CONF record *)
    List.concat_map
      (function
        | Trace.Event.Final_conflict _ as e -> [ bogus; e ]
        | e -> [ e ])
      events
  in
  (match Checker.Df.check f (Helpers.events_to_source mutated) with
   | Ok _ -> () (* DF legitimately never builds the bogus clause *)
   | Error d ->
     Alcotest.failf "DF built an unused clause: %s" (D.to_string d));
  match Checker.Bf.check f (Helpers.events_to_source mutated) with
  | Ok _ -> Alcotest.fail "BF accepted a bogus (unused) clause"
  | Error (D.No_clash _) -> ()
  | Error d -> Alcotest.failf "unexpected diagnostic: %s" (D.to_string d)

let suite =
  [
    ( "bf",
      [
        Alcotest.test_case "tiny accepted" `Quick test_tiny_accepted;
        Alcotest.test_case "forward reference" `Quick test_forward_reference;
        Alcotest.test_case "agreement with DF" `Slow test_agreement_with_df;
        Alcotest.test_case "memory bounded" `Quick test_memory_bounded;
        Alcotest.test_case "survives DF's memory limit" `Quick
          test_bf_survives_df_memory_limit;
        Alcotest.test_case "temp-file counting" `Quick
          test_temp_file_counting;
        Alcotest.test_case "temp-file chunk sizes" `Quick
          test_temp_file_chunk_sizes;
        Alcotest.test_case "temp-file rejects" `Quick
          test_temp_file_counting_rejects;
        Alcotest.test_case "mutations rejected" `Quick test_mutations_rejected;
        Alcotest.test_case "unused bad clause caught" `Quick
          test_bf_detects_unused_bad_clause;
      ] );
  ]
