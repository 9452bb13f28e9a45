(* The linter's corrupted-trace corpus: every corruption class from the
   DESIGN.md error-code table, exercised in both the ASCII and binary
   encodings, asserting the *specific* lint code — the codes are a stable
   contract.  Plus the acceptance criterion: solver-generated traces from
   every registered benchmark family lint clean.  The runtime-sanitizer
   tests live here too, since the sanitizer is the other half of the
   static-analysis layer. *)

module L = Analysis.Lint

let lint ?formula s = L.run ?formula (Trace.Reader.From_string s)

let codes (r : L.report) =
  List.map (fun (d : L.diagnostic) -> L.code_id d.code) r.diagnostics

let expect_code name (r : L.report) c =
  if not (List.mem c (codes r)) then
    Alcotest.failf "%s: expected %s among [%s]" name c
      (String.concat "; " (codes r))

let expect_dirty name (r : L.report) c =
  expect_code name r c;
  if L.clean r then Alcotest.failf "%s: report unexpectedly clean" name

let expect_clean name (r : L.report) =
  if not (L.clean r) then
    Alcotest.failf "%s: expected clean, got errors [%s]" name
      (String.concat "; " (codes r))

(* A minimal well-formed trace: 2 vars, 2 original clauses, one learned
   clause resolving them, a level-0 implication, the final conflict. *)
let ok_events =
  Trace.Event.
    [
      Header { nvars = 2; num_original = 2 };
      Learned { id = 3; sources = [| 1; 2 |] };
      Level0 { var = 1; value = true; ante = 3 };
      Final_conflict 3;
    ]

let serialize fmt events =
  let w = Trace.Writer.create fmt in
  List.iter (Trace.Writer.emit w) events;
  Trace.Writer.contents w

(* Run one corruption case against both encodings. *)
let both name events expected =
  List.iter
    (fun (fmt, tag) ->
      expect_dirty (name ^ "/" ^ tag) (lint (serialize fmt events)) expected)
    [ (Trace.Writer.Ascii, "ascii"); (Trace.Writer.Binary, "binary") ]

let test_clean_trace () =
  expect_clean "ascii" (lint (serialize Trace.Writer.Ascii ok_events));
  let r = lint (serialize Trace.Writer.Binary ok_events) in
  expect_clean "binary" r;
  Alcotest.check Alcotest.bool "binary detected" true r.L.binary;
  Alcotest.check Alcotest.int "events" 4 r.L.events;
  Alcotest.check Alcotest.int "learned" 1 r.L.learned;
  Alcotest.check Alcotest.int "level0" 1 r.L.level0

let test_duplicate_id () =
  both "duplicate id"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 2 |] };
        Learned { id = 3; sources = [| 1; 2 |] };
        Final_conflict 3;
      ]
    "L102"

let test_forward_reference () =
  both "forward reference"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 4 |] };
        Learned { id = 4; sources = [| 2; 3 |] };
        Final_conflict 4;
      ]
    "L106"

let test_dangling_reference () =
  both "dangling reference"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 99 |] };
        Final_conflict 3;
      ]
    "L106"

let test_out_of_range_var () =
  both "var out of range"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 2 |] };
        Level0 { var = 9; value = true; ante = 3 };
        Final_conflict 3;
      ]
    "L201"

let test_missing_conflict () =
  both "missing conflict"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 2 |] };
      ]
    "L301"

let test_shadows_original () =
  both "shadows original"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 2; sources = [| 1; 2 |] };
        Final_conflict 2;
      ]
    "L101"

let test_self_source () =
  both "self source"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 3 |] };
        Final_conflict 3;
      ]
    "L105"

let test_duplicate_level0 () =
  both "duplicate level0"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 2 |] };
        Level0 { var = 1; value = true; ante = 3 };
        Level0 { var = 1; value = false; ante = 3 };
        Final_conflict 3;
      ]
    "L202"

let test_bad_antecedent () =
  both "bad antecedent"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Level0 { var = 1; value = true; ante = 77 };
        Final_conflict 2;
      ]
    "L203"

let test_conflict_unknown () =
  both "conflict unknown"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 2 |] };
        Final_conflict 42;
      ]
    "L302"

let test_duplicate_header () =
  both "duplicate header"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 2 |] };
        Final_conflict 3;
      ]
    "L003"

let test_event_before_header () =
  both "event before header"
    Trace.Event.
      [
        Learned { id = 3; sources = [| 1; 2 |] };
        Header { nvars = 2; num_original = 2 };
        Final_conflict 3;
      ]
    "L005"

let test_missing_header () =
  both "missing header"
    Trace.Event.[ Learned { id = 3; sources = [| 1; 2 |] } ]
    "L002"

let test_header_dims () =
  let r = lint "t 0 2\nCONF 1\n" in
  expect_dirty "zero vars" r "L004"

let test_empty_sources_binary () =
  (* the ASCII grammar cannot express an empty source list ("CL 3" does
     not parse), so this one is binary-only *)
  let s =
    serialize Trace.Writer.Binary
      Trace.Event.
        [
          Header { nvars = 2; num_original = 2 };
          Learned { id = 3; sources = [||] };
          Final_conflict 3;
        ]
  in
  expect_dirty "empty sources" (lint s) "L104"

(* --- warnings: suspicious but replayable, so the report stays clean --- *)

let expect_warn name events code =
  List.iter
    (fun (fmt, tag) ->
      let r = lint (serialize fmt events) in
      expect_code (name ^ "/" ^ tag) r code;
      expect_clean (name ^ "/" ^ tag) r;
      if r.L.warnings = 0 then
        Alcotest.failf "%s/%s: warning not counted" name tag)
    [ (Trace.Writer.Ascii, "ascii"); (Trace.Writer.Binary, "binary") ]

let test_nonmonotone_warning () =
  expect_warn "nonmonotone"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 3 };
        Learned { id = 5; sources = [| 1; 2 |] };
        Learned { id = 4; sources = [| 2; 3 |] };
        Final_conflict 5;
      ]
    "L103"

let test_after_conflict_warning () =
  expect_warn "after conflict"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 2 |] };
        Final_conflict 3;
        Learned { id = 4; sources = [| 1; 3 |] };
      ]
    "L303"

let test_repeated_source_warning () =
  expect_warn "repeated source"
    Trace.Event.
      [
        Header { nvars = 2; num_original = 2 };
        Learned { id = 3; sources = [| 1; 1 |] };
        Final_conflict 3;
      ]
    "L107"

(* --- truncation and garbage ------------------------------------------- *)

let test_ascii_truncation () =
  let s = serialize Trace.Writer.Ascii ok_events in
  (* cut mid-record: the CONF line loses its argument *)
  let cut = String.sub s 0 (String.length s - 2) in
  let r = lint cut in
  expect_dirty "ascii truncation" r "L001";
  expect_code "ascii truncation also misses conflict" r "L301"

let test_ascii_resync () =
  (* a garbled line in the middle: the ASCII cursor must resume on the
     next line, so the rest of the trace still gets linted *)
  let r = lint "t 2 2\nCL 3 1 2\nnonsense here\nVAR 1 1 3\nCONF 3\n" in
  expect_dirty "garbled line" r "L001";
  Alcotest.check Alcotest.int "later events still seen" 4 r.L.events;
  Alcotest.check Alcotest.int "only the bad line errors" 1 r.L.errors

let test_binary_truncation () =
  let s = serialize Trace.Writer.Binary ok_events in
  let cut = String.sub s 0 (String.length s - 3) in
  expect_dirty "binary truncation" (lint cut) "L001"

let test_binary_garbage () =
  (* valid magic, then bytes that are no valid record *)
  expect_dirty "binary garbage" (lint "ZKB1\xff\xff\xff\xff\xff") "L001";
  (* an over-long varint must not loop forever *)
  expect_dirty "garbled varint"
    (lint ("ZKB1\x01" ^ String.make 12 '\xff'))
    "L001"

(* --- formula cross-checks (L4xx) --------------------------------------- *)

let test_formula_mismatch () =
  let f = Sat.Cnf.of_clauses 5 [ Sat.Clause.of_ints [ 1; 2 ] ] in
  let r = L.run ~formula:f (Trace.Reader.From_string "t 2 2\nCONF 1\n") in
  expect_dirty "dims disagree" r "L401"

let test_formula_clause_lint () =
  let f =
    Sat.Cnf.of_clauses 2
      [ Sat.Clause.of_ints [ 1; -1 ]; Sat.Clause.of_ints [ 1; 1; 2 ] ]
  in
  let r = L.run ~formula:f (Trace.Reader.From_string "t 2 2\nCONF 1\n") in
  expect_code "tautology" r "L404";
  expect_code "duplicate literal" r "L403"

(* --- report plumbing ---------------------------------------------------- *)

let test_json_output () =
  let r =
    lint
      (serialize Trace.Writer.Ascii
         Trace.Event.
           [
             Header { nvars = 2; num_original = 2 };
             Learned { id = 3; sources = [| 1; 99 |] };
           ])
  in
  let j = L.to_json r in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length j && (String.sub j i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun sub ->
      if not (contains sub) then
        Alcotest.failf "json missing %s in %s" sub j)
    [ {|"format":"ascii"|}; {|"code":"L106"|}; {|"code":"L301"|}; {|"line":2|} ]

let test_by_code_counts () =
  let r =
    lint
      (serialize Trace.Writer.Ascii
         Trace.Event.
           [
             Header { nvars = 2; num_original = 2 };
             Learned { id = 3; sources = [| 1; 99 |] };
             Learned { id = 4; sources = [| 2; 98 |] };
           ])
  in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "per-code counts, sorted"
    [ ("L106", 2); ("L301", 1) ]
    r.L.by_code;
  let j = L.to_json r in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length j && (String.sub j i n = sub || go (i + 1))
    in
    go 0
  in
  if not (contains {|"by_code":{"L106":2,"L301":1}|}) then
    Alcotest.failf "json missing by_code block in %s" j

let test_by_code_uncapped () =
  (* the cap drops retained diagnostics, never the per-code counts *)
  let b = Buffer.create 256 in
  Buffer.add_string b "t 2 2\n";
  for i = 0 to 19 do
    Buffer.add_string b (Printf.sprintf "CL %d 1 99\n" (3 + i))
  done;
  Buffer.add_string b "CONF 3\n";
  let r =
    L.run ~max_diagnostics:5 (Trace.Reader.From_string (Buffer.contents b))
  in
  Alcotest.check
    (Alcotest.option Alcotest.int)
    "L106 counted past the cap" (Some 20)
    (List.assoc_opt "L106" r.L.by_code)

let test_diagnostic_cap () =
  let b = Buffer.create 256 in
  Buffer.add_string b "t 2 2\n";
  for i = 0 to 19 do
    Buffer.add_string b (Printf.sprintf "CL %d 1 99\n" (3 + i))
  done;
  Buffer.add_string b "CONF 3\n";
  let r = L.run ~max_diagnostics:5 (Trace.Reader.From_string (Buffer.contents b)) in
  Alcotest.check Alcotest.int "retained capped" 5 (List.length r.L.diagnostics);
  Alcotest.check Alcotest.int "errors keep counting" 20 r.L.errors;
  Alcotest.check Alcotest.int "dropped counted" 15 r.L.dropped

(* --- acceptance: real solver traces lint clean ------------------------- *)

let test_families_lint_clean () =
  List.iter
    (fun (fam : Gen.Families.family) ->
      let f = fam.generate () in
      let result, _stats, trace = Pipeline.Validate.solve_with_trace f in
      match result with
      | Solver.Cdcl.Sat _ -> ()  (* SAT runs produce no proof trace *)
      | Solver.Cdcl.Unsat ->
        let r = L.run ~formula:f (Trace.Reader.From_string trace) in
        if not (L.clean r) then
          Alcotest.failf "%s: solver trace not lint-clean: [%s]" fam.name
            (String.concat "; " (codes r)))
    (Gen.Families.suite ())

let test_binary_roundtrip_lint_clean () =
  let f = Gen.Php.unsat ~holes:5 in
  let w = Trace.Writer.create Trace.Writer.Binary in
  (match Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink w) f with
   | Solver.Cdcl.Unsat, _ -> ()
   | Solver.Cdcl.Sat _, _ -> Alcotest.fail "php must be unsat");
  let r = L.run ~formula:f (Trace.Reader.From_string (Trace.Writer.contents w)) in
  expect_clean "php binary trace" r;
  Alcotest.check Alcotest.bool "binary" true r.L.binary

(* --- runtime sanitizer -------------------------------------------------- *)

let sanitize_case ?(holes = 4) name config =
  Alcotest.test_case name `Quick (fun () ->
      (* the sanitizer only reads: the trace is byte-identical with it on *)
      let traced (config : Solver.Cdcl.config) =
        let version = if config.emit_deletes then 2 else 1 in
        Pipeline.Validate.solve_with_trace ~config ~version
          (Gen.Php.unsat ~holes)
      in
      let config = { config with Solver.Cdcl.sanitize = true } in
      let result, _, checked = traced config in
      let _, _, plain = traced { config with Solver.Cdcl.sanitize = false } in
      Alcotest.check Alcotest.bool "sanitized trace identical" true
        (plain = checked);
      (* an UNSAT and a SAT instance, both solved under full invariant
         checking at every decision boundary; answers must be unchanged *)
      (match result with
       | Solver.Cdcl.Unsat -> ()
       | Solver.Cdcl.Sat _ ->
         Alcotest.failf "php-%d sanitized: wrong answer" holes);
      let rng = Sat.Rng.create 7 in
      let sat_f = Gen.Random3sat.generate rng ~nvars:20 ~nclauses:40 in
      match Solver.Cdcl.solve ~config sat_f with
      | Solver.Cdcl.Sat a, _ ->
        Alcotest.check Alcotest.bool "model valid" true
          (Sat.Model.satisfies a sat_f)
      | Solver.Cdcl.Unsat, _ ->
        Alcotest.fail "sparse random instance should be sat")

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "lint",
      [
        tc "clean trace, both formats" test_clean_trace;
        tc "duplicate id (L102)" test_duplicate_id;
        tc "forward reference (L106)" test_forward_reference;
        tc "dangling reference (L106)" test_dangling_reference;
        tc "out-of-range var (L201)" test_out_of_range_var;
        tc "missing conflict (L301)" test_missing_conflict;
        tc "shadows original (L101)" test_shadows_original;
        tc "self source (L105)" test_self_source;
        tc "duplicate level0 (L202)" test_duplicate_level0;
        tc "bad antecedent (L203)" test_bad_antecedent;
        tc "conflict unknown (L302)" test_conflict_unknown;
        tc "duplicate header (L003)" test_duplicate_header;
        tc "event before header (L005)" test_event_before_header;
        tc "missing header (L002)" test_missing_header;
        tc "header dims (L004)" test_header_dims;
        tc "empty sources, binary (L104)" test_empty_sources_binary;
        tc "nonmonotone ids warn (L103)" test_nonmonotone_warning;
        tc "records after conflict warn (L303)" test_after_conflict_warning;
        tc "repeated source warns (L107)" test_repeated_source_warning;
        tc "ascii truncation (L001)" test_ascii_truncation;
        tc "ascii resync after garbled line" test_ascii_resync;
        tc "binary truncation (L001)" test_binary_truncation;
        tc "binary garbage (L001)" test_binary_garbage;
        tc "formula dims mismatch (L401)" test_formula_mismatch;
        tc "formula clause lint (L403/L404)" test_formula_clause_lint;
        tc "json rendering" test_json_output;
        tc "by-code counts" test_by_code_counts;
        tc "by-code counts survive the cap" test_by_code_uncapped;
        tc "diagnostic cap" test_diagnostic_cap;
        Alcotest.test_case "all benchmark families lint clean" `Slow
          test_families_lint_clean;
        tc "binary solver trace lints clean" test_binary_roundtrip_lint_clean;
      ] );
    ( "sanitizer",
      [
        (* php-4 takes tens of conflicts: enough for reduce_db to run
           under every config, and inprocess under the last *)
        sanitize_case "two-watched invariants hold" Solver.Cdcl.default_config;
        sanitize_case "invariants hold under aggressive deletion"
          {
            Solver.Cdcl.default_config with
            max_learned_factor = 0.05;
            max_learned_inc = 1.01;
          };
        sanitize_case "invariants hold under inprocessing"
          { Solver.Cdcl.default_config with inprocess_interval = 5 };
        (* enough conflicts that the arena is compacted many times, with
           deletion batches from both reduction and inprocessing *)
        sanitize_case ~holes:6 "arena invariants hold across compactions"
          {
            Solver.Cdcl.default_config with
            max_learned_factor = 0.05;
            max_learned_inc = 1.01;
            inprocess_interval = 5;
            emit_deletes = true;
          };
      ] );
  ]
