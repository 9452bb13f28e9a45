(* Hinted one-pass checking: the `rescheck hint` converter must produce
   hint-complete traces the one-pass checker validates with breadth-first
   identical reports at breadth-first peak residency, and a wrong,
   permuted, duplicated or dangling hint must be rejected with a
   positioned diagnostic — never silently change a verdict. *)

let module_name = "hint"

module G = Analysis.Dag

(* --- plumbing ----------------------------------------------------------- *)

let hinted_of ~format trace =
  let w = Trace.Writer.create ~version:2 format in
  match G.hint (Trace.Reader.From_string trace) w with
  | Ok (stats, profile) -> (Trace.Writer.contents w, stats, profile)
  | Error e -> Alcotest.failf "hint converter refused: %s" e.G.message

(* v2 writer: the plain [Helpers.events_to_source] uses a version-1
   writer, which refuses Delete records by design *)
let v2_source events =
  let w = Trace.Writer.create ~version:2 Trace.Writer.Ascii in
  List.iter (Trace.Writer.emit w) events;
  Trace.Reader.From_string (Trace.Writer.contents w)

let report_exn name = function
  | Ok r -> r
  | Error d ->
    Alcotest.failf "%s rejected a valid trace: %s" name
      (Proof.Diagnostics.to_string d)

(* the one-pass report must match breadth-first field for field *)
let assert_bf_identical ~ck bf hint =
  let i = Alcotest.check Alcotest.int in
  i (ck "learned") bf.Checker.Report.total_learned
    hint.Checker.Report.total_learned;
  i (ck "built") bf.Checker.Report.clauses_built
    hint.Checker.Report.clauses_built;
  i (ck "steps") bf.Checker.Report.resolution_steps
    hint.Checker.Report.resolution_steps;
  Alcotest.check (Alcotest.list Alcotest.int) (ck "built ids")
    bf.Checker.Report.learned_built_ids hint.Checker.Report.learned_built_ids;
  Alcotest.check (Alcotest.list Alcotest.int) (ck "core") []
    hint.Checker.Report.core_original_ids

(* --- hint completeness + bf identity (property) ------------------------- *)

(* Every learned clause in a hinted trace is either covered by a delete
   record or pinned for the final chain — nothing leaks past the
   converter's last-use analysis. *)
let assert_hint_complete ~ck hinted_trace =
  let events = Trace.Reader.to_list (Trace.Reader.From_string hinted_trace) in
  let learned = Hashtbl.create 64 in
  let deleted = Hashtbl.create 64 in
  let pinned = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Trace.Event.Header _ -> ()
      | Trace.Event.Learned l -> Hashtbl.replace learned l.id ()
      | Trace.Event.Delete ids ->
        Array.iter (fun id -> Hashtbl.replace deleted id ()) ids
      | Trace.Event.Level0 v -> Hashtbl.replace pinned v.ante ()
      | Trace.Event.Final_conflict id -> Hashtbl.replace pinned id ())
    events;
  Hashtbl.iter
    (fun id () ->
      if not (Hashtbl.mem deleted id || Hashtbl.mem pinned id) then
        Alcotest.failf "%s: learned clause %d neither hinted nor pinned"
          (ck "completeness") id)
    learned

let check_instance ~round f trace =
  let ck name = Printf.sprintf "round %d: %s" round name in
  let bf =
    report_exn (ck "BF") (Checker.Bf.check f (Trace.Reader.From_string trace))
  in
  (* the one-pass checker accepts plain (version-1) traces too: it simply
     never frees, and the verdict still matches BF *)
  let plain =
    report_exn (ck "Hint/v1")
      (Checker.Hint.check f (Trace.Reader.From_string trace))
  in
  assert_bf_identical ~ck:(fun n -> ck ("v1 " ^ n)) bf plain;
  List.iter
    (fun format ->
      let fmt_name =
        match format with
        | Trace.Writer.Ascii -> "ascii"
        | Trace.Writer.Binary -> "binary"
      in
      let ck name = ck (Printf.sprintf "%s %s" fmt_name name) in
      let hinted, stats, _profile = hinted_of ~format trace in
      if stats.G.hints = 0 && bf.Checker.Report.total_learned > 1 then
        Alcotest.failf "%s: converter emitted no hints" (ck "hints");
      assert_hint_complete ~ck hinted;
      let hint =
        report_exn (ck "Hint")
          (Checker.Hint.check f (Trace.Reader.From_string hinted))
      in
      assert_bf_identical ~ck bf hint;
      (* one pass, breadth-first residency: the hint schedule is the
         refcount-zero schedule, so runtime peak matches BF's and never
         exceeds the DAG's static breadth-first prediction (learned
         clauses; originals ride on top for both checkers alike) *)
      if hint.Checker.Report.peak_live_clauses
         > bf.Checker.Report.peak_live_clauses
      then
        Alcotest.failf "%s: hinted peak %d > bf peak %d" (ck "peak")
          hint.Checker.Report.peak_live_clauses
          bf.Checker.Report.peak_live_clauses)
    [ Trace.Writer.Ascii; Trace.Writer.Binary ]

let test_fuzzed_hint_identity () =
  let rng = Sat.Rng.create 77007 in
  let target = 25 in
  let unsat_seen = ref 0 in
  let round = ref 0 in
  while !unsat_seen < target && !round < 2000 do
    incr round;
    let nvars = 3 + Sat.Rng.int rng 10 in
    let nclauses = 1 + Sat.Rng.int rng (5 * nvars) in
    let f =
      if Sat.Rng.bool rng then Helpers.random_messy_cnf rng ~nvars ~nclauses
      else
        Gen.Random3sat.generate rng ~nvars
          ~nclauses:(min nclauses (6 * nvars))
    in
    let result, _stats, trace = Pipeline.Validate.solve_with_trace f in
    match result with
    | Solver.Cdcl.Sat _ -> ()
    | Solver.Cdcl.Unsat ->
      incr unsat_seen;
      check_instance ~round:!round f trace
  done;
  if !unsat_seen < target then
    Alcotest.failf "only %d unsat instances in %d rounds" !unsat_seen !round

(* --- converter round trips ---------------------------------------------- *)

let test_hint_strip_roundtrip () =
  let f, events = Helpers.unsat_with_events () in
  ignore f;
  let w = Trace.Writer.create Trace.Writer.Ascii in
  List.iter (Trace.Writer.emit w) events;
  let plain = Trace.Writer.contents w in
  let hinted, _, _ = hinted_of ~format:Trace.Writer.Ascii plain in
  (* hinting is idempotent: stale hints are dropped and regenerated *)
  let hinted2, stats2, _ =
    hinted_of ~format:Trace.Writer.Ascii hinted
  in
  Alcotest.check Alcotest.string "hint idempotent" hinted hinted2;
  if stats2.G.dropped_hints = 0 then
    Alcotest.fail "re-hinting dropped no stale hints";
  (* stripping recovers the plain trace byte for byte *)
  let w1 = Trace.Writer.create ~version:1 Trace.Writer.Ascii in
  (match G.strip_hints (Trace.Reader.From_string hinted) w1 with
   | Error e -> Alcotest.failf "strip refused: %s" e.G.message
   | Ok _ -> ());
  Alcotest.check Alcotest.string "strip inverts hint" plain
    (Trace.Writer.contents w1)

(* --- native solver emission --------------------------------------------- *)

let test_solver_native_hints () =
  let f = Gen.Php.unsat ~holes:4 in
  let config =
    { Solver.Cdcl.default_config with Solver.Cdcl.emit_deletes = true }
  in
  let result, _stats, trace =
    Pipeline.Validate.solve_with_trace ~config ~version:2 f
  in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> Alcotest.fail "php must be unsat");
  let src = Trace.Reader.From_string trace in
  (* the one-pass checker validates the native hinted stream... *)
  let hint = report_exn "Hint" (Checker.Hint.check f src) in
  if hint.Checker.Report.total_learned = 0 then
    Alcotest.fail "no learned clauses in the native trace";
  (* ...and the non-hint engines refuse it at the version gate *)
  (match Checker.Bf.check f src with
   | Error Proof.Diagnostics.Hints_unsupported -> ()
   | Ok _ -> Alcotest.fail "BF accepted a hinted trace"
   | Error d ->
     Alcotest.failf "BF: expected Hints_unsupported, got %s"
       (Proof.Diagnostics.to_string d));
  match Checker.Df.check f src with
  | Error Proof.Diagnostics.Hints_unsupported -> ()
  | Ok _ -> Alcotest.fail "DF accepted a hinted trace"
  | Error d ->
    Alcotest.failf "DF: expected Hints_unsupported, got %s"
      (Proof.Diagnostics.to_string d)

(* --- bad hints are rejected, with positions ----------------------------- *)

let is_bad_hint ~substr = function
  | Proof.Diagnostics.Positioned
      { failure = Proof.Diagnostics.Bad_delete_hint { reason; _ }; _ } ->
    let len = String.length substr in
    let n = String.length reason in
    let rec scan i =
      i + len <= n && (String.sub reason i len = substr || scan (i + 1))
    in
    scan 0
  | _ -> false

let expect_hint_failure f events ~substr name =
  match Checker.Hint.check f (v2_source events) with
  | Ok _ -> Alcotest.failf "%s: bad hint was accepted" name
  | Error d ->
    if not (is_bad_hint ~substr d) then
      Alcotest.failf "%s: unexpected diagnostic: %s" name
        (Proof.Diagnostics.to_string d)

(* insert [x] right after the first event satisfying [p] *)
let insert_after p x events =
  let rec go = function
    | [] -> Alcotest.fail "insertion point not found"
    | e :: rest when p e -> e :: x :: rest
    | e :: rest -> e :: go rest
  in
  go events

let test_bad_hints_rejected () =
  let f, events = Helpers.unsat_with_events () in
  (* a learned id that some later learned clause resolves with *)
  let used_later =
    let defined = Hashtbl.create 64 in
    let found = ref None in
    List.iter
      (fun e ->
        match e with
        | Trace.Event.Learned l ->
          if !found = None then
            Array.iter
              (fun s ->
                if !found = None && Hashtbl.mem defined s then found := Some s)
              l.sources;
          Hashtbl.replace defined l.id ()
        | _ -> ())
      events;
    match !found with
    | Some id -> id
    | None -> Alcotest.fail "no learned-to-learned reference in the trace"
  in
  let is_def id = function
    | Trace.Event.Learned l -> l.id = id
    | _ -> false
  in
  (* premature hint: clause deleted right after its definition but used
     later — the use must fail, positioned at the offending record *)
  expect_hint_failure f
    (insert_after (is_def used_later)
       (Trace.Event.Delete [| used_later |])
       events)
    ~substr:"after its delete hint" "premature";
  (* duplicate hint *)
  expect_hint_failure f
    (insert_after (is_def used_later)
       (Trace.Event.Delete [| used_later; used_later |])
       events)
    ~substr:"deleted twice" "duplicate";
  (* dangling hint: an id nothing ever defines *)
  expect_hint_failure f
    (insert_after
       (function Trace.Event.Header _ -> true | _ -> false)
       (Trace.Event.Delete [| 999999 |])
       events)
    ~substr:"not defined" "dangling";
  (* an original clause may only be hinted once it was materialised *)
  expect_hint_failure f
    (insert_after
       (function Trace.Event.Header _ -> true | _ -> false)
       (Trace.Event.Delete [| 1 |])
       events)
    ~substr:"never referenced" "unreferenced original"

(* wrong hints can delay but never flip a verdict: permuting every hint
   to the very end of the trace (just before the conflict) must still
   verify — late hints only cost memory *)
let test_late_hints_still_verify () =
  let f, events = Helpers.unsat_with_events () in
  let w = Trace.Writer.create Trace.Writer.Ascii in
  List.iter (Trace.Writer.emit w) events;
  let hinted, _, _ =
    hinted_of ~format:Trace.Writer.Ascii (Trace.Writer.contents w)
  in
  let hevents = Trace.Reader.to_list (Trace.Reader.From_string hinted) in
  let deletes, rest =
    List.partition
      (function Trace.Event.Delete _ -> true | _ -> false)
      hevents
  in
  let late =
    let rec weave = function
      | [] -> Alcotest.fail "no final conflict"
      | Trace.Event.Final_conflict _ :: _ as tail -> deletes @ tail
      | e :: tl -> e :: weave tl
    in
    weave rest
  in
  match Checker.Hint.check f (v2_source late) with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "late hints rejected: %s"
      (Proof.Diagnostics.to_string d)

let suite =
  [
    ( module_name,
      [
        Alcotest.test_case "fuzzed hint identity x25" `Quick
          test_fuzzed_hint_identity;
        Alcotest.test_case "hint/strip round trip" `Quick
          test_hint_strip_roundtrip;
        Alcotest.test_case "solver native hints" `Quick
          test_solver_native_hints;
        Alcotest.test_case "bad hints rejected" `Quick
          test_bad_hints_rejected;
        Alcotest.test_case "late hints still verify" `Quick
          test_late_hints_still_verify;
      ] );
  ]
