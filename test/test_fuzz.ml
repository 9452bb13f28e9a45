(* Robustness fuzzing: arbitrary corruption of serialized artefacts must
   surface as a structured error (Parse_error / Check_failed / a checker
   Error value), never as a crash, a hang, or a silent acceptance of an
   invalid proof. *)

let mutate_string rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let n_edits = 1 + Sat.Rng.int rng 4 in
    for _ = 1 to n_edits do
      let i = Sat.Rng.int rng (Bytes.length b) in
      match Sat.Rng.int rng 3 with
      | 0 -> Bytes.set b i (Char.chr (Sat.Rng.int rng 256))
      | 1 -> Bytes.set b i '0'
      | _ -> Bytes.set b i ' '
    done;
    Bytes.to_string b
  end

let truncate_string rng s =
  if String.length s < 2 then s
  else String.sub s 0 (Sat.Rng.int rng (String.length s))

(* The reader either parses (possibly into a semantically broken trace,
   which the checkers must then reject or validly accept) or raises
   Parse_error.  Nothing else.  A parsed mutant's verdicts must fit
   together.  BF, Window and Hint rebuild every learned clause in stream
   order, so they agree.  Hybrid rebuilds only the clauses the final
   conflict needs, still in stream order, and DF rebuilds those in any
   order, so BF's acceptance implies Hybrid's and Hybrid's implies DF's.
   DF and Hybrid mark the same needed set, so when both accept they name
   the same core. *)
let test_fuzz_trace_bytes () =
  let f = Gen.Php.unsat ~holes:4 in
  let _, _, ascii = Pipeline.Validate.solve_with_trace f in
  let wb = Trace.Writer.create Trace.Writer.Binary in
  ignore (Solver.Cdcl.solve ~trace:(Trace.Writer.as_sink wb) f);
  let binary = Trace.Writer.contents wb in
  let rng = Sat.Rng.create 60601 in
  let exercise name payload =
    let source = Trace.Reader.From_string payload in
    match Trace.Reader.to_list source with
    | exception Trace.Reader.Parse_error _ -> ()
    | exception e ->
      Alcotest.failf "%s: reader raised unexpected %s" name
        (Printexc.to_string e)
    | _events -> (
      match
        ( Checker.Df.check f source,
          Checker.Hybrid.check f source,
          Checker.Bf.check f source,
          Checker.Window.check ~window:4 f source,
          Checker.Hint.check f source )
      with
      | exception e ->
        Alcotest.failf "%s: checker raised unexpected %s" name
          (Printexc.to_string e)
      | df, hybrid, bf, window, hint ->
        let ok = Result.is_ok in
        if ok window <> ok bf || ok hint <> ok bf then
          Alcotest.failf "%s: BF %b, Window %b, Hint %b" name (ok bf)
            (ok window) (ok hint);
        if ok bf && not (ok hybrid) then
          Alcotest.failf "%s: BF accepts, Hybrid rejects" name;
        if ok hybrid && not (ok df) then
          Alcotest.failf "%s: Hybrid accepts, DF rejects" name;
        (match (df, hybrid) with
         | Ok d, Ok h
           when d.Checker.Report.core_original_ids
                <> h.Checker.Report.core_original_ids ->
           Alcotest.failf "%s: DF and Hybrid cores differ" name
         | _ -> ()))
  in
  for i = 1 to 150 do
    let name kind = Printf.sprintf "round %d, %s" i kind in
    exercise (name "mutated ascii") (mutate_string rng ascii);
    exercise (name "mutated binary") (mutate_string rng binary);
    exercise (name "truncated ascii") (truncate_string rng ascii);
    exercise (name "truncated binary") (truncate_string rng binary)
  done

(* Mutations must never turn a satisfiable formula's trace into an
   accepted proof: acceptance by any checker implies the formula really
   is unsatisfiable.  We fuzz traces from an UNSAT instance against a
   *different*, satisfiable formula: nothing may accept. *)
let test_no_cross_acceptance () =
  let unsat = Gen.Php.unsat ~holes:4 in
  let sat_formula =
    Gen.Random3sat.generate (Sat.Rng.create 5) ~nvars:20 ~nclauses:45
  in
  (match Solver.Cdcl.solve sat_formula with
   | Solver.Cdcl.Sat _, _ -> ()
   | Solver.Cdcl.Unsat, _ -> Alcotest.fail "control formula must be sat");
  let _, _, trace = Pipeline.Validate.solve_with_trace unsat in
  let source = Trace.Reader.From_string trace in
  (match Checker.Df.check sat_formula source with
   | Ok _ -> Alcotest.fail "DF accepted a proof for a satisfiable formula"
   | Error _ -> ());
  (match Checker.Bf.check sat_formula source with
   | Ok _ -> Alcotest.fail "BF accepted a proof for a satisfiable formula"
   | Error _ -> ());
  match Checker.Hybrid.check sat_formula source with
  | Ok _ -> Alcotest.fail "Hybrid accepted a proof for a satisfiable formula"
  | Error _ -> ()

(* Ids near 10^12 must cost nothing by their value: no table may be
   sized by them.  The first trace is a valid proof whose level-0 record
   names an antecedent no record defines (the final chain never needs
   it); the second cites a source far past every definition.  Every
   strategy returns the verdict it returns for small ids, with no
   exception. *)
let test_hostile_ids () =
  let f =
    Sat.Cnf.of_clauses 1 [ Sat.Clause.of_ints [ 1 ]; Sat.Clause.of_ints [ -1 ] ]
  in
  let huge = 1_000_000_000_000 in
  let cases =
    [
      ( "level-0 antecedent 10^12",
        "t 1 2\nVAR 1 1 1000000000000\nCL 3 1 2\nCONF 3\n",
        fun _ -> function
          | Ok (r : Checker.Report.t) ->
            r.clauses_built = 1 && r.resolution_steps = 1
          | Error _ -> false );
      ( "forward reference to 10^12",
        "t 1 2\nCL 3 1 1000000000000\nCONF 3\n",
        fun strategy -> function
          (* depth-first has no stream order: the id is just undefined *)
          | Error (Proof.Diagnostics.Unknown_clause u) ->
            strategy = "DF" && u.id = huge
          | Error (Proof.Diagnostics.Forward_reference r) ->
            strategy <> "DF" && r.id = 3 && r.source = huge
          | Ok _ | Error _ -> false );
    ]
  in
  List.iter
    (fun (case, trace, expected) ->
      List.iter
        (fun (strategy, check) ->
          match check f (Trace.Reader.From_string trace) with
          | exception e ->
            Alcotest.failf "%s, %s: raised %s" case strategy
              (Printexc.to_string e)
          | verdict ->
            if not (expected strategy verdict) then
              Alcotest.failf "%s, %s: %s" case strategy
                (match verdict with
                 | Ok _ -> "accepted"
                 | Error d -> Proof.Diagnostics.to_string d))
        Helpers.strategies)
    cases

(* DIMACS parser: corrupted documents raise Parse_error, never crash *)
let test_fuzz_dimacs () =
  let doc = Sat.Dimacs.to_string (Gen.Php.unsat ~holes:4) in
  let rng = Sat.Rng.create 60602 in
  for _ = 1 to 200 do
    let payload =
      if Sat.Rng.bool rng then mutate_string rng doc
      else truncate_string rng doc
    in
    match Sat.Dimacs.parse_string payload with
    | exception Sat.Dimacs.Parse_error _ -> ()
    | exception e ->
      Alcotest.failf "dimacs raised unexpected %s" (Printexc.to_string e)
    | _f -> ()
  done

(* DRUP text parser robustness *)
let test_fuzz_drup_text () =
  let f = Gen.Php.unsat ~holes:4 in
  let _, _, trace = Pipeline.Validate.solve_with_trace f in
  let derivation =
    match Pipeline.Drup.of_trace f (Trace.Reader.From_string trace) with
    | Ok d -> d
    | Error _ -> Alcotest.fail "conversion failed"
  in
  let text = Pipeline.Drup.to_string derivation in
  let rng = Sat.Rng.create 60603 in
  for _ = 1 to 100 do
    let payload = mutate_string rng text in
    match Pipeline.Drup.parse payload with
    | exception Failure _ -> ()
    | exception Invalid_argument _ -> ()
    | exception e ->
      Alcotest.failf "drup parse raised unexpected %s" (Printexc.to_string e)
    | clauses -> (
      (* parsed garbage must not check as a proof unless it genuinely is
         one — Rup.check decides; any structured outcome is fine *)
      match Checker.Rup.check f clauses with
      | Ok _ | Error _ -> ())
  done

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "trace bytes" `Slow test_fuzz_trace_bytes;
        Alcotest.test_case "no cross acceptance" `Quick
          test_no_cross_acceptance;
        Alcotest.test_case "dimacs bytes" `Quick test_fuzz_dimacs;
        Alcotest.test_case "drup text" `Quick test_fuzz_drup_text;
        Alcotest.test_case "hostile ids" `Quick test_hostile_ids;
      ] );
  ]
