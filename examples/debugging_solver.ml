(* Debugging a buggy solver with the checker (paper §3.2: "the checker can
   also provide as much information as possible about the failure to help
   debug the solver").

   We simulate four classic solver/trace-generation bugs by corrupting a
   genuine trace, then show the diagnostic the checker produces for each
   — the information a solver author would start debugging from.

   Run with: dune exec examples/debugging_solver.exe *)

let corruptions :
    (string * string * (Trace.Event.t list -> Trace.Event.t list)) list =
  [
    ( "lost learned clause",
      "the solver deleted a learned clause from the database but a later \
       resolution still references it (a use-after-free in the clause \
       manager)",
      fun events ->
        let last_cl =
          List.fold_left
            (fun acc e ->
              match e with Trace.Event.Learned l -> Some l.id | _ -> acc)
            None events
        in
        List.filter
          (function
            | Trace.Event.Learned l -> Some l.id <> last_cl
            | _ -> true)
          events );
    ( "wrong resolve source",
      "conflict analysis recorded the wrong antecedent id (an off-by-one \
       in the implication graph walk)",
      List.map (function
        | Trace.Event.Learned l when Array.length l.sources >= 2 ->
          let sources = Array.copy l.sources in
          sources.(1) <- 1;
          Trace.Event.Learned { l with sources }
        | e -> e) );
    ( "flipped implied value",
      "the final level-0 dump recorded the complement of each variable's \
       value (a sign error in the trace writer)",
      List.map (function
        | Trace.Event.Level0 v ->
          Trace.Event.Level0 { v with value = not v.value }
        | e -> e) );
    ( "stale antecedent",
      "a variable's antecedent points at a clause that could not have \
       been unit when the variable was implied",
      fun events ->
        (* give the first VAR record the antecedent of the last one *)
        let antes =
          List.filter_map
            (function Trace.Event.Level0 v -> Some v.ante | _ -> None)
            events
        in
        let last_ante = List.nth antes (List.length antes - 1) in
        let first = ref true in
        List.map
          (function
            | Trace.Event.Level0 v when !first ->
              first := false;
              Trace.Event.Level0 { v with ante = last_ante }
            | e -> e)
          events );
  ]

let () =
  let f = Gen.Php.unsat ~holes:4 in
  let result, _, trace = Pipeline.Validate.solve_with_trace f in
  (match result with
   | Solver.Cdcl.Unsat -> ()
   | Solver.Cdcl.Sat _ -> failwith "php is unsat");
  let events = Trace.Reader.to_list (Trace.Reader.From_string trace) in
  Printf.printf "healthy solver first: ";
  (match Checker.Df.check f (Trace.Reader.From_string trace) with
   | Ok r ->
     Printf.printf "proof verified (%d resolution steps)\n\n"
       r.resolution_steps
   | Error d -> Printf.printf "unexpected: %s\n" (Proof.Diagnostics.to_string d));
  List.iter
    (fun (name, story, corrupt) ->
      Printf.printf "injected bug: %s\n  (%s)\n" name story;
      let mutated = corrupt events in
      let w = Trace.Writer.create Trace.Writer.Ascii in
      List.iter (Trace.Writer.emit w) mutated;
      let source = Trace.Reader.From_string (Trace.Writer.contents w) in
      (match Checker.Df.check f source with
       | Ok _ ->
         print_endline "  checker verdict: ACCEPTED (bug not observable in this proof)"
       | Error d ->
         Printf.printf "  checker verdict: REJECTED — %s\n"
           (Proof.Diagnostics.to_string d));
      print_newline ())
    corruptions
