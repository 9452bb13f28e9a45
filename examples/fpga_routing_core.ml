(* FPGA channel routing with unsat-core feedback (paper §4).

   An over-subscribed routing channel is unroutable; the SAT instance is
   unsatisfiable.  The depth-first checker's by-product — the set of
   original clauses used by the proof — localises *why*: after iterating
   to a fixed point, the surviving at-least-one clauses name exactly the
   nets whose mutual conflicts exceed the track supply, which is the
   designer-facing diagnosis the paper describes.

   Run with: dune exec examples/fpga_routing_core.exe *)

let nets = 48
let tracks = 6

let () =
  let f =
    Gen.Routing.channel (Sat.Rng.create 2003) ~nets ~tracks
      ~extra_conflict_density:0.05
  in
  Printf.printf
    "channel: %d nets, %d tracks -> %d variables, %d clauses\n" nets tracks
    (Sat.Cnf.nvars f) (Sat.Cnf.nclauses f);
  match Pipeline.Unsat_core.shrink ~max_rounds:20 f with
  | Error `Sat -> print_endline "routable after all?!"
  | Error (`Check_failed d) ->
    Printf.printf "checker rejected the proof: %s\n"
      (Proof.Diagnostics.to_string d)
  | Ok s ->
    print_endline "core shrinking:";
    Printf.printf "  input: %5d clauses over %d vars\n" s.initial.clauses
      s.initial.vars;
    List.iteri
      (fun i (it : Pipeline.Unsat_core.iteration) ->
        Printf.printf "  round %d: %5d clauses over %d vars\n" (i + 1)
          it.clauses it.vars)
      s.iterations;
    Printf.printf "  fixed point: %b\n" s.reached_fixpoint;
    (* map surviving at-least-one clauses back to net numbers: clause i
       (0-based) is net i+1's at-least-one constraint when i < nets *)
    let congested =
      List.filter_map
        (fun idx -> if idx < nets then Some (idx + 1) else None)
        s.final_indices
    in
    Printf.printf
      "unroutable hot spot: %d mutually conflicting nets for %d tracks: %s\n"
      (List.length congested) tracks
      (String.concat ", " (List.map string_of_int congested));
    if List.length congested > tracks then
      print_endline
        "=> any fix must reduce this clique (re-place a net or widen the \
         channel)"
