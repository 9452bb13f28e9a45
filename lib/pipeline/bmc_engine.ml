module N = Circuit.Netlist
module T = Circuit.Transition
module R = Bdd.Robdd

type bmc_result =
  | Cex of int
  | Safe_up_to of int
  | Check_failed of Proof.Diagnostics.failure

(* unroll [depth] frames from the constant initial state and return the
   violation node at the final frame *)
let unroll_bad (ts : T.t) c depth =
  let state =
    ref (List.map (fun b -> N.const c b) ts.T.init)
  in
  for frame = 1 to depth do
    state := ts.T.step c ~frame ~state:!state
  done;
  ts.T.bad c !state

let bmc ?config ~max_depth ts =
  let rec loop depth =
    if depth > max_depth then Safe_up_to max_depth
    else begin
      let c = N.create () in
      let bad = unroll_bad ts c depth in
      match N.gate c bad with
      | N.G_const false -> loop (depth + 1)   (* folded away: trivially safe *)
      | N.G_const true -> Cex depth
      | N.G_input _ | N.G_not _ | N.G_and _ | N.G_or _ | N.G_xor _ -> (
        let enc = Circuit.Tseitin.encode c ~constraints:[ (bad, true) ] in
        let outcome = Validate.run ?config enc.Circuit.Tseitin.cnf in
        match outcome.verdict with
        | Validate.Sat_verified _ -> Cex depth
        | Validate.Unsat_verified _ -> loop (depth + 1)
        | Validate.Sat_model_wrong i ->
          Check_failed
            (Proof.Diagnostics.malformed
               (Printf.sprintf
                  "solver returned a model that falsifies clause %d" i))
        | Validate.Unsat_check_failed d -> Check_failed d)
    end
  in
  loop 0

type mc_result =
  | Proved_safe of { iterations : int; reachable_nodes : int }
  | Counterexample of { depth : int }
  | Inconclusive of { iterations : int }
  | Mc_check_failed of Proof.Diagnostics.failure

(* A-side: R(s0) ∧ one transition; returns its CNF and the CNF variables
   of the cut (the s1 signals).  Cut variables may alias when two state
   bits compute the same function — handled downstream. *)
let encode_a (ts : T.t) man r_bdd =
  let c = N.create () in
  let s0 =
    List.init ts.T.state_width (fun i -> N.input c (Printf.sprintf "s0_%d" i))
  in
  let s0_arr = Array.of_list s0 in
  let r_node =
    R.to_netlist man r_bdd c ~input_of_var:(fun v -> s0_arr.(v - 1))
  in
  let s1 = ts.T.step c ~frame:0 ~state:s0 in
  let enc = Circuit.Tseitin.encode c ~constraints:[ (r_node, true) ] in
  let cut = List.map (fun n -> enc.Circuit.Tseitin.var_of_node n) s1 in
  (enc.Circuit.Tseitin.cnf, cut)

(* B-side: a suffix of [depth] further transitions from fresh cut inputs,
   with the violation asserted somewhere along it (including at the cut
   itself). *)
let encode_b (ts : T.t) depth =
  let c = N.create () in
  let s1 =
    List.init ts.T.state_width (fun i -> N.input c (Printf.sprintf "s1_%d" i))
  in
  let bads = ref [ ts.T.bad c s1 ] in
  let state = ref s1 in
  for frame = 1 to depth do
    state := ts.T.step c ~frame ~state:!state;
    bads := ts.T.bad c !state :: !bads
  done;
  let bad_any = N.big_or c !bads in
  let enc = Circuit.Tseitin.encode c ~constraints:[ (bad_any, true) ] in
  let cut =
    List.map
      (fun i -> enc.Circuit.Tseitin.var_of_input (Printf.sprintf "s1_%d" i))
      (List.init ts.T.state_width (fun i -> i))
  in
  (enc.Circuit.Tseitin.cnf, cut)

(* Merge A and B into one CNF over a shared cut: B's cut variables are
   renamed onto A's, every other B variable is offset past A's space. *)
let merge_cnfs cnf_a cut_a cnf_b cut_b =
  let n_a = Sat.Cnf.nvars cnf_a in
  let n_b = Sat.Cnf.nvars cnf_b in
  let rename = Array.make (n_b + 1) 0 in
  List.iter2 (fun vb va -> rename.(vb) <- va) cut_b cut_a;
  for v = 1 to n_b do
    if rename.(v) = 0 then rename.(v) <- n_a + v
  done;
  let combined = Sat.Cnf.create (n_a + n_b) in
  Sat.Cnf.iter_clauses
    (fun _ cl -> ignore (Sat.Cnf.add_clause combined cl))
    cnf_a;
  let n_a_clauses = Sat.Cnf.nclauses combined in
  Sat.Cnf.iter_clauses
    (fun _ cl ->
      let cl' =
        Array.map
          (fun l -> Sat.Lit.make rename.(Sat.Lit.var l) (Sat.Lit.is_neg l))
          cl
      in
      ignore (Sat.Cnf.add_clause combined cl'))
    cnf_b;
  (combined, n_a_clauses)

let init_bdd man (ts : T.t) =
  List.fold_left
    (fun acc (i, b) ->
      let v = if b then R.var man (i + 1) else R.nvar man (i + 1) in
      R.and_ man acc v)
    (R.top man)
    (List.mapi (fun i b -> (i, b)) ts.T.init)

let interpolation_mc ?config ?(initial_depth = 1) ?(max_iterations = 64) ts =
  let man = R.create ~nvars:ts.T.state_width () in
  (* depth-0: does the initial state itself violate the property? *)
  let init_ok =
    let c = N.create () in
    match N.gate c (unroll_bad ts c 0) with
    | N.G_const b -> not b
    | N.G_input _ | N.G_not _ | N.G_and _ | N.G_or _ | N.G_xor _ -> true
  in
  if not init_ok then Counterexample { depth = 0 }
  else begin
    let result = ref None in
    let r = ref (init_bdd man ts) in
    let r_is_init = ref true in
    let depth = ref initial_depth in
    let iterations = ref 0 in
    while !result = None do
      incr iterations;
      if !iterations > max_iterations then
        result := Some (Inconclusive { iterations = !iterations - 1 })
      else begin
        let cnf_a, cut_a = encode_a ts man !r in
        let cnf_b, cut_b = encode_b ts !depth in
        let combined, n_a_clauses = merge_cnfs cnf_a cut_a cnf_b cut_b in
        let solve_result, _stats, trace =
          Validate.solve_with_trace ?config combined
        in
        match solve_result with
        | Solver.Cdcl.Sat _ ->
          if !r_is_init then
            (* a genuine execution: one A-transition plus at most [depth]
               B-transitions *)
            result := Some (Counterexample { depth = !depth + 1 })
          else begin
            (* spurious hit on the over-approximation: deepen and restart *)
            depth := !depth + 1;
            r := init_bdd man ts;
            r_is_init := true
          end
        | Solver.Cdcl.Unsat -> (
          let a_indices = List.init n_a_clauses (fun i -> i) in
          match
            Interpolant.compute combined ~a_indices
              (Trace.Reader.From_string trace)
          with
          | Error d -> result := Some (Mc_check_failed d)
          | Ok itp ->
            (* map interpolant inputs (cut variables) back to state bits;
               aliased cut variables pick their first state index *)
            let index_of_var = Hashtbl.create 16 in
            List.iteri
              (fun i v ->
                if not (Hashtbl.mem index_of_var v) then
                  Hashtbl.replace index_of_var v i)
              cut_a;
            let var_of_input name =
              (* inputs are named "v<cnf var>" *)
              let v = int_of_string (String.sub name 1 (String.length name - 1)) in
              match Hashtbl.find_opt index_of_var v with
              | Some i -> i + 1
              | None ->
                (* interpolant variables are always cut variables *)
                assert false
            in
            let image =
              match
                R.of_netlist_mapped man itp.Interpolant.circuit
                  [ itp.Interpolant.root ] ~var_of_input
              with
              | [ b ] -> b
              | _ -> assert false
            in
            let r' = R.or_ man !r image in
            if R.equal r' !r then
              result :=
                Some
                  (Proved_safe
                     { iterations = !iterations; reachable_nodes = R.size man !r })
            else begin
              r := r';
              r_is_init := false
            end)
      end
    done;
    match !result with
    | Some out -> out
    | None -> assert false
  end
