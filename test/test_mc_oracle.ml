(* Differential testing of the model-checking stack: random small
   transition systems are checked against an explicit-state BFS oracle
   (driven by the circuit simulator).  BMC with a bound covering the full
   state space must agree exactly; the interpolation-based checker's
   verdicts must never contradict the oracle. *)

module N = Circuit.Netlist
module T = Circuit.Transition
module B = Pipeline.Bmc_engine

(* a random combinational expression over the given operand nodes *)
let rec random_expr rng c operands depth =
  if depth = 0 || Sat.Rng.int rng 3 = 0 then Sat.Rng.pick rng operands
  else begin
    let a = random_expr rng c operands (depth - 1) in
    let b = random_expr rng c operands (depth - 1) in
    match Sat.Rng.int rng 4 with
    | 0 -> N.and_ c a b
    | 1 -> N.or_ c a b
    | 2 -> N.xor_ c a b
    | _ -> N.not_ c a
  end

(* A random transition system: [width] state bits, [n_inputs] fresh
   primary inputs per frame, next-state functions and the bad predicate
   drawn from a seeded stream.  The structural choices are captured as a
   recipe (list of ints) so that [step] can deterministically rebuild the
   same functions inside any netlist. *)
let random_ts seed ~width ~n_inputs =
  let recipe_rng () = Sat.Rng.create seed in
  let build c ~frame ~state =
    let rng = recipe_rng () in
    let inputs =
      List.init n_inputs (fun i ->
          N.input c (Printf.sprintf "in%d_%d" i frame))
    in
    let operands = Array.of_list (state @ inputs) in
    List.init width (fun _ -> random_expr rng c operands 3)
  in
  let bad c state =
    (* derive the bad predicate from an independent stream *)
    let rng = Sat.Rng.create (seed + 1) in
    let operands = Array.of_list state in
    random_expr rng c operands 2
  in
  let init =
    let rng = Sat.Rng.create (seed + 2) in
    List.init width (fun _ -> Sat.Rng.bool rng)
  in
  {
    T.name = Printf.sprintf "random_%d" seed;
    state_width = width;
    init;
    step = (fun c ~frame ~state -> build c ~frame ~state);
    bad;
  }

(* explicit-state oracle: BFS over bitmask states, trying every input
   valuation; returns the minimal depth at which [bad] holds, if any *)
let oracle_min_bad_depth (ts : T.t) ~n_inputs =
  let w = ts.T.state_width in
  let eval_bad mask =
    let c = N.create () in
    let state =
      List.init w (fun i -> N.const c ((mask lsr i) land 1 = 1))
    in
    match N.gate c (ts.T.bad c state) with
    | N.G_const b -> b
    | N.G_input _ | N.G_not _ | N.G_and _ | N.G_or _ | N.G_xor _ ->
      (* bad over constants always folds *)
      assert false
  in
  let next_states mask =
    List.init (1 lsl n_inputs) (fun ival ->
        let c = N.create () in
        let state =
          List.init w (fun i -> N.input c (Printf.sprintf "s%d" i))
        in
        let next = ts.T.step c ~frame:1 ~state in
        let inputs =
          List.init w (fun i ->
              (Printf.sprintf "s%d" i, (mask lsr i) land 1 = 1))
          @ List.init n_inputs (fun i ->
                (Printf.sprintf "in%d_1" i, (ival lsr i) land 1 = 1))
        in
        (* the step may not have declared every input (constant folding);
           keep only declared ones *)
        let declared = N.input_names c in
        let inputs = List.filter (fun (n, _) -> List.mem n declared) inputs in
        let bits = Circuit.Sim.eval c ~inputs next in
        List.fold_left
          (fun acc (i, b) -> if b then acc lor (1 lsl i) else acc)
          0
          (List.mapi (fun i b -> (i, b)) bits))
  in
  let init_mask =
    List.fold_left
      (fun acc (i, b) -> if b then acc lor (1 lsl i) else acc)
      0
      (List.mapi (fun i b -> (i, b)) ts.T.init)
  in
  let visited = Hashtbl.create 64 in
  let frontier = ref [ init_mask ] in
  Hashtbl.replace visited init_mask ();
  let depth = ref 0 in
  let found = ref None in
  if eval_bad init_mask then found := Some 0;
  while !found = None && !frontier <> [] do
    incr depth;
    let next_frontier = ref [] in
    List.iter
      (fun mask ->
        List.iter
          (fun m' ->
            if not (Hashtbl.mem visited m') then begin
              Hashtbl.replace visited m' ();
              if !found = None && eval_bad m' then found := Some !depth;
              next_frontier := m' :: !next_frontier
            end)
          (next_states mask))
      !frontier;
    frontier := !next_frontier
  done;
  !found

let test_random_systems () =
  let n_checked = ref 0 in
  for seed = 1 to 30 do
    let width = 2 + (seed mod 3) in
    let n_inputs = 1 + (seed mod 2) in
    let ts = random_ts (seed * 1000) ~width ~n_inputs in
    let oracle = oracle_min_bad_depth ts ~n_inputs in
    incr n_checked;
    (* BMC with a bound covering the whole state space is complete *)
    let bound = 1 lsl width in
    (match B.bmc ~max_depth:bound ts, oracle with
     | B.Cex d, Some d' ->
       if d <> d' then
         Alcotest.failf "seed %d: bmc depth %d, oracle %d" seed d d'
     | B.Safe_up_to _, None -> ()
     | B.Cex d, None ->
       Alcotest.failf "seed %d: bmc found spurious cex at %d" seed d
     | B.Safe_up_to _, Some d ->
       Alcotest.failf "seed %d: bmc missed a violation at depth %d" seed d
     | B.Check_failed x, _ ->
       Alcotest.failf "seed %d: proof rejected: %s" seed
         (Proof.Diagnostics.to_string x));
    (* the unbounded checker must never contradict the oracle *)
    match B.interpolation_mc ~max_iterations:40 ts, oracle with
    | B.Proved_safe _, Some d ->
      Alcotest.failf "seed %d: proved safe but oracle violates at %d" seed d
    | B.Counterexample _, None ->
      Alcotest.failf "seed %d: counterexample on a safe system" seed
    | B.Counterexample { depth }, Some d ->
      if depth < d then
        Alcotest.failf "seed %d: mc bound %d below oracle minimum %d" seed
          depth d
    | B.Proved_safe _, None -> ()
    | B.Inconclusive _, _ -> () (* allowed: iteration budget, not wrongness *)
    | B.Mc_check_failed x, _ ->
      Alcotest.failf "seed %d: proof rejected: %s" seed
        (Proof.Diagnostics.to_string x)
  done;
  Alcotest.check Alcotest.int "all seeds exercised" 30 !n_checked

let suite =
  [
    ( "mc-oracle",
      [
        Alcotest.test_case "random systems vs explicit BFS" `Slow
          test_random_systems;
      ] );
  ]
