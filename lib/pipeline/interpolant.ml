module N = Circuit.Netlist
module D = Proof.Diagnostics

type t = {
  circuit : N.t;
  root : N.node;
  shared_vars : Sat.Lit.var list;
  input_of_var : Sat.Lit.var -> N.node;
}

type state = {
  a_side : bool array;          (* per 0-based clause index *)
  in_a : bool array;            (* per var: occurs in an A clause *)
  in_b : bool array;            (* per var: occurs in a B clause *)
  circuit : N.t;
  inputs : (Sat.Lit.var, N.node) Hashtbl.t;
}

let input_node st v =
  match Hashtbl.find_opt st.inputs v with
  | Some n -> n
  | None ->
    let n = N.input st.circuit (Printf.sprintf "v%d" v) in
    Hashtbl.replace st.inputs v n;
    n

let lit_node st l =
  let n = input_node st (Sat.Lit.var l) in
  if Sat.Lit.is_neg l then N.not_ st.circuit n else n

(* McMillan base case for an original clause *)
let base_itp st id lits =
  if st.a_side.(id - 1) then
    (* disjunction of the literals over B-shared variables *)
    N.big_or st.circuit
      (Array.to_list lits
      |> List.filter (fun l -> st.in_b.(Sat.Lit.var l))
      |> List.map (lit_node st))
  else N.const st.circuit true

(* McMillan resolution rule *)
let combine st ~pivot i1 i2 =
  (* "local to A" = occurs in A and not in B *)
  if st.in_a.(pivot) && not st.in_b.(pivot) then N.or_ st.circuit i1 i2
  else N.and_ st.circuit i1 i2

let compute formula ~a_indices source =
  let nvars = Sat.Cnf.nvars formula in
  let nclauses = Sat.Cnf.nclauses formula in
  let a_side = Array.make nclauses false in
  List.iter
    (fun i ->
      if i < 0 || i >= nclauses then invalid_arg "Interpolant: bad A index";
      a_side.(i) <- true)
    a_indices;
  let in_a = Array.make (nvars + 1) false in
  let in_b = Array.make (nvars + 1) false in
  Sat.Cnf.iter_clauses
    (fun i c ->
      let mark = if a_side.(i) then in_a else in_b in
      Array.iter (fun l -> mark.(Sat.Lit.var l) <- true) c)
    formula;
  let st = { a_side; in_a; in_b; circuit = N.create (); inputs = Hashtbl.create 64 } in
  let k = Proof.Kernel.create formula in
  try
    let src =
      Trace.Source.of_cursor ~close_cursor:true (Trace.Reader.cursor source)
    in
    let proof = Proof.Kernel.load k src in
    let conf_id =
      match proof.Proof.Kernel.final_conflict with
      | Some id -> id
      | None -> D.fail D.Missing_final_conflict
    in
    (* McMillan's annotation rides the kernel's depth-first traversal *)
    let spec = {
      Proof.Kernel.of_original = (fun id lits -> base_itp st id lits);
      combine = (fun ~pivot i1 i2 -> combine st ~pivot i1 i2);
    } in
    let b = Proof.Kernel.builder k ~sources:proof.Proof.Kernel.sources spec in
    let fetch id = Proof.Kernel.build b id in
    let root, (_ : int) =
      Proof.Kernel.final_chain k ~l0:proof.Proof.Kernel.l0 ~fetch
        ~combine:(fun ~pivot i1 i2 -> combine st ~pivot i1 i2)
        ~conflict_id:conf_id
    in
    let shared_vars =
      List.filter (fun v -> in_a.(v) && in_b.(v))
        (List.init nvars (fun i -> i + 1))
    in
    Ok {
      circuit = st.circuit;
      root;
      shared_vars;
      input_of_var =
        (fun v ->
          match Hashtbl.find_opt st.inputs v with
          | Some n -> n
          | None -> raise Not_found);
    }
  with
  | D.Check_failed d -> Error d
  | Trace.Reader.Parse_error { pos; msg } ->
    Error (D.of_parse_error ~pos msg)

let of_formulas ?config a b =
  (* conjoin over a common variable space; A clauses first *)
  let nvars = max (Sat.Cnf.nvars a) (Sat.Cnf.nvars b) in
  let combined = Sat.Cnf.create nvars in
  Sat.Cnf.iter_clauses (fun _ c -> ignore (Sat.Cnf.add_clause combined c)) a;
  Sat.Cnf.iter_clauses (fun _ c -> ignore (Sat.Cnf.add_clause combined c)) b;
  let result, _stats, trace = Validate.solve_with_trace ?config combined in
  match result with
  | Solver.Cdcl.Sat m -> Error (`Sat m)
  | Solver.Cdcl.Unsat -> (
    let a_indices = List.init (Sat.Cnf.nclauses a) (fun i -> i) in
    match compute combined ~a_indices (Trace.Reader.From_string trace) with
    | Ok itp -> Ok itp
    | Error d -> Error (`Check_failed d))

let eval (itp : t) valuation =
  let inputs =
    List.filter_map
      (fun v ->
        match itp.input_of_var v with
        | n ->
          ignore n;
          let value =
            match List.assoc_opt v valuation with
            | Some b -> b
            | None -> false
          in
          Some (Printf.sprintf "v%d" v, value)
        | exception Not_found -> None)
      itp.shared_vars
  in
  (* inputs may also exist for non-shared A-local vars never pruned from
     the circuit; supply every declared input *)
  let declared = N.input_names itp.circuit in
  let inputs =
    List.map
      (fun name ->
        match List.assoc_opt name inputs with
        | Some b -> (name, b)
        | None -> (
          (* name is "v<var>" *)
          let v = int_of_string (String.sub name 1 (String.length name - 1)) in
          match List.assoc_opt v valuation with
          | Some b -> (name, b)
          | None -> (name, false)))
      declared
  in
  Circuit.Sim.eval1 itp.circuit ~inputs itp.root

let size (itp : t) = N.num_nodes itp.circuit
