(* Id table tests: [Trace.Idtab] against a [Hashtbl] model over random
   replace, find and remove operations on dense, sparse, near-[max_int],
   zero and negative ids; the dense part's documented bound; and no id
   reaching the overflow when solver traces are checked. *)

type op = Replace of int * int | Find of int | Remove of int | Widen of int

let show_op = function
  | Replace (id, v) -> Printf.sprintf "replace %d %d" id v
  | Find id -> Printf.sprintf "find %d" id
  | Remove id -> Printf.sprintf "remove %d" id
  | Widen k -> Printf.sprintf "widen %d" k

let id_gen =
  let open QCheck.Gen in
  frequency
    [
      (8, int_range 1 300);                              (* dense *)
      (2, map (fun n -> 1000 * n) (int_range 1 1000));   (* sparse *)
      (1, map (fun n -> max_int - n) (int_range 0 3));   (* near max_int *)
      (1, return 0);
      (1, int_range (-1000) (-1));
      (1, map (fun n -> min_int + n) (int_range 0 3));
    ]

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (5, map2 (fun id v -> Replace (id, v)) id_gen small_int);
      (3, map (fun id -> Find id) id_gen);
      (2, map (fun id -> Remove id) id_gen);
      (1, map (fun k -> Widen k) (int_range 0 64));
    ]

let ops_arb =
  QCheck.make
    ~print:(fun (limit, ops) ->
      Printf.sprintf "range %d: %s" limit
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_range 0 200) (list_size (int_range 0 400) op_gen))

(* After every operation the table and the model agree on the touched id,
   and the dense part is within the range; at the end they agree on every
   key. *)
let agrees_with_hashtbl (limit, ops) =
  let limit = ref limit in
  let r = Trace.Idtab.range !limit in
  let t = Trace.Idtab.create r in
  let model = Hashtbl.create 64 in
  let same id =
    Trace.Idtab.find_opt t id = Hashtbl.find_opt model id
    && Trace.Idtab.mem t id = Hashtbl.mem model id
    && (match Trace.Idtab.find t id with
        | v -> Hashtbl.find_opt model id = Some v
        | exception Not_found -> not (Hashtbl.mem model id))
  in
  List.for_all
    (fun op ->
      let touched =
        match op with
        | Replace (id, v) ->
          Trace.Idtab.replace t id v;
          Hashtbl.replace model id v;
          same id
        | Find id -> same id
        | Remove id ->
          Trace.Idtab.remove t id;
          Hashtbl.remove model id;
          same id
        | Widen k ->
          Trace.Idtab.widen r k;
          limit := !limit + k;
          true
      in
      touched && Trace.Idtab.capacity t <= !limit + 1)
    ops
  && Trace.Idtab.keys t
     = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])

(* a full dense part keeps every id within it, and ids past the range
   stay out of it until the range reaches them *)
let test_bound () =
  let r = Trace.Idtab.range 100 in
  let t = Trace.Idtab.create r in
  for id = 1 to 100 do
    Trace.Idtab.replace t id id
  done;
  Trace.Idtab.replace t 1_000_000_000_000 0;
  Alcotest.check Alcotest.int "dense part within the range" 101
    (Trace.Idtab.capacity t);
  Trace.Idtab.replace t 150 150;
  Alcotest.check Alcotest.int "still within the range" 101
    (Trace.Idtab.capacity t);
  Trace.Idtab.widen r 100;
  Trace.Idtab.replace t 101 101;
  Alcotest.check Alcotest.bool "grows once the range allows it" true
    (Trace.Idtab.capacity t > 150 && Trace.Idtab.capacity t <= 201);
  Alcotest.check (Alcotest.option Alcotest.int) "moved in from the overflow"
    (Some 150) (Trace.Idtab.find_opt t 150);
  Alcotest.check (Alcotest.list Alcotest.int) "keys"
    (List.init 101 (fun i -> i + 1) @ [ 150; 1_000_000_000_000 ])
    (Trace.Idtab.keys t)

(* A solver numbers its learned clauses in stream order, so no check of
   its traces stores an id outside a dense part. *)
let test_solver_traces_stay_dense () =
  List.iter
    (fun name ->
      let fam = Option.get (Gen.Families.find name) in
      let f = fam.generate () in
      let result, _, trace = Pipeline.Validate.solve_with_trace f in
      (match result with
       | Solver.Cdcl.Unsat -> ()
       | Solver.Cdcl.Sat _ -> Alcotest.failf "%s must be unsat" name);
      let src = Trace.Reader.From_string trace in
      List.iter
        (fun (strategy, check) ->
          let before = Trace.Idtab.overflow_stores () in
          (match check f src with
           | Ok _ -> ()
           | Error d ->
             Alcotest.failf "%s %s: %s" name strategy
               (Proof.Diagnostics.to_string d));
          Alcotest.check Alcotest.int
            (Printf.sprintf "%s %s: overflow stores" name strategy)
            before
            (Trace.Idtab.overflow_stores ()))
        Helpers.strategies)
    [ "php_8"; "bw_grid" ]

let suite =
  [
    ( "idtab",
      [
        Helpers.qtest ~count:300 "agrees with Hashtbl" ops_arb
          agrees_with_hashtbl;
        Alcotest.test_case "dense bound" `Quick test_bound;
        Alcotest.test_case "solver traces stay dense" `Quick
          test_solver_traces_stay_dense;
      ] );
  ]
