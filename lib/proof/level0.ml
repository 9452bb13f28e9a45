type record = { value : bool; ante : int; order : int }

type t = {
  tbl : (Sat.Lit.var, record) Hashtbl.t;
  mutable vars : int array;  (* [vars.(i)]: the variable of order [i] *)
  mutable next : int;
}

let create () = { tbl = Hashtbl.create 64; vars = Array.make 64 0; next = 0 }

let add t ~var ~value ~ante =
  if Hashtbl.mem t.tbl var then
    Diagnostics.fail (Diagnostics.Level0_duplicate_var var);
  Hashtbl.replace t.tbl var { value; ante; order = t.next };
  if t.next = Array.length t.vars then begin
    let a = Array.make (2 * t.next) 0 in
    Array.blit t.vars 0 a 0 t.next;
    t.vars <- a
  end;
  t.vars.(t.next) <- var;
  t.next <- t.next + 1

let var_at t i =
  if i < 0 || i >= t.next then invalid_arg "Level0.var_at: no such order";
  t.vars.(i)

let count t = Hashtbl.length t.tbl
let mem t v = Hashtbl.mem t.tbl v

let get t v =
  match Hashtbl.find_opt t.tbl v with
  | Some r -> r
  | None -> Diagnostics.fail (Diagnostics.Level0_var_unrecorded v)

let value t v = (get t v).value
let ante t v = (get t v).ante
let order t v = (get t v).order

let lit_false t l =
  match Hashtbl.find_opt t.tbl (Sat.Lit.var l) with
  | None -> false
  | Some r -> r.value = Sat.Lit.is_neg l

let check_antecedent t ~var built =
  let implied = Sat.Lit.make var (not (value t var)) in
  if not (Sat.Clause.mem implied built) then
    Some
      (Printf.sprintf "clause does not contain the implied literal %s"
         (Sat.Lit.to_string implied))
  else begin
    let my_order = order t var in
    let bad = ref None in
    Array.iter
      (fun l ->
        if !bad = None && Sat.Lit.var l <> var then begin
          let v = Sat.Lit.var l in
          match Hashtbl.find_opt t.tbl v with
          | None ->
            bad :=
              Some
                (Printf.sprintf
                   "literal %s is over a variable with no level-0 record"
                   (Sat.Lit.to_string l))
          | Some r ->
            if not (lit_false t l) then
              bad :=
                Some
                  (Printf.sprintf "literal %s is not falsified at level 0"
                     (Sat.Lit.to_string l))
            else if r.order >= my_order then
              bad :=
                Some
                  (Printf.sprintf
                     "literal %s was assigned after variable %d, so the \
                      clause was not yet unit"
                     (Sat.Lit.to_string l) var)
        end)
      built;
    !bad
  end
