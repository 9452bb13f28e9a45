type severity =
  | Error
  | Warning

type code =
  | Parse
  | Missing_header
  | Duplicate_header
  | Header_dims
  | Event_before_header
  | Shadows_original
  | Duplicate_id
  | Nonmonotone_id
  | Empty_sources
  | Self_source
  | Bad_reference
  | Repeated_source
  | Var_out_of_range
  | Duplicate_level0
  | Bad_antecedent
  | Missing_conflict
  | Conflict_unknown
  | After_conflict
  | Formula_mismatch
  | Formula_var_range
  | Formula_duplicate_lit
  | Formula_tautology
  | Dead_derivation
  | Duplicate_derivation
  | Singleton_chain
  | Dangling_delete
  | Duplicate_delete
  | Use_after_delete
  | Chain_no_clash
  | Chain_multi_clash
  | Redundant_derivation

let code_id = function
  | Parse -> "L001"
  | Missing_header -> "L002"
  | Duplicate_header -> "L003"
  | Header_dims -> "L004"
  | Event_before_header -> "L005"
  | Shadows_original -> "L101"
  | Duplicate_id -> "L102"
  | Nonmonotone_id -> "L103"
  | Empty_sources -> "L104"
  | Self_source -> "L105"
  | Bad_reference -> "L106"
  | Repeated_source -> "L107"
  | Var_out_of_range -> "L201"
  | Duplicate_level0 -> "L202"
  | Bad_antecedent -> "L203"
  | Missing_conflict -> "L301"
  | Conflict_unknown -> "L302"
  | After_conflict -> "L303"
  | Formula_mismatch -> "L401"
  | Formula_var_range -> "L402"
  | Formula_duplicate_lit -> "L403"
  | Formula_tautology -> "L404"
  | Dead_derivation -> "L501"
  | Duplicate_derivation -> "L502"
  | Singleton_chain -> "L503"
  | Dangling_delete -> "L601"
  | Duplicate_delete -> "L602"
  | Use_after_delete -> "L603"
  | Chain_no_clash -> "L701"
  | Chain_multi_clash -> "L702"
  | Redundant_derivation -> "L703"

(* One paragraph per stable L-code, keyed by the printed id so [explain]
   can document a refusal without knowing the variant.  The first string
   is a short title, the second what the condition means and what
   usually causes it. *)
let code_doc id =
  let d title text = Some (title, text) in
  match id with
  | "L001" ->
    d "parse error"
      "The record at this position is not a well-formed trace line: \
       unknown keyword, malformed integer, or a truncated binary record. \
       Usually a corrupted or truncated trace file, or mismatched \
       encoding/version detection."
  | "L002" ->
    d "missing header"
      "The trace carries no problem header, so clause ids cannot be \
       split into originals and learned clauses."
  | "L003" -> d "duplicate header" "More than one problem header appears."
  | "L004" ->
    d "header dimensions mismatch"
      "The header's variable or clause counts disagree with the DIMACS \
       formula the trace is checked against."
  | "L005" ->
    d "event before header"
      "A derivation record precedes the problem header; ids cannot be \
       classified yet."
  | "L101" ->
    d "learned id shadows an original"
      "A learned clause reuses an id in the original-clause range. Ids \
       must be disjoint: originals first, learned clauses above them."
  | "L102" ->
    d "duplicate learned id"
      "Two learned clauses define the same id; every derivation must \
       have a unique name."
  | "L103" ->
    d "non-monotone learned id"
      "Learned ids do not increase in stream order. Checkers tolerate \
       this but it usually signals a reordered or interleaved trace."
  | "L104" ->
    d "empty source list"
      "A learned clause lists no antecedents; a resolution chain needs \
       at least two sources."
  | "L105" ->
    d "self-referential source"
      "A learned clause lists itself among its sources."
  | "L106" ->
    d "unknown source id"
      "A source id names a clause that is neither an original (per the \
       header) nor a previously defined learned clause. Typically a \
       truncated prefix, a deleted clause, or a corrupted id."
  | "L107" ->
    d "repeated source"
      "The same id appears more than once in one source list; harmless \
       to resolution but usually a generator bug."
  | "L201" ->
    d "level-0 variable out of range"
      "A level-0 assignment names a variable outside the header's range."
  | "L202" ->
    d "duplicate level-0 assignment"
      "The same variable is assigned at level 0 twice."
  | "L203" ->
    d "bad level-0 antecedent"
      "A level-0 assignment cites an antecedent clause that is not \
       defined at that point."
  | "L301" ->
    d "missing final conflict"
      "The trace ends without a final conflict record; an UNSAT proof \
       must name the clause whose literals are all false at level 0."
  | "L302" ->
    d "final conflict names unknown clause"
      "The final conflict record cites an id that was never defined."
  | "L303" ->
    d "events after final conflict"
      "Records follow the final conflict; they are dead weight and \
       usually indicate a concatenated or truncated-then-resumed trace."
  | "L401" ->
    d "original clause mismatch"
      "An original clause in the trace disagrees with the DIMACS \
       formula at the same id — wrong formula for this trace."
  | "L402" ->
    d "formula variable out of range"
      "The DIMACS formula uses a variable beyond its declared count."
  | "L403" ->
    d "duplicate literal in formula clause"
      "A formula clause repeats a literal (normalized away, but noted)."
  | "L404" ->
    d "tautological formula clause"
      "A formula clause contains a literal and its negation."
  | "L501" ->
    d "dead derivation"
      "The learned clause is never used on any path to the final \
       conflict; trimming would remove it."
  | "L502" ->
    d "duplicate derivation"
      "Two learned clauses derive the same literal set; the later one \
       is redundant."
  | "L503" ->
    d "singleton chain"
      "A derivation lists exactly one source — a copy, not a resolution."
  | "L601" ->
    d "dangling delete hint"
      "A delete hint names an id that is not live at that point: never \
       defined, or already deleted."
  | "L602" ->
    d "duplicate delete hint"
      "The same id is deleted twice with no intervening definition."
  | "L603" ->
    d "use after delete"
      "A source list cites a clause after a delete hint removed it. A \
       one-pass hinted checker must refuse this; the hint generator is \
       deleting too eagerly."
  | "L701" ->
    d "chain has no clashing pair"
      "Simulating the resolution chain found two adjacent resolvents \
       with no complementary literal — the chain cannot resolve."
  | "L702" ->
    d "chain has multiple clashing pairs"
      "Two chain clauses clash on more than one variable; resolution on \
       either pivot leaves a tautology, so the chain is ambiguous."
  | "L703" ->
    d "redundant derivation"
      "The simulated chain result is subsumed by an existing clause; \
       the derivation adds nothing."
  | _ -> None

let severity_of = function
  | Nonmonotone_id | Repeated_source | After_conflict | Formula_duplicate_lit
  | Formula_tautology | Dead_derivation | Duplicate_derivation
  | Singleton_chain | Redundant_derivation ->
    Warning
  | Parse | Missing_header | Duplicate_header | Header_dims
  | Event_before_header | Shadows_original | Duplicate_id | Empty_sources
  | Self_source | Bad_reference | Var_out_of_range | Duplicate_level0
  | Bad_antecedent | Missing_conflict | Conflict_unknown | Formula_mismatch
  | Formula_var_range | Dangling_delete | Duplicate_delete | Use_after_delete
  | Chain_no_clash | Chain_multi_clash ->
    Error

type diagnostic = {
  code : code;
  pos : Trace.Reader.pos;
  message : string;
}

type report = {
  binary : bool;
  events : int;
  learned : int;
  level0 : int;
  errors : int;
  warnings : int;
  diagnostics : diagnostic list;
  dropped : int;
  by_code : (string * int) list;
}

let clean r = r.errors = 0

(* --- linter state ------------------------------------------------------- *)

type state = {
  cap : int;
  mutable diags : diagnostic list;      (* reverse stream order *)
  mutable kept : int;
  mutable n_dropped : int;
  mutable n_errors : int;
  mutable n_warnings : int;
  code_counts : (string, int) Hashtbl.t;  (* code id -> count, uncapped *)
  mutable n_events : int;
  mutable n_learned : int;
  mutable n_level0 : int;
  (* trace structure *)
  mutable header : (int * int) option;  (* nvars, num_original *)
  mutable pre_header_reported : bool;
  mutable last_learned_id : int;
  defined : (int, unit) Hashtbl.t;      (* learned ids, stream order *)
  level0_vars : (int, unit) Hashtbl.t;
  deleted : (int, unit) Hashtbl.t;      (* ids named by delete hints *)
  mutable conflict_seen : bool;
  mutable after_conflict_reported : bool;
  (* normalized original clauses ([None] = tautological), id-1 indexed;
     empty without a formula.  Feeds the L7xx chain simulation. *)
  originals : Sat.Clause.t option array;
  orig_keys : (string, int) Hashtbl.t;  (* normalized-clause key -> id *)
}

(* Canonical key of a normalized clause: [Clause.normalize] sorts
   literals, so equal clause sets render identically. *)
let clause_key c =
  String.concat "," (List.map string_of_int (Sat.Clause.to_ints c))

(* Telemetry handles; updates are guarded at the few lint hot points. *)
let m_events = Obs.Metrics.counter Obs.Metrics.global "lint.events"
let m_errors = Obs.Metrics.counter Obs.Metrics.global "lint.errors"
let m_warnings = Obs.Metrics.counter Obs.Metrics.global "lint.warnings"

let count_code counts code =
  let id = code_id code in
  let n = try Hashtbl.find counts id with Not_found -> 0 in
  Hashtbl.replace counts id (n + 1)

(* [code_counts counts] seals a per-code count table into the sorted
   association list reports carry. *)
let code_counts counts =
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let emit st pos code fmt =
  Printf.ksprintf
    (fun message ->
      count_code st.code_counts code;
      (match severity_of code with
       | Error ->
         st.n_errors <- st.n_errors + 1;
         if Obs.Ctl.on () then Obs.Metrics.Counter.incr m_errors 1
       | Warning ->
         st.n_warnings <- st.n_warnings + 1;
         if Obs.Ctl.on () then Obs.Metrics.Counter.incr m_warnings 1);
      if st.kept < st.cap then begin
        st.diags <- { code; pos; message } :: st.diags;
        st.kept <- st.kept + 1
      end
      else st.n_dropped <- st.n_dropped + 1)
    fmt

(* A reference is resolvable when it names an original clause or a learned
   clause already defined upstream.  Stream-order referencing makes the
   resolve-source graph acyclic by construction, which is exactly the
   discipline the solver's emission order guarantees and the breadth-first
   checker requires. *)
let resolvable st id =
  id >= 1
  && ((match st.header with
       | Some (_, norig) -> id <= norig
       | None -> false)
     || Hashtbl.mem st.defined id)

let check_header st pos (h : int * int) =
  let nvars, norig = h in
  (match st.header with
   | Some _ -> emit st pos Duplicate_header "second header record"
   | None -> st.header <- Some h);
  if nvars <= 0 || norig <= 0 then
    emit st pos Header_dims "header declares %d variables, %d original clauses"
      nvars norig

let check_learned st pos id sources =
  st.n_learned <- st.n_learned + 1;
  let norig = match st.header with Some (_, n) -> n | None -> 0 in
  let duplicate = Hashtbl.mem st.defined id in
  if id <= norig then
    emit st pos Shadows_original
      "learned-clause id %d lies in the original range 1..%d" id norig
  else if duplicate then
    emit st pos Duplicate_id "learned-clause id %d defined twice" id
  else if id <= st.last_learned_id then
    emit st pos Nonmonotone_id
      "learned-clause id %d not above the previous one (%d)" id
      st.last_learned_id;
  if Array.length sources = 0 then
    emit st pos Empty_sources "learned clause %d has no resolve sources" id;
  let repeated = ref false in
  Array.iteri
    (fun i s ->
      if s = id then
        emit st pos Self_source "clause %d lists itself as a source" id
      else if not (resolvable st s) then
        emit st pos Bad_reference
          "clause %d references source %d, which is neither an original \
           clause nor a learned clause defined upstream"
          id s
      else if Hashtbl.mem st.deleted s then
        emit st pos Use_after_delete
          "clause %d resolves with source %d after its delete hint" id s;
      if (not !repeated) && i > 0 && sources.(i - 1) = s then begin
        repeated := true;
        emit st pos Repeated_source
          "clause %d resolves with source %d twice in a row" id s
      end)
    sources;
  (* define even a flawed id: downstream references to it are not the
     record to blame *)
  if not duplicate then Hashtbl.replace st.defined id ();
  if id > st.last_learned_id then st.last_learned_id <- id;
  (* L7xx: a chain whose sources are all original clauses — the shape the
     proof-emitting simplifier produces — is fully simulable from the
     formula alone, with no clause database: replay it left to right and
     flag steps the resolution kernel would refuse (no clashing variable,
     or several).  Chains touching learned sources are skipped: their
     rebuilt clauses may carry level-0 literals the stream does not show.
     Tautological originals are skipped too (already L404). *)
  let n_orig_known = Array.length st.originals in
  if
    n_orig_known > 0
    && Array.length sources >= 2
    && Array.for_all (fun s -> s >= 1 && s <= n_orig_known) sources
    && Array.for_all (fun s -> st.originals.(s - 1) <> None) sources
  then begin
    let get s = Option.get st.originals.(s - 1) in
    let acc = ref (get sources.(0)) in
    let step_ok = ref true in
    let i = ref 1 in
    while !step_ok && !i < Array.length sources do
      let s = sources.(!i) in
      let c = get s in
      (match Sat.Clause.clashing_vars !acc c with
       | [ v ] -> acc := Sat.Clause.resolve !acc c v
       | [] ->
         step_ok := false;
         emit st pos Chain_no_clash
           "clause %d: chain step %d resolves against original clause %d \
            with no clashing variable"
           id !i s
       | _ :: _ :: _ ->
         step_ok := false;
         emit st pos Chain_multi_clash
           "clause %d: chain step %d resolves against original clause %d \
            with more than one clashing variable (tautological resolvent)"
           id !i s);
      incr i
    done;
    if !step_ok then
      match Sat.Clause.normalize !acc with
      | None -> ()
      | Some r -> (
        match Hashtbl.find_opt st.orig_keys (clause_key r) with
        | Some oid ->
          emit st pos Redundant_derivation
            "clause %d rederives original clause %d verbatim" id oid
        | None -> ())
  end

let check_level0 st pos var ante =
  st.n_level0 <- st.n_level0 + 1;
  (match st.header with
   | Some (nvars, _) ->
     if var < 1 || var > nvars then
       emit st pos Var_out_of_range
         "level-0 record for variable %d, outside 1..%d" var nvars
   | None -> ());
  if Hashtbl.mem st.level0_vars var then
    emit st pos Duplicate_level0 "variable %d has two level-0 records" var
  else Hashtbl.replace st.level0_vars var ();
  if not (resolvable st ante) then
    emit st pos Bad_antecedent
      "level-0 record for variable %d names undefined antecedent %d" var ante
  else if Hashtbl.mem st.deleted ante then
    emit st pos Use_after_delete
      "level-0 record for variable %d names antecedent %d after its delete \
       hint"
      var ante

let check_conflict st pos id =
  if not (resolvable st id) then
    emit st pos Conflict_unknown
      "final conflict references undefined clause %d" id
  else if Hashtbl.mem st.deleted id then
    emit st pos Use_after_delete
      "final conflict references clause %d after its delete hint" id;
  st.conflict_seen <- true

(* Delete-hint records (format version 2, L6xx): each listed id must name
   a clause that is currently live — defined upstream and not already
   deleted.  A hint that is merely premature (the clause is used again
   later) surfaces at the use site as [Use_after_delete]. *)
let check_delete st pos ids =
  Array.iter
    (fun id ->
      if not (resolvable st id) then
        emit st pos Dangling_delete
          "delete hint names clause %d, which is neither an original clause \
           nor a learned clause defined upstream"
          id
      else if Hashtbl.mem st.deleted id then
        emit st pos Duplicate_delete "clause %d deleted twice" id
      else Hashtbl.replace st.deleted id ())
    ids

let handle_event st pos (e : Trace.Event.t) =
  st.n_events <- st.n_events + 1;
  if Obs.Ctl.on () then Obs.Metrics.Counter.incr m_events 1;
  if st.conflict_seen && not st.after_conflict_reported then begin
    st.after_conflict_reported <- true;
    emit st pos After_conflict "records continue after the final conflict"
  end;
  (match e, st.header with
   | Trace.Event.Header _, _ | _, Some _ -> ()
   | _, None ->
     if not st.pre_header_reported then begin
       st.pre_header_reported <- true;
       emit st pos Event_before_header "record precedes the trace header"
     end);
  match e with
  | Trace.Event.Header h -> check_header st pos (h.nvars, h.num_original)
  | Trace.Event.Learned l -> check_learned st pos l.id l.sources
  | Trace.Event.Level0 v -> check_level0 st pos v.var v.ante
  | Trace.Event.Final_conflict id -> check_conflict st pos id
  | Trace.Event.Delete ids -> check_delete st pos ids

(* Formula-side lint (L4xx): the trace proves the *formula* unsat, so
   degenerate original clauses — out-of-range, duplicate or tautological
   literals — are corruption the replay would only surface indirectly. *)
let check_formula st pos f =
  let nvars = Sat.Cnf.nvars f in
  Sat.Cnf.iter_clauses
    (fun i c ->
      let id = i + 1 in
      let seen_lit = Hashtbl.create 8 in
      let dup = ref false and taut = ref false in
      Array.iter
        (fun l ->
          let v = Sat.Lit.var l in
          if v < 1 || v > nvars then
            emit st pos Formula_var_range
              "formula clause %d mentions variable %d, outside 1..%d" id v
              nvars;
          if (not !dup) && Hashtbl.mem seen_lit l then begin
            dup := true;
            emit st pos Formula_duplicate_lit
              "formula clause %d repeats literal %s" id (Sat.Lit.to_string l)
          end;
          if (not !taut) && Hashtbl.mem seen_lit (Sat.Lit.negate l) then begin
            taut := true;
            emit st pos Formula_tautology
              "formula clause %d is tautological on variable %d" id v
          end;
          Hashtbl.replace seen_lit l ())
        c)
    f

let check_formula_header st pos f =
  match st.header with
  | None -> ()
  | Some (nvars, norig) ->
    if nvars <> Sat.Cnf.nvars f || norig <> Sat.Cnf.nclauses f then
      emit st pos Formula_mismatch
        "trace header (%d vars, %d clauses) disagrees with the formula \
         (%d vars, %d clauses)"
        nvars norig (Sat.Cnf.nvars f) (Sat.Cnf.nclauses f)

(* The linter as an incremental stream: events (or parse errors) are fed
   one at a time, so the same diagnostics accumulate whether the trace is
   decoded from a file or observed live as the solver emits it.  The
   formula cross-checks run up front ([stream_start]) and at the end
   ([stream_finish]), exactly as the one-shot [run] always did. *)

type stream = {
  st : state;
  s_binary : bool;
  s_formula : Sat.Cnf.t option;
  mutable end_pos : Trace.Reader.pos;  (* where the last fed record started *)
}

let stream_start ?formula ?(max_diagnostics = 100) ~binary () =
  let originals, orig_keys =
    match formula with
    | None -> ([||], Hashtbl.create 1)
    | Some f ->
      let arr = Array.make (Sat.Cnf.nclauses f) None in
      let keys = Hashtbl.create (2 * Sat.Cnf.nclauses f + 1) in
      Sat.Cnf.iter_clauses
        (fun i c ->
          match Sat.Clause.normalize c with
          | None -> ()
          | Some n ->
            arr.(i) <- Some n;
            (* first definition wins: duplicates report the earliest id *)
            let k = clause_key n in
            if not (Hashtbl.mem keys k) then Hashtbl.add keys k (i + 1))
        f;
      (arr, keys)
  in
  let st = {
    cap = max max_diagnostics 0;
    diags = [];
    kept = 0;
    n_dropped = 0;
    n_errors = 0;
    n_warnings = 0;
    code_counts = Hashtbl.create 16;
    n_events = 0;
    n_learned = 0;
    n_level0 = 0;
    header = None;
    pre_header_reported = false;
    last_learned_id = 0;
    defined = Hashtbl.create 1024;
    level0_vars = Hashtbl.create 256;
    deleted = Hashtbl.create 256;
    conflict_seen = false;
    after_conflict_reported = false;
    originals;
    orig_keys;
  } in
  let origin = if binary then Trace.Reader.Byte 0 else Trace.Reader.Line 0 in
  (match formula with
   | Some f -> check_formula st origin f
   | None -> ());
  {
    st;
    s_binary = binary;
    s_formula = formula;
    (* matches a fresh cursor's [last_pos]: byte 4 is right behind the
       binary magic *)
    end_pos = (if binary then Trace.Reader.Byte 4 else Trace.Reader.Line 1);
  }

let stream_event t pos e =
  t.end_pos <- pos;
  handle_event t.st pos e

let stream_parse_error t pos msg =
  t.end_pos <- pos;
  emit t.st pos Parse "%s" msg

let stream_finish ?end_pos t =
  let st = t.st in
  let end_pos = match end_pos with Some p -> p | None -> t.end_pos in
  (match st.header with
   | None -> emit st end_pos Missing_header "trace has no header record"
   | Some _ -> ());
  (match t.s_formula with
   | Some f -> check_formula_header st end_pos f
   | None -> ());
  if not st.conflict_seen then
    emit st end_pos Missing_conflict
      "trace ends without a final-conflict record";
  {
    binary = t.s_binary;
    events = st.n_events;
    learned = st.n_learned;
    level0 = st.n_level0;
    errors = st.n_errors;
    warnings = st.n_warnings;
    diagnostics = List.rev st.diags;
    dropped = st.n_dropped;
    by_code = code_counts st.code_counts;
  }

let sink ?downstream t ~pos =
  Trace.Sink.make
    ~close:(fun () ->
      match downstream with Some s -> Trace.Sink.close s | None -> ())
    (fun e ->
      stream_event t (pos ()) e;
      match downstream with Some s -> Trace.Sink.push s e | None -> ())

let run ?format ?formula ?max_diagnostics source =
  Obs.Span.scope ~cat:"lint" "lint.run" @@ fun () ->
  let cur = Trace.Reader.cursor ?format source in
  let binary = Trace.Reader.is_binary_cursor cur in
  let t = stream_start ?formula ?max_diagnostics ~binary () in
  let running = ref true in
  while !running do
    match Trace.Reader.next cur with
    | Some e -> stream_event t (Trace.Reader.last_pos cur) e
    | None -> running := false
    | exception Trace.Reader.Parse_error { pos; msg } ->
      stream_parse_error t pos msg;
      (* ASCII resynchronises on the next line; binary records have no
         framing to recover with, so the pass ends here *)
      if binary then running := false
  done;
  let report = stream_finish ~end_pos:(Trace.Reader.last_pos cur) t in
  Trace.Reader.close cur;
  report

(* --- rendering ---------------------------------------------------------- *)

let severity_string = function Error -> "error" | Warning -> "warning"

let pp_diagnostic fmt d =
  Format.fprintf fmt "%s %s at %a: %s"
    (severity_string (severity_of d.code))
    (code_id d.code) Trace.Reader.pp_pos d.pos d.message

let pp fmt r =
  List.iter (fun d -> Format.fprintf fmt "%a@," pp_diagnostic d) r.diagnostics;
  if r.dropped > 0 then
    Format.fprintf fmt "... %d further diagnostics dropped@," r.dropped;
  Format.fprintf fmt
    "trace lint: %s format, %d events (%d learned, %d level-0), %d errors, \
     %d warnings"
    (if r.binary then "binary" else "ascii")
    r.events r.learned r.level0 r.errors r.warnings

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let by_code_json by_code =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (id, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" id n))
    by_code;
  Buffer.add_char buf '}';
  Buffer.contents buf

let diagnostics_json diagnostics =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      let where =
        match d.pos with
        | Trace.Reader.Line n -> Printf.sprintf "\"line\":%d" n
        | Trace.Reader.Byte n -> Printf.sprintf "\"byte\":%d" n
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"code\":\"%s\",\"severity\":\"%s\",%s,\"message\":\"%s\"}"
           (code_id d.code)
           (severity_string (severity_of d.code))
           where (json_escape d.message)))
    diagnostics;
  Buffer.add_char buf ']';
  Buffer.contents buf

let to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"format\":\"%s\",\"events\":%d,\"learned\":%d,\"level0\":%d,\
        \"errors\":%d,\"warnings\":%d,\"dropped\":%d,\"by_code\":%s,\
        \"diagnostics\":%s}"
       (if r.binary then "binary" else "ascii")
       r.events r.learned r.level0 r.errors r.warnings r.dropped
       (by_code_json r.by_code)
       (diagnostics_json r.diagnostics));
  Buffer.contents buf
