type counter = { mutable count : int }
type gauge = { mutable value : float; mutable high : float }

let nbuckets = 63

type histogram = {
  buckets : int array; (* log2 buckets, see [Histogram.bucket_index] *)
  mutable n : int;
  mutable total : float;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

(* The name table is touched only at handle creation and export, both off
   the hot path, so one mutex suffices. *)
type t = { table : (string, metric) Hashtbl.t; lock : Mutex.t }

let create () = { table = Hashtbl.create 64; lock = Mutex.create () }
let global = create ()

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register t name make describe =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace t.table name m;
        m)
  |> fun m ->
  match describe m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S is already registered as another kind"
         name)

let counter t name =
  register t name
    (fun () -> M_counter { count = 0 })
    (function M_counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun () -> M_gauge { value = 0.0; high = 0.0 })
    (function M_gauge g -> Some g | _ -> None)

let histogram t name =
  register t name
    (fun () -> M_histogram { buckets = Array.make nbuckets 0; n = 0; total = 0.0 })
    (function M_histogram h -> Some h | _ -> None)

module Counter = struct
  let[@inline] incr c n = c.count <- c.count + n
  let get c = c.count
end

module Gauge = struct
  let[@inline] set g v =
    g.value <- v;
    if v > g.high then g.high <- v

  let get g = g.value
  let max_value g = g.high
end

module Histogram = struct
  (* bucket 0: v <= 0; bucket k >= 1: 2^(k-1) <= v < 2^k.  The top bucket
     absorbs everything wider. *)
  let bucket_index v =
    if v <= 0 then 0
    else begin
      let bits = ref 0 in
      let n = ref v in
      while !n <> 0 do
        incr bits;
        n := !n lsr 1
      done;
      min (nbuckets - 1) !bits
    end

  let observe h v =
    h.buckets.(bucket_index v) <- h.buckets.(bucket_index v) + 1;
    h.n <- h.n + 1;
    h.total <- h.total +. float_of_int v

  let count h = h.n
  let sum h = h.total

  let buckets h =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if h.buckets.(i) <> 0 then acc := (i, h.buckets.(i)) :: !acc
    done;
    !acc
end

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> c.count <- 0
          | M_gauge g ->
            g.value <- 0.0;
            g.high <- 0.0
          | M_histogram h ->
            Array.fill h.buckets 0 nbuckets 0;
            h.n <- 0;
            h.total <- 0.0)
        t.table)

(* --- export -------------------------------------------------------------- *)

let sorted_items t =
  with_lock t (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t =
  List.map
    (fun (name, m) ->
      match m with
      | M_counter c -> (name, float_of_int c.count)
      | M_gauge g -> (name, g.value)
      | M_histogram h -> (name ^ ".count", float_of_int h.n))
    (sorted_items t)

(* JSON floats: integral values print as integers so the common case
   (counts, byte sizes) stays exact and diffable *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Prometheus text exposition.  Metric names become
   [rescheck_<name with separators folded to '_'>]; gauges export their
   level and a companion [_max] high-water series; log2 histograms map
   to cumulative [le] buckets whose bounds are each bucket's largest
   representable integer. *)
let prom_name name =
  let b = Buffer.create (String.length name + 9) in
  Buffer.add_string b "rescheck_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let to_prom t =
  let items = sorted_items t in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, m) ->
      let pn = prom_name name in
      match m with
      | M_counter c ->
        line "# TYPE %s counter" pn;
        line "%s %d" pn c.count
      | M_gauge g ->
        line "# TYPE %s gauge" pn;
        line "%s %s" pn (json_float g.value);
        line "# TYPE %s_max gauge" pn;
        line "%s_max %s" pn (json_float g.high)
      | M_histogram h ->
        line "# TYPE %s histogram" pn;
        let cum = ref 0 in
        List.iter
          (fun (k, n) ->
            cum := !cum + n;
            (* bucket 0 holds v <= 0; bucket k >= 1 holds [2^(k-1), 2^k) *)
            let upper = if k = 0 then 0 else (1 lsl k) - 1 in
            line "%s_bucket{le=\"%d\"} %d" pn upper !cum)
          (Histogram.buckets h);
        line "%s_bucket{le=\"+Inf\"} %d" pn h.n;
        line "%s_sum %s" pn (json_float h.total);
        line "%s_count %d" pn h.n)
    items;
  Buffer.contents b

let to_json t =
  let items = sorted_items t in
  let pick f = List.filter_map f items in
  let obj fields = "{" ^ String.concat "," fields ^ "}" in
  let field name value = Printf.sprintf "\"%s\":%s" (json_escape name) value in
  let counters =
    pick (function
      | name, M_counter c -> Some (field name (string_of_int c.count))
      | _ -> None)
  in
  let gauges =
    pick (function
      | name, M_gauge g ->
        Some
          (field name
             (obj
                [
                  field "value" (json_float g.value);
                  field "max" (json_float g.high);
                ]))
      | _ -> None)
  in
  let histograms =
    pick (function
      | name, M_histogram h ->
        let buckets =
          Histogram.buckets h
          |> List.map (fun (k, n) -> Printf.sprintf "[%d,%d]" k n)
          |> String.concat ","
        in
        Some
          (field name
             (obj
                [
                  field "count" (string_of_int h.n);
                  field "sum" (json_float h.total);
                  field "buckets" ("[" ^ buckets ^ "]");
                ]))
      | _ -> None)
  in
  obj
    [
      field "counters" (obj counters);
      field "gauges" (obj gauges);
      field "histograms" (obj histograms);
    ]
