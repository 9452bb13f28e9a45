type align = Left | Right

let render ~headers ?align rows =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length headers) rows
  in
  let aligns =
    match align with
    | None -> Array.make ncols Right
    | Some a ->
      let arr = Array.make ncols Right in
      List.iteri (fun i x -> if i < ncols then arr.(i) <- x) a;
      arr
  in
  let cell r i = match List.nth_opt r i with Some c -> c | None -> "" in
  let widths = Array.make ncols 0 in
  let measure r =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      r
  in
  measure headers;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let emit_row r =
    for i = 0 to ncols - 1 do
      let c = cell r i in
      let pad = widths.(i) - String.length c in
      (match aligns.(i) with
       | Left ->
         Buffer.add_string buf c;
         Buffer.add_string buf (String.make pad ' ')
       | Right ->
         Buffer.add_string buf (String.make pad ' ');
         Buffer.add_string buf c);
      if i < ncols - 1 then Buffer.add_string buf "  "
    done;
    Buffer.add_char buf '\n'
  in
  emit_row headers;
  let total =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Buffer.add_string buf (String.make (max total 1) '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let fmt_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let print t =
  print_string t;
  print_newline ()
