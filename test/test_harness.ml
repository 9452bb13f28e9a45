(* Tests for the experiment harness's table rendering. *)

let test_table_render () =
  let s =
    Harness.Table.render
      ~headers:[ "name"; "n" ]
      ~align:[ Harness.Table.Left; Harness.Table.Right ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  Alcotest.check Alcotest.int "4 lines" 4 (List.length lines);
  (match lines with
   | [ header; rule; r1; r2 ] ->
     Alcotest.check Alcotest.bool "rule is dashes" true
       (String.for_all (( = ) '-') rule);
     Alcotest.check Alcotest.int "aligned widths" (String.length header)
       (String.length r1);
     Alcotest.check Alcotest.int "aligned widths 2" (String.length header)
       (String.length r2);
     Alcotest.check Alcotest.bool "left-aligned name" true
       (String.length r1 > 0 && r1.[0] = 'a')
   | _ -> Alcotest.fail "unexpected shape")

let test_table_formats () =
  Alcotest.check Alcotest.string "pct" "12.5%" (Harness.Table.fmt_pct 0.125);
  Alcotest.check Alcotest.string "float" "3.14"
    (Harness.Table.fmt_float 3.14159);
  Alcotest.check Alcotest.string "float decimals" "3.1416"
    (Harness.Table.fmt_float ~decimals:4 3.14159)

let test_table_ragged_rows () =
  let s = Harness.Table.render ~headers:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.check Alcotest.bool "missing cells tolerated" true
    (String.length s > 0)

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "table formats" `Quick test_table_formats;
        Alcotest.test_case "table ragged rows" `Quick test_table_ragged_rows;
      ] );
  ]
