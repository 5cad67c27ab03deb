(* Unit tests for Pattern: growth, insertion/extensions (Definition 3.4),
   subsequence containment. *)

open Rgs_core

let p = Pattern.of_string

let test_basics () =
  let ab = p "AB" in
  Alcotest.(check int) "length" 2 (Pattern.length ab);
  Alcotest.(check int) "get 1" 0 (Pattern.get ab 1);
  Alcotest.(check int) "get 2" 1 (Pattern.get ab 2);
  Alcotest.(check int) "last" 1 (Pattern.last ab);
  Alcotest.(check bool) "empty" true (Pattern.is_empty Pattern.empty);
  Alcotest.(check string) "to_string" "AB" (Pattern.to_string ab);
  Alcotest.(check (list int)) "events" [ 0; 1 ] (Pattern.events (p "ABAB"))

let test_bounds () =
  Alcotest.check_raises "get 0" (Invalid_argument "Pattern.get: index 0 out of [1;2]")
    (fun () -> ignore (Pattern.get (p "AB") 0));
  Alcotest.check_raises "last empty" (Invalid_argument "Pattern.last: empty pattern")
    (fun () -> ignore (Pattern.last Pattern.empty))

let test_grow_concat () =
  Alcotest.(check bool) "grow" true (Pattern.equal (Pattern.grow (p "AB") 2) (p "ABC"));
  Alcotest.(check bool) "grow empty" true (Pattern.equal (Pattern.grow Pattern.empty 0) (p "A"));
  Alcotest.(check bool) "concat" true (Pattern.equal (Pattern.concat (p "AB") (p "CD")) (p "ABCD"))

let test_insert () =
  let ab = p "AB" in
  Alcotest.(check bool) "prepend" true (Pattern.equal (Pattern.insert ab ~at:0 2) (p "CAB"));
  Alcotest.(check bool) "middle" true (Pattern.equal (Pattern.insert ab ~at:1 2) (p "ACB"));
  Alcotest.(check bool) "append" true (Pattern.equal (Pattern.insert ab ~at:2 2) (p "ABC"));
  Alcotest.check_raises "out of range" (Invalid_argument "Pattern.insert: position 3 out of [0;2]")
    (fun () -> ignore (Pattern.insert ab ~at:3 2))

let test_extensions () =
  let exts = Pattern.extensions (p "AB") ~events:[ 0; 1 ] in
  (* 3 positions x 2 events *)
  Alcotest.(check int) "count" 6 (List.length exts);
  let strings = List.map (fun (_, _, q) -> Pattern.to_string q) exts in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("contains " ^ expected) true (List.mem expected strings))
    [ "AAB"; "BAB"; "AAB"; "ABB"; "ABA"; "ABB" ];
  (* every extension is a proper super-pattern *)
  List.iter
    (fun (_, _, q) ->
      Alcotest.(check bool) "superpattern" true (Pattern.is_subpattern (p "AB") ~of_:q))
    exts

let test_subpattern () =
  let check_sub a b expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s sub of %s" a b)
      expected
      (Pattern.is_subpattern (p a) ~of_:(p b))
  in
  check_sub "AB" "AABB" true;
  check_sub "AB" "BA" false;
  check_sub "ABC" "ABC" true;
  check_sub "AAB" "AB" false;
  check_sub "ACB" "ABCACB" true;
  check_sub "" "ABC" true;
  check_sub "A" "" false

let test_compare_orders () =
  let r1 = { Mined.pattern = p "AB"; support = 5 } in
  let r2 = { Mined.pattern = p "ABC"; support = 5 } in
  let r3 = { Mined.pattern = p "Z"; support = 9 } in
  let by_sup = List.sort Mined.compare_by_support_desc [ r1; r2; r3 ] in
  Alcotest.(check (list string)) "by support" [ "Z"; "AB"; "ABC" ]
    (List.map (fun r -> Pattern.to_string r.Mined.pattern) by_sup);
  let by_len = List.sort Mined.compare_by_length_desc [ r1; r2; r3 ] in
  Alcotest.(check (list string)) "by length" [ "ABC"; "AB"; "Z" ]
    (List.map (fun r -> Pattern.to_string r.Mined.pattern) by_len)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "grow/concat" `Quick test_grow_concat;
    Alcotest.test_case "insert" `Quick test_insert;
    Alcotest.test_case "extensions" `Quick test_extensions;
    Alcotest.test_case "subpattern" `Quick test_subpattern;
    Alcotest.test_case "result orders" `Quick test_compare_orders;
  ]
