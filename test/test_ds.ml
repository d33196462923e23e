(* Tests for heaps, union-find and combinatorial enumeration. *)

open Bi_ds

(* --- Heap --- *)

let test_heap_sorts () =
  let h = Heap.of_list ~cmp:Stdlib.compare [ 5; 3; 8; 1; 9; 2; 7 ] in
  Alcotest.(check (list int)) "drain sorted" [ 1; 2; 3; 5; 7; 8; 9 ]
    (Heap.to_sorted_list h);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:Stdlib.compare in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek_min h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop_min h);
  Heap.push h 4;
  Heap.push h 2;
  Alcotest.(check (option int)) "peek" (Some 2) (Heap.peek_min h);
  Alcotest.(check int) "size" 2 (Heap.size h);
  Alcotest.(check int) "pop" 2 (Heap.pop_min_exn h);
  Alcotest.(check int) "pop next" 4 (Heap.pop_min_exn h);
  Alcotest.check_raises "pop empty exn"
    (Invalid_argument "Heap.pop_min_exn: empty heap") (fun () ->
      ignore (Heap.pop_min_exn h))

let test_heap_duplicates () =
  let h = Heap.of_list ~cmp:Stdlib.compare [ 3; 1; 3; 1; 2 ] in
  Alcotest.(check (list int)) "duplicates kept" [ 1; 1; 2; 3; 3 ]
    (Heap.to_sorted_list h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap sorts any list" ~count:300
    QCheck2.Gen.(list (int_range (-1000) 1000))
    (fun xs ->
      Heap.to_sorted_list (Heap.of_list ~cmp:Stdlib.compare xs)
      = List.sort Stdlib.compare xs)

(* --- Union-find --- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union 1 2" true (Union_find.union uf 1 2);
  Alcotest.(check bool) "redundant union" false (Union_find.union uf 0 2);
  Alcotest.(check bool) "same 0 2" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "not same 0 3" false (Union_find.same uf 0 3);
  Alcotest.(check int) "count after merges" 4 (Union_find.count uf);
  Alcotest.(check int) "component size" 3 (Union_find.size_of uf 1);
  Alcotest.(check int) "singleton size" 1 (Union_find.size_of uf 5)

let prop_union_find_transitive =
  QCheck2.Test.make ~name:"union-find equivalence closure" ~count:200
    QCheck2.Gen.(list_size (int_range 0 30) (pair (int_range 0 9) (int_range 0 9)))
    (fun unions ->
      let uf = Union_find.create 10 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) unions;
      (* Oracle: naive reflexive-transitive-symmetric closure. *)
      let reach = Array.make_matrix 10 10 false in
      for i = 0 to 9 do reach.(i).(i) <- true done;
      List.iter (fun (a, b) -> reach.(a).(b) <- true; reach.(b).(a) <- true) unions;
      for k = 0 to 9 do
        for i = 0 to 9 do
          for j = 0 to 9 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let ok = ref true in
      for i = 0 to 9 do
        for j = 0 to 9 do
          if Union_find.same uf i j <> reach.(i).(j) then ok := false
        done
      done;
      !ok)

(* --- Combinat --- *)

let test_product () =
  let p = List.of_seq (Combinat.product [ [ 1; 2 ]; [ 3; 4; 5 ] ]) in
  Alcotest.(check (list (list int))) "2x3 product"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 1; 5 ]; [ 2; 3 ]; [ 2; 4 ]; [ 2; 5 ] ]
    p;
  Alcotest.(check (list (list int))) "empty product" [ [] ]
    (List.of_seq (Combinat.product []))

let test_functions () =
  let fs = List.of_seq (Combinat.functions ~dom:2 [| 0; 1; 2 |]) in
  Alcotest.(check int) "3^2 functions" 9 (List.length fs);
  Alcotest.(check bool) "all distinct" true
    (List.length (List.sort_uniq Stdlib.compare fs) = 9)

let test_subsets () =
  let ss = List.of_seq (Combinat.subsets [ 1; 2; 3 ]) in
  Alcotest.(check int) "2^3 subsets" 8 (List.length ss);
  Alcotest.(check bool) "contains empty and full" true
    (List.mem [] ss && List.mem [ 1; 2; 3 ] ss)

let test_combinations () =
  let cs = List.of_seq (Combinat.combinations [ 1; 2; 3; 4 ] 2) in
  Alcotest.(check int) "C(4,2)" 6 (List.length cs);
  Alcotest.(check bool) "each size 2" true (List.for_all (fun c -> List.length c = 2) cs)

let test_permutations () =
  let ps = List.of_seq (Combinat.permutations [ 1; 2; 3 ]) in
  Alcotest.(check int) "3!" 6 (List.length ps);
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq Stdlib.compare ps));
  (* Duplicate elements: still positional permutations. *)
  Alcotest.(check int) "with duplicates" 2
    (List.length (List.of_seq (Combinat.permutations [ 7; 7 ])))

let test_argmin_argmax () =
  let xs = List.to_seq [ 4; 1; 7; 1 ] in
  Alcotest.(check (option (pair int int))) "argmin" (Some (1, 1))
    (Combinat.argmin Fun.id ~cmp:Stdlib.compare xs);
  Alcotest.(check (option (pair int int))) "argmax"
    (Some (7, 7))
    (Combinat.argmax Fun.id ~cmp:Stdlib.compare (List.to_seq [ 4; 1; 7; 1 ]));
  Alcotest.(check (option (pair int int))) "empty" None
    (Combinat.argmin Fun.id ~cmp:Stdlib.compare Seq.empty)

let prop_product_size =
  QCheck2.Test.make ~name:"product size is product of sizes" ~count:100
    QCheck2.Gen.(list_size (int_range 0 4) (list_size (int_range 1 4) (int_range 0 9)))
    (fun xss ->
      Seq.length (Combinat.product xss)
      = List.fold_left (fun acc xs -> acc * List.length xs) 1 xss)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_heap_sorts; prop_union_find_transitive; prop_product_size ]

let () =
  Alcotest.run "bi_ds"
    [
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
        ] );
      ("union_find", [ Alcotest.test_case "basic" `Quick test_union_find ]);
      ( "combinat",
        [
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "subsets" `Quick test_subsets;
          Alcotest.test_case "combinations" `Quick test_combinations;
          Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "argmin/argmax" `Quick test_argmin_argmax;
        ] );
      ("properties", qtests);
    ]
