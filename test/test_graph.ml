(* Tests for the graph substrate: construction, shortest paths (with a
   Bellman-Ford oracle), MST, path enumeration, Steiner DP, generators. *)

open Bi_num
open Bi_graph

let rat = Alcotest.testable Rat.pp Rat.equal
let ext = Alcotest.testable Extended.pp Extended.equal

let r = Rat.of_int
let rr n d = Rat.of_ints n d

(* A small weighted undirected graph:
     0 --1-- 1 --1-- 2
      \------3------/     (direct 0-2 edge of cost 3)
     plus 2 --1-- 3 *)
let small_undirected () =
  Graph.make Undirected ~n:4
    [ (0, 1, r 1); (1, 2, r 1); (0, 2, r 3); (2, 3, r 1) ]

let test_construction () =
  let g = small_undirected () in
  Alcotest.(check int) "vertices" 4 (Graph.n_vertices g);
  Alcotest.(check int) "edges" 4 (Graph.n_edges g);
  Alcotest.(check bool) "undirected" false (Graph.is_directed g);
  Alcotest.check rat "edge cost" (r 3) (Graph.cost g 2);
  Alcotest.check rat "total_cost dedups" (r 4) (Graph.total_cost g [ 0; 2; 0 ]);
  Alcotest.check_raises "vertex range" (Invalid_argument "Graph.make: vertex out of range")
    (fun () -> ignore (Graph.make Directed ~n:2 [ (0, 5, r 1) ]));
  Alcotest.check_raises "negative cost" (Invalid_argument "Graph.make: negative edge cost")
    (fun () -> ignore (Graph.make Directed ~n:2 [ (0, 1, r (-1)) ]))

let test_succ_orientation () =
  let gd = Graph.make Directed ~n:3 [ (0, 1, r 1); (1, 2, r 1) ] in
  Alcotest.(check int) "directed out-degree of 1" 1 (List.length (Graph.succ gd 1));
  let gu = Graph.make Undirected ~n:3 [ (0, 1, r 1); (1, 2, r 1) ] in
  Alcotest.(check int) "undirected degree of 1" 2 (List.length (Graph.succ gu 1))

let test_dijkstra_small () =
  let g = small_undirected () in
  Alcotest.check ext "0 to 2 via middle" (Extended.of_int 2) (Graph.distance g 0 2);
  Alcotest.check ext "0 to 3" (Extended.of_int 3) (Graph.distance g 0 3);
  Alcotest.check ext "self" Extended.zero (Graph.distance g 1 1);
  match Graph.shortest_path g 0 3 with
  | None -> Alcotest.fail "path exists"
  | Some ids ->
    Alcotest.(check int) "path length" 3 (List.length ids);
    Alcotest.check rat "path cost" (r 3) (Paths.path_cost g ids)

let test_unreachable () =
  let g = Graph.make Directed ~n:3 [ (0, 1, r 1) ] in
  Alcotest.check ext "no path 1->0" Extended.Inf (Graph.distance g 1 0);
  Alcotest.(check bool) "shortest_path none" true (Graph.shortest_path g 1 0 = None);
  Alcotest.(check bool) "shortest_path self" true (Graph.shortest_path g 2 2 = Some [])

let test_zero_cost_edges () =
  let g = Graph.make Directed ~n:3 [ (0, 1, Rat.zero); (1, 2, Rat.zero) ] in
  Alcotest.check ext "zero distance" Extended.zero (Graph.distance g 0 2)

let test_rational_weights () =
  (* Two fractional hops beat one unit hop exactly. *)
  let g = Graph.make Undirected ~n:3 [ (0, 1, rr 1 3); (1, 2, rr 1 3); (0, 2, rr 7 10) ] in
  Alcotest.check ext "exact comparison" (Extended.of_rat (rr 2 3)) (Graph.distance g 0 2)

let test_multigraph () =
  (* Parallel edges with different costs: the cheaper one wins. *)
  let g = Graph.make Undirected ~n:2 [ (0, 1, r 5); (0, 1, r 2) ] in
  Alcotest.check ext "parallel edges" (Extended.of_int 2) (Graph.distance g 0 1);
  Alcotest.(check int) "both edges present" 2 (Graph.n_edges g)

let random_graph_pair seed =
  let rng = Random.State.make [| seed |] in
  let kind = if Random.State.bool rng then Graph.Directed else Graph.Undirected in
  Gen.random_graph rng ~kind ~n:(2 + Random.State.int rng 12)
    ~p:(Random.State.float rng 0.6) ~max_cost:8

let prop_dijkstra_matches_bellman_ford =
  QCheck2.Test.make ~name:"dijkstra = bellman-ford on random graphs" ~count:150
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph_pair seed in
      let ok = ref true in
      for s = 0 to Graph.n_vertices g - 1 do
        let d1, _ = Graph.dijkstra g s in
        let d2 = Graph.bellman_ford g s in
        for v = 0 to Graph.n_vertices g - 1 do
          if not (Extended.equal d1.(v) d2.(v)) then ok := false
        done
      done;
      !ok)

let prop_shortest_path_cost_matches_distance =
  QCheck2.Test.make ~name:"path reconstruction matches distance" ~count:150
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph_pair seed in
      let n = Graph.n_vertices g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          match Graph.shortest_path g u v, Graph.distance g u v with
          | None, Extended.Inf -> ()
          | None, Extended.Fin _ | Some _, Extended.Inf -> ok := false
          | Some ids, Extended.Fin d ->
            if not (Rat.equal (Paths.path_cost g ids) d) then ok := false;
            if not (Graph.is_path_between g ids u v) then ok := false
        done
      done;
      !ok)

let test_path_endpoints () =
  let g = small_undirected () in
  (match Graph.shortest_path g 0 3 with
   | Some ids ->
     (match Graph.path_endpoints g ids with
      | Some (a, b) ->
        Alcotest.(check bool) "endpoints" true ((a, b) = (0, 3) || (a, b) = (3, 0))
      | None -> Alcotest.fail "is a path")
   | None -> Alcotest.fail "path exists");
  Alcotest.(check bool) "non-walk detected" true
    (Graph.path_endpoints g [ 0; 3 ] = None)

let test_connected_components () =
  let g = Graph.make Undirected ~n:5 [ (0, 1, r 1); (3, 4, r 1) ] in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ]
    (Graph.connected_components g)

let test_mst () =
  let g = small_undirected () in
  let ids, cost = Graph.minimum_spanning_tree g in
  Alcotest.(check int) "n-1 edges" 3 (List.length ids);
  Alcotest.check rat "mst cost" (r 3) cost;
  Alcotest.check_raises "directed rejected"
    (Invalid_argument "Graph.minimum_spanning_tree: directed graph") (fun () ->
      ignore (Graph.minimum_spanning_tree (Graph.make Directed ~n:2 [ (0, 1, r 1) ])))

let prop_mst_beats_random_spanning_sets =
  QCheck2.Test.make ~name:"mst no heavier than greedy alternatives" ~count:100
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected_graph rng ~n:(3 + Random.State.int rng 8) ~p:0.5 ~max_cost:9 in
      let _, mst_cost = Graph.minimum_spanning_tree g in
      (* Oracle: cost of DFS tree is an upper bound. *)
      let visited = Array.make (Graph.n_vertices g) false in
      let acc = ref Rat.zero in
      let rec dfs v =
        visited.(v) <- true;
        List.iter
          (fun (e, w) ->
            if not visited.(w) then begin
              acc := Rat.add !acc e.Graph.cost;
              dfs w
            end)
          (Graph.succ g v)
      in
      dfs 0;
      Rat.( <= ) mst_cost !acc)

let test_simple_paths () =
  let g = small_undirected () in
  let ps = Paths.simple_paths g 0 2 in
  (* 0-1-2, 0-2, 0-2 via 3? no edge 0-3, so exactly two. *)
  Alcotest.(check int) "two simple paths" 2 (List.length ps);
  Alcotest.(check (list (list int))) "self paths" [ [] ] (Paths.simple_paths g 1 1);
  let cycle = Gen.cycle_graph Undirected 5 (r 1) in
  Alcotest.(check int) "two around a cycle" 2 (List.length (Paths.simple_paths cycle 0 2));
  let limited = Paths.simple_paths ~max_hops:1 g 0 2 in
  Alcotest.(check int) "hop bound" 1 (List.length limited)

let test_simple_paths_limit () =
  let g = Gen.complete_graph 8 (r 1) in
  Alcotest.check_raises "limit guard" (Invalid_argument "Paths.simple_paths: limit exceeded")
    (fun () -> ignore (Paths.simple_paths ~limit:10 g 0 1))

let test_path_vertices () =
  let g = small_undirected () in
  match Graph.shortest_path g 0 3 with
  | Some ids ->
    Alcotest.(check (list int)) "vertex walk" [ 0; 1; 2; 3 ] (Paths.path_vertices g 0 ids)
  | None -> Alcotest.fail "path exists"

(* --- Steiner --- *)

let test_steiner_line () =
  let g = Gen.path_graph Undirected 5 (r 1) in
  Alcotest.check ext "span a path graph" (Extended.of_int 4)
    (Steiner_dp.steiner_cost g ~root:0 ~terminals:[ 4 ]);
  Alcotest.check ext "middle terminals" (Extended.of_int 4)
    (Steiner_dp.steiner_cost g ~root:0 ~terminals:[ 2; 4 ])

let test_steiner_star () =
  (* Star with expensive rim: optimum uses the hub. *)
  let g =
    Graph.make Undirected ~n:4
      [ (0, 1, r 1); (0, 2, r 1); (0, 3, r 1); (1, 2, r 10); (2, 3, r 10) ]
  in
  Alcotest.check ext "hub tree" (Extended.of_int 3)
    (Steiner_dp.steiner_cost g ~root:1 ~terminals:[ 2; 3 ])

let test_steiner_directed () =
  let g = Graph.make Directed ~n:4 [ (0, 1, r 1); (0, 2, r 1); (1, 3, r 1); (2, 3, r 5) ] in
  Alcotest.check ext "arborescence" (Extended.of_int 3)
    (Steiner_dp.steiner_cost g ~root:0 ~terminals:[ 1; 2; 3 ]);
  Alcotest.check ext "unreachable terminal" Extended.Inf
    (Steiner_dp.steiner_cost g ~root:1 ~terminals:[ 2 ])

let test_steiner_trivia () =
  let g = Gen.path_graph Undirected 3 (r 1) in
  Alcotest.check ext "no terminals" Extended.zero
    (Steiner_dp.steiner_cost g ~root:0 ~terminals:[]);
  Alcotest.check ext "root as terminal" Extended.zero
    (Steiner_dp.steiner_cost g ~root:0 ~terminals:[ 0; 0 ])

let prop_steiner_sandwich =
  (* MST-approx is within factor 2 of DW and never below it;
     DW is at least the eccentricity lower bound. *)
  QCheck2.Test.make ~name:"steiner: DW <= MST-approx <= 2*DW" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 4 + Random.State.int rng 6 in
      let g = Gen.random_connected_graph rng ~n ~p:0.4 ~max_cost:9 in
      let t = 1 + Random.State.int rng (min 4 (n - 1)) in
      let terminals = List.init t (fun i -> (i * 7 + 1) mod n) in
      let exact = Steiner_dp.steiner_cost g ~root:0 ~terminals in
      match Steiner_dp.steiner_mst_approx g ~terminals:(0 :: terminals), exact with
      | Some (_, approx), Extended.Fin ex ->
        Rat.( <= ) ex approx && Rat.( <= ) approx (Rat.mul_int ex 2)
      | None, _ | _, Extended.Inf -> false)

(* The Dreyfus-Wagner DP as first written, over the all-pairs distance
   table: Theta(n^2) memory and grow steps, kept as the reference the
   per-row Dijkstra version must match. *)
let reference_steiner_cost g ~root ~terminals =
  let terminals =
    List.sort_uniq Stdlib.compare (List.filter (fun t -> t <> root) terminals)
  in
  let t = List.length terminals in
  if t = 0 then Extended.zero
  else begin
    let terms = Array.of_list terminals in
    let n = Graph.n_vertices g in
    let dist = Graph.all_pairs_distances g in
    let full = (1 lsl t) - 1 in
    let dp = Array.make_matrix (full + 1) n Extended.Inf in
    for i = 0 to t - 1 do
      for v = 0 to n - 1 do
        dp.(1 lsl i).(v) <- dist.(v).(terms.(i))
      done
    done;
    for mask = 1 to full do
      if mask land (mask - 1) <> 0 then begin
        let best = Array.make n Extended.Inf in
        let sub = ref ((mask - 1) land mask) in
        while !sub > 0 do
          if !sub > mask lxor !sub then begin
            let a = !sub and b = mask lxor !sub in
            for v = 0 to n - 1 do
              let c = Extended.add dp.(a).(v) dp.(b).(v) in
              if Extended.( < ) c best.(v) then best.(v) <- c
            done
          end;
          sub := (!sub - 1) land mask
        done;
        for v = 0 to n - 1 do
          let acc = ref best.(v) in
          for u = 0 to n - 1 do
            let c = Extended.add dist.(v).(u) best.(u) in
            if Extended.( < ) c !acc then acc := c
          done;
          dp.(mask).(v) <- !acc
        done
      end
    done;
    dp.(full).(root)
  end

let prop_steiner_matches_reference =
  (* Sparse random multigraphs, directed or not: terminals are often
     unreachable, may repeat or include the root, and edges may be
     parallel, self-loops or free. *)
  QCheck2.Test.make ~name:"steiner DP = all-pairs reference DP" ~count:300
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 7 in
      let kind = if Random.State.bool rng then Graph.Directed else Graph.Undirected in
      let edges =
        List.init (Random.State.int rng 13) (fun _ ->
            ( Random.State.int rng n,
              Random.State.int rng n,
              Rat.of_ints (Random.State.int rng 4) (1 + Random.State.int rng 2) ))
      in
      let g = Graph.make kind ~n edges in
      let root = Random.State.int rng n in
      let terminals = List.init (Random.State.int rng 5) (fun _ -> Random.State.int rng n) in
      Extended.equal
        (Steiner_dp.steiner_cost g ~root ~terminals)
        (reference_steiner_cost g ~root ~terminals))

let test_steiner_sparse_memory () =
  (* One edge on 3 000 vertices: an all-pairs table alone is 9M
     entries (the reference DP allocates ~27M words here); per-row
     Dijkstra needs a few arrays of n. *)
  let g = Graph.make Undirected ~n:3_000 [ (0, 1, r 1) ] in
  let before = Gc.allocated_bytes () in
  let cost = Steiner_dp.steiner_cost g ~root:0 ~terminals:[ 1 ] in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  Alcotest.check ext "cost" (Extended.of_int 1) cost;
  if words > 100_000. then Alcotest.failf "allocated %.0f words (bound 100000)" words

(* --- Generators --- *)

let test_generators_shapes () =
  let p = Gen.path_graph Directed 6 (r 2) in
  Alcotest.(check int) "path edges" 5 (Graph.n_edges p);
  let c = Gen.cycle_graph Undirected 6 (r 1) in
  Alcotest.(check int) "cycle edges" 6 (Graph.n_edges c);
  let k = Gen.complete_graph 6 (r 1) in
  Alcotest.(check int) "complete edges" 15 (Graph.n_edges k);
  let gr = Gen.grid_graph 3 4 (r 1) in
  Alcotest.(check int) "grid vertices" 12 (Graph.n_vertices gr);
  Alcotest.(check int) "grid edges" 17 (Graph.n_edges gr)

let test_random_connected () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 20 do
    let g = Gen.random_connected_graph rng ~n:8 ~p:0.2 ~max_cost:5 in
    Alcotest.(check int) "one component" 1 (List.length (Graph.connected_components g))
  done

let test_diamond () =
  let g0, s0, t0 = Gen.diamond_graph 0 in
  Alcotest.(check int) "level 0 edges" 1 (Graph.n_edges g0);
  Alcotest.check ext "level 0 distance" Extended.one (Graph.distance g0 s0 t0);
  let g1, s1, t1 = Gen.diamond_graph 1 in
  Alcotest.(check int) "level 1 vertices" 4 (Graph.n_vertices g1);
  Alcotest.(check int) "level 1 edges" 4 (Graph.n_edges g1);
  Alcotest.check ext "level 1 distance" Extended.one (Graph.distance g1 s1 t1);
  let g3, s3, t3 = Gen.diamond_graph 3 in
  Alcotest.(check int) "level 3 edges" 64 (Graph.n_edges g3);
  Alcotest.check ext "pole distance invariant" Extended.one (Graph.distance g3 s3 t3);
  (* Every edge at level j costs 2^-j. *)
  List.iter
    (fun e -> Alcotest.check rat "edge scale" (rr 1 8) e.Graph.cost)
    (Graph.edges g3)

(* --- Store vs eager reference --- *)

(* The graph as it was before its edges were stored flat: [make]
   builds the edge records and the adjacency lists at once.  Kept
   verbatim as the oracle for the structures the store derives on first
   use. *)
module Eager = struct
  type edge = { id : int; src : int; dst : int; cost : Rat.t }

  type t = {
    kind : Graph.kind;
    n : int;
    edge_arr : edge array;
    adj : (edge * int) list array;
  }

  let make kind ~n edge_specs =
    if n < 0 then invalid_arg "Graph.make: negative vertex count";
    let check v = if v < 0 || v >= n then invalid_arg "Graph.make: vertex out of range" in
    let edge_arr =
      Array.of_list
        (List.mapi
           (fun id (src, dst, cost) ->
             check src;
             check dst;
             if Stdlib.( < ) (Rat.sign cost) 0 then
               invalid_arg "Graph.make: negative edge cost";
             { id; src; dst; cost })
           edge_specs)
    in
    let adj = Array.make n [] in
    Array.iter
      (fun e ->
        adj.(e.src) <- (e, e.dst) :: adj.(e.src);
        if kind = Graph.Undirected && e.src <> e.dst then
          adj.(e.dst) <- (e, e.src) :: adj.(e.dst))
      edge_arr;
    Array.iteri (fun v l -> adj.(v) <- List.rev l) adj;
    { kind; n; edge_arr; adj }

  let succ g v = g.adj.(v)

  let dijkstra g s =
    let dist = Array.make g.n Extended.Inf in
    let pred = Array.make g.n None in
    let settled = Array.make g.n false in
    let cmp (d1, _) (d2, _) = Extended.compare d1 d2 in
    let heap = Bi_ds.Heap.create ~cmp in
    dist.(s) <- Extended.zero;
    Bi_ds.Heap.push heap (Extended.zero, s);
    let rec loop () =
      match Bi_ds.Heap.pop_min heap with
      | None -> ()
      | Some (d, v) ->
        if not settled.(v) && Extended.equal d dist.(v) then begin
          settled.(v) <- true;
          List.iter
            (fun (e, w) ->
              let d' = Extended.add d (Extended.of_rat e.cost) in
              if Extended.( < ) d' dist.(w) then begin
                dist.(w) <- d';
                pred.(w) <- Some e.id;
                Bi_ds.Heap.push heap (d', w)
              end)
            g.adj.(v)
        end;
        loop ()
    in
    loop ();
    (dist, pred)

  let reachable g ~via u v =
    if u = v then true
    else begin
      let allowed = Array.make (Array.length g.edge_arr) false in
      List.iter
        (fun id -> if id >= 0 && id < Array.length allowed then allowed.(id) <- true)
        via;
      let visited = Array.make g.n false in
      let rec dfs x =
        if x = v then true
        else begin
          visited.(x) <- true;
          List.exists (fun (e, w) -> allowed.(e.id) && (not visited.(w)) && dfs w) g.adj.(x)
        end
      in
      dfs u
    end
end

let edge_tuple (e : Graph.edge) = (e.id, e.src, e.dst, Rat.to_string e.cost)
let eager_tuple (e : Eager.edge) = (e.id, e.src, e.dst, Rat.to_string e.cost)

(* Everything the store derives, in a comparable form: the edge
   records, every vertex's successor list, the Dijkstra result from
   every source, and reachability between every pair over [via]. *)
let derived_view ~edges ~succ ~dijkstra ~reachable ~n ~via =
  let dist_pred s =
    let dist, pred = dijkstra s in
    (Array.to_list (Array.map Extended.to_string dist), Array.to_list pred)
  in
  ( edges,
    List.init n succ,
    List.init n dist_pred,
    List.init n (fun u -> List.init n (fun v -> reachable ~via u v)) )

let store_view g ~via =
  let n = Graph.n_vertices g in
  derived_view ~n ~via
    ~edges:(List.map edge_tuple (Graph.edges g))
    ~succ:(fun v -> List.map (fun (e, w) -> (edge_tuple e, w)) (Graph.succ g v))
    ~dijkstra:(Graph.dijkstra g) ~reachable:(Graph.reachable g)

let eager_view (g : Eager.t) ~via =
  derived_view ~n:g.n ~via
    ~edges:(List.map eager_tuple (Array.to_list g.edge_arr))
    ~succ:(fun v -> List.map (fun (e, w) -> (eager_tuple e, w)) (Eager.succ g v))
    ~dijkstra:(Eager.dijkstra g) ~reachable:(Eager.reachable g)

(* Random multigraphs on 0-6 vertices: self-loops and parallel edges
   (both orientations) come up often on so few vertices, and every
   fourth edge list gets three extra copies of its first edge. *)
let gen_multigraph =
  QCheck2.Gen.(
    let* n = int_range 0 6 in
    let* kind = oneofl [ Graph.Directed; Graph.Undirected ] in
    let* edges =
      if n = 0 then pure []
      else
        list_size (int_range 0 14)
          (triple (int_bound (n - 1)) (int_bound (n - 1))
             (map2 Rat.of_ints (int_range 0 9) (int_range 1 3)))
    in
    let* copies = bool in
    let edges =
      match edges with
      | (s, d, c) :: _ when copies -> edges @ [ (s, d, c); (d, s, c); (s, d, Rat.add c Rat.one) ]
      | _ -> edges
    in
    let* via = list_size (int_range 0 12) (int_range (-1) (List.length edges)) in
    return (kind, n, edges, via))

let print_multigraph (kind, n, edges, via) =
  Printf.sprintf "%s n=%d edges=[%s] via=[%s]"
    (match kind with Graph.Directed -> "directed" | Graph.Undirected -> "undirected")
    n
    (String.concat "; "
       (List.map (fun (s, d, c) -> Printf.sprintf "%d,%d,%s" s d (Rat.to_string c)) edges))
    (String.concat "; " (List.map string_of_int via))

let prop_store_matches_eager =
  QCheck2.Test.make ~name:"derived edges/succ/dijkstra/reachable = eager reference"
    ~count:500 ~print:print_multigraph gen_multigraph
    (fun (kind, n, edges, via) ->
      store_view (Graph.make kind ~n edges) ~via
      = eager_view (Eager.make kind ~n edges) ~via)

(* Invalid descriptions: the same exception (message included) as the
   eager reference, so the first failing edge still wins. *)
let gen_maybe_invalid =
  QCheck2.Gen.(
    let* n = int_range (-2) 4 in
    let* edges =
      list_size (int_range 0 6)
        (triple (int_range (-1) 4) (int_range (-1) 4) (map Rat.of_int (int_range (-2) 5)))
    in
    return (n, edges))

let outcome f =
  match f () with
  | () -> "ok"
  | exception Invalid_argument msg -> "Invalid_argument " ^ msg

let prop_validation_matches_eager =
  QCheck2.Test.make ~name:"make rejects what the eager reference rejects" ~count:1000
    ~print:(fun (n, edges) -> print_multigraph (Graph.Directed, n, edges, []))
    gen_maybe_invalid
    (fun (n, edges) ->
      List.for_all
        (fun kind ->
          outcome (fun () -> ignore (Graph.make kind ~n edges))
          = outcome (fun () -> ignore (Eager.make kind ~n edges)))
        [ Graph.Directed; Graph.Undirected ])

let test_of_arrays () =
  let g =
    Graph.of_arrays Undirected ~n:3 ~src:[| 2; 0 |] ~dst:[| 1; 0 |]
      ~costs:[| r 4; rr 1 2 |]
  in
  Alcotest.(check (list (pair int int))) "endpoints by id" [ (2, 1); (0, 0) ]
    [ (Graph.edge_src g 0, Graph.edge_dst g 0); (Graph.edge_src g 1, Graph.edge_dst g 1) ];
  Alcotest.check rat "cost by id" (rr 1 2) (Graph.cost g 1);
  Alcotest.(check (list (pair int int))) "successors of 1" [ (0, 2) ]
    (List.map (fun (e, w) -> (e.Graph.id, w)) (Graph.succ g 1));
  Alcotest.check_raises "bad id" (Invalid_argument "Graph.edge: bad id") (fun () ->
      ignore (Graph.edge_src g 2));
  Alcotest.check_raises "lengths" (Invalid_argument "Graph.of_arrays: arrays of different lengths")
    (fun () -> ignore (Graph.of_arrays Directed ~n:3 ~src:[| 0 |] ~dst:[||] ~costs:[| r 1 |]));
  Alcotest.check_raises "checks as make" (Invalid_argument "Graph.make: vertex out of range")
    (fun () ->
      ignore (Graph.of_arrays Directed ~n:3 ~src:[| 0; 3 |] ~dst:[| 1; 0 |] ~costs:[| r 1; r (-1) |]))

(* Integer costs are reduced and sign-normalised once, at construction,
   and checked as [of_arrays] checks rationals. *)
let test_of_int_costs () =
  let g =
    Graph.of_int_costs Directed ~n:3 ~src:[| 0; 1; 2; 0 |] ~dst:[| 1; 2; 0; 2 |]
      ~num:[| 6; -3; 0; 7 |] ~den:[| 4; -9; -5; 1 |]
  in
  Alcotest.(check (option (pair (array int) (array int)))) "reduced store"
    (Some ([| 3; 1; 0; 7 |], [| 2; 3; 1; 1 |]))
    (Graph.int_costs g);
  Alcotest.(check (list rat)) "costs as rationals" [ rr 3 2; rr 1 3; r 0; r 7 ]
    (List.map (fun e -> e.Graph.cost) (Graph.edges g));
  Alcotest.check_raises "negative cost" (Invalid_argument "Graph.make: negative edge cost")
    (fun () ->
      ignore (Graph.of_int_costs Directed ~n:2 ~src:[| 0 |] ~dst:[| 1 |] ~num:[| 3 |] ~den:[| -4 |]));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Graph.of_int_costs Directed ~n:2 ~src:[| 0 |] ~dst:[| 1 |] ~num:[| 3 |] ~den:[| 0 |]));
  let big = Rat.make (Bigint.of_string "100000000000000000000") Bigint.one in
  Alcotest.(check bool) "rationals that fit are kept as integers" true
    (Graph.int_costs (Graph.make Directed ~n:2 [ (0, 1, rr 6 4) ])
    = Some ([| 3 |], [| 2 |]));
  Alcotest.(check bool) "one that does not keeps them all rational" true
    (Graph.int_costs (Graph.make Directed ~n:2 [ (0, 1, r 1); (1, 0, big) ]) = None)

(* The costs and records of an integer-cost graph are derived on first
   use, by whichever domain gets there first: two domains that force
   them at once see the same costs. *)
let test_derive_from_two_domains () =
  for round = 1 to 20 do
    let m = 2000 in
    let num = Array.init m (fun i -> (i * 7) + round) and den = Array.init m (fun i -> 1 + (i mod 5)) in
    let expected = Array.init m (fun i -> rr num.(i) den.(i)) in
    let g =
      Graph.of_int_costs Undirected ~n:m ~src:(Array.init m Fun.id)
        ~dst:(Array.init m (fun i -> (i + 1) mod m)) ~num ~den
    in
    let ready = Atomic.make 0 in
    let force by_cost () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      if by_cost then Array.init m (Graph.cost g)
      else Array.of_list (List.map (fun e -> e.Graph.cost) (Graph.edges g))
    in
    let a = Domain.spawn (force (round mod 2 = 0)) and b = Domain.spawn (force true) in
    let a = Domain.join a and b = Domain.join b in
    Alcotest.(check bool) (Printf.sprintf "round %d" round) true
      (Array.for_all2 Rat.equal a expected && Array.for_all2 Rat.equal b expected)
  done

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dijkstra_matches_bellman_ford;
      prop_shortest_path_cost_matches_distance;
      prop_mst_beats_random_spanning_sets;
      prop_steiner_sandwich;
      prop_steiner_matches_reference;
      prop_store_matches_eager;
      prop_validation_matches_eager;
    ]

let () =
  Alcotest.run "bi_graph"
    [
      ( "construction",
        [
          Alcotest.test_case "make & accessors" `Quick test_construction;
          Alcotest.test_case "orientation" `Quick test_succ_orientation;
          Alcotest.test_case "multigraph" `Quick test_multigraph;
          Alcotest.test_case "flat store" `Quick test_of_arrays;
          Alcotest.test_case "integer costs" `Quick test_of_int_costs;
          Alcotest.test_case "costs derived from two domains" `Quick
            test_derive_from_two_domains;
        ] );
      ( "shortest_paths",
        [
          Alcotest.test_case "dijkstra small" `Quick test_dijkstra_small;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "zero-cost edges" `Quick test_zero_cost_edges;
          Alcotest.test_case "rational weights" `Quick test_rational_weights;
        ] );
      ( "structure",
        [
          Alcotest.test_case "path endpoints" `Quick test_path_endpoints;
          Alcotest.test_case "components" `Quick test_connected_components;
          Alcotest.test_case "mst" `Quick test_mst;
          Alcotest.test_case "path vertices" `Quick test_path_vertices;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "simple paths" `Quick test_simple_paths;
          Alcotest.test_case "limit guard" `Quick test_simple_paths_limit;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "line" `Quick test_steiner_line;
          Alcotest.test_case "star" `Quick test_steiner_star;
          Alcotest.test_case "directed arborescence" `Quick test_steiner_directed;
          Alcotest.test_case "trivial cases" `Quick test_steiner_trivia;
          Alcotest.test_case "sparse graph memory" `Quick test_steiner_sparse_memory;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generators_shapes;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "diamond" `Quick test_diamond;
        ] );
      ("properties", qtests);
    ]
