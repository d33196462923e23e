open Bi_num
module Graph = Bi_graph.Graph
module Paths = Bi_graph.Paths

type t = {
  graph : Graph.t;
  pairs : (int * int) array;
  weights : Rat.t array;
  path_table : int list array array;
}

let make graph ~pairs ~weights =
  if Array.length pairs = 0 then invalid_arg "Weighted.make: no agents";
  if Array.length weights <> Array.length pairs then
    invalid_arg "Weighted.make: weights length mismatch";
  Array.iter
    (fun w ->
      if Stdlib.( <= ) (Rat.sign w) 0 then
        invalid_arg "Weighted.make: weights must be positive")
    weights;
  let n = Graph.n_vertices graph in
  let path_table =
    Array.map
      (fun (x, y) ->
        if x < 0 || x >= n || y < 0 || y >= n then
          invalid_arg "Weighted.make: terminal out of range";
        let ps = Paths.simple_paths graph x y in
        if ps = [] then invalid_arg "Weighted.make: agent with disconnected terminals";
        Array.of_list ps)
      pairs
  in
  { graph; pairs; weights; path_table }

let players g = Array.length g.pairs
let weight g i = g.weights.(i)
let paths g i = Array.to_list g.path_table.(i)

let edge_weights g profile =
  let load = Array.make (Graph.n_edges g.graph) Rat.zero in
  Array.iteri
    (fun i ai ->
      List.iter
        (fun e -> load.(e) <- Rat.add load.(e) g.weights.(i))
        g.path_table.(i).(ai))
    profile;
  load

let player_cost g profile i =
  let load = edge_weights g profile in
  Rat.sum
    (List.map
       (fun e ->
         Rat.mul (Graph.cost g.graph e) (Rat.div g.weights.(i) load.(e)))
       g.path_table.(i).(profile.(i)))

let social_cost g profile =
  let load = edge_weights g profile in
  let acc = ref Rat.zero in
  Array.iteri
    (fun e l -> if not (Rat.is_zero l) then acc := Rat.add !acc (Graph.cost g.graph e))
    load;
  !acc

let best_response g profile i =
  let load = edge_weights g profile in
  List.iter
    (fun e -> load.(e) <- Rat.sub load.(e) g.weights.(i))
    g.path_table.(i).(profile.(i));
  let reweighted =
    Graph.make (Graph.kind g.graph) ~n:(Graph.n_vertices g.graph)
      (List.map
         (fun e ->
           let share =
             Rat.div g.weights.(i) (Rat.add load.(e.Graph.id) g.weights.(i))
           in
           (e.Graph.src, e.Graph.dst, Rat.mul e.Graph.cost share))
         (Graph.edges g.graph))
  in
  let x, y = g.pairs.(i) in
  match Graph.shortest_path reweighted x y with
  | None -> assert false (* connectivity checked in make *)
  | Some ids ->
    let table = g.path_table.(i) in
    let found = ref None in
    Array.iteri (fun j p -> if !found = None && p = ids then found := Some j) table;
    (match !found with
     | Some j -> j
     | None -> profile.(i))

let to_strategic g =
  Bi_game.Strategic.make ~players:(players g)
    ~actions:(Array.map Array.length g.path_table)
    ~cost:(fun profile i -> Extended.of_rat (player_cost g profile i))
