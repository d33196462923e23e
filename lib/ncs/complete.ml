open Bi_num
module Graph = Bi_graph.Graph
module Paths = Bi_graph.Paths
module Pool = Bi_engine.Pool
module Reduce = Bi_engine.Reduce
module Budget = Bi_engine.Budget

type t = {
  graph : Graph.t;
  pairs : (int * int) array;
  path_table : int list array array; (* agent -> action index -> edge ids *)
  (* The solvers' view: a one-state, one-type game lowered into the
     evaluation kernel, every path valid for its agent. *)
  kernel : Kernel.packed;
}

let make graph pairs =
  if Array.length pairs = 0 then invalid_arg "Complete.make: no agents";
  let n = Graph.n_vertices graph in
  Array.iter
    (fun (x, y) ->
      if x < 0 || x >= n || y < 0 || y >= n then
        invalid_arg "Complete.make: terminal out of range")
    pairs;
  let path_table =
    Array.map
      (fun (x, y) ->
        let ps = Paths.simple_paths graph x y in
        if ps = [] then invalid_arg "Complete.make: agent with disconnected terminals";
        Array.of_list ps)
      pairs
  in
  let players = Array.length pairs in
  let shape =
    Kernel.shape ~n_edges:(Graph.n_edges graph)
      ~cost:(Array.init (Graph.n_edges graph) (Graph.cost graph))
      ~paths:(Array.map (Array.map Array.of_list) path_table)
      ~valid:(Array.map (fun tbl -> [| List.init (Array.length tbl) Fun.id |]) path_table)
      ~states:[| Array.make players 0 |]
      ~weights:[| Rat.one |]
  in
  { graph; pairs; path_table; kernel = Kernel.lower shape }

let graph g = g.graph
let players g = Array.length g.pairs
let pairs g = Array.copy g.pairs
let paths g i = Array.to_list g.path_table.(i)

let action_edges g profile i = g.path_table.(i).(profile.(i))

(* As a float: the whole point of the count is deciding when this space
   is too large to enumerate, i.e. exactly when an int would overflow. *)
let profile_count g =
  Array.fold_left
    (fun acc row -> acc *. float_of_int (Array.length row))
    1.0 g.path_table

let loads g profile =
  let load = Array.make (Graph.n_edges g.graph) 0 in
  Array.iteri
    (fun i ai -> List.iter (fun e -> load.(e) <- load.(e) + 1) g.path_table.(i).(ai))
    profile;
  load

(* Player costs and the potential priced from scratch: the reference
   definitions (and the strategic-form oracle below); the social cost
   and the solvers price through the kernel. *)
let player_cost g profile i =
  let load = loads g profile in
  Rat.sum
    (List.map
       (fun e -> Rat.div_int (Graph.cost g.graph e) load.(e))
       (action_edges g profile i))

(* Every path is valid for its agent, so a fill never misses. *)
let fill_paths fill sc s = if not (fill sc s) then assert false

let social_cost g profile =
  match g.kernel with
  | Kernel.Packed ((module K), kg) ->
    let sc = K.scratch kg and s = Array.map (fun a -> [| a |]) profile in
    fill_paths (K.fill kg) sc s;
    K.social_rat kg (K.social_cost kg sc)

let potential g profile =
  let acc = ref Rat.zero in
  Array.iteri
    (fun e l ->
      if l > 0 then acc := Rat.add !acc (Rat.mul (Graph.cost g.graph e) (Rat.harmonic l)))
    (loads g profile);
  !acc

let to_strategic g =
  Bi_game.Strategic.make ~players:(players g)
    ~actions:(Array.map Array.length g.path_table)
    ~cost:(fun profile i -> Extended.of_rat (player_cost g profile i))

let profile_space g =
  Bi_ds.Combinat.product_arrays
    (Array.map (fun tbl -> Array.init (Array.length tbl) Fun.id) g.path_table)

(* Profile search sharded by agent 0's path index (the leading-strategy
   prefix): each shard folds the product of the remaining agents' choices
   sequentially, and shards are reduced in index order, so the winner —
   value and profile alike — is the one the plain left-to-right scan over
   [profile_space] would pick, for any pool size.  Each shard owns one
   kernel scratch, filled per profile through a one-type strategy
   profile ([s.(i).(0)] = agent [i]'s path), with deviations priced as
   deltas against it. *)
let sharded_search ?pool ?(budget = Budget.unlimited) ~scratch ~monoid ~score g =
  let k = players g in
  let rest =
    Array.map
      (fun tbl -> Array.init (Array.length tbl) Fun.id)
      (Array.sub g.path_table 1 (k - 1))
  in
  let eval a0 =
    let sc = scratch () and s = Array.init k (fun _ -> [| 0 |]) in
    Seq.fold_left
      (fun acc tail ->
        Budget.check budget;
        let profile = Array.make k a0 in
        Array.blit tail 0 profile 1 (k - 1);
        Array.iteri (fun i a -> s.(i).(0) <- a) profile;
        match score sc s profile with
        | None -> acc
        | Some v -> monoid.Reduce.combine acc v)
      monoid.Reduce.empty
      (Bi_ds.Combinat.product_arrays rest)
  in
  let shards = Array.init (Array.length g.path_table.(0)) Fun.id in
  match pool with
  | Some pool when Pool.size pool > 1 -> Reduce.map_reduce pool ~monoid eval shards
  | _ -> Reduce.fold monoid (Array.map eval shards)

let optimum ?pool ?budget g =
  match g.kernel with
  | Kernel.Packed ((module K), kg) -> (
    match
      sharded_search ?pool ?budget
        ~scratch:(fun () -> K.scratch kg)
        ~monoid:(Reduce.first_min ~cmp:K.compare)
        ~score:(fun sc s p ->
          fill_paths (K.fill kg) sc s;
          Some (Some (p, K.social_cost kg sc)))
        g
    with
    | Some (a, c) -> (K.social_rat kg c, a)
    | None -> assert false)

let optimum_rooted g =
  let root, _ = g.pairs.(0) in
  if Array.for_all (fun (x, _) -> x = root) g.pairs then
    Some
      (Bi_graph.Steiner_dp.steiner_cost g.graph ~root
         ~terminals:(Array.to_list (Array.map snd g.pairs)))
  else None

(* Exact best response: the shared-cost weight of an edge for agent i is
   c(e)/(load_others(e) + 1), and her path cost is additive in these
   weights, so a Dijkstra over the reweighted graph finds it. *)
let best_response g profile i =
  let load = loads g profile in
  List.iter (fun e -> load.(e) <- load.(e) - 1) (action_edges g profile i);
  let reweighted =
    Graph.make (Graph.kind g.graph) ~n:(Graph.n_vertices g.graph)
      (List.map
         (fun e ->
           ( e.Graph.src,
             e.Graph.dst,
             Rat.div_int e.Graph.cost (load.(e.Graph.id) + 1) ))
         (Graph.edges g.graph))
  in
  let x, y = g.pairs.(i) in
  match Graph.shortest_path reweighted x y with
  | None -> assert false (* terminals are connected by construction *)
  | Some ids ->
    (* Edge ids coincide between g.graph and its reweighting. *)
    let table = g.path_table.(i) in
    let found = ref None in
    Array.iteri (fun j p -> if !found = None && p = ids then found := Some j) table;
    (match !found with
     | Some j -> j
     | None ->
       (* The Dijkstra path is simple, so it is always in the table;
          this fallback exists only for belt and braces. *)
       let cost_of j =
         Rat.sum
           (List.map
              (fun e -> Rat.div_int (Graph.cost g.graph e) (load.(e) + 1))
              table.(j))
       in
       let best = ref 0 in
       Array.iteri
         (fun j _ -> if Rat.( < ) (cost_of j) (cost_of !best) then best := j)
         table;
       !best)

let is_nash g profile =
  match g.kernel with
  | Kernel.Packed ((module K), kg) ->
    let sc = K.scratch kg and s = Array.map (fun a -> [| a |]) profile in
    fill_paths (K.fill kg) sc s;
    K.is_equilibrium kg sc s

let nash_equilibria g = Seq.filter (is_nash g) (profile_space g)

(* Equilibrium scoring for the sharded searches: one load fill per
   profile serves both the Nash predicate (delta deviations) and the
   social cost (union of loaded edges). *)
let extreme_equilibrium ?pool ?budget ~worst g =
  match g.kernel with
  | Kernel.Packed ((module K), kg) ->
    let monoid =
      if worst then Reduce.first_max ~cmp:K.compare else Reduce.first_min ~cmp:K.compare
    in
    Option.map
      (fun (a, c) -> (K.social_rat kg c, a))
      (sharded_search ?pool ?budget
         ~scratch:(fun () -> K.scratch kg)
         ~monoid
         ~score:(fun sc s p ->
           fill_paths (K.fill kg) sc s;
           if K.is_equilibrium kg sc s then Some (Some (p, K.social_cost kg sc))
           else None)
         g)

let best_equilibrium ?pool ?budget g = extreme_equilibrium ?pool ?budget ~worst:false g
let worst_equilibrium ?pool ?budget g = extreme_equilibrium ?pool ?budget ~worst:true g

let equilibrium_by_dynamics ?(max_steps = 100_000) g start =
  let profile = Array.copy start in
  let rec go steps =
    if steps > max_steps then None
    else begin
      let moved = ref false in
      for i = 0 to players g - 1 do
        if not !moved then begin
          let j = best_response g profile i in
          if j <> profile.(i) then begin
            let deviated = Array.copy profile in
            deviated.(i) <- j;
            if Rat.( < ) (player_cost g deviated i) (player_cost g profile i) then begin
              profile.(i) <- j;
              moved := true
            end
          end
        end
      done;
      if !moved then go (steps + 1) else Some (Array.copy profile)
    end
  in
  go 0

let price_of_stability_bound_holds ?pool g =
  match best_equilibrium ?pool g with
  | None -> false
  | Some (best_eq, _) ->
    let opt, _ = optimum ?pool g in
    Rat.( <= ) best_eq (Rat.mul (Rat.harmonic (players g)) opt)
