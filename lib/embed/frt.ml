open Bi_num
module Graph = Bi_graph.Graph

type node = {
  center : int;
  parent : int; (* -1 at the root *)
  weight : Rat.t; (* weight of the edge to the parent; zero at the root *)
  depth : int;
}

type t = {
  nodes : node array;
  leaf : int array; (* graph vertex -> leaf node id *)
}

let leaf_of_vertex t v = t.leaf.(v)
let center t i = t.nodes.(i).center
let parent t i =
  let n = t.nodes.(i) in
  if n.parent < 0 then None else Some (n.parent, n.weight)

let sample rng g =
  if Graph.is_directed g then invalid_arg "Frt.sample: directed graph";
  let n = Graph.n_vertices g in
  if n = 0 then invalid_arg "Frt.sample: empty graph";
  let dist = Graph.all_pairs_distances g in
  let d u v =
    match dist.(u).(v) with
    | Extended.Fin r -> r
    | Extended.Inf -> invalid_arg "Frt.sample: disconnected graph"
  in
  (* unit = smallest nonzero distance; diameter = largest. *)
  let unit = ref None and diameter = ref Rat.zero in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let duv = d u v in
      if Rat.( > ) duv !diameter then diameter := duv;
      if not (Rat.is_zero duv) then
        match !unit with
        | None -> unit := Some duv
        | Some m -> if Rat.( < ) duv m then unit := Some duv
    done
  done;
  let unit = match !unit with Some m -> m | None -> Rat.one in
  (* Smallest L with 2^L * unit >= diameter, so the top cut radius
     covers everything. *)
  let levels =
    let rec go l r =
      if Rat.( >= ) r !diameter then l else go (l + 1) (Rat.mul_int r 2)
    in
    go 0 unit
  in
  (* Random permutation and beta in [1, 2), granularity 1/1024. *)
  let pi = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = pi.(i) in
    pi.(i) <- pi.(j);
    pi.(j) <- tmp
  done;
  let beta = Rat.add Rat.one (Rat.of_ints (Random.State.int rng 1024) 1024) in
  let nodes = ref [] in
  let n_alloc = ref 0 in
  let alloc node = let id = !n_alloc in incr n_alloc; nodes := (id, node) :: !nodes; id in
  let leaf = Array.make n (-1) in
  (* A tree edge weighs the graph distance between the two cluster
     centers.  Domination then follows from the triangle inequality
     along the center path (leaves are singletons centered on their
     vertex), while the FRT analysis — whose level-[m] weights
     upper-bound these distances — keeps the expected stretch
     logarithmic. *)
  (* Cut [members] of a level-(m+1) cluster into level-m children using
     balls of radius beta * 2^m * unit around the permutation order. *)
  let rec decompose members m parent_id parent_center depth =
    if m < 0 then
      List.iter
        (fun v ->
          leaf.(v) <-
            alloc { center = v; parent = parent_id; weight = d parent_center v; depth })
        members
    else begin
      let radius = Rat.mul (Rat.mul beta (Rat.pow Rat.two m)) unit in
      let remaining = ref members in
      Array.iter
        (fun u ->
          if !remaining <> [] then begin
            let inside, outside =
              List.partition (fun p -> Rat.( <= ) (d u p) radius) !remaining
            in
            if inside <> [] then begin
              remaining := outside;
              let id =
                alloc
                  { center = u; parent = parent_id; weight = d parent_center u; depth }
              in
              decompose inside (m - 1) id u (depth + 1)
            end
          end)
        pi
    end
  in
  let all = List.init n Fun.id in
  let root_center = pi.(0) in
  let root = alloc { center = root_center; parent = -1; weight = Rat.zero; depth = 0 } in
  decompose all (levels - 1) root root_center 1;
  let arr = Array.make !n_alloc { center = 0; parent = -1; weight = Rat.zero; depth = 0 } in
  List.iter (fun (id, node) -> arr.(id) <- node) !nodes;
  { nodes = arr; leaf }

(* Tree path between two leaves as node lists meeting at the LCA. *)
let tree_path t u v =
  let a = ref (t.leaf.(u)) and b = ref (t.leaf.(v)) in
  let up = ref [] and down = ref [] in
  while t.nodes.(!a).depth > t.nodes.(!b).depth do
    up := !a :: !up;
    a := t.nodes.(!a).parent
  done;
  while t.nodes.(!b).depth > t.nodes.(!a).depth do
    down := !b :: !down;
    b := t.nodes.(!b).parent
  done;
  while !a <> !b do
    up := !a :: !up;
    down := !b :: !down;
    a := t.nodes.(!a).parent;
    b := t.nodes.(!b).parent
  done;
  (* up is bottom-to-top reversed already? up accumulated by consing the
     deeper node first, so it is top-to-bottom; rebuild explicitly. *)
  (List.rev !up, !a, !down)

let tree_distance t u v =
  if u = v then Rat.zero
  else begin
    let up, _lca, down = tree_path t u v in
    let weight_of i = t.nodes.(i).weight in
    Rat.add
      (Rat.sum (List.map weight_of up))
      (Rat.sum (List.map weight_of down))
  end

let dominates t g =
  let n = Graph.n_vertices g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      match Graph.distance g u v with
      | Extended.Inf -> ok := false
      | Extended.Fin duv ->
        if Rat.( < ) (tree_distance t u v) duv then ok := false
    done
  done;
  !ok

let center_path t u v =
  if u = v then [ u ]
  else begin
    let up, lca, down = tree_path t u v in
    let centers =
      List.map (fun i -> t.nodes.(i).center) up
      @ [ t.nodes.(lca).center ]
      @ List.map (fun i -> t.nodes.(i).center) down
    in
    (* Deduplicate consecutive repeats. *)
    let rec dedup = function
      | a :: b :: rest when a = b -> dedup (b :: rest)
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup centers
  end

let expand_pair t g u v =
  let centers = center_path t u v in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  let edges =
    List.concat_map
      (fun (a, b) ->
        match Graph.shortest_path g a b with
        | Some ids -> ids
        | None -> invalid_arg "Frt.expand_pair: disconnected graph")
      (pairs centers)
  in
  List.sort_uniq Stdlib.compare edges

let stretch t g u v =
  if u = v then None
  else
    match Graph.distance g u v with
    | Extended.Inf -> None
    | Extended.Fin duv ->
      if Rat.is_zero duv then None else Some (Rat.div (tree_distance t u v) duv)

let average_stretch t g =
  let n = Graph.n_vertices g in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      match stretch t g u v with
      | Some s -> acc := s :: !acc
      | None -> ()
    done
  done;
  match !acc with [] -> Rat.zero | xs -> Rat.average xs
