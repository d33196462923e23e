open Bi_num

(* [rev.(u)] lists [(v, c)] for every edge [v -> u] of cost [c] (both
   orientations of an undirected edge), so a Dijkstra over [rev] yields
   distances {e to} its sources. *)
let reverse_adjacency g =
  let rev = Array.make (Graph.n_vertices g) [] in
  for id = Graph.n_edges g - 1 downto 0 do
    let s = Graph.edge_src g id and d = Graph.edge_dst g id and c = Graph.cost g id in
    rev.(d) <- (s, c) :: rev.(d);
    if (not (Graph.is_directed g)) && s <> d then rev.(s) <- (d, c) :: rev.(s)
  done;
  rev

(* Lower [d] in place to [d(v) = min_u (dist(v, u) + d(u))]: one
   multi-source Dijkstra over the reversed edges, seeded with every
   finite label.  Labels only ever strictly decrease, so a popped entry
   that differs from its vertex's label is stale. *)
let settle rev d =
  let heap = Bi_ds.Heap.create ~cmp:(fun (a, _) (b, _) -> Rat.compare a b) in
  Array.iteri
    (fun v x -> match x with Extended.Fin r -> Bi_ds.Heap.push heap (r, v) | Extended.Inf -> ())
    d;
  let rec loop () =
    match Bi_ds.Heap.pop_min heap with
    | None -> ()
    | Some (dv, v) ->
      (match d.(v) with
       | Extended.Fin cur when Rat.equal cur dv ->
         List.iter
           (fun (w, c) ->
             let dw = Rat.add dv c in
             match d.(w) with
             | Extended.Fin cw when Rat.( <= ) cw dw -> ()
             | _ ->
               d.(w) <- Extended.Fin dw;
               Bi_ds.Heap.push heap (dw, w))
           rev.(v)
       | _ -> ());
      loop ()
  in
  loop ()

let steiner_cost g ~root ~terminals =
  let terminals =
    List.sort_uniq Stdlib.compare (List.filter (fun t -> t <> root) terminals)
  in
  let t = List.length terminals in
  if t > 20 then invalid_arg "Steiner_dp.steiner_cost: too many terminals";
  if t = 0 then Extended.zero
  else begin
    let terms = Array.of_list terminals in
    let n = Graph.n_vertices g in
    let rev = reverse_adjacency g in
    let full = (1 lsl t) - 1 in
    (* dp.(mask).(v) = minimum cost of a subgraph giving v->terminal
       paths for every terminal in mask. *)
    let dp = Array.make (full + 1) [||] in
    for i = 0 to t - 1 do
      let row = Array.make n Extended.Inf in
      row.(terms.(i)) <- Extended.zero;
      settle rev row;
      dp.(1 lsl i) <- row
    done;
    for mask = 1 to full do
      (* Skip singletons: already initialized. *)
      if mask land (mask - 1) <> 0 then begin
        let best = Array.make n Extended.Inf in
        (* Merge step: split mask into two nonempty halves at v. *)
        let sub = ref ((mask - 1) land mask) in
        while !sub > 0 do
          if !sub > mask lxor !sub then begin
            (* Enumerate each unordered split once. *)
            let a = !sub and b = mask lxor !sub in
            for v = 0 to n - 1 do
              let c = Extended.add dp.(a).(v) dp.(b).(v) in
              if Extended.( < ) c best.(v) then best.(v) <- c
            done
          end;
          sub := (!sub - 1) land mask
        done;
        (* Grow step: attach v to the best merge point via a shortest
           path. *)
        settle rev best;
        dp.(mask) <- best
      end
    done;
    dp.(full).(root)
  end

let steiner_mst_approx g ~terminals =
  if Graph.is_directed g then
    invalid_arg "Steiner_dp.steiner_mst_approx: directed graph";
  let terminals = List.sort_uniq Stdlib.compare terminals in
  match terminals with
  | [] -> invalid_arg "Steiner_dp.steiner_mst_approx: no terminals"
  | [ _ ] -> Some ([], Rat.zero)
  | _ ->
    let terms = Array.of_list terminals in
    let t = Array.length terms in
    let sp = Array.map (fun v -> Graph.dijkstra g v) terms in
    let closure_edges = ref [] in
    (try
       for i = 0 to t - 1 do
         for j = i + 1 to t - 1 do
           match (fst sp.(i)).(terms.(j)) with
           | Extended.Inf -> raise Exit
           | Extended.Fin d -> closure_edges := (i, j, d) :: !closure_edges
         done
       done;
       let closure = Graph.make Undirected ~n:t !closure_edges in
       let mst_ids, _ = Graph.minimum_spanning_tree closure in
       (* Expand each closure edge back to a shortest path in g. *)
       let expanded =
         List.concat_map
           (fun id ->
             let e = Graph.edge closure id in
             match Graph.shortest_path g terms.(e.Graph.src) terms.(e.Graph.dst) with
             | Some ids -> ids
             | None -> assert false)
           mst_ids
       in
       let ids = List.sort_uniq Stdlib.compare expanded in
       Some (ids, Graph.total_cost g ids)
     with Exit -> None)
