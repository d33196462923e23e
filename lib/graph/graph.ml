open Bi_num

type kind =
  | Directed
  | Undirected

type edge = {
  id : int;
  src : int;
  dst : int;
  cost : Rat.t;
}

(* The edges are stored flat, indexed by id: all that validation, the
   canonical fingerprint and edge-by-id lookups read.  A cost is kept
   as a reduced pair of machine integers when every cost of the graph
   fits one, and as a [Rat] otherwise, so a graph that is only
   fingerprinted never builds a rational.  The costs as [Rat]s, the
   edge records and the adjacency lists that traversals read are
   derived from the store on first use (the [Rat]s are given when the
   graph was built from them) and published through an [Atomic]:
   domains that race on a first use each derive the same immutable
   value, and either copy may stay.  (A [Lazy.t] would raise in a
   domain that forces it while another domain is still forcing it.) *)
type store =
  | Ints of int array * int array  (* cost id = num.(id) / den.(id), reduced, den > 0 *)
  | Rats of Rat.t array

type t = {
  kind : kind;
  n : int;
  srcs : int array;
  dsts : int array;
  store : store;
  rats : Rat.t array option Atomic.t;
  records : edge array option Atomic.t;
  adj : (edge * int) list array option Atomic.t; (* (edge, endpoint reached) *)
}

let check_endpoints ~n ~src ~dst id =
  let s = src.(id) and d = dst.(id) in
  if s < 0 || s >= n || d < 0 || d >= n then invalid_arg "Graph.make: vertex out of range"

let check_sizes name ~n m lengths =
  if n < 0 then invalid_arg "Graph.make: negative vertex count";
  if List.exists (fun l -> l <> m) lengths then
    invalid_arg (name ^ ": arrays of different lengths")

let of_arrays kind ~n ~src ~dst ~costs =
  let m = Array.length src in
  check_sizes "Graph.of_arrays" ~n m [ Array.length dst; Array.length costs ];
  for id = 0 to m - 1 do
    check_endpoints ~n ~src ~dst id;
    if Stdlib.( < ) (Rat.sign costs.(id)) 0 then
      invalid_arg "Graph.make: negative edge cost"
  done;
  let num = Array.make m 0 and den = Array.make m 1 in
  let rec fit id =
    id = m
    ||
    match (Bigint.to_int_opt (Rat.num costs.(id)), Bigint.to_int_opt (Rat.den costs.(id))) with
    | Some p, Some q ->
      num.(id) <- p;
      den.(id) <- q;
      fit (id + 1)
    | _ -> false
  in
  let store = if fit 0 then Ints (num, den) else Rats costs in
  { kind; n; srcs = src; dsts = dst; store; rats = Atomic.make (Some costs);
    records = Atomic.make None; adj = Atomic.make None }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let of_int_costs kind ~n ~src ~dst ~num ~den =
  let m = Array.length src in
  check_sizes "Graph.of_int_costs" ~n m
    [ Array.length dst; Array.length num; Array.length den ];
  for id = 0 to m - 1 do
    check_endpoints ~n ~src ~dst id;
    let p = num.(id) and q = den.(id) in
    if q = 0 then raise Division_by_zero;
    if p = min_int || q = min_int then invalid_arg "Graph.of_int_costs: cost out of range";
    let p = if q < 0 then -p else p and q = abs q in
    if p < 0 then invalid_arg "Graph.make: negative edge cost";
    if q = 1 then begin
      num.(id) <- p;
      den.(id) <- 1
    end
    else begin
      let g = gcd p q in
      num.(id) <- p / g;
      den.(id) <- q / g
    end
  done;
  { kind; n; srcs = src; dsts = dst; store = Ints (num, den); rats = Atomic.make None;
    records = Atomic.make None; adj = Atomic.make None }

let make kind ~n edge_specs =
  let m = List.length edge_specs in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let costs = Array.make m Rat.zero in
  List.iteri
    (fun id (s, d, c) ->
      src.(id) <- s;
      dst.(id) <- d;
      costs.(id) <- c)
    edge_specs;
  of_arrays kind ~n ~src ~dst ~costs

let derive_rats g =
  let rats =
    match g.store with
    | Rats costs -> costs
    | Ints (num, den) -> Array.init (Array.length num) (fun id -> Rat.of_ints num.(id) den.(id))
  in
  Atomic.set g.rats (Some rats);
  rats

let rats g = match Atomic.get g.rats with Some r -> r | None -> derive_rats g

let int_costs g = match g.store with Ints (num, den) -> Some (num, den) | Rats _ -> None

(* Filler for the record array.  A module-level value is old after the
   first minor collection, so [Array.make] of a large array does not
   force one to promote its filler, as it does for a young value. *)
let placeholder = { id = -1; src = 0; dst = 0; cost = Rat.zero }

let derive_records g =
  let costs = rats g in
  let records = Array.make (Array.length g.srcs) placeholder in
  for id = 0 to Array.length records - 1 do
    records.(id) <- { id; src = g.srcs.(id); dst = g.dsts.(id); cost = costs.(id) }
  done;
  Atomic.set g.records (Some records);
  records

let records g =
  match Atomic.get g.records with Some r -> r | None -> derive_records g

(* Lists in id order: built back to front, so no list is reversed. *)
let derive_adjacency g =
  let records = records g in
  let adj = Array.make g.n [] in
  for id = Array.length records - 1 downto 0 do
    let e = records.(id) in
    adj.(e.src) <- (e, e.dst) :: adj.(e.src);
    if g.kind = Undirected && e.src <> e.dst then adj.(e.dst) <- (e, e.src) :: adj.(e.dst)
  done;
  Atomic.set g.adj (Some adj);
  adj

let adjacency g = match Atomic.get g.adj with Some a -> a | None -> derive_adjacency g

let kind g = g.kind
let is_directed g = g.kind = Directed
let n_vertices g = g.n
let n_edges g = Array.length g.srcs
let edges g = Array.to_list (records g)

let check_id g id =
  if id < 0 || id >= Array.length g.srcs then invalid_arg "Graph.edge: bad id"

let edge g id =
  check_id g id;
  (records g).(id)

let edge_src g id =
  check_id g id;
  g.srcs.(id)

let edge_dst g id =
  check_id g id;
  g.dsts.(id)

let cost g id =
  check_id g id;
  (rats g).(id)

let total_cost g ids =
  let ids = List.sort_uniq Stdlib.compare ids in
  Rat.sum (List.map (cost g) ids)

let succ g v =
  if v < 0 || v >= g.n then invalid_arg "Graph.succ: vertex out of range";
  (adjacency g).(v)

let other_endpoint _g e v =
  if e.src = v then e.dst
  else if e.dst = v then e.src
  else invalid_arg "Graph.other_endpoint: vertex not an endpoint"

(* Dijkstra with lazy deletion; exact rational priorities. *)
let dijkstra g s =
  if s < 0 || s >= g.n then invalid_arg "Graph.dijkstra: vertex out of range";
  let dist = Array.make g.n Extended.Inf in
  let pred = Array.make g.n None in
  let settled = Array.make g.n false in
  let cmp (d1, _) (d2, _) = Extended.compare d1 d2 in
  let heap = Bi_ds.Heap.create ~cmp in
  let adj = adjacency g in
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
          adj.(v)
      end;
      loop ()
  in
  loop ();
  (dist, pred)

let distance g u v =
  let dist, _ = dijkstra g u in
  dist.(v)

let shortest_path g u v =
  let dist, pred = dijkstra g u in
  match dist.(v) with
  | Extended.Inf -> None
  | Extended.Fin _ ->
    let records = records g in
    let rec walk v acc =
      if v = u then acc
      else
        match pred.(v) with
        | None -> acc (* v = u is the only vertex without a predecessor among reached ones *)
        | Some id ->
          let e = records.(id) in
          let prev = if e.dst = v then e.src else e.dst in
          walk prev (id :: acc)
    in
    Some (walk v [])

let bellman_ford g s =
  let dist = Array.make g.n Extended.Inf in
  dist.(s) <- Extended.zero;
  let relax () =
    let changed = ref false in
    Array.iter
      (fun e ->
        let try_relax u v =
          let d' = Extended.add dist.(u) (Extended.of_rat e.cost) in
          if Extended.( < ) d' dist.(v) then begin
            dist.(v) <- d';
            changed := true
          end
        in
        try_relax e.src e.dst;
        if g.kind = Undirected then try_relax e.dst e.src)
      (records g);
    !changed
  in
  let rec go i = if i < g.n && relax () then go (i + 1) in
  go 0;
  dist

let all_pairs_distances g =
  Array.init g.n (fun v -> fst (dijkstra g v))

let path_endpoints g ids =
  match ids with
  | [] -> None
  | first :: _ ->
    let e0 = edge g first in
    let try_from start =
      let rec go at = function
        | [] -> Some at
        | id :: rest ->
          let e = edge g id in
          if e.src = at then go e.dst rest
          else if g.kind = Undirected && e.dst = at then go e.src rest
          else None
      in
      match go start ids with
      | Some stop -> Some (start, stop)
      | None -> None
    in
    (match try_from e0.src with
     | Some r -> Some r
     | None -> if g.kind = Undirected then try_from e0.dst else None)

let reachable g ~via u v =
  if u = v then true
  else begin
    let allowed = Array.make (n_edges g) false in
    let adj = adjacency g in
    List.iter
      (fun id -> if id >= 0 && id < Array.length allowed then allowed.(id) <- true)
      via;
    let visited = Array.make g.n false in
    let rec dfs x =
      if x = v then true
      else begin
        visited.(x) <- true;
        List.exists (fun (e, w) -> allowed.(e.id) && (not visited.(w)) && dfs w) adj.(x)
      end
    in
    dfs u
  end

let is_path_between g ids u v = reachable g ~via:ids u v

let connected_components g =
  let uf = Bi_ds.Union_find.create g.n in
  Array.iter (fun e -> ignore (Bi_ds.Union_find.union uf e.src e.dst)) (records g);
  let buckets = Hashtbl.create 16 in
  for v = g.n - 1 downto 0 do
    let root = Bi_ds.Union_find.find uf v in
    let existing = try Hashtbl.find buckets root with Not_found -> [] in
    Hashtbl.replace buckets root (v :: existing)
  done;
  Hashtbl.fold (fun _ vs acc -> vs :: acc) buckets []
  |> List.sort Stdlib.compare

let minimum_spanning_tree g =
  if g.kind = Directed then invalid_arg "Graph.minimum_spanning_tree: directed graph";
  let sorted =
    List.sort (fun e1 e2 -> Rat.compare e1.cost e2.cost) (edges g)
  in
  let uf = Bi_ds.Union_find.create g.n in
  let chosen =
    List.filter (fun e -> Bi_ds.Union_find.union uf e.src e.dst) sorted
  in
  let ids = List.map (fun e -> e.id) chosen in
  (ids, total_cost g ids)

let pp fmt g =
  Format.fprintf fmt "@[<v>%s graph: %d vertices, %d edges@,"
    (match g.kind with Directed -> "directed" | Undirected -> "undirected")
    g.n (n_edges g);
  Array.iter
    (fun e ->
      Format.fprintf fmt "  e%d: %d %s %d (cost %a)@," e.id e.src
        (match g.kind with Directed -> "->" | Undirected -> "--")
        e.dst Rat.pp e.cost)
    (records g);
  Format.fprintf fmt "@]"
