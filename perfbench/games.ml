(* Request specifications: which game, which solver tier, and the exact
   wire line the load process sends for it.  Everything here is a pure
   function of its arguments, so a seed always yields the same lines. *)

module Graph = Bi_graph.Graph
module Gen = Bi_graph.Gen
module Dist = Bi_prob.Dist
module Rat = Bi_num.Rat
module Bncs = Bi_ncs.Bayesian_ncs
module Registry = Bi_constructions.Registry
module Fingerprint = Bi_cache.Fingerprint
module Mode = Bi_certify.Mode
module Concept = Bi_correlated.Concept
module Protocol = Bi_serve.Protocol
module Sink = Bi_engine.Sink

type tier = Exhaustive | Certified | Correlated

let tiers = [ Exhaustive; Certified; Correlated ]

let tier_name = function
  | Exhaustive -> "exhaustive"
  | Certified -> "certified"
  | Correlated -> "correlated"

type source =
  | Construction of string * int  (** [construction] verb: family, k *)
  | Scaled of string * int * int
      (** [analyze] verb: the family game at k with every edge cost
          multiplied by the integer m *)
  | Random of int array  (** [analyze] verb: the random game of this key *)
  | Tree of int array
      (** [analyze] verb: the large random tree game of this key *)

type spec = { source : source; mode : Mode.t; concept : Concept.t }

let tier s =
  match s.concept with
  | Concept.Cce | Concept.Comm -> Correlated
  | Concept.Nash -> if s.mode = Mode.Certified then Certified else Exhaustive

let nash source = { source; mode = Mode.Exhaustive; concept = Concept.Nash }
let certified source = { source; mode = Mode.Certified; concept = Concept.Nash }
let correlated concept source = { source; mode = Mode.Exhaustive; concept }

(* The paper families whose k range reaches every tier. *)
let families = [ "anshelevich"; "gworst-bliss"; "gworst-curse" ]

let family_games = Hashtbl.create 64

let family name k =
  match Hashtbl.find_opt family_games (name, k) with
  | Some g -> g
  | None -> (
    match Registry.build name k with
    | Ok g ->
      Hashtbl.replace family_games (name, k) g;
      g
    | Error e -> invalid_arg e)

let scaled_description name k m =
  let g = family name k in
  let graph = Bncs.graph g in
  let factor = Rat.of_int m in
  let edges =
    List.map
      (fun (e : Graph.edge) -> (e.src, e.dst, Rat.mul factor e.cost))
      (Graph.edges graph)
  in
  ( Graph.make (Graph.kind graph) ~n:(Graph.n_vertices graph) edges,
    Bncs.prior g )

(* A small connected undirected game: 4-6 vertices, two players, one or
   two type profiles.  Connectivity keeps every destination reachable,
   so no request built from it can fail. *)
let random_description key =
  let rng = Random.State.make key in
  let n = 4 + Random.State.int rng 3 in
  let graph = Gen.random_connected_graph rng ~n ~p:0.3 ~max_cost:9 in
  let profile () =
    Array.init 2 (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  let support = 1 + Random.State.int rng 2 in
  let prior =
    Dist.make
      (List.init support (fun _ ->
           let p = profile () in
           (p, Rat.of_int (1 + Random.State.int rng 3))))
  in
  (graph, prior)

(* A large game that is cheap to solve but dear to read: a random tree
   on [tree_vertices] vertices (every path unique, so one valid strategy
   profile) and two players with one type each.  Parsing and
   fingerprinting its ~20 KB description dominate a hit on it. *)
let tree_vertices = 1500

let tree_description key =
  let rng = Random.State.make key in
  let n = tree_vertices in
  let edges =
    List.init (n - 1) (fun v ->
        (Random.State.int rng (v + 1), v + 1, Rat.of_int (1 + Random.State.int rng 9)))
  in
  let endpoint () = Random.State.int rng n in
  let types = Array.init 2 (fun _ -> (endpoint (), endpoint ())) in
  (Graph.make Graph.Undirected ~n edges, Dist.make [ (types, Rat.one) ])

let description s =
  match s.source with
  | Construction (name, k) ->
    let g = family name k in
    (Bncs.graph g, Bncs.prior g)
  | Scaled (name, k, m) -> scaled_description name k m
  | Random key -> random_description key
  | Tree key -> tree_description key

let request s =
  match s.source with
  | Construction (name, k) ->
    Protocol.construction_request ~mode:s.mode ~concept:s.concept ~name ~k ()
  | Scaled _ | Random _ | Tree _ ->
    let graph, prior = description s in
    Protocol.analyze_request ~mode:s.mode ~concept:s.concept graph ~prior

let line s = Sink.to_string (request s)

let qualify fingerprint ~mode ~concept =
  match concept with
  | Concept.Nash -> Fingerprint.with_mode fingerprint ~mode:(Mode.cache_tag mode)
  | c -> Fingerprint.with_concept fingerprint ~concept:(Concept.cache_tag c)

(* The key a shard caches this request's answer under. *)
let cache_key s =
  let graph, prior = description s in
  qualify (Fingerprint.game graph ~prior) ~mode:s.mode ~concept:s.concept

let build s =
  let graph, prior = description s in
  Bncs.make graph ~prior

(* The payload a shard computes on a miss, in the shape it caches. *)
let compute s game =
  match tier s with
  | Exhaustive -> Bi_cache.Service.Analysis (Bncs.analyze game)
  | Certified ->
    Bi_cache.Service.Payload
      (Bi_certify.Solve.to_json (Bi_certify.Solve.certify game))
  | Correlated ->
    Bi_cache.Service.Payload
      (Bi_correlated.Correlated.to_json
         (Bi_correlated.Correlated.analyze ~concept:s.concept game))

(* The response line a shard sends for this request. *)
let response s ~fingerprint ~cached value =
  let json =
    match (value, s.concept) with
    | Bi_cache.Service.Analysis a, _ ->
      Protocol.ok_analysis ~fingerprint ~cached a
    | Bi_cache.Service.Payload p, Concept.Nash ->
      Protocol.ok_certified ~fingerprint ~cached p
    | Bi_cache.Service.Payload p, concept ->
      Protocol.ok_correlated ~fingerprint ~cached ~concept p
  in
  Sink.to_string json

(* The exact fresh-compute response, recomputed in this process. *)
let expected_response s =
  response s ~fingerprint:(cache_key s) ~cached:false (compute s (build s))
