(* Small random Bayesian NCS games shared by the kernel and cross-tier
   laws: directed or undirected (a cycle through every vertex keeps
   every pair connected), zero-cost, integer and fractional edges, and a
   product prior or an arbitrary (correlated) one. *)

open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist

type description = {
  kind : Graph.kind;
  n : int;
  edges : (int * int * Rat.t) list;
  prior : (int * int) array Dist.t;
}

let description seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let n = 3 + int 2 in
  let kind = if Random.State.bool rng then Graph.Directed else Graph.Undirected in
  let cost () =
    match int 4 with
    | 0 -> Rat.zero
    | 1 -> Rat.of_ints (1 + int 5) (2 + int 5)
    | _ -> Rat.of_int (1 + int 4)
  in
  let edges =
    List.init n (fun v -> (v, (v + 1) mod n, cost ()))
    @ List.filter_map
        (fun _ ->
          let u = int n and v = int n in
          if u <> v then Some (u, v, cost ()) else None)
        (List.init (1 + int 3) Fun.id)
  in
  let players = 2 + int 2 in
  let pair () = (int n, int n) in
  let weight () = Rat.of_int (1 + int 3) in
  let prior =
    if Random.State.bool rng then
      Dist.map Array.of_list
        (Dist.product_list
           (List.init players (fun _ ->
                Dist.make (List.init (1 + int 2) (fun _ -> (pair (), weight ()))))))
    else
      Dist.make
        (List.init (1 + int 3) (fun _ -> (Array.init players (fun _ -> pair ()), weight ())))
  in
  { kind; n; edges; prior }

(* Scaling every cost past 2^62 makes the kernel's int lowering refuse
   (unless every edge is free), so the same game runs on its Rat
   instance. *)
let past_word = Rat.of_bigint (Bigint.pow Bigint.two 62)

let game ?(scale = Rat.one) d =
  Bi_ncs.Bayesian_ncs.make
    (Graph.make d.kind ~n:d.n (List.map (fun (u, v, c) -> (u, v, Rat.mul scale c)) d.edges))
    ~prior:d.prior

let free d = List.for_all (fun (_, _, c) -> Rat.is_zero c) d.edges
