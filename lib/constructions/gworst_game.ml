open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist

let u_vertex = 0
let v_vertex = 1
let w_vertex = 2

let graph ?(directed = false) k eps =
  if directed then
    (* The "trivial modification" the paper mentions: orient the routes
       agents actually use (u->v->w, u->w, w->v). *)
    Graph.make Directed ~n:3
      [
        (u_vertex, v_vertex, Rat.of_int (k + 1));
        (v_vertex, w_vertex, Rat.one);
        (u_vertex, w_vertex, Rat.add Rat.one eps);
        (w_vertex, v_vertex, Rat.one);
      ]
  else
    Graph.make Undirected ~n:3
      [
        (u_vertex, v_vertex, Rat.of_int (k + 1));
        (v_vertex, w_vertex, Rat.one);
        (u_vertex, w_vertex, Rat.add Rat.one eps);
      ]

let bliss_eps k = Rat.of_ints 5 (4 * k)
let curse_eps k = Rat.sub (Rat.of_ints 2 k) (Rat.of_ints 1 (2 * k * k))

let make_game ?directed k eps presence =
  let g = graph ?directed k eps in
  let fixed = Array.make k (u_vertex, w_vertex) in
  let with_last last = Array.append fixed [| last |] in
  Bi_ncs.Bayesian_ncs.make g
    ~prior:
      (Dist.weighted_pair presence
         (with_last (u_vertex, v_vertex))
         (with_last (u_vertex, u_vertex)))

(* [k] is checked before the epsilons and the presence divide by it. *)
let check_k k = if k < 2 then invalid_arg "Gworst_game: need k >= 2"

let bliss_game ?directed k =
  check_k k;
  make_game ?directed k (bliss_eps k) (Rat.of_ints 1 2)

let curse_game ?directed k =
  check_k k;
  make_game ?directed k (curse_eps k) (Rat.of_ints 1 k)

let predicted_bliss_worst_eq_p k =
  Rat.add (Rat.add Rat.one (bliss_eps k)) (Rat.of_ints 1 2)

let predicted_bliss_worst_eq_c_lower k = Rat.of_ints (k + 2) 2

let predicted_curse_worst_eq_p k = Rat.of_int (k + 2)

let predicted_curse_worst_eq_c_upper k =
  let eps = curse_eps k in
  let absent = Rat.mul (Rat.of_ints (k - 1) k) (Rat.add Rat.one eps) in
  let present = Rat.div_int (Rat.add (Rat.of_int (k + 3)) eps) k in
  Rat.add absent present
