open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist

let x_vertex = 0
let z_vertex = 1
let y_vertex i = 1 + i

let check_k k = if k < 2 then invalid_arg "Anshelevich_game.graph: need k >= 2"

let graph k eps =
  check_k k;
  let direct =
    List.init (k - 1) (fun j ->
        let i = j + 1 in
        (x_vertex, y_vertex i, Rat.of_ints 1 i))
  in
  let via_z =
    (x_vertex, z_vertex, Rat.add Rat.one eps)
    :: List.init (k - 1) (fun j -> (z_vertex, y_vertex (j + 1), Rat.zero))
  in
  Graph.make Directed ~n:(k + 1) (direct @ via_z)

let default_eps k = Rat.of_ints 1 (2 * k * k)

(* [k] is checked before [default_eps] divides by [2k^2]. *)
let game ?eps k =
  check_k k;
  let eps = match eps with Some e -> e | None -> default_eps k in
  let g = graph k eps in
  let fixed = Array.init (k - 1) (fun j -> (x_vertex, y_vertex (j + 1))) in
  let with_last last = Array.append fixed [| last |] in
  Bi_ncs.Bayesian_ncs.make g
    ~prior:
      (Dist.weighted_pair (Rat.of_ints 1 2)
         (with_last (x_vertex, z_vertex))
         (with_last (x_vertex, x_vertex)))

let predicted_worst_eq_p ?eps k =
  let eps = match eps with Some e -> e | None -> default_eps k in
  Rat.add Rat.one eps

let predicted_best_eq_c_lower k = Rat.div_int (Rat.harmonic (k - 1)) 2

let predicted_best_eq_c ?eps k =
  let eps = match eps with Some e -> e | None -> default_eps k in
  Rat.div_int (Rat.add (Rat.harmonic (k - 1)) (Rat.add Rat.one eps)) 2

let predicted_ratio ?eps k =
  Rat.div (predicted_worst_eq_p ?eps k) (predicted_best_eq_c ?eps k)

(* Float companions for large-k sweeps: exact harmonic numbers have
   hundreds-of-digits numerators past k ~ 100, which benches do not
   need. *)
let harmonic_float n =
  let rec go acc i = if i > n then acc else go (acc +. (1.0 /. float_of_int i)) (i + 1) in
  go 0.0 1

let eps_float k = 1.0 /. float_of_int (2 * k * k)

let predicted_worst_eq_p_float k = 1.0 +. eps_float k

let predicted_best_eq_c_float k =
  (harmonic_float (k - 1) +. 1.0 +. eps_float k) /. 2.0

let predicted_ratio_float k =
  predicted_worst_eq_p_float k /. predicted_best_eq_c_float k
