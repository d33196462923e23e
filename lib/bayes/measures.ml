open Bi_num

module Dist = Bi_prob.Dist
module Strategic = Bi_game.Strategic

type report = {
  opt_p : Extended.t;
  best_eq_p : Extended.t option;
  worst_eq_p : Extended.t option;
  opt_c : Extended.t;
  best_eq_c : Extended.t option;
  worst_eq_c : Extended.t option;
}

let expect_over_prior g f =
  Dist.expectation_ext (fun t -> f (Bayesian.underlying_game g t)) (Bayesian.prior g)

let opt_c g = expect_over_prior g (fun game -> fst (Strategic.optimum game))

(* Expectation of a per-underlying-game quantity that may not exist
   (games without pure equilibria): None if it is missing anywhere in
   the support. *)
let expect_opt_over_prior g f =
  let exception Missing in
  try
    Some
      (expect_over_prior g (fun game ->
           match f game with
           | Some (c, _) -> c
           | None -> raise Missing))
  with Missing -> None

let best_eq_c g = expect_opt_over_prior g Strategic.best_equilibrium
let worst_eq_c g = expect_opt_over_prior g Strategic.worst_equilibrium

let opt_p_exhaustive g =
  match
    Bi_ds.Combinat.argmin (Bayesian.social_cost g) ~cmp:Extended.compare
      (Bayesian.strategy_profiles g)
  with
  | Some (s, c) -> (c, s)
  | None -> assert false (* strategy space is never empty *)

let opt_p_descent ?(restarts = 5) ?(seed = 0x5eed) g =
  let rng = Random.State.make [| seed |] in
  let candidates =
    List.init restarts (fun _ ->
        Bayesian.benevolent_descent g (Bayesian.random_strategy_profile rng g))
  in
  match
    Bi_ds.Combinat.argmin (Bayesian.social_cost g) ~cmp:Extended.compare
      (List.to_seq candidates)
  with
  | Some (s, c) -> (c, s)
  | None -> assert false

let exhaustive g =
  let opt_p, _ = opt_p_exhaustive g in
  let equilibria = List.of_seq (Bayesian.bayesian_equilibria g) in
  let eq_costs = List.map (Bayesian.social_cost g) equilibria in
  let best_eq_p =
    match eq_costs with [] -> None | _ -> Some (List.fold_left Extended.min Extended.Inf eq_costs)
  in
  let worst_eq_p =
    match eq_costs with [] -> None | _ -> Some (List.fold_left Extended.max Extended.zero eq_costs)
  in
  {
    opt_p;
    best_eq_p;
    worst_eq_p;
    opt_c = opt_c g;
    best_eq_c = best_eq_c g;
    worst_eq_c = worst_eq_c g;
  }

let ratio num den =
  match num, den with
  | Extended.Fin n, Extended.Fin d ->
    if Rat.is_zero d then None else Some (Rat.div n d)
  | _ -> None

type ratios = {
  r_opt : Rat.t option;
  r_best_eq : Rat.t option;
  r_worst_eq : Rat.t option;
}

let ratios_of_report r =
  let flat num den =
    match num, den with
    | Some n, Some d -> ratio n d
    | _ -> None
  in
  {
    r_opt = ratio r.opt_p r.opt_c;
    r_best_eq = flat r.best_eq_p r.best_eq_c;
    r_worst_eq = flat r.worst_eq_p r.worst_eq_c;
  }

let observation_2_2_holds r =
  let ( <= ) = Extended.( <= ) in
  r.opt_c <= r.opt_p
  && (match r.best_eq_p with Some b -> r.opt_p <= b | None -> true)
  && (match r.best_eq_p, r.worst_eq_p with
      | Some b, Some w -> b <= w
      | _ -> true)

