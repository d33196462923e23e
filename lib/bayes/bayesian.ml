open Bi_num

module Dist = Bi_prob.Dist

type t = {
  players : int;
  n_types : int array;
  n_actions : int array;
  prior : int array Dist.t;
  cost : int array -> int array -> int -> Extended.t;
  underlying : (int list, Bi_game.Strategic.t) Hashtbl.t;
  (* conditional.(i).(ti): prior restricted to t_i = ti, renormalized. *)
  conditional : int array Dist.t option array array;
  marginal : Rat.t array array;
}

type strategy_profile = int array array

let make ~players ~n_types ~n_actions ~prior ~cost =
  if players <= 0 then invalid_arg "Bayesian.make: need at least one player";
  if Array.length n_types <> players || Array.length n_actions <> players then
    invalid_arg "Bayesian.make: dimension arrays must have one entry per player";
  Array.iter
    (fun n -> if n <= 0 then invalid_arg "Bayesian.make: empty type space")
    n_types;
  Array.iter
    (fun n -> if n <= 0 then invalid_arg "Bayesian.make: empty action space")
    n_actions;
  List.iter
    (fun t ->
      if Array.length t <> players then
        invalid_arg "Bayesian.make: type profile length mismatch";
      Array.iteri
        (fun i ti ->
          if ti < 0 || ti >= n_types.(i) then
            invalid_arg "Bayesian.make: type out of range in prior support")
        t)
    (Dist.support prior);
  let conditional =
    Array.init players (fun i ->
        Array.init n_types.(i) (fun ti ->
            Dist.condition (fun t -> t.(i) = ti) prior))
  in
  let marginal =
    Array.init players (fun i ->
        Array.init n_types.(i) (fun ti ->
            Dist.probability (fun t -> t.(i) = ti) prior))
  in
  { players; n_types; n_actions; prior; cost;
    underlying = Hashtbl.create 64; conditional; marginal }

let players g = g.players
let n_types g i = g.n_types.(i)
let n_actions g i = g.n_actions.(i)
let prior g = g.prior

let underlying_game g t =
  let key = Array.to_list t in
  match Hashtbl.find_opt g.underlying key with
  | Some game -> game
  | None ->
    let game =
      Bi_game.Strategic.make ~players:g.players ~actions:g.n_actions
        ~cost:(fun a i -> g.cost t a i)
    in
    Hashtbl.add g.underlying key game;
    game

let underlying_cost g t a i = g.cost t a i

let type_marginal g i = Array.copy g.marginal.(i)

let played_actions s t = Array.mapi (fun i ti -> s.(i).(ti)) t

let ex_ante_cost g s i =
  Dist.expectation_ext (fun t -> g.cost t (played_actions s t) i) g.prior

let interim_cost g s i ti =
  Option.map
    (Dist.expectation_ext (fun t -> g.cost t (played_actions s t) i))
    g.conditional.(i).(ti)

let social_cost_at g s t =
  let a = played_actions s t in
  let acc = ref Extended.zero in
  for i = 0 to g.players - 1 do
    acc := Extended.add !acc (g.cost t a i)
  done;
  !acc

let social_cost g s =
  Dist.expectation_ext (fun t -> social_cost_at g s t) g.prior

(* Interim cost of player i at type ti when she plays action [ai]
   there while everyone else follows s. *)
let interim_cost_of_action g s i ti ai =
  Option.map
    (Dist.expectation_ext (fun t ->
         let a = played_actions s t in
         a.(i) <- ai;
         g.cost t a i))
    g.conditional.(i).(ti)

let best_type_deviation g s i ti =
  match interim_cost_of_action g s i ti s.(i).(ti) with
  | None -> None
  | Some current ->
    let best = ref None in
    for ai' = 0 to g.n_actions.(i) - 1 do
      if ai' <> s.(i).(ti) then begin
        match interim_cost_of_action g s i ti ai' with
        | None -> ()
        | Some c' ->
          let improves =
            match !best with
            | None -> Extended.( < ) c' current
            | Some (_, cb) -> Extended.( < ) c' cb
          in
          if improves then best := Some (ai', c')
      end
    done;
    !best

let is_bayesian_equilibrium g s =
  let rec go i ti =
    if i >= g.players then true
    else if ti >= g.n_types.(i) then go (i + 1) 0
    else
      match best_type_deviation g s i ti with
      | Some _ -> false
      | None -> go i (ti + 1)
  in
  go 0 0

let strategy_profiles g =
  let per_player =
    List.init g.players (fun i ->
        List.of_seq
          (Bi_ds.Combinat.functions ~dom:g.n_types.(i)
             (Array.init g.n_actions.(i) Fun.id)))
  in
  Seq.map Array.of_list (Bi_ds.Combinat.product per_player)

let bayesian_equilibria g = Seq.filter (is_bayesian_equilibrium g) (strategy_profiles g)

let copy_profile s = Array.map Array.copy s

let best_response_dynamics ?(max_steps = 100_000) g start =
  let s = copy_profile start in
  let rec go steps =
    if steps > max_steps then None
    else begin
      let moved = ref false in
      for i = 0 to g.players - 1 do
        for ti = 0 to g.n_types.(i) - 1 do
          if not !moved then
            match best_type_deviation g s i ti with
            | Some (ai', _) ->
              s.(i).(ti) <- ai';
              moved := true
            | None -> ()
        done
      done;
      if !moved then go (steps + 1) else Some (copy_profile s)
    end
  in
  go 0

let benevolent_descent ?(max_steps = 100_000) g start =
  let s = copy_profile start in
  let rec go steps =
    if steps > max_steps then s
    else begin
      let current = social_cost g s in
      let best = ref None in
      for i = 0 to g.players - 1 do
        for ti = 0 to g.n_types.(i) - 1 do
          let saved = s.(i).(ti) in
          for ai' = 0 to g.n_actions.(i) - 1 do
            if ai' <> saved then begin
              s.(i).(ti) <- ai';
              let k = social_cost g s in
              let improves =
                match !best with
                | None -> Extended.( < ) k current
                | Some (_, _, _, kb) -> Extended.( < ) k kb
              in
              if improves then best := Some (i, ti, ai', k)
            end
          done;
          s.(i).(ti) <- saved
        done
      done;
      match !best with
      | Some (i, ti, ai', _) ->
        s.(i).(ti) <- ai';
        go (steps + 1)
      | None -> s
    end
  in
  go 0

let random_strategy_profile rng g =
  Array.init g.players (fun i ->
      Array.init g.n_types.(i) (fun _ -> Random.State.int rng g.n_actions.(i)))

let bayesian_potential g q s =
  Dist.expectation (fun t -> q t (played_actions s t)) g.prior

let is_bayesian_potential g q =
  let check s =
    let rec player i =
      if i >= g.players then true
      else begin
        let rec typ ti =
          if ti >= g.n_types.(i) then true
          else begin
            let rec action ai' =
              if ai' >= g.n_actions.(i) then true
              else begin
                let s' = copy_profile s in
                s'.(i).(ti) <- ai';
                let ok =
                  match ex_ante_cost g s i, ex_ante_cost g s' i with
                  | Extended.Fin c, Extended.Fin c' ->
                    Rat.equal (Rat.sub c c') (Rat.sub (q s) (q s'))
                  | Extended.Inf, _ | _, Extended.Inf -> true
                in
                ok && action (ai' + 1)
              end
            in
            action 0 && typ (ti + 1)
          end
        in
        typ 0 && player (i + 1)
      end
    in
    player 0
  in
  Seq.fold_left (fun acc s -> acc && check s) true (strategy_profiles g)
