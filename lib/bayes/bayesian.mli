(** Bayesian games with finite type and action spaces (Section 2 of the
    paper).

    A Bayesian game is [⟨k, {A_i}, {T_i}, {C_{i,t}}, p⟩]: player [i] has
    types [0 .. n_types.(i) - 1] and actions [0 .. n_actions.(i) - 1];
    the common prior [p] is an exact distribution over type profiles;
    [C_{i,t}(a)] is the cost to player [i] of action profile [a] in the
    underlying game induced by type profile [t].

    A {e pure strategy} of player [i] maps each of her types to an
    action; a strategy profile is an [int array array] indexed
    [player -> type -> action].  All expectations are exact rationals. *)

open Bi_num

type t

type strategy_profile = int array array

val make :
  players:int ->
  n_types:int array ->
  n_actions:int array ->
  prior:int array Bi_prob.Dist.t ->
  cost:(int array -> int array -> int -> Extended.t) ->
  t
(** [make ~players ~n_types ~n_actions ~prior ~cost]: [cost t a i] is
    [C_{i,t}(a)].  Type profiles in the prior's support must be arrays of
    length [players] with [t.(i) < n_types.(i)].
    @raise Invalid_argument on malformed dimensions. *)

val players : t -> int
val n_types : t -> int -> int
val n_actions : t -> int -> int
val prior : t -> int array Bi_prob.Dist.t

val underlying_game : t -> int array -> Bi_game.Strategic.t
(** The complete-information game [G_t]; memoized per type profile. *)

val underlying_cost : t -> int array -> int array -> int -> Extended.t
(** [underlying_cost g t a i = C_{i,t}(a)], the raw cost function. *)

val type_marginal : t -> int -> Rat.t array
(** [type_marginal g i].(ti) is [P(t_i = ti)]. *)

(** {1 Costs of strategy profiles} *)

val played_actions : strategy_profile -> int array -> int array
(** [played_actions s t] is the action profile [{s_j(t_j)}_j]. *)

val ex_ante_cost : t -> strategy_profile -> int -> Extended.t
(** [C_i(s) = E_p[C_{i,t}(s(t))]]. *)

val interim_cost : t -> strategy_profile -> int -> int -> Extended.t option
(** [interim_cost g s i ti = E[X_i(s) | t_i = ti]]; [None] when
    [P(t_i = ti) = 0]. *)

val social_cost : t -> strategy_profile -> Extended.t
(** [K(s) = sum_i C_i(s)], the paper's partial-information social cost. *)

val social_cost_at : t -> strategy_profile -> int array -> Extended.t
(** [K(s, t)]: social cost of the induced action profile under [t]. *)

(** {1 Equilibria} *)

val best_type_deviation : t -> strategy_profile -> int -> int -> (int * Extended.t) option
(** [best_type_deviation g s i ti]: a strictly improving action for
    player [i] at type [ti] (deviations at a single type suffice:
    interim costs at distinct types are independent), with the improved
    interim cost.  [None] when no improvement exists or the type has
    zero probability. *)

val is_bayesian_equilibrium : t -> strategy_profile -> bool

val strategy_profiles : t -> strategy_profile Seq.t
(** Exhaustive enumeration; the space has size
    [prod_i n_actions(i)^n_types(i)] — use only on small games. *)

val bayesian_equilibria : t -> strategy_profile Seq.t

val best_response_dynamics :
  ?max_steps:int -> t -> strategy_profile -> strategy_profile option
(** Iterated single-type best responses; converges on Bayesian potential
    games (Observation 2.1).  [None] after [max_steps] moves (default
    [100_000]). *)

val benevolent_descent :
  ?max_steps:int -> t -> strategy_profile -> strategy_profile
(** Coordinate descent on the social cost [K]: repeatedly applies the
    single-(player, type) action change that most decreases [K] until no
    change helps.  Returns a locally optimal strategy profile — an upper
    bound on [optP] used when exhaustion is infeasible. *)

val random_strategy_profile : Random.State.t -> t -> strategy_profile

(** {1 Bayesian potentials (Observation 2.1)} *)

val bayesian_potential :
  t -> (int array -> int array -> Rat.t) -> strategy_profile -> Rat.t
(** [bayesian_potential g q s = E_p[q_t(s(t))]], where [q t a] is a
    potential for the underlying game [G_t].  By Observation 2.1 this is
    an exact Bayesian potential for [g]. *)

val is_bayesian_potential : t -> (strategy_profile -> Rat.t) -> bool
(** Exhaustively checks the exact-potential identity over all strategy
    profiles and unilateral strategy deviations (finite costs only). *)
