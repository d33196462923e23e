(** Public random bits as a substitute for the common prior (Section 4).

    A 4-tuple [phi] (a Bayesian game stripped of its prior) is captured
    by the social-cost matrix [K(s,t)] over strategy profiles [s] and
    type profiles [t], with [v(t) = min_s K(s,t)] the complete-
    information optimum of the underlying game [G_t].

    - [R(phi)] is the worst-case (over priors [p]) ratio
      [min_s sum_t p(t) K(s,t) / sum_t p(t) v(t)] — the worst
      [optP/optC] any prior can induce.
    - [R~(phi)] is the value of the zero-sum game with normalized matrix
      [N(s,t) = K(s,t)/v(t)] (row: benevolent agents minimizing;
      column: adversarial prior).

    Proposition 4.2 states [R = R~]; Lemma 4.1 extracts from the minimax
    solution a distribution [q] over strategy profiles such that playing
    [s ~ q] — using only public random bits, never the prior — achieves
    ratio at most [R(phi)] against {e every} prior.

    {!solve} computes both sides exactly with one linear program: the
    primal is [R~] and yields [q], its dual yields a worst prior [p*].
    For every [q] and [p], [ratio_under_prior p <= randomized_guarantee
    q], so a pair with [randomized_guarantee q = ratio_under_prior p*]
    pins [R = R~] to that common value; {!check} re-verifies exactly
    that, plus the LP certificate, from the matrix alone. *)

open Bi_num

type t

val make : Rat.t array array -> t
(** [make k]: rows are strategy profiles, columns type profiles.  All
    entries must be positive (the paper's [C_{i,t} > 0] assumption;
    [v(t) = 0] would make the ratio 0/0).
    @raise Invalid_argument on empty or non-positive input. *)

val max_entries : int
(** The largest cost matrix {!of_bayesian_ncs} builds: [10{^6}] entries. *)

val of_bayesian_ncs : Bi_ncs.Bayesian_ncs.t -> t
(** Rows: valid strategy profiles; columns: prior support.  The prior's
    probabilities are discarded — Section 4 quantifies over all priors.
    Each [K(s,t)] is priced through the game's evaluation kernel.
    @raise Invalid_argument before building anything when the matrix
    would exceed {!max_entries} (the message names both sizes), or if
    some type profile has zero optimal cost (e.g. all agents absent). *)

val n_strategies : t -> int
val n_type_profiles : t -> int
val cost : t -> int -> int -> Rat.t
val opt_of_type : t -> int -> Rat.t
(** [v(t)]. *)

val normalized : t -> Rat.t array array
(** [N(s,t) = K(s,t)/v(t)]. *)

val ratio_under_prior : t -> Rat.t array -> Rat.t
(** [optP/optC] under a specific prior (weights over type profiles,
    summing to one): [min_s sum_t p(t) K(s,t) / sum_t p(t) v(t)].
    @raise Invalid_argument unless [p] is a distribution over the type
    profiles. *)

val randomized_guarantee : t -> Rat.t array -> Rat.t
(** [max_t sum_s q(s) N(s,t)]: the worst-prior performance of the
    public-randomness mixture [q] (the ratio is linear in the prior, so
    point priors suffice).
    @raise Invalid_argument unless [q] is a distribution over the
    strategy profiles. *)

val problem : t -> Bi_lp.Simplex.problem
(** The standard-form LP for [R~]: variables [q_s] (one per strategy
    profile), [z], and one slack per type profile; minimize [z] subject
    to [sum_s q_s N(s,t) + slack_t = z] for every [t] and
    [sum_s q_s = 1].  Its dual variable on row [t] is [-p'_t], where
    [p'] is the column player's optimal mixture over the normalized
    game. *)

type solution = {
  value : Rat.t;  (** [R~(phi) = R(phi)] *)
  mixture : Rat.t array;  (** Lemma 4.1's [q], over strategy profiles *)
  prior : Rat.t array;
      (** a worst prior [p*], over type profiles: [p*_t] is proportional
          to [p'_t / v(t)] *)
  certificate : Bi_lp.Simplex.certificate;  (** of {!problem} *)
  pivots : int;
}

val solve : t -> solution

val check : t -> solution -> (unit, string) result
(** Rebuild {!problem} from the matrix and require: the certificate
    passes {!Bi_lp.Simplex.check}; [value] is its objective; [mixture]
    and [prior] are the ones its primal and dual determine; and
    [randomized_guarantee mixture = value = ratio_under_prior prior],
    which proves [R(phi) = R~(phi) = value].  Any change to the value,
    to a weight of either mixture, or to the certificate is rejected. *)
