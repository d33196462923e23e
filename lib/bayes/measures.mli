(** The Bayesian-ignorance quantities of Section 2.

    Partial-information (numerator) quantities:
    - [optP(G)   = min_s K(s)]
    - [best-eqP  = min over Bayesian equilibria s of K(s)]
    - [worst-eqP = max over Bayesian equilibria s of K(s)]

    Complete-information (denominator) quantities, averaged over the
    prior:
    - [optC      = E_t[min_a K_t(a)]]
    - [best-eqC  = E_t[min over Nash equilibria a of G_t of K_t(a)]]
    - [worst-eqC = E_t[max over Nash equilibria a of G_t of K_t(a)]]

    The three ignorance ratios are [optP/optC], [best-eqP/best-eqC] and
    [worst-eqP/worst-eqC]. *)

open Bi_num

type report = {
  opt_p : Extended.t;
  best_eq_p : Extended.t option; (** [None]: no pure Bayesian equilibrium. *)
  worst_eq_p : Extended.t option;
  opt_c : Extended.t;
  best_eq_c : Extended.t option; (** [None]: some underlying game has no pure Nash equilibrium. *)
  worst_eq_c : Extended.t option;
}

val opt_c : Bayesian.t -> Extended.t
val best_eq_c : Bayesian.t -> Extended.t option
val worst_eq_c : Bayesian.t -> Extended.t option

val opt_p_exhaustive : Bayesian.t -> Extended.t * Bayesian.strategy_profile

val opt_p_descent :
  ?restarts:int -> ?seed:int -> Bayesian.t -> Extended.t * Bayesian.strategy_profile
(** Benevolent coordinate descent from [restarts] (default 5) random
    profiles; an upper bound on [optP], exact whenever the landscape has
    no worse local optima (the paper's constructions are symmetric enough
    that a few restarts find the optimum; tests cross-check against
    exhaustion on small instances). *)

val exhaustive : Bayesian.t -> report
(** All six quantities by full enumeration of strategy and action
    profiles.  Exponential; intended for the small instances that anchor
    correctness. *)

val ratio : Extended.t -> Extended.t -> Rat.t option
(** [ratio num den]: [None] when the denominator is zero or either side
    is infinite. *)

type ratios = {
  r_opt : Rat.t option;
  r_best_eq : Rat.t option;
  r_worst_eq : Rat.t option;
}

val ratios_of_report : report -> ratios

val observation_2_2_holds : report -> bool
(** Checks [optC <= optP <= best-eqP <= worst-eqP] (Observation 2.2)
    whenever the equilibrium quantities exist. *)
