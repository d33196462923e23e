(** Correlated play for Bayesian NCS games, by exact linear
    programming (Section 4 of the paper; the LP phrasing follows the
    smoothness literature's treatment of Bayes coarse-correlated
    values).

    All polytopes live over joint distributions [P(a, t)] on
    (action profile, type profile) pairs, restricted to the prior's
    support states and to action profiles valid at each state (invalid
    actions cost infinity and can never carry mass):

    - {e prior consistency} (every polytope): for each support state
      [t], [sum_a P(a, t) = p(t)];
    - {e CCE deviations}: for each player [i], support type [ti] and
      valid alternative [a'_i],
      [sum_(t : t_i = ti) sum_a P(a,t) (C_i,t(a) - C_i,t(a'_i, a_-i))
      <= 0] — deviations are unconditional;
    - {e Comm deviations}: for each [(i, ti)], recommendation [a_i] and
      alternative [a'_i], the same sum restricted to [a : a_i]
      — a deviation may condition on the recommendation, so the Comm
      polytope sits between the Nash points and the CCE polytope.

    Optimizing the expected social cost [sum_(a,t) P(a,t) K_t(a)] in
    both directions over each polytope, plus over the deviation-free
    ({e public-randomness}) polytope, yields the six new quantities:
    [best-cce]/[worst-cce] (or [best-comm]/[worst-comm]) and
    [pub-best]/[pub-worst].  [pub-best] equals [optC] — Lemma 4.1's
    "public random bits can replace the common prior" made
    computational — and [pub-worst] is [E_t max_a K_t(a)].  Every value
    is carried by a {!Bi_lp.Simplex} dual certificate that {!check}
    re-verifies from the game description alone, rejecting tampering
    with any coordinate. *)

open Bi_num

type t
(** The compiled LP data of one game: support states, per-state valid
    action-profile column blocks, exact column costs and deviation
    deltas. *)

val make : Bi_ncs.Bayesian_ncs.t -> t
(** Prices every column through the game's evaluation kernel
    ({!Bi_ncs.Bayesian_ncs.kernel}); {!check} re-derives the same data
    through the generic per-state strategic games instead. *)

val states : t -> int
val columns : t -> int

val deviation_count : t -> Concept.t -> int
(** Number of (non-trivial) deviation rows of the concept polytope.
    @raise Invalid_argument on [Nash]. *)

type sense = Best | Worst

val problem : t -> concept:Concept.t -> sense:sense -> Bi_lp.Simplex.problem
(** The standard-form LP of the concept polytope: prior-consistency
    equality rows, then one row per deviation with an explicit slack
    column.  [Worst] negates the objective (the solver minimizes).
    @raise Invalid_argument on [Nash]. *)

val public_problem : t -> sense:sense -> Bi_lp.Simplex.problem
(** The deviation-free (public-randomness) polytope: prior consistency
    only. *)

type quantity = {
  value : Rat.t;  (** the social-cost optimum, sign-corrected for sense *)
  certificate : Bi_lp.Simplex.certificate;
  pivots : int;
}

type report = {
  concept : Concept.t;
  states : int;
  columns : int;
  deviations : int;
  best : quantity;
  worst : quantity;
  pub_best : quantity;  (** = [optC] by Lemma 4.1; crosschecked in bench *)
  pub_worst : quantity;
}

val analyze :
  ?budget:Bi_engine.Budget.t ->
  concept:Concept.t ->
  Bi_ncs.Bayesian_ncs.t ->
  report
(** Solve all four LPs.  With [?budget] every simplex iteration polls
    the deadline and the call raises {!Bi_engine.Budget.Expired} once it
    passes — complete and exact, or failed fast, never partial.
    @raise Invalid_argument on [concept:Nash] — Nash quantities come
    from the exhaustive/certified solvers, not an LP. *)

val check : Bi_ncs.Bayesian_ncs.t -> report -> (unit, string) result
(** Re-derive the four LPs from the game description and verify every
    certificate in exact arithmetic ({!Bi_lp.Simplex.check}), that each
    claimed value matches its certified objective, and the polytope
    inclusions [pub_best <= best <= worst <= pub_worst].  Tampering
    with any value or any certificate coordinate is rejected. *)

val to_json : report -> Bi_engine.Sink.json
(** The serve/cache payload: concept, LP dimensions, the four values,
    pivot counts, and sparse primal / dense dual certificate vectors. *)

val equilibrium_member :
  t ->
  concept:Concept.t ->
  Bi_bayes.Bayesian.strategy_profile ->
  (unit, string) result
(** Map a pure strategy profile to the point [P(a, t) = p(t) ·
    1(a = s(t))] and verify its membership in the concept polytope
    ({!Bi_lp.Simplex.feasible} on the assembled system, slacks
    included).  For a pure Bayesian equilibrium this must hold — the
    inclusion half of the bench crosscheck.
    @raise Invalid_argument on [Nash]. *)
