(** Potential descent: certified pure Bayesian equilibria by
    best-response dynamics.

    Network cost-sharing games are potential games, and the Bayesian
    potential of Observation 2.1 lifts the Rosenthal potential to the
    partial-information setting: every strict best-response step
    strictly decreases it, so best-response dynamics from any valid
    profile terminates at a pure Bayesian equilibrium without ever
    enumerating the profile space.  Multi-start descent from a
    deterministic seed set yields best-/worst-equilibrium witnesses;
    each fixpoint ships as a {!certificate} whose deviation margins a
    checker re-derives from scratch.

    Steps, the benevolent start and certificates price through the
    game's evaluation kernel ({!Bi_ncs.Bayesian_ncs.kernel}); {!check}
    re-derives every margin and the value through the generic
    {!Bi_bayes.Bayesian} evaluation instead, so it never shares the
    producer's arithmetic.

    Soundness of the margin set: a type of positive marginal is in
    equilibrium iff no {e valid} alternative action improves her interim
    cost — invalid alternatives cost infinity and can never undercut a
    finite incumbent — so the certificate prices exactly the valid
    deviations, in canonical (player, type, alternative) order. *)

open Bi_num

type margin = {
  player : int;
  typ : int;
  action : int;  (** what [profile] plays at (player, typ) *)
  alternative : int;  (** the valid deviation being priced *)
  slack : Rat.t;  (** interim(alternative) - interim(action); >= 0 *)
}

type certificate = {
  profile : Bi_bayes.Bayesian.strategy_profile;
  value : Extended.t;  (** social cost of [profile] *)
  margins : margin list;  (** canonical order, every valid deviation *)
}

val certificate :
  Bi_ncs.Bayesian_ncs.t ->
  Bi_bayes.Bayesian.strategy_profile ->
  (certificate, string) result
(** Price every valid deviation of [profile]; [Error] when some slack is
    negative (not an equilibrium), a cost fails to be finite, or the
    profile's shape does not match the game. *)

val check : Bi_ncs.Bayesian_ncs.t -> certificate -> (unit, string) result
(** Independent re-derivation: recompute the social cost and the full
    canonical margin list and demand exact equality with the
    certificate, plus non-negativity of every slack.  Any tampering with
    the value, a slack, or the margin set is rejected. *)

val step :
  Bi_ncs.Bayesian_ncs.t ->
  Bi_bayes.Bayesian.strategy_profile ->
  (int * int * int) option
(** The next best-response move [(player, typ, action)]: the first
    (player, type) in index order holding a strictly improving deviation
    and the cheapest such deviation; [None] at a fixpoint.  Exposed so
    the property tests can watch the potential fall step by step. *)

val descend :
  ?budget:Bi_engine.Budget.t ->
  ?max_steps:int ->
  Bi_ncs.Bayesian_ncs.t ->
  Bi_bayes.Bayesian.strategy_profile ->
  Bi_bayes.Bayesian.strategy_profile option
(** Iterate {!step} to a fixpoint (a fresh profile; the start is not
    mutated).  [None] if [max_steps] (default [200_000]) ran out — the
    potential argument guarantees termination, the cap guards solver
    bugs.  Polls [budget] every step and lets {!Bi_engine.Budget.Expired}
    escape. *)

val starts :
  ?budget:Bi_engine.Budget.t ->
  ?seeds:int ->
  Bi_ncs.Bayesian_ncs.t ->
  Bi_bayes.Bayesian.strategy_profile list
(** The deterministic multi-start seed set, deduplicated: the per-type
    shortest-path profile, its benevolent descent (polling [budget]
    every step), the j-th-valid-action
    uniform profiles, and [seeds] (default 4) pseudo-random valid
    profiles from a fixed linear congruential stream.  Every start is
    valid, which descent preserves, so fixpoints are always valid
    profiles. *)

val equilibria :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  ?seeds:int ->
  ?extra:Bi_bayes.Bayesian.strategy_profile list ->
  Bi_ncs.Bayesian_ncs.t ->
  certificate list * int
(** Descend from every start (plus [extra] valid profiles, e.g. the
    branch-and-bound optimum witness), deduplicate the fixpoints and
    certify each; returns the certificates sorted by value (ascending,
    ties in discovery order) together with the number of starts tried.
    With [?pool] the starts descend on worker domains; the result is
    identical for any pool size. *)
