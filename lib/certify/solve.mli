(** The certified solver tier: every Bayesian-ignorance quantity as an
    exact interval bracket carried by machine-checkable certificates.

    {!certify} runs the three engines and assembles, for each of the six
    P/C quantities, a bracket [lo <= value <= hi] in exact arithmetic:

    - [optP]: {!Bnb.optimum} — a closed search gives [lo = hi] with an
      optimality certificate; an exhausted node budget degrades to
      [lo] the root relaxation, [hi] the incumbent.
    - [best-eqP], [worst-eqP]: every {!Descent} fixpoint is an
      equilibrium witness, so the best witness upper-bounds [best-eqP]
      and the worst lower-bounds [worst-eqP]; {!Smooth} closes the other
      sides with [best-eqP <= H(k) optP] and [worst-eqP <= k optP]
      (both sound for any common prior), while [optP]'s lower bound
      floors everything — network cost-sharing games always possess a
      pure (Bayesian) equilibrium, so the brackets are unconditional.
    - The C-side quantities are prior-weighted sums of the same
      brackets on the per-support-state complete-information games
      (each lowered as a point-prior Bayesian game and fed to the same
      engines).

    {!check} re-verifies the whole bundle from the game description
    alone: every equilibrium and optimality certificate replays, the
    smoothness and potential factors re-verify over the load grid, the
    support-state decomposition is confirmed against the prior, and all
    six brackets are re-derived and compared field by field. *)

open Bi_num

type bracket = { lo : Extended.t; hi : Extended.t }

type state_solution = {
  pairs : (int * int) array;  (** the support state *)
  weight : Rat.t;  (** its prior mass *)
  opt : Bnb.outcome;
  equilibria : Descent.certificate list;  (** value-ascending *)
}

type certified = {
  players : int;
  smoothness : Smooth.smoothness;
  potential : Smooth.potential_bracket;
  opt_p : Bnb.outcome;
  eq_p : Descent.certificate list;  (** value-ascending, distinct *)
  descent_starts : int;
  states : state_solution list;  (** in prior support order *)
  opt_p_bracket : bracket;
  best_eq_p : bracket;
  worst_eq_p : bracket;
  opt_c : bracket;
  best_eq_c : bracket;
  worst_eq_c : bracket;
}

val certify :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  ?seeds:int ->
  ?node_budget:int ->
  Bi_ncs.Bayesian_ncs.t ->
  certified
(** Run the certified tier.  Descent seeds branch and bound with its
    best equilibrium; the optimum witness is descended in turn so the
    equilibrium set sees the optimum's basin.  [?pool] shards the
    descent starts; [?budget] is polled throughout and
    {!Bi_engine.Budget.Expired} escapes; [?seeds] and [?node_budget]
    are passed to {!Descent.starts} and {!Bnb.optimum}. *)

val check : Bi_ncs.Bayesian_ncs.t -> certified -> (unit, string) result
(** Full independent verification, see above.  [Ok ()] means every
    bracket is a proven statement about [g]. *)

val report : certified -> Bi_bayes.Measures.report
(** Point estimates in the exhaustive tier's shape, for cross-checks
    and caching: [optP]/[optC] are the brackets' upper ends (exact when
    branch and bound closed), the equilibrium quantities are the
    attained witness values (falling back to the analytic end when a
    side has no witness, which the potential argument makes
    unreachable in practice). *)

val to_json : certified -> Bi_engine.Sink.json
(** The six brackets (exact rationals as strings, ["inf"] for the
    infinite end) plus engine counters — the payload served and cached
    for certified-tier queries. *)
