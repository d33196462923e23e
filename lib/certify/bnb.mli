(** Branch and bound for [optP] with an optimality certificate.

    The search branches over the positive-marginal (agent, type)
    variables in decreasing-marginal order, assigning each a valid
    action (a path).  A node's lower bound is, per support state, the
    cost of the union of edges already committed in that state plus a
    per-player shortest-path relaxation over the remaining realized
    agents, taken as the larger of two admissible terms:

    - {b single}: the largest, over remaining agents, of the cheapest
      valid path priced only on uncommitted edges — any completion
      must buy that agent some path, and its uncommitted edges are new;
    - {b share}: the sum, over remaining agents, of the cheapest valid
      path priced at [c(e) / m(e)] on uncommitted edges, where [m(e)]
      counts the remaining agents with any valid path through [e] — in
      any completion an edge's cost splits across at most [m(e)]
      buyers, so summing per-agent fractional shares never overcounts.

    Both relaxations range over the game's enumerated simple-path
    action sets, i.e. they are shortest-path computations in the
    committed-edges-discounted metric.  The search prices nodes in the
    game's evaluation kernel ({!Bi_ncs.Bayesian_ncs.kernel}); the replay
    in {!check} prices them on the kernel's unscaled [Rat] instance and
    recomputes the witness's cost through the generic game.

    A closed search emits a {!certificate}: the incumbent witness plus
    a ledger recording, for every pruned node, its prefix and the bound
    that closed it.  {!check} replays the tree from scratch — expanding
    exactly where the search expanded, recomputing every ledger bound
    and requiring it to match and to dominate the claimed value, and
    requiring every leaf to weakly exceed it — so a tampered value,
    witness, or ledger entry is rejected, and a passing replay proves
    the claimed value is the exact optimum. *)

open Bi_num

type certificate = {
  profile : Bi_bayes.Bayesian.strategy_profile;  (** optimum witness *)
  value : Extended.t;  (** social cost of [profile]; the certified optimum *)
  variables : (int * int) array;  (** branching order over (player, type) *)
  ledger : (int array * Rat.t) list;
      (** pruned prefixes (actions for [variables.(0..len-1)]) with the
          recorded closing bound *)
  nodes : int;  (** nodes the search expanded *)
}

type outcome = {
  value : Extended.t;
      (** best social cost found; the exact optimum iff [certificate]
          is present, otherwise an upper bound on it *)
  profile : Bi_bayes.Bayesian.strategy_profile;
  certificate : certificate option;
      (** [None] exactly when [node_budget] ran out first *)
  lower : Extended.t;  (** the root lower bound; always sound *)
  nodes : int;
}

val optimum :
  ?budget:Bi_engine.Budget.t ->
  ?node_budget:int ->
  ?incumbent:Extended.t * Bi_bayes.Bayesian.strategy_profile ->
  Bi_ncs.Bayesian_ncs.t ->
  outcome
(** Depth-first search seeded with [incumbent] (default: the benevolent
    descent of the shortest-path profile — any sound upper bound with a
    valid witness works, and a tight seed is what keeps the tree small).
    Polls [budget] at every node and lets {!Bi_engine.Budget.Expired}
    escape; stops branching after [node_budget] nodes (default
    [5_000_000]), in which case no certificate is produced and [value]
    is only an upper bound. *)

val root_lower : Bi_ncs.Bayesian_ncs.t -> Extended.t
(** The root relaxation on its own — the sound [optP] lower bound an
    exhausted budget leaves behind, recomputable by anyone. *)


val check : Bi_ncs.Bayesian_ncs.t -> certificate -> (unit, string) result
(** Replay the certified tree (see above).  The replay recomputes the
    branching order, the witness's social cost and every ledger bound
    with the same public game description the search used, and is
    capped at ten times the certificate's node count so a malicious
    certificate cannot make the checker run unboundedly. *)
