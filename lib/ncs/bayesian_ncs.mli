(** Bayesian network cost-sharing games (Section 2 of the paper).

    A Bayesian NCS game is a graph with edge costs plus a common prior
    over arrays of (source, destination) pairs — one pair per agent.
    Each agent learns her own pair (her type) and buys an edge set; cost
    sharing is as in {!Complete}.

    The lowering into {!Bi_bayes.Bayesian} uses, for agent [i]:
    - types: the distinct pairs agent [i] receives in the prior support;
    - actions: the union of all simple paths between any of her possible
      pairs (a path is {e valid} for a type when it connects that type's
      terminals; invalid purchases cost infinity).

    Equilibria and optima are attained at valid strategy profiles, so the
    solvers enumerate only those; the full action space remains available
    to deviation checks, which is what makes the equilibrium predicate
    exact. *)

open Bi_num

type t

val make : Bi_graph.Graph.t -> prior:(int * int) array Bi_prob.Dist.t -> t
(** @raise Invalid_argument when support arrays disagree on the number
    of agents, mention out-of-range vertices, or leave some agent with a
    type admitting no connecting path. *)

val graph : t -> Bi_graph.Graph.t
val players : t -> int
val game : t -> Bi_bayes.Bayesian.t
(** The lowered general Bayesian game. *)

val prior : t -> (int * int) array Bi_prob.Dist.t
(** The common prior over (source, destination) pair profiles the game
    was built from — the description half that, together with {!graph},
    determines every quantity this library computes (and hence the
    game's cache fingerprint). *)

val types : t -> int -> (int * int) array
(** Agent [i]'s type table (type index -> pair). *)

val actions : t -> int -> int list array
(** Agent [i]'s action table (action index -> path as edge ids). *)

val valid_actions : t -> int -> int -> int list
(** Action indices valid for agent [i] at type [ti]. *)

val state_action_profiles : t -> int array -> int array Seq.t
(** [state_action_profiles g t] enumerates the action profiles valid at
    type profile [t] (agent [i] restricted to [valid_actions g i
    t.(i)]), lexicographically.  These are the per-state column blocks
    of the correlated-play LPs; invalid actions are excluded because
    they cost infinity and can never carry mass in a finite-cost joint
    distribution.
    @raise Invalid_argument when [t] has the wrong length. *)

val shape : t -> Kernel.shape
(** The solvers' view of the game: action paths as edge arrays, per-type
    validity, the prior's support states (in {!Bi_prob.Dist} order of the
    lowered prior) and their weights. *)

val kernel : t -> Kernel.packed
(** {!shape} lowered once, at {!make}, into the evaluation kernel: the
    [int] instance when the 62-bit bound holds, else the [Rat] one.
    Every solver tier prices profiles through it. *)

val complete_game : t -> (int * int) array -> Complete.t
(** The underlying complete-information NCS game for a pair profile;
    memoized. *)

val valid_profile_count : t -> float
(** Number of valid strategy profiles (the space the exhaustive solvers
    scan), as a float — it overflows an int exactly when enumeration is
    infeasible.  The certified tier's [auto] mode compares this against
    its threshold to choose between exhaustion and certification. *)

val valid_strategy_profiles : t -> Bi_bayes.Bayesian.strategy_profile Seq.t

val bayesian_equilibria : t -> Bi_bayes.Bayesian.strategy_profile Seq.t
(** All pure Bayesian equilibria (search restricted to valid profiles,
    which is exact — see above). *)

val social_cost : t -> Bi_bayes.Bayesian.strategy_profile -> Extended.t
(** Through the kernel; infinite when a realized type plays an action
    that does not connect its terminals. *)

val bayesian_potential : t -> Bi_bayes.Bayesian.strategy_profile -> Rat.t
(** [E_p[sum_e c(e) H(load_e)]] — the Bayesian potential of
    Observation 2.1 instantiated with the Rosenthal potential, priced
    from scratch through the generic game (an oracle, not a solver
    path). *)

val equilibrium_by_dynamics :
  ?max_steps:int -> t -> Bi_bayes.Bayesian.strategy_profile option
(** Bayesian best-response dynamics started from everyone's
    per-type shortest path; converges by the Bayesian potential. *)

val shortest_path_profile : t -> Bi_bayes.Bayesian.strategy_profile
(** The profile where each agent buys a shortest path for each type. *)

val measures_exhaustive : ?pool:Bi_engine.Pool.t -> t -> Bi_bayes.Measures.report
(** All six quantities; partial-information side by exhaustive valid
    enumeration, complete-information side by per-type-profile search.
    Exponential in all directions — small instances only.  With [?pool],
    every enumeration is sharded by the leading agent's strategy and run
    across worker domains; results (including tie-breaking on the
    witnessing profiles) are identical for any pool size, and the best
    and worst Bayesian equilibria are found in one fused sweep. *)

type analysis = {
  report : Bi_bayes.Measures.report;
  opt_p_witness : Bi_bayes.Bayesian.strategy_profile;
  best_eq_p_witness : Bi_bayes.Bayesian.strategy_profile option;
  worst_eq_p_witness : Bi_bayes.Bayesian.strategy_profile option;
}
(** A full ignorance report with the witnessing strategy profiles of the
    partial-information extrema — the unit held by the result cache.
    Witness indices refer to this build's type/action enumeration order;
    the values are representation-independent. *)

val analyze :
  ?pool:Bi_engine.Pool.t -> ?budget:Bi_engine.Budget.t -> t -> analysis
(** {!measures_exhaustive} plus the witness profiles, at the same cost
    (the exhaustive sweeps already track the witnesses).  With
    [?budget], every exhaustive sweep polls the deadline between
    profiles and the whole call raises {!Bi_engine.Budget.Expired} once
    it passes — an analysis is always either complete and exact or
    failed fast, never partial. *)

val opt_c :
  ?pool:Bi_engine.Pool.t -> ?budget:Bi_engine.Budget.t -> t -> Extended.t

val best_eq_c :
  ?pool:Bi_engine.Pool.t -> ?budget:Bi_engine.Budget.t -> t -> Extended.t option

val worst_eq_c :
  ?pool:Bi_engine.Pool.t -> ?budget:Bi_engine.Budget.t -> t -> Extended.t option

val opt_p_exhaustive :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  t ->
  Extended.t * Bi_bayes.Bayesian.strategy_profile

val best_eq_p :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  t ->
  (Extended.t * Bi_bayes.Bayesian.strategy_profile) option

val worst_eq_p :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  t ->
  (Extended.t * Bi_bayes.Bayesian.strategy_profile) option

val lemma_3_1_bound_holds : ?pool:Bi_engine.Pool.t -> t -> bool
(** Universal bound [worst-eqP <= k * optC] (Lemma 3.1); vacuously true
    when no pure Bayesian equilibrium exists. *)

val lemma_3_8_bound_holds : ?pool:Bi_engine.Pool.t -> t -> bool
(** Universal bound [best-eqP <= H(k) * optP] (Lemma 3.8). *)
