(** The exact evaluation kernel under every NCS solver tier.

    Every cost in a network cost-sharing game is a fair share
    [c(e)/load] with [1 <= load <= k] (paths are simple, so each agent
    adds at most one to an edge's load; a deviator joins at
    [load_others + 1 <= k]).  A {!shape} is the ring-independent
    description the solvers evaluate: per-player action paths, per-type
    validity, the prior's support states and their weights.  Lowering it
    prices every edge once per possible load, into a table of shares.

    {b Lowering and the 62-bit proof.}  With [D] the common denominator
    of the edge costs, [L = lcm(1..k)] and [W] the common denominator of
    the prior weights, the scaled cost [c(e)·D·L] is an integer divisible
    by every load, and the scaled weight [w(s)·W] is an integer.  Every
    quantity the kernel sums is then an integer bounded by
    [B = W·max(1, D·L·sum_e c(e))] (the [max] covers the weight sums of
    a game whose edges are all free):
    - a per-state path share, union cost or player cost is at most
      [D·L·sum_e c(e)];
    - an interim, social or benevolent-step cost weights such terms by
      scaled weights that sum to [W];
    - a branch-and-bound node bound is a weighted sum of per-state terms
      [union(committed) + max(single, share)], and [share] never exceeds
      the uncommitted edges' total (each remaining agent's cheapest path
      costs at most her share of any valid path she could buy, and an
      edge's shares over the agents that may buy it sum to at most its
      cost);
    - slacks and deltas are differences of two such values.
    {!bound} computes [B] exactly in {!Bi_num.Bigint}; {!lower} picks
    the [int] instance when [B <= max_int] (2{^62} - 1) and the [Rat.t]
    instance otherwise — by the bound, never by a flag.  [lcm(1..k)]
    alone passes 2{^62} at [k = 43].

    {b One evaluator, two rings.}  One functor implements the per-state
    load-vector evaluation once over an exact ring: fill, interim prices,
    the best type deviation (first strict minimum below the current
    interim cost, the generic tie-break), the equilibrium predicate,
    social cost, the benevolent step, exact margins, branch-and-bound
    node bounds and per-state column prices.  Its two instances run on
    [int] and on {!Q} ([Rat.t]).  Results leave the kernel as canonical
    rationals, so both instances answer identically.

    Checkers stay off the [int] instance: they re-derive on {!Q} or on
    the generic {!Bi_bayes.Bayesian} / {!Bi_game.Strategic} evaluation. *)

open Bi_num

type shape

val shape :
  n_edges:int ->
  cost:Rat.t array ->
  paths:int array array array ->
  valid:int list array array ->
  states:int array array ->
  weights:Rat.t array ->
  shape
(** [paths.(i).(a)] is player [i]'s action [a] as edge ids (a simple
    path); [valid.(i).(ti)] lists, ascending, the actions connecting
    type [ti]'s terminals; [states.(st)] is a support type profile with
    positive prior weight [weights.(st)].  Edge costs must be
    non-negative. *)

val states : shape -> int array array
val valid : shape -> int -> int -> int array
(** The valid actions of (player, type), ascending. *)

val bound : shape -> Bigint.t
(** [B = W·max(1, D·L·sum_e c(e))], the largest value any kernel sum can
    reach in the integer scaling (see above). *)

(** An exact ring with the two vector sums the kernel's inner loops
    run. *)
module type RING = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div_int : t -> int -> t
  (** Exact: the lowering only divides scaled costs by loads. *)

  val compare : t -> t -> int
  val of_rat : Rat.t -> t
  (** Exact embedding of a lowered (scaled) rational. *)

  val to_rat : t -> Rat.t

  val ceil_of_rat : Rat.t -> t option
  (** The least ring value [>=] the rational, when representable. *)

  val sum_at : t array -> int -> int array -> int -> int array -> t
  (** [sum_at table stride idx d es] is the sum over [e] in [es] of
      [table.(e * stride + idx.(e) + d)]. *)

  val sum_loaded : t array -> int -> int array -> int array -> t
  (** [sum_loaded table stride idx es] is the sum over [e] in [es] with
      [idx.(e) > 0] of [table.(e * stride + 1)]. *)
end

type move = int * int * int
(** (player, type, action). *)

module type S = sig
  type num
  type game

  val name : string
  (** ["int"] or ["rat"]. *)

  val compare : num -> num -> int

  val social_rat : game -> num -> Rat.t
  (** A weighted (social, interim-sum, bound) value as a rational. *)

  val state_rat : game -> num -> Rat.t
  (** An unweighted per-state value as a rational. *)

  (** {2 Strategy profiles} (player -> type -> action) *)

  type scratch

  val scratch : game -> scratch
  (** One load vector per support state; owned by one domain. *)

  val fill : game -> scratch -> int array array -> bool
  (** Load every support state with the profile's realized paths;
      [false] when some realized action does not connect its type. *)

  val move : game -> scratch -> int array array -> move -> unit
  (** Play [move] in the profile and the filled loads. *)

  val interim_rat : game -> int -> int -> num -> Rat.t
  (** An unnormalized interim price of (player, type) — the value
      {!best_deviation} returns — as the interim cost it stands for. *)

  val best_deviation :
    game -> scratch -> int array array -> int -> int -> (int * num) option
  (** Filled loads: the cheapest valid action strictly below the current
      unnormalized interim price of (player, type), first in index order
      on ties, with its price; an invalid current action prices at
      infinity.  [None] for a type no support state realizes.  Loads are
      restored. *)

  val is_equilibrium : game -> scratch -> int array array -> bool
  (** Filled loads: no (player, type) holds a strictly improving valid
      deviation. *)

  val social_cost : game -> scratch -> num
  (** Filled loads: the prior-weighted union cost. *)

  val union_at : game -> scratch -> int -> num
  (** Filled loads: the union cost of one support state. *)

  val step : game -> scratch -> int array array -> move option
  (** Filled loads: the first (player, type) in index order holding a
      strictly improving deviation, with its {!best_deviation}. *)

  val benevolent :
    ?budget:Bi_engine.Budget.t -> game -> int array array -> int array array
  (** Benevolent descent from a valid profile (a fresh copy): repeatedly
      make the single (player, type, action) change that most decreases
      the social cost, first in index order on ties, until none does or
      [100_000] moves ran out; [budget] is polled every step.
      @raise Invalid_argument on an invalid profile. *)

  val margins :
    game ->
    scratch ->
    int array array ->
    ((int * int * int * int * Rat.t) list, int * int) result
  (** Filled loads: [(player, type, action, alternative, slack)] for
      every valid alternative in canonical order, the slack being the
      exact interim-cost difference [interim(alt) - interim(action)];
      [Error (player, type)] at the first realized type whose action is
      invalid (infinite interim cost). *)

  (** {2 Branch and bound} *)

  type node

  val node : game -> node
  (** Committed loads per support state, plus bound scratch. *)

  val commit : game -> node -> int -> int -> int -> unit
  val uncommit : game -> node -> int -> int -> int -> unit

  val bound : game -> node -> (int * int) array -> int -> num
  (** Lower bound at a node whose variables [vars.(0 .. depth - 1)] are
      committed: per state, the committed union plus the larger of the
      {e single} and {e share} relaxations over the remaining realized
      (player, type) variables, prior-weighted. *)

  val leaf : game -> node -> num
  (** The prior-weighted union cost of the committed loads. *)

  val ceil_social : game -> Rat.t -> num option
  (** The least ring value [>=] a social cost, or [None] when it exceeds
      every value a kernel sum can take. *)

  (** {2 Per-state action profiles} (player -> action) *)

  val column : game -> int array -> int -> int array -> num * num array array
  (** [column g load st a]: the union cost of action profile [a] at
      support state [st], and for every player [i] the deltas
      [C_i(a) - C_i(alt, a_-i)] over [valid i st.(i)] in order.  [load]
      is edge-sized scratch. *)
end

module Q : S with type num = Rat.t

type packed = Packed : (module S with type game = 'g) * 'g -> packed

val lower : shape -> packed
(** The [int] instance when [bound <= max_int], else {!Q}. *)

val lower_rat : shape -> Q.game
(** The unscaled {!Q} lowering: what the checkers and oracles use. *)

val instance : packed -> string
(** ["int"] or ["rat"]. *)
