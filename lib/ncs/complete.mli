(** Complete-information network cost-sharing games (Anshelevich et al.).

    A game is a graph with edge costs and one (source, destination) pair
    per agent.  An agent buys a set of edges; she pays, for each bought
    edge, its cost divided by the number of buyers, and incurs infinite
    cost unless her purchase connects her pair.

    Buying any superset of a path is weakly dominated by buying the path
    alone (payments are monotone in the bought set and the social cost is
    the union cost), so solvers work over the finite space of simple
    paths.  With this reduction optima, equilibria and the Rosenthal
    potential are all computed exactly.  The exhaustive solvers price
    profiles through {!Kernel}, lowering the game once at {!make} as a
    one-state, one-type game. *)

open Bi_num

type t

val make : Bi_graph.Graph.t -> (int * int) array -> t
(** [make g pairs]: [pairs.(i)] is agent [i]'s (source, destination).
    @raise Invalid_argument on empty [pairs] or out-of-range vertices. *)

val graph : t -> Bi_graph.Graph.t
val players : t -> int
val pairs : t -> (int * int) array

val paths : t -> int -> int list list
(** Agent [i]'s action space: all simple paths between her terminals
    (the empty path when source = destination).  Memoized. *)

(** A profile assigns each agent an index into her [paths] list. *)

val action_edges : t -> int array -> int -> int list
val loads : t -> int array -> int array
(** Edge id -> number of agents whose path uses it. *)

val player_cost : t -> int array -> int -> Rat.t
(** Priced from scratch: the reference definition the tests hold the
    kernel to. *)

val social_cost : t -> int array -> Rat.t
(** Total cost of the union of bought edges (the paper's [K_t]), priced
    through the evaluation kernel like every solver of this module. *)

val potential : t -> int array -> Rat.t
(** Rosenthal potential [sum_e c(e) * H(load(e))], priced from
    scratch. *)

val to_strategic : t -> Bi_game.Strategic.t

val profile_space : t -> int array Seq.t
(** Every path profile, in the lexicographic order the exhaustive
    solvers scan. *)

val profile_count : t -> float
(** Size of {!profile_space} as a float (it overflows an int exactly
    when it matters).  The certified tier's [auto] mode compares this
    against its enumeration threshold to pick a solver. *)

val optimum :
  ?pool:Bi_engine.Pool.t -> ?budget:Bi_engine.Budget.t -> t -> Rat.t * int array
(** Social optimum over path profiles, by exhaustive product search.
    With [?pool], the profile space is sharded by agent 0's path index
    and searched in parallel; the result (value and witnessing profile)
    is identical to the sequential scan for any pool size.  With
    [?budget], the scan polls the deadline between profiles and raises
    {!Bi_engine.Budget.Expired} past it. *)

val optimum_rooted : t -> Extended.t option
(** Exact optimum via the Steiner subset-DP when all agents share a
    common source vertex (covers every construction in the paper);
    [None] when sources differ.  Much faster than {!optimum} and used to
    cross-check it. *)

val best_response : t -> int array -> int -> int
(** Index (into agent [i]'s path list) of her exact best response to the
    others' paths, computed by a shortest-path search under shared-cost
    edge weights [c(e) / (load_others(e) + 1)] — no enumeration. *)

val is_nash : t -> int array -> bool
val nash_equilibria : t -> int array Seq.t

val best_equilibrium :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  t ->
  (Rat.t * int array) option

val worst_equilibrium :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  t ->
  (Rat.t * int array) option
(** Extreme Nash equilibria; parallel over leading-strategy shards when
    [?pool] is given, deterministically (first-wins tie-breaking matches
    the sequential enumeration); deadline-polled when [?budget] is
    given, as in {!optimum}. *)

val equilibrium_by_dynamics : ?max_steps:int -> t -> int array -> int array option
(** Iterated exact best responses; the Rosenthal potential strictly
    decreases at every move, so this reaches a Nash equilibrium (or
    gives up after [max_steps], default [100_000]). *)

val price_of_stability_bound_holds : ?pool:Bi_engine.Pool.t -> t -> bool
(** Checks [best-eq <= H(k) * opt] (Anshelevich et al., used by the
    paper's Lemma 3.8 in its complete-information form). *)
