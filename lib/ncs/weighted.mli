(** Weighted network cost-sharing games — the variant of footnote 5
    (Albers; Chen–Roughgarden), where agent [i] carries weight [w_i] and
    pays the {e proportional} share [c(e) w_i / W_e] of each bought edge
    ([W_e] = total weight of its buyers).

    Unlike fair-sharing NCS games, weighted games are not potential
    games in general and may lack pure Nash equilibria, so equilibria
    are found by enumerating {!to_strategic}, and every equilibrium
    query returns an option.  With all weights equal this degenerates
    exactly to {!Complete} (tested). *)

open Bi_num

type t

val make : Bi_graph.Graph.t -> pairs:(int * int) array -> weights:Rat.t array -> t
(** @raise Invalid_argument on dimension mismatch, non-positive weights,
    out-of-range terminals or a disconnected pair. *)

val players : t -> int
val weight : t -> int -> Rat.t
val paths : t -> int -> int list list

val player_cost : t -> int array -> int -> Rat.t
(** Proportional-share payment of agent [i] under a path-index profile. *)

val social_cost : t -> int array -> Rat.t

val best_response : t -> int array -> int -> int
(** Exact, via a shortest-path search under the reweighted edge costs
    [c(e) w_i / (W_others(e) + w_i)]. *)

val to_strategic : t -> Bi_game.Strategic.t
(** The induced strategic-form game over path-index profiles; its
    equilibria, optimum and {!Bi_game.Anarchy} prices are this game's. *)
