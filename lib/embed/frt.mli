(** Random hierarchical tree embeddings in the style of
    Fakcharoenphol–Rao–Talwar (FRT), the engine behind the paper's
    Lemma 3.4 (the [O(log n)] universal bound on [optP/optC] in
    undirected graphs).

    [sample] draws a dominating tree for the shortest-path metric of a
    connected undirected graph: a laminar family of clusters obtained by
    cutting balls of geometrically decreasing radii around a random
    permutation of the vertices.  Tree nodes are clusters; each cluster
    is labelled with a {e center} vertex, leaves are singletons centered
    on their vertex, and a tree edge weighs the graph distance between
    the two centers — so tree distances dominate graph distances by the
    triangle inequality along the center path, while the FRT level radii
    (which upper-bound those center distances) keep the expected stretch
    [E[d_T(u,v)] / d_G(u,v)] at [O(log n)] — measured, not proved, in
    this reproduction (see DESIGN.md).

    The Lemma 3.4 strategy profile buys, for tree path
    [u = c_0, c_1, ..., c_m = v], a designated graph shortest path
    between each pair of consecutive centers; {!expand_pair} returns
    that edge set. *)

open Bi_num

type t

val sample : Random.State.t -> Bi_graph.Graph.t -> t
(** @raise Invalid_argument on directed, empty or disconnected input. *)

val leaf_of_vertex : t -> int -> int
val center : t -> int -> int
(** Center (graph vertex) of a tree node's cluster. *)

val parent : t -> int -> (int * Rat.t) option
(** Parent node and edge weight; [None] at the root. *)

val tree_distance : t -> int -> int -> Rat.t
(** Distance in the tree between the leaves of two graph vertices. *)

val dominates : t -> Bi_graph.Graph.t -> bool
(** Whether [tree_distance u v >= d_G(u, v)] for all vertex pairs (it
    always should; exposed for tests). *)

val center_path : t -> int -> int -> int list
(** Graph vertices: centers along the tree path between two leaves,
    deduplicated, starting at the first vertex and ending at the second. *)

val expand_pair : t -> Bi_graph.Graph.t -> int -> int -> int list
(** Edge ids of the union of designated shortest paths along
    {!center_path} — the purchase Lemma 3.4's strategy makes for an
    agent typed [(u, v)]. *)

val stretch : t -> Bi_graph.Graph.t -> int -> int -> Rat.t option
(** [tree_distance u v / d_G(u, v)]; [None] when [u = v]. *)

val average_stretch : t -> Bi_graph.Graph.t -> Rat.t
(** Mean stretch over all vertex pairs at positive distance. *)
