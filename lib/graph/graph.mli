(** Weighted multigraphs with exact rational edge costs.

    Vertices are integers [0 .. n-1]; edges carry dense integer
    identifiers so that NCS actions (edge subsets) can be represented as
    sorted id lists and shared-cost payments can be tabulated in arrays.
    A graph is immutable once built.

    Undirected graphs store each edge once; traversal sees it in both
    directions.  Directed graphs traverse [src -> dst] only.

    Building a graph validates and stores its edges, nothing more.  The
    costs are kept as reduced pairs of machine integers when every one
    fits ({!int_costs}), and as rationals otherwise.  The costs as
    rationals ({!cost}), the edge records ({!edges}, {!edge}) and the
    adjacency lists that traversals read ({!succ}, shortest paths,
    {!reachable}) are derived on first use, once per graph, and are
    safe to derive from several domains at once.  So a graph that is
    only fingerprinted never builds a rational or a record. *)

open Bi_num

type kind =
  | Directed
  | Undirected

type edge = private {
  id : int;
  src : int;
  dst : int;
  cost : Rat.t;
}

type t

val make : kind -> n:int -> (int * int * Rat.t) list -> t
(** [make kind ~n edges] builds a graph on vertices [0..n-1]; edge ids
    follow list order.
    @raise Invalid_argument on a negative [n], then on the first edge
    with an out-of-range endpoint or a negative cost. *)

val of_arrays :
  kind -> n:int -> src:int array -> dst:int array -> costs:Rat.t array -> t
(** [of_arrays kind ~n ~src ~dst ~costs] is [make kind ~n] of the edges
    [(src.(i), dst.(i), costs.(i))] in index order, with the same checks
    and messages.  The arrays become the graph's store without a copy,
    so the caller must not modify them afterwards.
    @raise Invalid_argument also when the lengths differ. *)

val of_int_costs :
  kind -> n:int -> src:int array -> dst:int array -> num:int array -> den:int array -> t
(** [of_int_costs kind ~n ~src ~dst ~num ~den] is {!of_arrays} with the
    cost of edge [i] given as [num.(i) / den.(i)], in any sign and not
    necessarily reduced: the same checks and messages, and the same
    graph.  [num] and [den] become the graph's store, reduced in place,
    so the caller must not use them afterwards.
    @raise Division_by_zero on a zero denominator, and
    [Invalid_argument] on a [min_int] numerator or denominator. *)

val kind : t -> kind
val is_directed : t -> bool
val n_vertices : t -> int
val n_edges : t -> int
val edges : t -> edge list
val edge : t -> int -> edge
(** Edge by id. @raise Invalid_argument on bad id. *)

val edge_src : t -> int -> int
val edge_dst : t -> int -> int

val cost : t -> int -> Rat.t
(** Endpoints and cost of an edge id, read from the store: unlike
    {!edge}, these never derive the edge records ([cost] derives the
    costs as rationals, once per graph, when they are kept as
    integers).
    @raise Invalid_argument on bad id. *)

val int_costs : t -> (int array * int array) option
(** [Some (num, den)] when the graph keeps every cost as machine
    integers: the cost of edge [id] is [num.(id) / den.(id)], reduced,
    with [den.(id) > 0].  The arrays are the graph's store and must not
    be modified.  [None] when some cost does not fit. *)

val total_cost : t -> int list -> Rat.t
(** Sum of costs of the given edge ids (duplicates counted once). *)

val succ : t -> int -> (edge * int) list
(** [succ g v] lists [(e, w)] for edges leaving [v] toward [w]; in an
    undirected graph both orientations are reported. *)

val other_endpoint : t -> edge -> int -> int
(** The endpoint of [e] that is not [v]. @raise Invalid_argument if [v]
    is not an endpoint. *)

(** {1 Shortest paths} *)

val dijkstra : t -> int -> Extended.t array * int option array
(** [dijkstra g s] is [(dist, pred)]: exact distances from [s], and for
    each reached vertex the id of the edge used to reach it. *)

val distance : t -> int -> int -> Extended.t

val shortest_path : t -> int -> int -> int list option
(** Edge ids of a shortest path, in order from source to destination;
    [None] if unreachable.  [Some []] when source equals destination. *)

val bellman_ford : t -> int -> Extended.t array
(** Reference implementation used as a test oracle for {!dijkstra}. *)

val all_pairs_distances : t -> Extended.t array array

(** {1 Structure} *)

val path_endpoints : t -> int list -> (int * int) option
(** For a nonempty list of edge ids forming a walk, its endpoints
    [(first_src, last_dst)] under the orientation implied by chaining;
    [None] when the ids do not chain into a walk.  Undirected edges may
    be traversed in either direction. *)

val is_path_between : t -> int list -> int -> int -> bool
(** Whether the edge ids contain a walk from [u] to [v] (in particular
    [u = v] holds with any edge set, matching the NCS convention that an
    agent with identical terminals needs to buy nothing). *)

val reachable : t -> via:int list -> int -> int -> bool
(** Connectivity from [u] to [v] using only the listed edge ids. *)

val connected_components : t -> int list list
(** Components ignoring edge direction. *)

val minimum_spanning_tree : t -> int list * Rat.t
(** Kruskal on an undirected graph (a minimum spanning forest when
    disconnected): edge ids and their total cost.
    @raise Invalid_argument on a directed graph. *)

val pp : Format.formatter -> t -> unit
