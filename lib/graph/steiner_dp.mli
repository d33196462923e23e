(** Exact Steiner connectivity costs via the Dreyfus–Wagner dynamic
    program over terminal subsets.

    The complete-information optimum of an NCS game with a shared source
    (which covers every construction in the paper) is exactly the cost of
    a minimum Steiner tree — or, on directed graphs, a minimum
    out-arborescence — rooted at the source and covering the
    destinations.  The same recurrence handles both cases when run over
    one-directional shortest-path distances.

    Each terminal's distance row and each subset's grow step is one
    Dijkstra over the reversed edges, so for [t] terminals on [n]
    vertices and [m] edges the time is [O(3^t n + 2^t (n + m) log n)]
    and the memory [O(2^t n + m)]: no all-pairs table, so a game on a
    large sparse graph costs what its size says. *)

val steiner_cost : Graph.t -> root:int -> terminals:int list -> Bi_num.Extended.t
(** Minimum cost of a subgraph containing, for every terminal [t], a
    path from [root] to [t].  On an undirected graph this is the minimum
    Steiner tree spanning [root :: terminals].  [Inf] when some terminal
    is unreachable.  Terminals may repeat and may include the root.
    @raise Invalid_argument when more than 20 distinct terminals are
    given (subset-DP blowup guard). *)

val steiner_mst_approx : Graph.t -> terminals:int list -> (int list * Bi_num.Rat.t) option
(** The classical 2-approximation on undirected graphs: MST of the
    metric closure of the terminals, expanded back to graph edges.
    Returns the edge ids and their total cost; [None] when the terminals
    are not mutually connected.
    @raise Invalid_argument on a directed graph or empty terminal list. *)
