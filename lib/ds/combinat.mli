(** Combinatorial enumeration helpers shared by the game solvers.

    The equilibrium computations enumerate action/strategy profiles
    exhaustively, so products and function spaces over small finite sets
    are the workhorses here.  Enumerations are returned as [Seq.t] to
    keep memory flat while scanning astronomically-shaped spaces whose
    search is cut short. *)

val product : 'a list list -> 'a list Seq.t
(** Cartesian product; [product [xs1; ...; xsk]] enumerates all
    [[x1; ...; xk]] with [xi] drawn from [xsi], in lexicographic order. *)

val product_arrays : 'a array array -> 'a array Seq.t
(** Same over arrays: each emitted array is fresh. *)

val functions : dom:int -> 'a array -> 'a array Seq.t
(** [functions ~dom codom] enumerates all maps [0..dom-1 -> codom],
    represented as arrays of length [dom]. *)

val subsets : 'a list -> 'a list Seq.t
(** All sublists, in mask order ([2^n] of them). *)

val combinations : 'a list -> int -> 'a list Seq.t
(** All size-[k] sublists. *)

val permutations : 'a list -> 'a list Seq.t
(** All permutations (use only on short lists). *)

val argmin : ('a -> 'b) -> cmp:('b -> 'b -> int) -> 'a Seq.t -> ('a * 'b) option
val argmax : ('a -> 'b) -> cmp:('b -> 'b -> int) -> 'a Seq.t -> ('a * 'b) option

val range : int -> int list
(** [range n] is [[0; 1; ...; n-1]]. *)

