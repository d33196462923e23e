(** Deterministic monoid map-reduce on top of {!Pool}.

    Parallel reductions are only admissible here when they are
    reproducible: partial results are stored by input index and folded in
    index order, so a reduction over a pool of any size produces results
    bit-identical to the sequential left fold — including tie-breaking,
    which the [first_*] monoids resolve exactly like a sequential
    first-wins scan.  Exact {!Bi_num.Rat} arithmetic makes the sum monoids
    associative in the mathematical sense too, but no monoid below relies
    on commutativity of scheduling. *)

open Bi_num

type 'a monoid = {
  empty : 'a;
  combine : 'a -> 'a -> 'a;  (** Must be associative. *)
}

val fold : 'a monoid -> 'a array -> 'a
(** Sequential left fold, the reference semantics of {!map_reduce}. *)

val map_reduce : Pool.t -> ?chunk:int -> monoid:'b monoid -> ('a -> 'b) -> 'a array -> 'b
(** [map_reduce pool ~monoid f xs] maps [f] over [xs] in parallel and
    combines the images left-to-right in input order. *)

val rat_sum : Rat.t monoid
val int_sum : int monoid
val both : 'a monoid -> 'b monoid -> ('a * 'b) monoid
(** Componentwise product monoid — one pass, two reductions. *)

val first_min : cmp:('v -> 'v -> int) -> ('a * 'v) option monoid
(** Keeps the element with the smallest value; on ties the {e earlier}
    (left) element wins, matching a sequential argmin with strict [<]. *)

val first_max : cmp:('v -> 'v -> int) -> ('a * 'v) option monoid
(** Dual of {!first_min}: first strict maximum wins. *)
