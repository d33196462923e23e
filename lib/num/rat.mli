(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is positive and
    coprime with the numerator; zero is [0/1].  Exactness matters for
    this reproduction because the paper's equilibrium arguments hinge on
    strict comparisons between harmonic sums and thresholds such as
    [1 + eps] that float arithmetic would blur. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints n d] is the rational [n/d]. @raise Division_by_zero if [d = 0]. *)

val of_bigint : Bigint.t -> t

val make : Bigint.t -> Bigint.t -> t
(** [make num den]. @raise Division_by_zero if [den] is zero. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val neg : t -> t
val abs : t -> t

val sub_mul : t -> t -> t -> t
(** [sub_mul x y z] is [x - y*z] computed with a single
    canonicalization (cross-cancelled product, one terminal gcd) —
    the fused row-update step of the exact simplex pivot, where it
    runs once per tableau entry per basis change. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val sign : t -> int
val is_zero : t -> bool

val sum : t list -> t

val average : t list -> t
(** Arithmetic mean. @raise Invalid_argument on the empty list. *)

val harmonic : int -> t
(** [harmonic n] is [H(n) = 1 + 1/2 + ... + 1/n]; [harmonic 0 = zero].
    Memoized behind a domain-safe atomic prefix table — the potential
    descent and smoothness engines evaluate harmonic numbers in every
    inner loop.  @raise Invalid_argument on negative [n]. *)

val pow : t -> int -> t
(** Integer powers; negative exponents invert.
    @raise Division_by_zero on [pow zero n] with [n < 0]. *)

val to_float : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Mutable in-place accumulator for long rational sums.  The running
    value is one fraction over a common denominator: terms whose
    denominator already divides it land as a fused multiply-add on a
    {!Bigint.Acc} with no canonicalization, and reduction is deferred
    wholesale to [to_rat] — which canonicalizes through {!make}, so the
    snapshot equals the canonical result of folding {!add} term by term.
    Accumulators are single-owner scratch: not thread-safe, never
    shared across domains.  No operation retains its rational
    arguments. *)
module Acc : sig
  type rat := t
  type t

  val create : unit -> t
  (** A fresh accumulator holding zero. *)

  val clear : t -> unit
  (** Reset to zero, retaining internal buffers for reuse. *)

  val add : t -> rat -> unit
  val sub : t -> rat -> unit

  val add_mul : t -> rat -> rat -> unit
  (** [add_mul a x y] adds [x*y] into [a] without building the
      intermediate product rational. *)

  val to_rat : t -> rat
  (** Snapshot the current value as a canonical rational.  The
      accumulator is unchanged and may keep accumulating. *)
end

(** Opt-in hash-consing of recurring rationals (harmonic numbers, [j/k]
    grid values).  [intern] maps each canonical rational to one retained
    representative, so repeat producers return {e physically} equal
    values and {!compare} short-circuits without arithmetic.  Tables
    are created per solver call and threaded explicitly; [intern] is
    domain-safe (mutex-protected), so pooled descent restarts may share
    one table.  A table retains every interned value for its own
    lifetime — scope tables to a solver call, not the process. *)
module Hc : sig
  type rat := t
  type t

  val create : ?size:int -> unit -> t

  val intern : t -> rat -> rat
  (** [intern h r] is the canonical representative of [r] in [h]
      (numerically equal to [r]; physically equal across calls). *)

  val of_ints : t -> int -> int -> rat
  (** Interned {!Rat.of_ints}. *)

  val harmonic : t -> int -> rat
  (** Interned {!Rat.harmonic} — shares the process-wide memo table and
      additionally returns one physical representative per [H(n)]. *)

  val stats : t -> int * int * int
  (** [(hits, misses, size)]. *)
end
