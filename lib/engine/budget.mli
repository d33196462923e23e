(** Cooperative time budgets for the solvers.

    A budget is an absolute deadline on the monotonic {!Clock}, polled
    from inside solver loops:
    {!check} increments a counter and compares the clock only once per
    [2^8] calls, so enforcement costs one [land] and one branch per
    profile instead of a syscall.  When the deadline passes, {!check}
    raises {!Expired}; the solvers let it propagate (the domain pool
    re-raises the first worker exception in the caller), so a budgeted
    [analyze] either returns a complete exact answer or fails fast —
    never a partial result.

    Budgets are shared freely across pool workers.  The poll counter is
    updated without synchronization: a lost increment merely delays the
    next clock poll by a few iterations, which is harmless. *)

type t

exception Expired
(** Raised by {!check} once the deadline has passed. *)

val unlimited : t
(** Never expires; {!check} is a single branch. *)

val of_timeout_ms : int -> t
(** [of_timeout_ms ms] expires [ms] milliseconds from now.  A timeout
    too long for the clock (e.g. [max_int]) saturates: the budget stays
    limited but does not expire.
    @raise Invalid_argument when [ms <= 0]. *)

val is_limited : t -> bool
(** [false] only for {!unlimited}. *)

val check : t -> unit
(** Cheap poll: raises {!Expired} when the deadline has passed.  Only
    every 256th call consults the clock. *)

val polls : t -> int
(** How many times {!check} ran on a limited budget (approximate when
    domains share it); zero for {!unlimited}. *)

val expired : t -> bool
(** Consults the clock immediately (no counter); never raises. *)

val remaining_ms : t -> int option
(** Milliseconds until the deadline, clamped at 0; [None] when
    unlimited. *)
