(** The monotonic clock behind every deadline and duration.

    Wall-clock time can step (NTP, an operator, a suspended VM), which
    would expire or stretch every deadline in flight; this clock only
    moves forward.  Readings are comparable within one process only. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin; never decreases. *)

val since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val after_ms : int -> int
(** The reading [ms] milliseconds from now.  A span too long to add
    without wrapping saturates at [max_int - 1]: a deadline that never
    passes in practice, still below [max_int]. *)
