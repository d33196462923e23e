(** Elapsed-time and allocation section timing.

    One shared stopwatch for everything that reports elapsed time — the
    bench harness sections and the CLI construction runs — so durations
    are measured (on the monotonic {!Clock}) and formatted the same way
    everywhere.  Alongside elapsed seconds, a span records the GC's minor- and major-heap
    words allocated while it ran, which is how the bench footers show
    that a cache hit eliminates allocation and not just time.

    Allocation counters come from [Gc.quick_stat] and account for the
    {e calling} domain only; work sharded onto pool workers allocates in
    their domains and is not included. *)

type t

type span = {
  seconds : float;  (** Elapsed seconds. *)
  minor_words : float;  (** Words allocated in the minor heap. *)
  major_words : float;  (** Words allocated in the major heap. *)
}

val start : unit -> t

val elapsed : t -> float
(** Seconds elapsed since [start]. *)

val span : t -> span
(** Elapsed seconds and words allocated since [start]. *)

val timed : (unit -> 'a) -> 'a * span
(** [timed f] runs [f ()] and returns its result with the elapsed
    seconds and allocated words it took.  Exceptions from [f] propagate. *)

val pp_seconds : Format.formatter -> float -> unit
(** Renders a duration as [12.34s]. *)

val pp_span : Format.formatter -> span -> unit
(** Renders [12.34s, 1.23Gw minor + 4.56Mw major]. *)
