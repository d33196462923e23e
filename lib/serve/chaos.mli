(** Deterministic fault injection for the analysis server.

    A chaos configuration gives independent probabilities for four
    faults: delaying a response ([delay_p], by [delay_ms]), dropping
    the connection instead of answering ([drop_p]), truncating the
    response line mid-write ([truncate_p]), and corrupting a store
    line before it hits the disk ([corrupt_store_p], installed through
    {!Bi_cache.Store.set_write_fault}).  All decisions come from a
    counter-keyed splitmix64 stream seeded by [seed], so a given
    configuration misbehaves identically run after run — the soak
    harness and CI rely on that reproducibility.

    The disabled configuration is free: every decision short-circuits
    without touching the RNG. *)

type config = {
  seed : int;
  delay_p : float;  (** Probability a response is delayed. *)
  delay_ms : int;  (** Added latency when it is. *)
  drop_p : float;  (** Probability the connection is dropped unanswered. *)
  truncate_p : float;  (** Probability the response line is cut short. *)
  corrupt_store_p : float;  (** Probability an appended store line is mangled. *)
  partition_p : float;
      (** Probability a request line opens a partition window: that
          line and every line in the next [partition_ms], on any
          connection new or old, are hung up on without an answer — the
          whole-node partition fault. *)
  partition_ms : int;  (** Partition window length (default 1000). *)
  slow_p : float;
      (** Probability a request line is stalled [slow_ms] before it is
          handled — the slow-peer fault. *)
  slow_ms : int;  (** Stall length (default 1000). *)
}

val disabled : config
(** All probabilities zero. *)

val is_enabled : config -> bool

val parse : string -> (config, string) result
(** [parse "delay_p=0.1,delay_ms=50,drop_p=0.02"] — comma-separated
    [key=value] pairs over the field names above; unset fields default
    to {!disabled}'s values (seed 0).  Probabilities must lie in
    [[0, 1]]; unknown keys are errors. *)

val of_env : unit -> (config, string) result
(** Reads the [BI_CHAOS] environment variable through {!parse};
    unset or empty means {!disabled}. *)

val unit_float : seed:int -> counter:int -> float
(** The raw decision stream: a splitmix64 hash of [(seed, counter)]
    mapped to [[0, 1)].  Also used by {!Client}'s retry jitter and the
    soak harness, so every randomized choice in the serve layer is
    replayable from a seed. *)

type t

val create : config -> t
(** Builds the decision stream.  When [corrupt_store_p > 0], installs
    the store write fault ({!Bi_cache.Store.set_write_fault}) — the
    caller owns the process-global seam. *)

val config : t -> config

(** What to do with one outbound response, in application order:
    sleep [delay_ms] first when delayed, then deliver, cut short or
    drop. *)
type action = {
  delay_ms : int;  (** 0 when not delayed. *)
  transport : [ `Deliver | `Truncate | `Drop ];
}

val deliver : action
(** The no-fault action: no delay, [`Deliver]. *)

val response_action : t -> action

val faulty : action -> bool
(** True when the action differs from {!deliver}. *)

val peer_action : t -> [ `Proceed | `Hang_up | `Stall of int ]
(** Per-line decision, taken before each request line is handled, so
    a connection that outlives a window's opening still meets it.
    [`Hang_up] closes the connection without answering the line — to
    the peer, exactly a partitioned node (fast transport failure, no
    response); a positive [partition_p] draw opens a [partition_ms]
    window during which every line is hung up on.  [`Stall ms] sleeps
    before handling the line.  A client that connects per exchange gets
    one decision per exchange.  The window state is shared across
    threads; decisions still come from the deterministic stream (window
    *expiry* is monotonic-clock time, so partition timing is only as
    reproducible as the clock). *)
