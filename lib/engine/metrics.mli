(** One registry of named instruments: counters, in-flight gauges and
    log₂-microsecond latency histograms.

    Every instrument is built on [int Atomic.t] cells, so an update is
    one atomic add (a gauge that reaches a new high-water mark adds one
    compare-and-set) and never takes a lock: threads and domains update
    the same instrument at once without losing a count.  An owner
    registers each instrument once, keeps the handle, and updates it
    directly.  {!to_json} renders the instruments in registration
    order, which is how the server's and the router's [stats] objects
    and metrics dumps keep their member order. *)

type t

val create : unit -> t

type counter

val counter : t -> string -> counter
(** Registers a counter, rendered as one [Int] member named as given. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

type gauge

val gauge : t -> string -> peak:string -> gauge
(** Registers an in-flight gauge, rendered as two [Int] members: the
    current level under the given name, then its high-water mark under
    [peak]. *)

val enter : gauge -> unit
(** Raises the level by one, and the high-water mark with it. *)

val leave : gauge -> unit
val level : gauge -> int

type histogram

val histogram : t -> string -> histogram
(** Registers a latency histogram of 32 log₂-microsecond buckets:
    bucket [i > 0] counts durations of [2^i] to [2^(i+1) - 1] whole
    microseconds, bucket 0 everything up to 1 µs, and the last bucket
    everything from its lower bound up. *)

val observe : histogram -> ns:int -> unit
(** Records one duration of [ns] nanoseconds (truncated to whole
    microseconds). *)

val to_json : t -> Sink.json
(** A snapshot as one [Obj], instruments in registration order.  A
    histogram renders as a [List] of [{"le_us": 2^(i+1) - 1, "count":
    n}] objects up to its last non-empty bucket.  Each cell is read
    atomically, but the snapshot as a whole is not: under concurrent
    updates two members may reflect slightly different moments. *)
