(** Hinted handoff: a durable, bounded log of writes that failed to
    reach an owner.

    When replication or a [put] fan-out cannot deliver a copy to a
    member (down, partitioned, or mid-crash), the router records the
    miss here instead of dropping it; the health prober drains a
    member's hints on its Down→Up transition — before front-cache
    warming — so a recovered owner converges from the log, not from
    luck.

    One hint per (member, fingerprint): a newer write to the same key
    supersedes the parked one.  With a [?path], hints persist across
    router restarts via the {!Bi_cache.Store} line format (["hint"]
    records cancelled by ["hint-drop"] tombstones, replayed in append
    order; the log is rewritten in place when tombstones dwarf the live
    set).  At [?capacity] the oldest hint is evicted to make room —
    anti-entropy repair covers what the log cannot hold.  Thread-safe. *)

type hint = {
  member : string;  (** The owner that missed the write. *)
  fingerprint : string;  (** Cache key of the missed entry. *)
  kind : string;  (** Store kind: ["analysis"] or ["payload"]. *)
  body : string;  (** The body's canonical bytes. *)
}

type t

val default_capacity : int
(** 512. *)

val create : ?capacity:int -> ?path:string -> unit -> t
(** In-memory only without [?path]; otherwise replays the log (and
    compacts it when stale lines dominate) and opens it for appending.
    @raise Invalid_argument when [capacity < 1]. *)

val record :
  t -> member:string -> fingerprint:string -> kind:string -> string -> int
(** Parks a missed write; returns the number of older hints evicted to
    make room (0 or 1). *)

val take : t -> string -> hint list
(** Removes and returns every hint for a member, oldest first.  The
    caller re-records any hint it fails to deliver. *)

val pending : t -> int
(** Outstanding hints across all members. *)

val members : t -> string list
(** Members with outstanding hints, oldest-hint-first order. *)

val close : t -> unit
(** Closes the backing log.  Idempotent. *)
