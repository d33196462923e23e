(** A string-keyed least-recently-used map with a fixed capacity.

    The in-memory tier of the result cache: O(1) lookup, insertion and
    eviction (hash table over an intrusive recency list).  Not
    thread-safe on its own — {!Service} serializes access. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val evictions : 'a t -> int
(** Number of entries evicted to make room since creation. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit marks the entry most recently used. *)

val mem : 'a t -> string -> bool
(** Presence test without touching recency. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace, marking the entry most recently used; evicts the
    least recently used entry when at capacity. *)

val fold : ('acc -> string -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Folds over entries from most to least recently used. *)
