(** The content-addressed result cache.

    Ties together the {!Lru} in-memory tier, the {!Codec} value codecs
    and the {!Store} on-disk log.  The cache holds bytes, not values:
    each entry is its kind, its body rendered once at insert and that
    rendering's MD5 ({!Store.entry}), so a hit, the store line, the
    digest view and [pull] reuse the same bytes.  Keys are game fingerprints
    ({!Fingerprint.game}), optionally extended with a query tag
    ([fingerprint/query]) for auxiliary results that depend on solver
    parameters.  All operations are serialized by an internal mutex and
    are safe to call from multiple threads or domains. *)

type value =
  | Analysis of Bi_ncs.Bayesian_ncs.analysis
      (** A full ignorance analysis: six exact quantities + witnesses. *)
  | Payload of Bi_engine.Sink.json
      (** An opaque JSON payload interpreted by the caller. *)

type t

val create :
  ?capacity:int -> ?store_path:string -> ?auto_compact:bool ->
  ?shard:string -> unit -> t
(** [create ()] builds an in-memory cache (default capacity 4096).
    With [~store_path], the file is replayed into the cache (latest
    entry per key wins; unverifiable lines are counted, not trusted)
    and then opened for appending so later misses persist.  Unless
    [~auto_compact:false], a log whose invalid-line share reaches 10%
    or whose stale-duplicate share reaches half is compacted before
    being reopened ({!Store.compact}: last valid entry per key kept,
    corrupt lines quarantined to the [.rej] sidecar, atomic rename) —
    so crash damage and churn are bounded at every restart.  [~shard]
    names the cluster shard this cache belongs to; the name rides along
    in {!stats} so every stats/health response identifies its node. *)

val key : fingerprint:string -> query:string -> string
(** [key ~fingerprint ~query:""] is the fingerprint itself; otherwise
    [fingerprint ^ "/" ^ query]. *)

val lookup : t -> string -> Store.entry option
(** The resident entry under a key, as bytes; the server's hit path.
    Counts a hit or a miss. *)

val find : t -> string -> value option
(** {!lookup}, decoded.  Counts a hit or a miss. *)

val add : t -> string -> value -> Store.entry
(** Renders the value once, inserts the entry and appends it to the
    store when one is attached. *)

val insert : t -> string -> value -> unit
(** {!add}, for callers that do not answer from the entry. *)

val kind_of : value -> string
(** ["analysis"] or ["payload"]: the {!Store.entry} kind of a value. *)

val body_of : value -> string
(** The canonical bytes a value is stored and answered as. *)

val analysis :
  t -> string -> (unit -> Bi_ncs.Bayesian_ncs.analysis) ->
  Bi_ncs.Bayesian_ncs.analysis * bool
(** [analysis t key compute] returns the cached analysis under [key]
    ([..., true]) or runs [compute] and caches its result
    ([..., false]).  The thunk runs under the cache lock, so concurrent
    callers never duplicate a computation; use the server's in-flight
    table when long computations must not serialize other lookups. *)

val payload :
  t -> string -> (unit -> Bi_engine.Sink.json) -> Bi_engine.Sink.json * bool
(** As {!analysis} for opaque JSON payloads. *)

val digest_rollup : t -> (int * string) list
(** Per-bucket digests of the resident entries: for every non-empty
    bucket ({!Store.bucket_of_key}), the {!Store.bucket_digest} of its
    [(key, check)] pairs, in increasing bucket order.  Two replicas with
    equal rollups hold byte-identical resident state. *)

val bucket_keys : t -> int -> (string * string) list
(** The [(key, check)] pairs of one bucket, sorted by key. *)

val pull : t -> string list -> Store.entry list * string list
(** [pull t keys] fetches the resident entries for [keys] in request
    order, plus the keys not resident.  Counts neither hits nor misses —
    a repair path, not a serving path. *)

type stats = {
  shard : string option;  (** Cluster shard identity, when configured. *)
  hits : int;
  misses : int;
  length : int;
  capacity : int;
  evictions : int;
  loaded : int;  (** Entries replayed from the store at startup. *)
  invalid : int;  (** Store lines skipped as unreadable or unverifiable. *)
  quarantined : int;
      (** Lines moved to the [.rej] sidecar by the open-time compaction
          (0 when it did not run). *)
  rejected : int;
      (** Total lines accumulated in the [.rej] sidecar across the
          store's lifetime (deduplicated by {!Store.compact}). *)
}

val stats : t -> stats
val stats_to_json : stats -> Bi_engine.Sink.json

val close : t -> unit
(** Closes the attached store, if any.  Idempotent. *)
