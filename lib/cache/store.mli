(** Append-only on-disk result store (JSON lines).

    One self-describing record per line:
    [{"record": "entry", "key": ..., "kind": ..., "check": md5(body),
      "body": ...}].  Entries are flushed as written, so warm state
    survives restarts and crashes at line granularity.  {!load} replays
    a file and verifies each entry's checksum against the canonical
    re-rendering of its body; lines that fail to parse or verify
    (including a torn final line from a crash) are counted and skipped,
    never trusted. *)

type entry = private {
  key : string;  (** Cache key — fingerprint, or fingerprint/query. *)
  kind : string;  (** Payload discriminator, e.g. ["analysis"]. *)
  body : string;  (** The canonical JSON bytes of the body. *)
  check : string;  (** {!check_of} [body]. *)
}

val entry : key:string -> kind:string -> string -> entry
(** [entry ~key ~kind body] for [body] in canonical JSON
    ({!Bi_engine.Sink.to_string} of a tree). *)

val entry_to_line : entry -> string
(** The entry's line: its body and check spliced in as they are. *)

val check_of : string -> string
(** md5 (hex) of a body's canonical bytes — the [check] field written
    on every entry line and the per-key digest the repair machinery
    compares across replicas. *)

val buckets : int
(** Number of digest buckets (256). *)

val bucket_of_key : string -> int
(** Bucket a key belongs to: the first byte of its MD5. *)

val bucket_digest : (string * string) list -> string
(** Canonical digest of one bucket's [(key, check)] pairs: md5 of the
    sorted ["key:check"] lines, independent of pair order. *)

val load : string -> entry list * int
(** [load path] replays the file in append order: verified entries (a
    later entry for the same key supersedes an earlier one when loaded
    into the cache) and the count of invalid lines skipped.  A missing
    file is an empty store. *)

type compaction = {
  kept : int;  (** Entries surviving into the compacted log. *)
  superseded : int;  (** Valid entries dropped as stale duplicates. *)
  quarantined : int;  (** Invalid lines moved to the [.rej] sidecar. *)
}

val rej_path : string -> string
(** The quarantine sidecar for a store path: [path ^ ".rej"]. *)

val rej_lines : string -> int
(** Number of quarantined lines in the sidecar for a store path (0 when
    absent). *)

val compact : string -> compaction
(** [compact path] rewrites the log keeping only the last verified
    entry per key (in order of last occurrence, matching what replay
    reconstructs), appends every unverifiable line verbatim to
    {!rej_path} and atomically renames the rewritten log into place
    (temp file + fsync + rename), so a crash mid-compaction never loses
    a valid entry.  Must not race a live {!t} appending to the same
    path — compact before {!open_append}. *)

val set_write_fault : (string -> string) option -> unit
(** Process-global fault-injection seam used by the chaos harness:
    when set, {!append} passes each rendered line through the
    transformer before writing.  [None] (the default) is the identity.
    Never set in production paths. *)

type t

val open_append : string -> t
(** Opens (creating if needed) for appending. *)

val path : t -> string

val append : t -> entry -> unit
(** Writes one entry line and flushes.  Thread-safe. *)

val close : t -> unit
(** Idempotent. *)
