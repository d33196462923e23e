(** Replica consistency checker ([bi fsck]) and repair driver.

    Compares the copies of every key across its ring owners and reports
    each divergence: owners lacking the key, or holders whose canonical
    body checksums disagree.  With [~repair:true] the authoritative copy
    — the holder earliest in the ring's owner order, the same
    deterministic last-writer-wins proxy the router's anti-entropy loop
    uses — is pulled and pushed to every disagreeing owner through the
    ordinary [put] path, then the whole set is re-measured.

    Sources abstract where replica state lives: {!store_source} reads a
    shard's append-only store file directly (offline fsck, or a live
    shard's flushed log), {!exchange_source} drives the [digest] /
    [pull] / [put] verbs over a caller-supplied exchange function
    (online fsck).  Non-owner copies of a key are ignored — legitimate
    leftovers of membership changes, not divergence. *)

type source = {
  name : string;  (** Ring member name this source stands for. *)
  keys : unit -> ((string * string) list, string) result;
      (** All resident [(key, check)] pairs. *)
  pull : string list -> (Bi_cache.Store.entry list, string) result;
  push : Bi_cache.Store.entry -> (unit, string) result;
}

type divergence = {
  key : string;
  bucket : int;  (** {!Bi_cache.Store.bucket_of_key}. *)
  holders : (string * string) list;
      (** Owner sources holding the key, ring-owner order, with their
          checks. *)
  missing : string list;  (** Owner sources lacking the key. *)
  authority : string;  (** First holder in ring-owner order. *)
}

type report = {
  sources : string list;
  unreachable : (string * string) list;
      (** Sources whose state could not be read (name, error). *)
  keys_checked : int;
  divergent : divergence list;  (** As found, before any repair. *)
  repaired : int;  (** Divergences that measurably converged. *)
  repair_failures : (string * string) list;  (** (key, error). *)
  remaining : int;  (** Divergences left after the repair pass. *)
}

val store_source : name:string -> string -> source
(** A shard's store file on disk: reads reconstruct the replay view
    (last verified entry per key), pushes append. *)

val exchange_source :
  name:string -> (string -> (Bi_engine.Sink.json, string) result) -> source
(** A live shard behind one-exchange-per-request transport: the function
    sends one request line and returns the parsed answer.  Pushes splice
    the entry's bytes into the [put] line ({!Bi_serve.Protocol.put_line}).
    A shard that rejects [digest] (pre-repair build) surfaces as
    unreachable. *)

val divergences :
  ring:Ring.t ->
  replicas:int ->
  (string * (string, string) Hashtbl.t) list ->
  int * divergence list
(** Pure core: (keys checked, divergences) over per-source key→check
    tables.  Exposed for the router's anti-entropy loop and tests. *)

val targets : divergence -> string list
(** The owners a repair copies the authority's entry to: the [missing]
    ones, then every holder whose check differs from the authority's.
    Shared by {!run}'s repair pass and the router's anti-entropy loop. *)

val run : ring:Ring.t -> replicas:int -> repair:bool -> source list -> report

val report_to_json : report -> Bi_engine.Sink.json
