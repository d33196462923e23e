(** The analysis server's wire protocol.

    One JSON object per line in each direction.  Requests carry an
    ["op"] field — [analyze] (inline game description), [construction]
    (named paper family + size), [put] (replicate a finished analysis
    into the cache), [stats], [health], [shutdown] — and may carry an
    optional ["deadline_ms"] wall-clock budget.  Responses carry
    ["ok"]: analysis responses add the game fingerprint, whether the
    result came from cache, and the full analysis; failure responses
    add a machine-readable ["code"] ([error], [overloaded],
    [deadline_exceeded]) and a human-readable ["error"], and overload
    responses add a ["retry_after_ms"] hint.  See DESIGN.md §3d–§3f
    for worked examples and the failure model. *)

type query =
  | Analyze of {
      graph : Bi_graph.Graph.t;
      prior : (int * int) array Bi_prob.Dist.t;
      mode : Bi_certify.Mode.t;
          (** Solver tier.  Absent on the wire means
              {!Bi_certify.Mode.Exhaustive}, so pre-mode clients keep
              their exact behavior and cache keys. *)
      concept : Bi_correlated.Concept.t;
          (** Solution concept.  Absent on the wire means
              {!Bi_correlated.Concept.Nash} — the only concept
              pre-correlated servers had — same back-compat contract
              as [mode]. *)
    }
  | Construction of {
      name : string;
      k : int;
      mode : Bi_certify.Mode.t;
      concept : Bi_correlated.Concept.t;
    }
  | Put of { fingerprint : string; value : Bi_cache.Service.value }
      (** A cache write: store [value] under [fingerprint] without
          computing anything.  The router uses it for quorum
          replication, warming, hinted handoff and repair.  On the
          wire, ["kind"] absent or ["analysis"] is an
          {!Bi_cache.Service.Analysis}, decoded and validated —
          byte-identical back-compat with pre-repair replication — and
          ["kind"]: ["payload"] is a {!Bi_cache.Service.Payload} stored
          verbatim (certified / correlated tier results; pre-repair
          shards reject it with a structured error, which repair treats
          as "skip"). *)
  | Digest of { bucket : int option }
      (** Cluster-internal consistency probe: [None] asks for the
          per-bucket rollup of the resident entries, [Some b] for one
          bucket's key→check map.  Never shed. *)
  | Pull of { keys : string list }
      (** Cluster-internal entry fetch by key (repair path); the
          response carries the full store entries plus the keys not
          resident.  At most 4096 keys per request.  Never shed. *)
  | Stats
  | Health
      (** Liveness + identity probe: answered with the shard id, the
          in-flight request depth and the cache statistics, never shed
          and never queued behind solver work. *)
  | Shutdown

type request = {
  query : query;
  deadline_ms : int option;
      (** Wall-clock budget for this request; the server answers
          [deadline_exceeded] instead of an analysis when it runs out. *)
}

val default_k : int
(** Size used when a [construction] request omits ["k"]. *)

val max_k : int
(** Largest ["k"] accepted at parse time.  A [construction] request
    with [k < 1] or [k > max_k] is rejected with a structured error on
    arrival — mirroring the [deadline_ms] validation — instead of
    failing deep inside a construction builder or exhausting memory. *)

val parse_request : string -> (request, string) result
(** An [analyze] line's game is read straight into the graph's arrays
    ({!Bi_cache.Codec.read_game}), with no tree for it; every other
    member is read as a tree.  The result, error strings included, is
    the one of reading the whole line with {!Bi_engine.Sink.of_string}
    and decoding the tree. *)

(** Request builders (client side). *)

val analyze_game_request :
  ?deadline_ms:int ->
  ?mode:Bi_certify.Mode.t ->
  ?concept:Bi_correlated.Concept.t ->
  Bi_engine.Sink.json ->
  Bi_engine.Sink.json
(** An [analyze] request for a game already in its wire form, sent as
    given ([bi query analyze] reads one from stdin). *)

val analyze_request :
  ?deadline_ms:int ->
  ?mode:Bi_certify.Mode.t ->
  ?concept:Bi_correlated.Concept.t ->
  Bi_graph.Graph.t ->
  prior:(int * int) array Bi_prob.Dist.t ->
  Bi_engine.Sink.json

val construction_request :
  ?deadline_ms:int ->
  ?mode:Bi_certify.Mode.t ->
  ?concept:Bi_correlated.Concept.t ->
  name:string ->
  k:int ->
  unit ->
  Bi_engine.Sink.json
(** Both builders emit ["mode"] / ["concept"] fields only for
    non-default values, so default requests are byte-identical to
    pre-mode (and pre-correlated) requests. *)

val put_request :
  ?kind:string -> fingerprint:string -> Bi_engine.Sink.json -> Bi_engine.Sink.json
(** [put_request ~fingerprint analysis_json] — the JSON argument is the
    already-encoded ["analysis"] value (as found in an [ok_analysis]
    response), so a router can replicate a shard's answer without
    decoding it.  [?kind] defaults to ["analysis"] (no wire field, so
    analysis puts stay byte-identical to pre-repair traffic); pass
    ["payload"] to store the body verbatim. *)

val put_line : ?kind:string -> fingerprint:string -> string -> string
(** {!put_request} as a line, with the body's canonical bytes spliced in
    as they are: [Sink.to_string (put_request ~fingerprint body)] is
    [put_line ~fingerprint (Sink.to_string body)].  The router's
    replication, warming, hint and repair puts. *)

val digest_request : ?bucket:int -> unit -> Bi_engine.Sink.json
(** Rollup request, or one bucket's key→check map with [?bucket]. *)

val pull_request : string list -> Bi_engine.Sink.json
(** Fetch store entries by key. *)

val stats_request : Bi_engine.Sink.json
val health_request : Bi_engine.Sink.json
val shutdown_request : Bi_engine.Sink.json

(** Response builders.  Every answer shares one header — ["ok"], the
    tier-qualified ["fingerprint"], ["cached"] — followed by its tier's
    members.  The analysis answers below are the tree forms of the lines
    the server writes: {!Tier.response} splices a cached body's bytes
    under the same header, and renders the same bytes. *)

val ok_answer :
  fingerprint:string ->
  cached:bool ->
  (string * Bi_engine.Sink.json) list ->
  Bi_engine.Sink.json
(** The shared header, then [members] in order. *)

val ok_analysis :
  fingerprint:string ->
  cached:bool ->
  Bi_ncs.Bayesian_ncs.analysis ->
  Bi_engine.Sink.json

val ok_certified :
  fingerprint:string -> cached:bool -> Bi_engine.Sink.json -> Bi_engine.Sink.json
(** Certified-tier success: carries the tier-qualified fingerprint, a
    ["mode"] marker and the bracket payload under ["certified"] (the
    JSON argument, as produced by {!Bi_certify.Solve.to_json}) — and
    deliberately no ["analysis"] member, so caches keyed on exhaustive
    answers can never pick it up. *)

val ok_correlated :
  fingerprint:string ->
  cached:bool ->
  concept:Bi_correlated.Concept.t ->
  Bi_engine.Sink.json ->
  Bi_engine.Sink.json
(** Correlated-concept success: the concept-qualified fingerprint, a
    ["concept"] marker and the LP payload under ["correlated"] (as
    produced by {!Bi_correlated.Correlated.to_json}) — and, like
    {!ok_certified}, deliberately no ["analysis"] member, so caches
    keyed on nash answers can never pick it up. *)

val ok_stats :
  cache:Bi_engine.Sink.json -> server:Bi_engine.Sink.json -> Bi_engine.Sink.json

val ok_health :
  shard:string ->
  inflight:int ->
  cache:Bi_engine.Sink.json ->
  Bi_engine.Sink.json
(** Health response: shard identity, in-flight request depth, cache
    (store) statistics. *)

val ok_stored : fingerprint:string -> Bi_engine.Sink.json
(** Acknowledges a [put]: ["stored"]: [true]. *)

val ok_digest :
  shard:string -> rollup:(int * string) list -> Bi_engine.Sink.json
(** Digest rollup response: ["digest"] is a list of [[bucket, md5]]
    pairs for every non-empty bucket, in increasing bucket order. *)

val ok_bucket :
  shard:string -> bucket:int -> keys:(string * string) list ->
  Bi_engine.Sink.json
(** One bucket's key→check map: ["keys"] is a list of [[key, check]]
    pairs sorted by key. *)

val ok_pulled :
  shard:string ->
  entries:Bi_cache.Store.entry list ->
  missing:string list ->
  string
(** Pull response line: the resident entries (key/kind/canonical body,
    the body's bytes spliced in) and the keys that were not resident. *)

val rollup_of :
  Bi_engine.Sink.json -> ((int * string) list, string) result
(** Decode an {!ok_digest} response.  Total. *)

val bucket_keys_of :
  Bi_engine.Sink.json -> ((string * string) list, string) result
(** Decode an {!ok_bucket} response.  Total. *)

val entries_of :
  Bi_engine.Sink.json -> (Bi_cache.Store.entry list, string) result
(** Decode the entries of an {!ok_pulled} response.  Total. *)

val shard_of : Bi_engine.Sink.json -> string option
(** The ["shard"] field of a health response, when present. *)

val ok_shutdown : Bi_engine.Sink.json

val error : string -> Bi_engine.Sink.json
(** Generic failure: ["code"]: ["error"]. *)

val overloaded : retry_after_ms:int -> Bi_engine.Sink.json
(** Load-shed response: ["code"]: ["overloaded"] plus a retry hint. *)

val deadline_exceeded : Bi_engine.Sink.json
(** The request's wall-clock budget ran out before the analysis
    completed: ["code"]: ["deadline_exceeded"]. *)

val is_ok : Bi_engine.Sink.json -> bool
(** True when the response object has ["ok"]: [true]. *)

val response_code : Bi_engine.Sink.json -> string option
(** ["ok"] for successes, the failure ["code"] otherwise ("error" when
    a well-formed failure omits it); [None] when the object is not a
    recognizable response. *)

(** A response line as the router relays it: read once, for the
    members it acts on, and otherwise passed on as the bytes the shard
    sent. *)
type answer = {
  line : string;  (** The line as received. *)
  code : string option;  (** {!response_code} of the line. *)
  cached : bool option;  (** Its ["cached"] member, when a boolean. *)
  analysis : (int * int) option;
      (** The byte span [\[start, stop)] of its ["analysis"] member's
          value. *)
}

val scan_answer : string -> (answer, string) result
(** One pass of {!Bi_engine.Sink.Lex} over a response line: it accepts
    exactly the lines {!Bi_engine.Sink.of_string} accepts (the [Error]
    is its message), reads the members as {!Bi_engine.Sink.member}
    would (the first occurrence of each) and builds no tree for the
    others. *)

val retry_after_ms : Bi_engine.Sink.json -> int option
(** The overload retry hint, when present and non-negative. *)
