(** The one place that knows what a request's solver tier means.

    A request names a solver mode ([exhaustive | certified | auto]) and
    a solution concept ([nash | cce | comm]).  Together they select a
    tier, and the tier fixes everything downstream of the game: the
    cache key (and the fingerprint the answer carries), the solver that
    fills the cache, the shape a cached value must have to count as a
    hit, the response member that carries it, and whether a router may
    front-cache and replicate the answer.  The server, the router and
    the [bi] CLI all dispatch through here.

    Cache entries never cross tiers: the exhaustive tier keeps the bare
    game fingerprint (every pre-tier key stays byte-identical), the
    others append their tag ([+certified], [+cce], [+comm]). *)

type t =
  | Exhaustive  (** Every valid profile enumerated: a full analysis. *)
  | Certified  (** Certified brackets ({!Bi_certify.Solve}). *)
  | Correlated of Bi_correlated.Concept.t
      (** [Cce] or [Comm], never [Nash]: the certified LPs of
          {!Bi_correlated.Correlated}.  The solver mode does not apply. *)

type request =
  | Known of t
  | Auto
      (** [mode:"auto"] under the nash concept: exhaustive or certified
          depending on the game's valid-profile count, so it stays
          unresolved until the game is built ({!resolve}). *)

val of_query :
  mode:Bi_certify.Mode.t -> concept:Bi_correlated.Concept.t -> request
(** The correlated concepts ignore [mode]; nash maps it to its tier. *)

val resolve : request -> Bi_ncs.Bayesian_ncs.t -> t
(** [Known t] is [t]; [Auto] is {!Bi_certify.Mode.resolve} on the
    game's valid-profile count. *)

val key : t -> string -> string
(** [key t fingerprint]: the cache key, which is also the fingerprint
    the answer carries — [fingerprint] itself for [Exhaustive]. *)

val routing_key : request -> string -> string
(** Where a router sends the request: {!key} of a known tier, and the
    certified key for [Auto] (the router never builds games, so it
    cannot resolve one; the owning shard does). *)

val solve :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  verify:bool ->
  t ->
  Bi_ncs.Bayesian_ncs.t ->
  (Bi_cache.Service.value, string) result
(** The tier's solver, producing the value the cache holds.  With
    [~verify:true] a certificate-carrying tier re-checks its
    certificates ({!Bi_certify.Solve.check},
    {!Bi_correlated.Correlated.check}) and a rejection is an [Error]
    naming it; without it the result is always [Ok].  The budget's
    {!Bi_engine.Budget.Expired} escapes. *)

val kind : t -> string
(** The {!Bi_cache.Store.entry} kind of the tier's value: ["analysis"]
    for [Exhaustive], ["payload"] otherwise.  A cached entry of another
    kind reads as a miss (a [put] can store either kind under any
    key). *)

val response : t -> fingerprint:string -> cached:bool -> string -> string
(** The answer line for a body's canonical bytes, for a hit or a fresh
    answer alike: the shared header ([ok], the tier-qualified
    [fingerprint], [cached]), the tier's member and the bytes spliced in
    as they are.  It is the {!Bi_engine.Sink.to_string} of
    {!Protocol.ok_analysis}, {!Protocol.ok_certified} or
    {!Protocol.ok_correlated} on the decoded value.  A router's
    front-cache hit is [response Exhaustive ~cached:true]. *)

val front_cacheable : request -> bool
(** Whether a router may front-cache and replicate the answer: only a
    tier known before the game is built whose value is an analysis,
    that is [Known Exhaustive].  Every other answer, [Auto]'s included,
    is forwarded untouched. *)
