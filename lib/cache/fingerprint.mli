(** Canonical fingerprints of Bayesian NCS game descriptions.

    Every quantity the reproduction computes is a pure function of a
    game description — a graph plus a common prior over terminal-pair
    profiles — so a stable content hash of a {e canonical} serialization
    of that description addresses cached results.  Canonical means the
    bytes are invariant under every representation choice that does not
    change the game: edge insertion order (and the dense edge ids it
    induces), undirected endpoint orientation, unreduced rational inputs
    (rationals are kept reduced with positive denominators), prior
    support order and weight scaling (distributions normalize to mass
    one and merge duplicate outcomes).

    The digest is MD5 (the stdlib [Digest]); fingerprints are 32
    lowercase hex characters.  Collision resistance against adversarial
    inputs is not a goal — the cache is a performance layer over a
    deterministic solver, and the on-disk store verifies entries
    structurally on replay. *)

val description : Bi_graph.Graph.t -> prior:(int * int) array Bi_prob.Dist.t -> string
(** The canonical serialization itself — stable across builds and
    sessions, suitable for hashing or diffing.  Computable without
    lowering the description into a game (no path enumeration), so a
    cache lookup can skip [Bayesian_ncs.make] entirely. *)

val game : Bi_graph.Graph.t -> prior:(int * int) array Bi_prob.Dist.t -> string
(** Fingerprint of a description: MD5 of {!description} in lowercase hex. *)

val of_game : Bi_ncs.Bayesian_ncs.t -> string
(** Fingerprint of an already-built game, via its graph and prior. *)

val of_construction : string -> int -> (string, string) result
(** [of_construction name k] is [Result.map of_game (Registry.build
    name k)] without building the game more than once per process:
    answers (fingerprints and builder errors alike) are memoised for
    every registered name and [k] in [[1, Registry.max_k]] — at most
    [List.length Registry.names * Registry.max_k] entries.  Safe to call
    from concurrent threads and domains. *)

val digest_hex : string -> string
(** MD5 of arbitrary bytes in lowercase hex — the hash used throughout
    the cache (store entry checksums, compound keys). *)

val with_mode : string -> mode:string -> string
(** Solver-tier-qualified fingerprint: [fp] itself for the exhaustive
    tier (["exhaustive"] or [""]) — byte-identical to every fingerprint
    this library ever issued, so existing cache entries keep their keys
    — and [fp ^ "+" ^ mode] for any other tier, so cached answers never
    cross tiers. *)

val with_concept : string -> concept:string -> string
(** Solution-concept-qualified fingerprint: [fp] itself for [nash]
    (["nash"] or [""]) — byte-identical to pre-correlated keys — and
    [fp ^ "+" ^ concept] for the correlated concepts.  The concept tags
    ([cce], [comm]) are disjoint from the tier tags of {!with_mode}
    ([certified]), so qualified keys never collide across the two
    axes. *)
