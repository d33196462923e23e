(** Public facade of the Bayesian-ignorance reproduction.

    The library quantifies the effect of agents' local views in Bayesian
    games (Alon, Emek, Feldman, Tennenholtz: "Bayesian ignorance",
    PODC 2010 / TCS 2012) by comparing partial-information social costs
    ([optP], [best-eqP], [worst-eqP]) against prior-averaged
    complete-information ones ([optC], [best-eqC], [worst-eqC]).

    Sub-libraries, re-exported here under stable names:
    - {!Num}: exact bigints / rationals / extended rationals.
    - {!Prob}: exact finite distributions (common priors).
    - {!Graphs}: rational-weighted graphs, shortest paths, Steiner DP.
    - {!Games}: strategic-form cost games and their prices of anarchy
      and stability.
    - {!Bayes}: Bayesian games and the six ignorance measures.
    - {!Ncs}: network cost-sharing games, complete-information and
      Bayesian.
    - {!Steiner}: online Steiner tree and the diamond adversary.
    - {!Embed}: FRT tree embeddings (Lemma 3.4 machinery).
    - {!Minimax}: Section 4 (public random bits) as one certified LP:
      [R = R~] exactly, with the public-coin mixture and a worst prior.
    - {!Constructions}: the paper's lower-bound game families.
    - {!Engine}: domain-pool executor, deterministic map-reduce, and the
      line-oriented JSON result sink.
    - {!Cache}: canonical game fingerprints and the content-addressed
      result cache (in-memory LRU + append-only on-disk store).
    - {!Certify}: the certified solver tier — potential descent,
      branch-and-bound and smoothness brackets, all emitting
      machine-checkable certificates in exact arithmetic.
    - {!Lp}: exact-rational revised simplex with dual-solution
      optimality certificates (Bland's rule, two-phase).
    - {!Correlated}: correlated play — the coarse-correlated and
      communication equilibrium polytopes and the Section-4
      public-randomness values, solved as certified LPs.
    - {!Serve}: the concurrent analysis server and its line-JSON
      protocol and client.
    - {!Router}: the cluster front-end — consistent-hash ring,
      shard membership, quorum replication and failover. *)

module Num = Bi_num
module Ds = Bi_ds
module Prob = Bi_prob
module Graphs = Bi_graph
module Games = Bi_game
module Bayes = Bi_bayes
module Ncs = Bi_ncs
module Steiner = Bi_steiner
module Embed = Bi_embed
module Minimax = Bi_minimax
module Constructions = Bi_constructions
module Engine = Bi_engine
module Cache = Bi_cache
module Certify = Bi_certify
module Lp = Bi_lp
module Correlated = Bi_correlated
module Serve = Bi_serve
module Router = Bi_router
module Report = Report
