(** JSON codecs for exact values, ignorance reports, and game
    descriptions.

    Everything load-bearing travels as strings of exact rationals
    (canonical [num/den] form) or integers, never floats, so a value
    survives encode → store → parse → decode bit-identically — the
    property the warm-cache byte-identical-output guarantee rests on.
    Encoders produce {!Bi_engine.Sink.json}; decoders consume it and
    return [Result] with a human-readable error. *)

open Bi_num

val rat_of_string : string -> (Rat.t, string) result
(** Parses ["n"] or ["n/d"] with optional leading ['-'] on either part;
    the result is reduced to canonical form. *)

val rat_to_json : Rat.t -> Bi_engine.Sink.json
val rat_of_json : Bi_engine.Sink.json -> (Rat.t, string) result

val ext_to_json : Extended.t -> Bi_engine.Sink.json
(** Finite values as rational strings, infinity as ["inf"]. *)

val ext_of_json : Bi_engine.Sink.json -> (Extended.t, string) result

val profile_to_json : Bi_bayes.Bayesian.strategy_profile -> Bi_engine.Sink.json
val profile_of_json :
  Bi_engine.Sink.json -> (Bi_bayes.Bayesian.strategy_profile, string) result

val report_to_json : Bi_bayes.Measures.report -> Bi_engine.Sink.json
val report_of_json :
  Bi_engine.Sink.json -> (Bi_bayes.Measures.report, string) result

val analysis_to_json : Bi_ncs.Bayesian_ncs.analysis -> Bi_engine.Sink.json
val analysis_of_json :
  Bi_engine.Sink.json -> (Bi_ncs.Bayesian_ncs.analysis, string) result

val game_to_json :
  Bi_graph.Graph.t ->
  prior:(int * int) array Bi_prob.Dist.t ->
  Bi_engine.Sink.json
(** A game description as carried by the server's [analyze] verb:
    [{"kind": "directed"|"undirected", "n": int,
      "edges": [[src, dst, "cost"], ...],
      "prior": [{"types": [[s, d], ...], "weight": "w"}, ...]}]. *)

type game_fields
(** The four fields of an inline game as read off a line, before the
    graph and the prior are built. *)

val read_game : Bi_engine.Sink.Lex.t -> depth:int -> game_fields
(** Reads the value at the cursor as a {!game_to_json} description,
    straight into the arrays the graph keeps: no tree is built for it.
    Each field keeps its first occurrence; a field of the wrong shape
    keeps its error message.
    @raise Bi_engine.Sink.Lex.Error on a syntax error, with the message
    {!Bi_engine.Sink.of_string} gives for the same line. *)

val game_of_fields :
  game_fields ->
  (Bi_graph.Graph.t * (int * int) array Bi_prob.Dist.t, string) result
(** The first error in the order kind, n, edges, prior, then the prior's
    and the graph's validation ([Dist.make], [Graph.of_arrays]:
    endpoint ranges, non-negative costs, positive mass); otherwise the
    game. *)
