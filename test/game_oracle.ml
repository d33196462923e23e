(* The tree walk that decoded inline games before [Codec.read_game],
   kept verbatim as the oracle the decoder is held to: the whole line
   parsed by [Sink.of_string], then the tree read field by field.  Same
   game or the same error string, byte for byte. *)

open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist
module Sink = Bi_engine.Sink
module Codec = Bi_cache.Codec

let ( let* ) = Result.bind
let error fmt = Printf.ksprintf (fun s -> Error s) fmt

let field name j =
  match Sink.member name j with
  | Some v -> Ok v
  | None -> error "missing field %S" name

let game_of_json j =
  let* kind =
    match field "kind" j with
    | Ok (Sink.Str "directed") -> Ok Graph.Directed
    | Ok (Sink.Str "undirected") -> Ok Graph.Undirected
    | Ok v -> error "kind must be \"directed\" or \"undirected\", got %s" (Sink.to_string v)
    | Error e -> Error e
  in
  let* n =
    match field "n" j with
    | Ok (Sink.Int n) -> Ok n
    | Ok v -> error "n must be an integer, got %s" (Sink.to_string v)
    | Error e -> Error e
  in
  let* src, dst, costs =
    match field "edges" j with
    | Ok (Sink.List es) ->
      let m = List.length es in
      let src = Array.make m 0 and dst = Array.make m 0 in
      let costs = Array.make m Rat.zero in
      let rec go id = function
        | [] -> Ok (src, dst, costs)
        | Sink.List [ Sink.Int s; Sink.Int d; c ] :: rest -> (
          match Codec.rat_of_json c with
          | Ok c ->
            src.(id) <- s;
            dst.(id) <- d;
            costs.(id) <- c;
            go (id + 1) rest
          | Error e -> Error e)
        | v :: _ -> error "edge must be [src, dst, cost], got %s" (Sink.to_string v)
      in
      go 0 es
    | Ok v -> error "edges must be a list, got %s" (Sink.to_string v)
    | Error e -> Error e
  in
  let* entries =
    match field "prior" j with
    | Ok (Sink.List entries) ->
      let pair = function
        | Sink.List [ Sink.Int x; Sink.Int y ] -> Ok (x, y)
        | v -> error "type must be [source, destination], got %s" (Sink.to_string v)
      in
      let entry e =
        let* types =
          match field "types" e with
          | Ok (Sink.List ps) ->
            let rec go acc = function
              | [] -> Ok (Array.of_list (List.rev acc))
              | p :: rest ->
                let* p = pair p in
                go (p :: acc) rest
            in
            go [] ps
          | Ok v -> error "types must be a list of pairs, got %s" (Sink.to_string v)
          | Error e -> Error e
        in
        let* weight = Result.bind (field "weight" e) Codec.rat_of_json in
        Ok (types, weight)
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest ->
          let* e = entry e in
          go (e :: acc) rest
      in
      go [] entries
    | Ok v -> error "prior must be a list, got %s" (Sink.to_string v)
    | Error e -> Error e
  in
  match (Graph.of_arrays kind ~n ~src ~dst ~costs, Dist.make entries) with
  | graph, prior -> Ok (graph, prior)
  | exception Invalid_argument msg -> error "invalid game description: %s" msg
  | exception Division_by_zero -> Error "invalid game description: zero denominator"

(* The library's decoder on one JSON text, syntax errors worded as
   [Sink.of_string] words them. *)
let decode text =
  let c = Sink.Lex.make text in
  match
    let fields = Codec.read_game c ~depth:0 in
    Sink.Lex.finish c;
    fields
  with
  | fields -> Codec.game_of_fields fields
  | exception Sink.Lex.Error e -> Error e
