open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist
module Measures = Bi_bayes.Measures
module Bncs = Bi_ncs.Bayesian_ncs
module Sink = Bi_engine.Sink

let ( let* ) = Result.bind

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

(* --- exact rationals as strings --- *)

(* [Some v] when [s.[i..j)] is an optional '-' and 1-18 decimal digits:
   the form [Bigint.of_string] would keep on the machine-word tier, read
   here without its general decimal conversion. *)
let small_int s i j =
  let negative = i < j && s.[i] = '-' in
  let first = if negative then i + 1 else i in
  let rec digits k acc =
    if k = j then Some (if negative then -acc else acc)
    else
      match s.[k] with
      | '0' .. '9' as c -> digits (k + 1) ((acc * 10) + Char.code c - 48)
      | _ -> None
  in
  if first < j && j - first <= 18 then digits first 0 else None

let rat_of_string s =
  let len = String.length s in
  match String.index_opt s '/' with
  | None -> (
    match small_int s 0 len with
    | Some n -> Ok (Rat.of_int n)
    | None -> (
      match Bigint.of_string s with
      | n -> Ok (Rat.of_bigint n)
      | exception Invalid_argument _ -> error "invalid rational %S" s))
  | Some i -> (
    match (small_int s 0 i, small_int s (i + 1) len) with
    | Some n, Some d when d <> 0 -> Ok (Rat.of_ints n d)
    | _ -> (
      let num = String.sub s 0 i in
      let den = String.sub s (i + 1) (len - i - 1) in
      match (Bigint.of_string num, Bigint.of_string den) with
      | n, d when not (Bigint.is_zero d) -> Ok (Rat.make n d)
      | _ -> error "invalid rational %S (zero denominator)" s
      | exception Invalid_argument _ -> error "invalid rational %S" s))

let rat_to_json r = Sink.Str (Rat.to_string r)

let rat_of_json = function
  | Sink.Str s -> rat_of_string s
  | j -> error "expected a rational string, got %s" (Sink.to_string j)

let ext_to_json = function
  | Extended.Fin r -> rat_to_json r
  | Extended.Inf -> Sink.Str "inf"

let ext_of_json = function
  | Sink.Str "inf" -> Ok Extended.Inf
  | j -> Result.map (fun r -> Extended.Fin r) (rat_of_json j)

let opt_to_json f = function None -> Sink.Null | Some v -> f v

let opt_of_json f = function
  | Sink.Null -> Ok None
  | j -> Result.map Option.some (f j)

(* --- strategy profiles: player -> type -> action index --- *)

let profile_to_json p =
  Sink.List
    (Array.to_list
       (Array.map
          (fun row -> Sink.List (Array.to_list (Array.map (fun a -> Sink.Int a) row)))
          p))

let profile_of_json j =
  let row = function
    | Sink.List cells ->
      let rec ints acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Sink.Int a :: rest -> ints (a :: acc) rest
        | c :: _ -> error "expected an action index, got %s" (Sink.to_string c)
      in
      ints [] cells
    | c -> error "expected a strategy row, got %s" (Sink.to_string c)
  in
  match j with
  | Sink.List rows ->
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | r :: rest ->
        let* r = row r in
        go (r :: acc) rest
    in
    go [] rows
  | j -> error "expected a strategy profile, got %s" (Sink.to_string j)

(* --- ignorance reports and full analyses --- *)

let report_to_json (r : Measures.report) =
  Sink.Obj
    [
      ("opt_p", ext_to_json r.Measures.opt_p);
      ("best_eq_p", opt_to_json ext_to_json r.Measures.best_eq_p);
      ("worst_eq_p", opt_to_json ext_to_json r.Measures.worst_eq_p);
      ("opt_c", ext_to_json r.Measures.opt_c);
      ("best_eq_c", opt_to_json ext_to_json r.Measures.best_eq_c);
      ("worst_eq_c", opt_to_json ext_to_json r.Measures.worst_eq_c);
    ]

let field name j =
  match Sink.member name j with
  | Some v -> Ok v
  | None -> error "missing field %S" name

let report_of_json j =
  let* opt_p = Result.bind (field "opt_p" j) ext_of_json in
  let* best_eq_p = Result.bind (field "best_eq_p" j) (opt_of_json ext_of_json) in
  let* worst_eq_p = Result.bind (field "worst_eq_p" j) (opt_of_json ext_of_json) in
  let* opt_c = Result.bind (field "opt_c" j) ext_of_json in
  let* best_eq_c = Result.bind (field "best_eq_c" j) (opt_of_json ext_of_json) in
  let* worst_eq_c = Result.bind (field "worst_eq_c" j) (opt_of_json ext_of_json) in
  Ok { Measures.opt_p; best_eq_p; worst_eq_p; opt_c; best_eq_c; worst_eq_c }

let analysis_to_json (a : Bncs.analysis) =
  Sink.Obj
    [
      ("report", report_to_json a.Bncs.report);
      ("opt_p_witness", profile_to_json a.Bncs.opt_p_witness);
      ("best_eq_p_witness", opt_to_json profile_to_json a.Bncs.best_eq_p_witness);
      ( "worst_eq_p_witness",
        opt_to_json profile_to_json a.Bncs.worst_eq_p_witness );
    ]

let analysis_of_json j =
  let* report = Result.bind (field "report" j) report_of_json in
  let* opt_p_witness = Result.bind (field "opt_p_witness" j) profile_of_json in
  let* best_eq_p_witness =
    Result.bind (field "best_eq_p_witness" j) (opt_of_json profile_of_json)
  in
  let* worst_eq_p_witness =
    Result.bind (field "worst_eq_p_witness" j) (opt_of_json profile_of_json)
  in
  Ok { Bncs.report; opt_p_witness; best_eq_p_witness; worst_eq_p_witness }

(* --- game descriptions (graph + prior), both directions --- *)

let game_to_json graph ~prior =
  let edges =
    List.map
      (fun e ->
        Sink.List
          [ Sink.Int e.Graph.src; Sink.Int e.Graph.dst; rat_to_json e.Graph.cost ])
      (Graph.edges graph)
  in
  let prior_entries =
    List.map
      (fun (pairs, w) ->
        Sink.Obj
          [
            ( "types",
              Sink.List
                (List.map
                   (fun (x, y) -> Sink.List [ Sink.Int x; Sink.Int y ])
                   (Array.to_list pairs)) );
            ("weight", rat_to_json w);
          ])
      (Dist.to_list prior)
  in
  Sink.Obj
    [
      ( "kind",
        Sink.Str (if Graph.is_directed graph then "directed" else "undirected") );
      ("n", Sink.Int (Graph.n_vertices graph));
      ("edges", Sink.List edges);
      ("prior", Sink.List prior_entries);
    ]

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
  (* The edges are decoded straight into the graph's store; the graph
     checks them once the whole description has decoded, so a malformed
     field anywhere still wins over an invalid edge. *)
  let* src, dst, costs =
    match field "edges" j with
    | Ok (Sink.List es) ->
      let m = List.length es in
      let src = Array.make m 0 and dst = Array.make m 0 in
      let costs = Array.make m Rat.zero in
      let rec go id = function
        | [] -> Ok (src, dst, costs)
        | Sink.List [ Sink.Int s; Sink.Int d; c ] :: rest -> (
          match rat_of_json c with
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
        let* weight = Result.bind (field "weight" e) rat_of_json in
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
