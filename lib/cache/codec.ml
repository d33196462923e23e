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

(* An inline game is read straight off the request line into the
   arrays the graph keeps, with no tree in between.  Each field
   keeps its first occurrence, as [Sink.member] would, and the fields
   are checked in the order kind, n, edges, prior whatever order the
   line gives them in.  A value of the wrong shape is read again as a
   tree, only for its error message.  Syntax errors raise
   [Sink.Lex.Error] with the message and offset of [Sink.of_string]. *)
module Lex = Sink.Lex

(* An inline game's edge costs: machine-integer pairs as written, or
   rationals once one of them does not fit. *)
type costs =
  | Ints of int array * int array
  | Rats of Rat.t array

type game_fields = {
  mutable kind : (Graph.kind, string) result option;
  mutable n : (int, string) result option;
  mutable edges : (int array * int array * costs, string) result option;
  mutable prior : (((int * int) array * Rat.t) list, string) result option;
}

(* The message for a value of the wrong shape at [start]: the value is
   read again as a tree and rendered into [fmt]. *)
let reread c ~depth start fmt =
  Lex.seek c start;
  Printf.sprintf fmt (Sink.to_string (Lex.value c ~depth))

let read_rat c ~depth =
  let start = Lex.pos c in
  match Lex.string c ~depth with
  | s -> rat_of_string s
  | exception Lex.Mismatch ->
    Error (reread c ~depth start "expected a rational string, got %s")

(* The list at the cursor, its items read by [item] until one fails;
   the items after it are only checked for syntax.  [not_a_list] words
   the error for a value of another type. *)
let read_list c ~depth ~not_a_list item =
  let start = Lex.pos c in
  if Lex.peek c ~depth <> '[' then Error (reread c ~depth start not_a_list)
  else begin
    let failed = ref None in
    if Lex.first_item c then begin
      let more = ref true in
      while !more do
        (match !failed with
        | Some _ -> Lex.skip c ~depth:(depth + 1)
        | None -> (
          match item () with Ok () -> () | Error _ as e -> failed := Some e));
        more := Lex.next_item c
      done
    end;
    Option.value !failed ~default:(Ok ())
  end

(* [read ()] on a value of a fixed shape; [Lex.Mismatch] from it means
   another shape, worded by [fmt]. *)
let shaped c ~depth fmt read =
  let at = Lex.pos c in
  match read () with
  | result -> result
  | exception Lex.Mismatch -> Error (reread c ~depth at fmt)

(* Steps through a fixed-length list: [Lex.Mismatch] when the value is
   not a list, or has fewer or more items than the reader takes. *)
let enter c ~depth =
  if Lex.peek c ~depth <> '[' || not (Lex.first_item c) then
    raise_notrace Lex.Mismatch

let next c = if not (Lex.next_item c) then raise_notrace Lex.Mismatch
let close c = if Lex.next_item c then raise_notrace Lex.Mismatch

(* Each edge is read as four ints (src, dst and the cost's numerator
   and denominator as written) into chunks of [chunk] edges, small
   enough for the minor heap, then copied once into arrays of the
   exact length.  An edge written as the encoder writes it, with a
   cost of at most 18 digits a part, is read in one pass
   ({!Lex.small_edge}): no per-edge string, [Rat] or promotion.  Any
   other edge is read by the general readers and its cost by
   [rat_of_string], as every edge was; a cost that does not fit
   machine integers is kept aside, and then the graph gets [Rat]
   costs.  An edge's cost error counts only once the edge has its
   [[src, dst, cost]] shape. *)
let chunk = 64

type edge_buffer = {
  mutable full : int array list;  (* full chunks, newest first *)
  mutable cur : int array;
  mutable fill : int;  (* edges in [cur] *)
  mutable count : int;
  mutable big : (int * Rat.t) list;  (* ids and costs that do not fit; their den is 0 *)
}

let read_cost c ~depth b slot =
  match read_rat c ~depth with
  | Ok r ->
    (match (Bigint.to_int_opt (Rat.num r), Bigint.to_int_opt (Rat.den r)) with
    | Some p, Some q ->
      b.cur.(slot + 2) <- p;
      b.cur.(slot + 3) <- q
    | _ ->
      b.cur.(slot + 2) <- 0;
      b.cur.(slot + 3) <- 0;
      b.big <- (b.count, r) :: b.big);
    Ok ()
  | Error _ as e -> e

let read_edge c ~depth b =
  if b.fill = chunk then begin
    b.full <- b.cur :: b.full;
    b.cur <- Array.make (4 * chunk) 0;
    b.fill <- 0
  end;
  let slot = 4 * b.fill in
  let at = Lex.pos c in
  match
    if Lex.small_edge c ~depth b.cur slot then Ok ()
    else begin
      enter c ~depth;
      b.cur.(slot) <- Lex.int c ~depth:(depth + 1);
      next c;
      b.cur.(slot + 1) <- Lex.int c ~depth:(depth + 1);
      next c;
      let cost = read_cost c ~depth:(depth + 1) b slot in
      close c;
      cost
    end
  with
  | Ok () ->
    b.fill <- b.fill + 1;
    b.count <- b.count + 1;
    Ok ()
  | Error _ as e -> e
  | exception Lex.Mismatch ->
    Error (reread c ~depth at "edge must be [src, dst, cost], got %s")

let edge_arrays b =
  let m = b.count in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let num = Array.make m 0 and den = Array.make m 0 in
  let copy chunk base k =
    for i = 0 to k - 1 do
      src.(base + i) <- chunk.(4 * i);
      dst.(base + i) <- chunk.((4 * i) + 1);
      num.(base + i) <- chunk.((4 * i) + 2);
      den.(base + i) <- chunk.((4 * i) + 3)
    done
  in
  copy b.cur (m - b.fill) b.fill;
  List.iteri (fun j full -> copy full (m - b.fill - ((j + 1) * chunk)) chunk) b.full;
  let costs =
    match b.big with
    | [] -> Ints (num, den)
    | big ->
      let costs = Array.make m Rat.zero in
      List.iter (fun (id, r) -> costs.(id) <- r) big;
      Array.iteri (fun id q -> if q <> 0 then costs.(id) <- Rat.of_ints num.(id) q) den;
      Rats costs
  in
  (src, dst, costs)

let read_edges c ~depth =
  let b = { full = []; cur = Array.make (4 * chunk) 0; fill = 0; count = 0; big = [] } in
  read_list c ~depth ~not_a_list:"edges must be a list, got %s" (fun () ->
      read_edge c ~depth:(depth + 1) b)
  |> Result.map (fun () -> edge_arrays b)

let read_types c ~depth =
  let pairs = ref [] in
  let pair () =
    enter c ~depth:(depth + 1);
    let x = Lex.int c ~depth:(depth + 2) in
    next c;
    let y = Lex.int c ~depth:(depth + 2) in
    close c;
    pairs := (x, y) :: !pairs;
    Ok ()
  in
  read_list c ~depth ~not_a_list:"types must be a list of pairs, got %s" (fun () ->
      shaped c ~depth:(depth + 1) "type must be [source, destination], got %s" pair)
  |> Result.map (fun () -> Array.of_list (List.rev !pairs))

let field_of name = function
  | None -> error "missing field %S" name
  | Some r -> r

let read_entry c ~depth =
  let types = ref None and weight = ref None in
  Lex.members c ~depth (fun () ->
      if Option.is_none !types && Lex.key_is c "types" then
        types := Some (read_types c ~depth:(depth + 1))
      else if Option.is_none !weight && Lex.key_is c "weight" then
        weight := Some (read_rat c ~depth:(depth + 1))
      else Lex.skip c ~depth:(depth + 1));
  let* types = field_of "types" !types in
  let* weight = field_of "weight" !weight in
  Ok (types, weight)

let read_prior c ~depth =
  let entries = ref [] in
  read_list c ~depth ~not_a_list:"prior must be a list, got %s" (fun () ->
      Result.map
        (fun e -> entries := e :: !entries)
        (read_entry c ~depth:(depth + 1)))
  |> Result.map (fun () -> List.rev !entries)

let read_game c ~depth =
  let f = { kind = None; n = None; edges = None; prior = None } in
  let depth' = depth + 1 in
  Lex.members c ~depth (fun () ->
      if Option.is_none f.kind && Lex.key_is c "kind" then
        f.kind <-
          Some
            (match Lex.value c ~depth:depth' with
            | Sink.Str "directed" -> Ok Graph.Directed
            | Sink.Str "undirected" -> Ok Graph.Undirected
            | v ->
              error "kind must be \"directed\" or \"undirected\", got %s"
                (Sink.to_string v))
      else if Option.is_none f.n && Lex.key_is c "n" then
        f.n <-
          Some
            (match Lex.value c ~depth:depth' with
            | Sink.Int n -> Ok n
            | v -> error "n must be an integer, got %s" (Sink.to_string v))
      else if Option.is_none f.edges && Lex.key_is c "edges" then
        f.edges <- Some (read_edges c ~depth:depth')
      else if Option.is_none f.prior && Lex.key_is c "prior" then
        f.prior <- Some (read_prior c ~depth:depth')
      else Lex.skip c ~depth:depth');
  f

let game_of_fields f =
  let* kind = field_of "kind" f.kind in
  let* n = field_of "n" f.n in
  let* src, dst, costs = field_of "edges" f.edges in
  let* entries = field_of "prior" f.prior in
  (* The prior is validated before the graph: an invalid prior has
     always won over an invalid edge on the wire. *)
  match
    let prior = Dist.make entries in
    let graph =
      match costs with
      | Ints (num, den) -> Graph.of_int_costs kind ~n ~src ~dst ~num ~den
      | Rats costs -> Graph.of_arrays kind ~n ~src ~dst ~costs
    in
    (graph, prior)
  with
  | graph, prior -> Ok (graph, prior)
  | exception Invalid_argument msg -> error "invalid game description: %s" msg
  | exception Division_by_zero -> Error "invalid game description: zero denominator"
