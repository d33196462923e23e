module Sink = Bi_engine.Sink
module Codec = Bi_cache.Codec
module Service = Bi_cache.Service
module Mode = Bi_certify.Mode
module Concept = Bi_correlated.Concept

type query =
  | Analyze of {
      graph : Bi_graph.Graph.t;
      prior : (int * int) array Bi_prob.Dist.t;
      mode : Mode.t;
      concept : Concept.t;
    }
  | Construction of { name : string; k : int; mode : Mode.t; concept : Concept.t }
  | Put of { fingerprint : string; value : Service.value }
  | Digest of { bucket : int option }
  | Pull of { keys : string list }
  | Stats
  | Health
  | Shutdown

type request = { query : query; deadline_ms : int option }

let default_k = 4
let max_k = Bi_constructions.Registry.max_k

let parse_deadline j =
  match Sink.member "deadline_ms" j with
  | None -> Ok None
  | Some (Sink.Int ms) when ms > 0 -> Ok (Some ms)
  | Some v ->
    Error
      (Printf.sprintf "deadline_ms must be a positive integer, got %s"
         (Sink.to_string v))

(* Validated at parse time, mirroring [deadline_ms]: a k the solvers can
   never serve (0, negative, or absurdly large) is a structured error on
   arrival instead of a failure deep inside a construction builder. *)
let parse_k j =
  match Sink.member "k" j with
  | None -> Ok default_k
  | Some (Sink.Int k) when k >= 1 && k <= max_k -> Ok k
  | Some (Sink.Int k) ->
    Error (Printf.sprintf "construction: k must be in [1, %d], got %d" max_k k)
  | Some v ->
    Error
      (Printf.sprintf "construction: k must be an integer, got %s"
         (Sink.to_string v))

(* Validated like [k]: an absent field is the exhaustive tier (the only
   tier pre-mode servers ever had, so old clients keep their exact
   behavior — and their cache keys), anything else must name a tier. *)
let parse_mode j =
  match Sink.member "mode" j with
  | None -> Ok Mode.default
  | Some (Sink.Str s) -> Mode.of_string s
  | Some v ->
    Error (Printf.sprintf "mode must be a string, got %s" (Sink.to_string v))

(* Same back-compat contract as [parse_mode]: an absent field is the
   nash concept — the only concept pre-correlated servers ever had — so
   old clients keep their exact responses and cache keys. *)
let parse_concept j =
  match Sink.member "concept" j with
  | None -> Ok Concept.default
  | Some (Sink.Str s) -> Concept.of_string s
  | Some v ->
    Error (Printf.sprintf "concept must be a string, got %s" (Sink.to_string v))

module Lex = Sink.Lex

(* The request's members as a tree, except its first ["game"], which is
   read straight into arrays ({!Codec.read_game}): an inline game is
   most of an [analyze] line.  A line that is not an object has no
   members. *)
let read_request line =
  let c = Lex.make line in
  let members = ref [] and game = ref None in
  Lex.members c ~depth:0 (fun () ->
      if not (Lex.key_is c "game") then
        let k = Lex.key c in
        members := (k, Lex.value c ~depth:1) :: !members
      else if Option.is_none !game then game := Some (Codec.read_game c ~depth:1)
      else Lex.skip c ~depth:1);
  Lex.finish c;
  (Sink.Obj (List.rev !members), !game)

let parse_request line =
  match read_request line with
  | exception Lex.Error e -> Error (Printf.sprintf "invalid JSON: %s" e)
  | j, game -> (
    let with_deadline query =
      Result.map (fun deadline_ms -> { query; deadline_ms }) (parse_deadline j)
    in
    match Sink.member "op" j with
    | Some (Sink.Str "analyze") -> (
      match game with
      | None -> Error "analyze: missing \"game\""
      | Some game -> (
        match Codec.game_of_fields game with
        | Ok (graph, prior) ->
          Result.bind (parse_mode j) (fun mode ->
              Result.bind (parse_concept j) (fun concept ->
                  with_deadline (Analyze { graph; prior; mode; concept })))
        | Error e -> Error (Printf.sprintf "analyze: %s" e)))
    | Some (Sink.Str "construction") -> (
      match Sink.member "name" j with
      | Some (Sink.Str name) ->
        Result.bind (parse_k j) (fun k ->
            Result.bind (parse_mode j) (fun mode ->
                Result.bind (parse_concept j) (fun concept ->
                    with_deadline (Construction { name; k; mode; concept }))))
      | Some v ->
        Error
          (Printf.sprintf "construction: name must be a string, got %s"
             (Sink.to_string v))
      | None -> Error "construction: missing \"name\"")
    | Some (Sink.Str "put") -> (
      match Sink.member "fingerprint" j with
      | Some (Sink.Str "") -> Error "put: fingerprint must be non-empty"
      | Some (Sink.Str fingerprint) -> (
        match Sink.member "analysis" j with
        | None -> Error "put: missing \"analysis\""
        | Some body -> (
          (* An absent ["kind"] is an analysis — the only kind pre-repair
             routers ever sent — so old replication traffic parses
             exactly as before.  ["payload"] stores the body verbatim
             (certified/correlated tiers); anything else is rejected. *)
          match Sink.member "kind" j with
          | None | Some (Sink.Str "analysis") -> (
            match Codec.analysis_of_json body with
            | Ok analysis ->
              with_deadline
                (Put { fingerprint; value = Service.Analysis analysis })
            | Error e -> Error (Printf.sprintf "put: %s" e))
          | Some (Sink.Str "payload") ->
            with_deadline (Put { fingerprint; value = Service.Payload body })
          | Some v ->
            Error
              (Printf.sprintf
                 "put: kind must be \"analysis\" or \"payload\", got %s"
                 (Sink.to_string v))))
      | Some v ->
        Error
          (Printf.sprintf "put: fingerprint must be a string, got %s"
             (Sink.to_string v))
      | None -> Error "put: missing \"fingerprint\"")
    | Some (Sink.Str "digest") -> (
      match Sink.member "bucket" j with
      | None -> with_deadline (Digest { bucket = None })
      | Some (Sink.Int b) when b >= 0 && b < Bi_cache.Store.buckets ->
        with_deadline (Digest { bucket = Some b })
      | Some v ->
        Error
          (Printf.sprintf "digest: bucket must be an integer in [0, %d), got %s"
             Bi_cache.Store.buckets (Sink.to_string v)))
    | Some (Sink.Str "pull") -> (
      match Sink.member "keys" j with
      | Some (Sink.List keys) when keys <> [] && List.length keys <= 4096 ->
        let rec collect acc = function
          | [] -> Ok (List.rev acc)
          | Sink.Str k :: rest when k <> "" -> collect (k :: acc) rest
          | v :: _ ->
            Error
              (Printf.sprintf "pull: keys must be non-empty strings, got %s"
                 (Sink.to_string v))
        in
        Result.bind (collect [] keys) (fun keys ->
            with_deadline (Pull { keys }))
      | Some (Sink.List []) -> Error "pull: keys must be non-empty"
      | Some (Sink.List _) -> Error "pull: at most 4096 keys per request"
      | Some v ->
        Error
          (Printf.sprintf "pull: keys must be a list, got %s" (Sink.to_string v))
      | None -> Error "pull: missing \"keys\"")
    | Some (Sink.Str "stats") -> with_deadline Stats
    | Some (Sink.Str "health") -> with_deadline Health
    | Some (Sink.Str "shutdown") -> with_deadline Shutdown
    | Some (Sink.Str op) -> Error (Printf.sprintf "unknown op %S" op)
    | Some v ->
      Error (Printf.sprintf "op must be a string, got %s" (Sink.to_string v))
    | None -> Error "missing \"op\"")

let deadline_field deadline_ms =
  match deadline_ms with
  | None -> []
  | Some ms -> [ ("deadline_ms", Sink.Int ms) ]

(* Emitted only for non-default tiers, so requests from mode-aware
   clients to pre-mode servers stay byte-identical to old requests. *)
let mode_field = function
  | Mode.Exhaustive -> []
  | m -> [ ("mode", Sink.Str (Mode.to_string m)) ]

(* Same shape for the concept axis: nash requests stay byte-identical
   to pre-correlated requests. *)
let concept_field = function
  | Concept.Nash -> []
  | c -> [ ("concept", Sink.Str (Concept.to_string c)) ]

let analyze_game_request ?deadline_ms ?(mode = Mode.default)
    ?(concept = Concept.default) game =
  Sink.Obj
    ([ ("op", Sink.Str "analyze"); ("game", game) ]
    @ mode_field mode
    @ concept_field concept
    @ deadline_field deadline_ms)

let analyze_request ?deadline_ms ?mode ?concept graph ~prior =
  analyze_game_request ?deadline_ms ?mode ?concept
    (Codec.game_to_json graph ~prior)

let construction_request ?deadline_ms ?(mode = Mode.default)
    ?(concept = Concept.default) ~name ~k () =
  Sink.Obj
    ([ ("op", Sink.Str "construction"); ("name", Str name); ("k", Int k) ]
    @ mode_field mode
    @ concept_field concept
    @ deadline_field deadline_ms)

let put_line ?(kind = "analysis") ~fingerprint body =
  let kind_field = if kind = "analysis" then "" else {|,"kind":|} ^ Sink.quote kind in
  String.concat ""
    [ {|{"op":"put","fingerprint":|}; Sink.quote fingerprint; kind_field;
      {|,"analysis":|}; body; "}" ]

let put_request ?(kind = "analysis") ~fingerprint body =
  (* The ["kind"] field is emitted only for non-analysis payloads, so
     analysis replication stays byte-identical to pre-repair traffic. *)
  let kind_field =
    if kind = "analysis" then [] else [ ("kind", Sink.Str kind) ]
  in
  Sink.Obj
    ([ ("op", Sink.Str "put"); ("fingerprint", Str fingerprint) ]
    @ kind_field
    @ [ ("analysis", body) ])

let digest_request ?bucket () =
  let bucket_field =
    match bucket with None -> [] | Some b -> [ ("bucket", Sink.Int b) ]
  in
  Sink.Obj (("op", Sink.Str "digest") :: bucket_field)

let pull_request keys =
  Sink.Obj
    [
      ("op", Sink.Str "pull");
      ("keys", Sink.List (List.map (fun k -> Sink.Str k) keys));
    ]

let stats_request = Sink.Obj [ ("op", Str "stats") ]
let health_request = Sink.Obj [ ("op", Str "health") ]
let shutdown_request = Sink.Obj [ ("op", Str "shutdown") ]

let ok_answer ~fingerprint ~cached members =
  Sink.Obj
    (("ok", Sink.Bool true)
    :: ("fingerprint", Sink.Str fingerprint)
    :: ("cached", Sink.Bool cached)
    :: members)

let ok_analysis ~fingerprint ~cached analysis =
  ok_answer ~fingerprint ~cached
    [ ("analysis", Codec.analysis_to_json analysis) ]

let ok_certified ~fingerprint ~cached certified =
  ok_answer ~fingerprint ~cached
    [ ("mode", Str (Mode.to_string Mode.Certified)); ("certified", certified) ]

let ok_correlated ~fingerprint ~cached ~concept correlated =
  ok_answer ~fingerprint ~cached
    [ ("concept", Str (Concept.to_string concept)); ("correlated", correlated) ]

let ok_stats ~cache ~server =
  Sink.Obj [ ("ok", Bool true); ("cache", cache); ("server", server) ]

let ok_health ~shard ~inflight ~cache =
  Sink.Obj
    [
      ("ok", Bool true);
      ("shard", Str shard);
      ("inflight", Int inflight);
      ("cache", cache);
    ]

let ok_stored ~fingerprint =
  Sink.Obj
    [ ("ok", Bool true); ("stored", Bool true); ("fingerprint", Str fingerprint) ]

let ok_digest ~shard ~rollup =
  Sink.Obj
    [
      ("ok", Bool true);
      ("shard", Str shard);
      ("digest",
       List (List.map (fun (b, d) -> Sink.List [ Int b; Str d ]) rollup));
    ]

let ok_bucket ~shard ~bucket ~keys =
  Sink.Obj
    [
      ("ok", Bool true);
      ("shard", Str shard);
      ("bucket", Int bucket);
      ("keys",
       List (List.map (fun (k, c) -> Sink.List [ Str k; Str c ]) keys));
    ]

let ok_pulled ~shard ~entries ~missing =
  let entry (e : Bi_cache.Store.entry) =
    String.concat ""
      [ {|{"key":|}; Sink.quote e.Bi_cache.Store.key; {|,"kind":|};
        Sink.quote e.Bi_cache.Store.kind; {|,"body":|}; e.Bi_cache.Store.body;
        "}" ]
  in
  String.concat ""
    [ {|{"ok":true,"shard":|}; Sink.quote shard; {|,"entries":[|};
      String.concat "," (List.map entry entries); {|],"missing":|};
      Sink.to_string (Sink.List (List.map (fun k -> Sink.Str k) missing)); "}" ]

(* Client-side decoders for the repair verbs (router repair loop, fsck).
   Total: any malformed shape is an [Error], never an exception. *)

let rollup_of j =
  match Sink.member "digest" j with
  | Some (Sink.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Sink.List [ Sink.Int b; Sink.Str d ] :: rest -> go ((b, d) :: acc) rest
      | _ -> Error "digest: malformed rollup item"
    in
    go [] items
  | _ -> Error "digest: missing rollup"

let bucket_keys_of j =
  match Sink.member "keys" j with
  | Some (Sink.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Sink.List [ Sink.Str k; Sink.Str c ] :: rest -> go ((k, c) :: acc) rest
      | _ -> Error "digest: malformed bucket item"
    in
    go [] items
  | _ -> Error "digest: missing bucket keys"

let entries_of j =
  match Sink.member "entries" j with
  | Some (Sink.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match
          (Sink.member "key" item, Sink.member "kind" item,
           Sink.member "body" item)
        with
        | Some (Sink.Str key), Some (Sink.Str kind), Some body ->
          go (Bi_cache.Store.entry ~key ~kind (Sink.to_string body) :: acc) rest
        | _ -> Error "pull: malformed entry")
    in
    go [] items
  | _ -> Error "pull: missing entries"

let shard_of j =
  match Sink.member "shard" j with Some (Sink.Str s) -> Some s | _ -> None

let ok_shutdown = Sink.Obj [ ("ok", Bool true); ("stopping", Bool true) ]

let error msg =
  Sink.Obj [ ("ok", Bool false); ("code", Str "error"); ("error", Str msg) ]

let overloaded ~retry_after_ms =
  Sink.Obj
    [
      ("ok", Bool false);
      ("code", Str "overloaded");
      ("error", Str "server overloaded, retry later");
      ("retry_after_ms", Int retry_after_ms);
    ]

let deadline_exceeded =
  Sink.Obj
    [
      ("ok", Bool false);
      ("code", Str "deadline_exceeded");
      ("error", Str "request deadline exceeded");
    ]

let is_ok j =
  match Sink.member "ok" j with Some (Sink.Bool b) -> b | _ -> false

let response_code j =
  match Sink.member "ok" j with
  | Some (Sink.Bool true) -> Some "ok"
  | Some (Sink.Bool false) -> (
    match Sink.member "code" j with
    | Some (Sink.Str c) -> Some c
    (* Pre-[code] servers: any well-formed failure is a plain error. *)
    | _ -> ( match Sink.member "error" j with Some _ -> Some "error" | None -> None))
  | _ -> None

type answer = {
  line : string;
  code : string option;
  cached : bool option;
  analysis : (int * int) option;
}

let scan_answer line =
  let c = Lex.make line in
  match
    let ok = ref None and code = ref None and error = ref false in
    let cached = ref None and analysis = ref None in
    Lex.members c ~depth:0 (fun () ->
        let first slot name = Option.is_none !slot && Lex.key_is c name in
        if first ok "ok" then ok := Some (Lex.value c ~depth:1)
        else if first code "code" then code := Some (Lex.value c ~depth:1)
        else if first cached "cached" then cached := Some (Lex.value c ~depth:1)
        else if first analysis "analysis" then begin
          ignore (Lex.peek c ~depth:1);
          let start = Lex.pos c in
          Lex.skip c ~depth:1;
          analysis := Some (start, Lex.pos c)
        end
        else begin
          if Lex.key_is c "error" then error := true;
          Lex.skip c ~depth:1
        end);
    Lex.finish c;
    let code =
      match !ok with
      | Some (Sink.Bool true) -> Some "ok"
      | Some (Sink.Bool false) -> (
        match !code with
        | Some (Sink.Str c) -> Some c
        | _ -> if !error then Some "error" else None)
      | _ -> None
    in
    let cached = match !cached with Some (Sink.Bool b) -> Some b | _ -> None in
    { line; code; cached; analysis = !analysis }
  with
  | answer -> Ok answer
  | exception Lex.Error e -> Error e

let retry_after_ms j =
  match Sink.member "retry_after_ms" j with
  | Some (Sink.Int ms) when ms >= 0 -> Some ms
  | _ -> None
