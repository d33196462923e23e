(* The traced run's in-process replay: the measured requests pass again
   through the program's layers, called directly in the order
   [Server.handle_query] calls them (and, for the cluster, in the order
   the router adds its own steps), each call wrapped in a span.  Every
   replayed response is compared byte for byte with the one the real
   processes sent. *)

module Sink = Bi_engine.Sink
module Protocol = Bi_serve.Protocol
module Client = Bi_serve.Client
module Service = Bi_cache.Service
module Fingerprint = Bi_cache.Fingerprint
module Registry = Bi_constructions.Registry
module Bncs = Bi_ncs.Bayesian_ncs
module Ring = Bi_router.Ring

type span = {
  req : int;  (* measured request index *)
  id : int;
  layer : string;
  start : float;
  stop : float;
  words : float;  (* minor words allocated inside the span *)
}

(* Child layers in call order; the root is [serve.rtt]. *)
let shard_layers =
  [
    "serve.parse";
    "ncs.build";
    "cache.fingerprint";
    "cache.find";
    "ncs.analyze";
    "certify.certify";
    "correlated.analyze";
    "cache.insert";
    "serve.encode";
  ]

let router_layers = [ "router.owners"; "router.exchange"; "router.replicate" ]
let layers = ("serve.rtt" :: shard_layers) @ router_layers

let solver_layer = function
  | Games.Exhaustive -> "ncs.analyze"
  | Games.Certified -> "certify.certify"
  | Games.Correlated -> "correlated.analyze"

type cluster = {
  ring : Ring.t;
  replicas : int;
  path_of : string -> string;  (* ring member -> socket path from here *)
}

type t = {
  svc : Service.t;
      (* the shard cache; for the cluster, the router's front cache *)
  cluster : cluster option;
  mutable spans : span list;
  mutable next_id : int;
  mutable mismatches : (int * string) list;
}

let create ?cluster ~store_path () =
  { svc = Service.create ~store_path (); cluster; spans = []; next_id = 0; mismatches = [] }

(* A child span of request [req]'s root span. *)
let span t ~req layer f =
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  let v = f () in
  let stop = Unix.gettimeofday () in
  let words = Gc.minor_words () -. w0 in
  t.spans <- { req; id = t.next_id; layer; start; stop; words } :: t.spans;
  t.next_id <- t.next_id + 1;
  v

(* Prime the replay's cache with the answers the set-up phase left in
   the program, decoded from their response lines. *)
let preload t (spec : Games.spec) line =
  match Sink.of_string line with
  | Error _ -> ()
  | Ok j -> (
    match (Sink.member "fingerprint" j, Games.tier spec) with
    | Some (Sink.Str key), Games.Exhaustive -> (
      match Option.map Bi_cache.Codec.analysis_of_json (Sink.member "analysis" j) with
      | Some (Ok a) -> Service.insert t.svc key (Service.Analysis a)
      | _ -> ())
    | Some (Sink.Str key), tier -> (
      if t.cluster = None then
        match Sink.member (Check.payload_member tier) j with
        | Some p -> Service.insert t.svc key (Service.Payload p)
        | None -> ())
    | _ -> ())

let exchange path json =
  let client = Client.make (Client.Unix_path path) in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () -> Client.request client json)

(* Replays measured request [req], whose real response was [wire]. *)
let one t ~req (r : Workload.req) wire =
  let span layer f = span t ~req layer f in
  let mismatch why = t.mismatches <- (req, why) :: t.mismatches in
  let spec = r.spec in
  match span "serve.parse" (fun () -> Protocol.parse_request r.line) with
  | Error e -> mismatch ("parse: " ^ e)
  | Ok { Protocol.query; _ } -> (
    let keyed =
      match query with
      | Protocol.Analyze { graph; prior; mode; concept } ->
        let key =
          span "cache.fingerprint" (fun () ->
              Games.qualify (Fingerprint.game graph ~prior) ~mode ~concept)
        in
        Some (key, fun () -> span "ncs.build" (fun () -> Bncs.make graph ~prior))
      | Protocol.Construction { name; k; mode; concept } -> (
        match span "ncs.build" (fun () -> Registry.build name k) with
        | Error _ -> None
        | Ok g ->
          let key =
            span "cache.fingerprint" (fun () ->
                Games.qualify (Fingerprint.of_game g) ~mode ~concept)
          in
          Some (key, fun () -> g))
      | _ -> None
    in
    match keyed with
    | None -> mismatch "not an analysis request"
    | Some (key, build) -> (
      let compute () =
        let game = build () in
        let v = span (solver_layer (Games.tier spec)) (fun () -> Games.compute spec game) in
        span "cache.insert" (fun () -> Service.insert t.svc key v);
        v
      in
      let found = span "cache.find" (fun () -> Service.find t.svc key) in
      match (t.cluster, found) with
      | None, _ | Some _, Some _ ->
        let value, cached =
          match found with Some v -> (v, true) | None -> (compute (), false)
        in
        let out =
          span "serve.encode" (fun () -> Games.response spec ~fingerprint:key ~cached value)
        in
        if out <> wire then mismatch "replayed response differs"
      | Some c, None -> (
        let owners = span "router.owners" (fun () -> Ring.owners c.ring ~n:c.replicas key) in
        let request = match Sink.of_string r.line with Ok j -> j | Error _ -> Sink.Null in
        match
          span "router.exchange" (fun () -> exchange (c.path_of (List.hd owners)) request)
        with
        | Error f -> mismatch ("exchange: " ^ Client.failure_to_string f)
        | Ok resp -> (
          (* The owner already answered this request in the measured
             phase; a never-seen game is computed here as the owner did
             then, and replicated to the next owner. *)
          let expected =
            if Workload.never_seen r then begin
              (match compute () with
              | Service.Analysis a ->
                let body = Bi_cache.Codec.analysis_to_json a in
                let put = Protocol.put_request ~fingerprint:key body in
                (match
                   span "router.replicate" (fun () ->
                       exchange (c.path_of (List.nth owners 1)) put)
                 with
                | Ok ack when Protocol.is_ok ack -> ()
                | _ -> mismatch "replication put refused")
              | Service.Payload _ -> ());
              Check.expected_hit wire
            end
            else Some wire
          in
          let out = span "serve.encode" (fun () -> Sink.to_string resp) in
          if Some out <> expected then mismatch "replayed response differs"))))

(* --- summaries -------------------------------------------------------- *)

type layer_summary = { calls : int; p50_us : float; self_ms : float; minor_words : float }

let summarise t ~root_latency_s ~root_words =
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find by_layer s.layer with Not_found -> [] in
      Hashtbl.replace by_layer s.layer (s :: l))
    t.spans;
  (* Per replayed request: its root latency minus what its children
     account for — transport, threads, dispatch and kernel time. *)
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let c = try Hashtbl.find children s.req with Not_found -> 0. in
      Hashtbl.replace children s.req (c +. (s.stop -. s.start)))
    t.spans;
  let unaccounted =
    Hashtbl.fold (fun req c acc -> (root_latency_s.(req) -. c) :: acc) children []
    |> Array.of_list
  in
  let layer name =
    if name = "serve.rtt" then
      {
        calls = Array.length root_latency_s;
        p50_us = Stats.percentile root_latency_s 50. *. 1e6;
        self_ms = Array.fold_left ( +. ) 0. unaccounted *. 1e3;
        minor_words = root_words;
      }
    else
      match Hashtbl.find_opt by_layer name with
      | None | Some [] -> { calls = 0; p50_us = 0.; self_ms = 0.; minor_words = 0. }
      | Some spans ->
        let d = Array.of_list (List.map (fun s -> s.stop -. s.start) spans) in
        let n = Array.length d in
        {
          calls = n;
          p50_us = Stats.percentile d 50. *. 1e6;
          self_ms = Array.fold_left ( +. ) 0. d *. 1e3;
          minor_words =
            List.fold_left (fun a s -> a +. s.words) 0. spans /. float_of_int n;
        }
  in
  let unaccounted_us =
    if unaccounted = [||] then 0. else Stats.percentile unaccounted 50. *. 1e6
  in
  (List.map (fun l -> (l, layer l)) layers, unaccounted_us)

(* Span ids: children first, in creation order, then one root per
   measured request; every child's parent is its request's root. *)
let write_spans t ~path ~root_send ~root_latency_s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line req id parent layer start stop words =
        Printf.fprintf oc
          {|{"req":%d,"span":%d,"parent":%d,"layer":"%s","start_us":%.1f,"end_us":%.1f,"minor_words":%.0f}|}
          req id parent layer (start *. 1e6) (stop *. 1e6) words;
        output_char oc '\n'
      in
      let roots = t.next_id in
      Array.iteri
        (fun i s -> line i (roots + i) (-1) "serve.rtt" s (s +. root_latency_s.(i)) 0.)
        root_send;
      List.iter
        (fun s -> line s.req s.id (roots + s.req) s.layer s.start s.stop s.words)
        (List.rev t.spans))
