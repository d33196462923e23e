module Sink = Bi_engine.Sink
module Clock = Bi_engine.Clock
module Metrics = Bi_engine.Metrics
module Client = Bi_serve.Client
module Protocol = Bi_serve.Protocol
module Tier = Bi_serve.Tier
module Lineserver = Bi_serve.Lineserver
module Lru = Bi_cache.Lru
module Fingerprint = Bi_cache.Fingerprint

type config = {
  replicas : int;
  quorum : int;
  vnodes : int;
  front_capacity : int;
  probe_interval_s : float;
  probe_timeout_s : float;
  shard_timeout_s : float;
  hint_capacity : int;
  repair_interval_ticks : int;
}

let default_config =
  {
    replicas = 2;
    quorum = 2;
    vnodes = Ring.default_vnodes;
    front_capacity = 4096;
    probe_interval_s = 0.25;
    probe_timeout_s = 2.;
    shard_timeout_s = 30.;
    hint_capacity = Hints.default_capacity;
    repair_interval_ticks = 8;
  }

(* One anti-entropy round compares one owner pair; bounding the buckets
   repaired per round keeps each round short so the poller's probe
   cadence never starves behind a large divergence. *)
let repair_buckets_per_round = 16

(* The router's instruments, registered in the member order of the
   [router] object that [stats] and the metrics dump render. *)
type metrics = {
  registry : Metrics.t;
  requests : Metrics.counter;
  errors : Metrics.counter;
  front_hits : Metrics.counter;
  forwards : Metrics.counter;  (* every exchange to a shard, puts included *)
  failovers : Metrics.counter;  (* attempts that moved to the next owner *)
  unrouted : Metrics.counter;  (* every owner tried, no usable answer *)
  replications : Metrics.counter;  (* puts a shard acknowledged *)
  replication_failures : Metrics.counter;
  quorum_failures : Metrics.counter;  (* writes left short of [quorum] *)
  probes : Metrics.counter;
  probe_failures : Metrics.counter;
  marked_up : Metrics.counter;
  marked_down : Metrics.counter;
  warmed : Metrics.counter;  (* front-cache entries pushed on recovery *)
  hints_recorded : Metrics.counter;
  hints_dropped : Metrics.counter;  (* evicted by the log's capacity *)
  read_repairs : Metrics.counter;  (* hints parked by failover reads *)
  repair_rounds : Metrics.counter;  (* owner pairs anti-entropy compared *)
  divergent_keys : Metrics.counter;
  repairs : Metrics.counter;  (* entries a hint drain or anti-entropy pushed *)
  inflight : Metrics.gauge;
  latency : Metrics.histogram;  (* of every handled line *)
  connects : Metrics.counter;  (* shard connections opened *)
}

let create_metrics () =
  let registry = Metrics.create () in
  let counter = Metrics.counter registry in
  let requests = counter "requests" in
  let errors = counter "errors" in
  let front_hits = counter "front_hits" in
  let forwards = counter "forwards" in
  let failovers = counter "failovers" in
  let unrouted = counter "unrouted" in
  let replications = counter "replications" in
  let replication_failures = counter "replication_failures" in
  let quorum_failures = counter "quorum_failures" in
  let probes = counter "probes" in
  let probe_failures = counter "probe_failures" in
  let marked_up = counter "marked_up" in
  let marked_down = counter "marked_down" in
  let warmed = counter "warmed" in
  let hints_recorded = counter "hints_recorded" in
  let hints_dropped = counter "hints_dropped" in
  let read_repairs = counter "read_repairs" in
  let repair_rounds = counter "repair_rounds" in
  let divergent_keys = counter "divergent_keys" in
  let repairs = counter "repairs" in
  let inflight = Metrics.gauge registry "inflight" ~peak:"max_inflight" in
  let latency = Metrics.histogram registry "latency_log2_us" in
  (* Last, so every member registered before it keeps its position. *)
  let connects = counter "connects" in
  { registry; requests; errors; front_hits; forwards; failovers; unrouted;
    replications; replication_failures; quorum_failures; probes;
    probe_failures; marked_up; marked_down; warmed; hints_recorded;
    hints_dropped; read_repairs; repair_rounds; divergent_keys; repairs;
    inflight; latency; connects }

type t = {
  config : config;
  metrics : metrics;
  membership : Membership.t;
  mutable ring : Ring.t;  (* immutable value, swapped under [ring_lock] *)
  ring_lock : Mutex.t;
  front : string Lru.t;  (* fingerprint -> the analysis body's bytes *)
  front_lock : Mutex.t;
  hints : Hints.t;
  ls : Lineserver.t;
  members_file : string option;
  reload : bool Atomic.t;  (* set by SIGHUP, consumed by the poller *)
  mutable repair_cursor : int;  (* poller-thread only *)
}

(* --- member addresses ------------------------------------------------- *)

let addr_of_member m =
  let port_of s =
    match int_of_string_opt s with
    | Some p when p > 0 && p < 65536 -> Ok p
    | _ -> Error (Printf.sprintf "member %S: invalid port" m)
  in
  if String.contains m '/' then Ok (Client.Unix_path m)
  else
    match String.rindex_opt m ':' with
    | None -> Result.map (fun p -> Client.Tcp_port p) (port_of m)
    | Some i ->
      let host = String.sub m 0 i in
      let port = String.sub m (i + 1) (String.length m - i - 1) in
      if host = "127.0.0.1" || host = "localhost" then
        Result.map (fun p -> Client.Tcp_port p) (port_of port)
      else
        Error
          (Printf.sprintf
             "member %S: only loopback (127.0.0.1) or socket-path members \
              are supported"
             m)

let validate_members members =
  if members = [] then Error "no members given"
  else
    List.fold_left
      (fun acc m ->
        match (acc, addr_of_member m) with
        | (Error _ as e), _ -> e
        | Ok (), Ok _ -> Ok ()
        | Ok (), Error e -> Error e)
      (Ok ()) members

(* --- ring and front-cache access -------------------------------------- *)

let current_ring t =
  Mutex.lock t.ring_lock;
  let r = t.ring in
  Mutex.unlock t.ring_lock;
  r

let owners t fingerprint =
  Ring.owners (current_ring t) ~n:t.config.replicas fingerprint

let front_find t fingerprint =
  Mutex.lock t.front_lock;
  let v = Lru.find t.front fingerprint in
  Mutex.unlock t.front_lock;
  v

let front_store t fingerprint body =
  Mutex.lock t.front_lock;
  Lru.add t.front fingerprint body;
  Mutex.unlock t.front_lock

let front_snapshot t =
  Mutex.lock t.front_lock;
  let entries = Lru.fold (fun acc k v -> (k, v) :: acc) [] t.front in
  let length = Lru.length t.front and capacity = Lru.capacity t.front in
  Mutex.unlock t.front_lock;
  (entries, length, capacity)

(* --- talking to shards ------------------------------------------------ *)

(* An exchange sends one line to a member and reads its one-line
   answer.  No retry loop: a failed or overloaded shard must surface
   immediately so the router can fail over to the next owner instead of
   camping on a corpse; the health prober (not the request path) is
   what decides a shard is down.  [line] is sent verbatim: a client's
   request is forwarded as the bytes it sent, and an answer is read
   once ({!Protocol.scan_answer}) and relayed as the bytes the shard
   sent.  Two transports send it: a request-path worker's persistent
   links ({!exchange_linked}) and the poller's one-shot connections
   ({!exchange}). *)
type send = string -> string -> (Protocol.answer, Client.failure) result

let connect t ~timeout_s member =
  match addr_of_member member with
  | Error e -> Error (Client.Io e)
  | Ok addr -> (
    match Client.make ~timeout_s addr with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Client.Io (Unix.error_message err))
    | client ->
      Metrics.incr t.metrics.connects;
      Ok client)

(* One connection per exchange: the poller's probes, hint drains,
   warming and anti-entropy.  A probe on a fresh connection proves that
   the shard's accept loop still answers.  [read] takes the answer line
   apart: {!Protocol.scan_answer}, or [Sink.of_string] for the repair
   verbs' answers. *)
let exchange t ?(timeout_s = t.config.shard_timeout_s) read member line =
  Result.bind (connect t ~timeout_s member) (fun client ->
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () -> Client.request_with client line read))

(* A router worker — the [Lineserver] thread serving one client
   connection — keeps at most one idle link per member, and only that
   thread touches them.  They are closed when the client connection
   ends, so the links number at most live client connections times
   members. *)
type links = (string, Client.t) Hashtbl.t

(* The request path's exchange, over the worker's link to [member] when
   it has one.  A reused link that the shard closed while it sat idle
   (an idle timeout, a restart) fails before any answer arrives; it is
   dropped and the line sent once more on a fresh connection before the
   exchange counts as a transport failure.  A link that answered goes
   back into [links]; one that failed is closed. *)
let exchange_linked t (links : links) member line =
  let settle client result =
    (match result with
    | Ok _ -> Hashtbl.replace links member client
    | Error _ -> Client.close client);
    result
  in
  let request client = Client.request_with client line Protocol.scan_answer in
  let fresh () =
    Result.bind (connect t ~timeout_s:t.config.shard_timeout_s member)
      (fun client -> settle client (request client))
  in
  match Hashtbl.find_opt links member with
  | None -> fresh ()
  | Some client -> (
    Hashtbl.remove links member;
    match request client with
    | Error _ when Client.hung_up client ->
      Client.close client;
      fresh ()
    | result -> settle client result)

(* [body] is the entry's canonical bytes, spliced into the put line. *)
let put_to t ~(send : send) ~tick ?(kind = "analysis") member ~fingerprint body =
  Metrics.incr t.metrics.forwards;
  match send member (Protocol.put_line ~kind ~fingerprint body) with
  | Ok { Protocol.code = Some "ok"; _ } ->
    Metrics.incr t.metrics.replications;
    true
  | Ok _ ->
    Metrics.incr t.metrics.replication_failures;
    false
  | Error _ ->
    Metrics.incr t.metrics.replication_failures;
    ignore (Membership.note_failure t.membership ~now:tick member);
    false

(* Park a write that could not reach an owner; drained on the owner's
   Down→Up transition, before warming. *)
let hint t member ~fingerprint ~kind body =
  let dropped = Hints.record t.hints ~member ~fingerprint ~kind body in
  Metrics.incr t.metrics.hints_recorded;
  Metrics.add t.metrics.hints_dropped dropped

let is_down t m = Membership.state t.membership m = Some Membership.Down

(* The write fan-out: put [body] to each of [members] in order until
   [enough] of them have acked, and count the acks.  A Down owner, or
   one that refuses the copy, gets a hint instead of silence — the
   recovery drain converges it. *)
let put_or_hint t ~send ~tick ~kind ~fingerprint ~enough members body =
  List.fold_left
    (fun acks m ->
      if is_down t m then begin
        hint t m ~fingerprint ~kind body;
        acks
      end
      else if acks >= enough then acks
      else if put_to t ~send ~tick ~kind m ~fingerprint body then acks + 1
      else begin
        hint t m ~fingerprint ~kind body;
        acks
      end)
    0 members

(* Synchronous replication after a fresh compute: the answering shard
   already holds copy one, so the other owners are put to until
   [quorum] copies exist.  A missed quorum is counted, not failed — the
   client has its answer, durability is degraded and visible. *)
let replicate t ~send ~tick ~answered_by ~fingerprint analysis =
  let others =
    List.filter (fun m -> m <> answered_by) (owners t fingerprint)
  in
  let needed = t.config.quorum - 1 in
  let acks =
    put_or_hint t ~send ~tick ~kind:"analysis" ~fingerprint ~enough:needed
      others analysis
  in
  if acks < needed then Metrics.incr t.metrics.quorum_failures

(* --- request routing -------------------------------------------------- *)

(* Candidate order for a key: its owners as the ring lists them
   (primary, then successors), routable ones first; owners already
   marked Down come last as a desperation measure — a Down shard that
   just restarted may well answer, and a structured error beats none. *)
let candidates t fingerprint =
  let owners = owners t fingerprint in
  let down m = Membership.state t.membership m = Some Membership.Down in
  let live, dead = List.partition (fun m -> not (down m)) owners in
  live @ dead

let no_shard_error fingerprint =
  Sink.to_string
    (Protocol.error
       (Printf.sprintf "no shard available for fingerprint %s" fingerprint))

(* Forward an analysis request (as its original line, so deadline and
   every other field ride along verbatim) on its tier's routing key.
   Failover policy: transport failures and [overloaded] move to the
   next owner; [error] and [deadline_exceeded] are deterministic
   verdicts and are returned as-is — every shard would say the same,
   and the deadline belongs to the client, not to the routing.  Only a
   front-cacheable tier ({!Tier.front_cacheable}) is looked up in, and
   stored to, the front cache and replicated; every other answer is
   forwarded untouched.  Every answer is the shard's line as it came;
   the front cache keeps the span of its ["analysis"] member, and a
   front hit splices those bytes under a cached answer's header. *)
let route_analysis t ~send ~tick ~request ~tier fingerprint =
  let front = Tier.front_cacheable tier in
  match if front then front_find t fingerprint else None with
  | Some body ->
    Metrics.incr t.metrics.front_hits;
    Tier.response Tier.Exhaustive ~fingerprint ~cached:true body
  | None ->
    let key_owners = owners t fingerprint in
    let rec attempt last failed = function
      | [] -> (
        Metrics.incr t.metrics.unrouted;
        match last with
        | Some line -> line
        | None -> no_shard_error fingerprint)
      | member :: rest -> (
        Metrics.incr t.metrics.forwards;
        match send member request with
        | Error (Client.Io _ | Client.Malformed _ | Client.Closed) ->
          ignore (Membership.note_failure t.membership ~now:tick member);
          if rest <> [] then Metrics.incr t.metrics.failovers;
          attempt last (member :: failed) rest
        | Ok (answer : Protocol.answer) -> (
          match answer.code with
          | Some "ok" ->
            (match if front then answer.analysis else None with
            | Some (start, stop) ->
              let body = String.sub answer.line start (stop - start) in
              front_store t fingerprint body;
              if answer.cached = Some false then
                replicate t ~send ~tick ~answered_by:member ~fingerprint body
              else
                (* Read-repair: a failover read answered from a
                   replica's cache means every owner we passed over is
                   missing or unreachable — park the answer for each so
                   the primary converges the moment it recovers. *)
                List.iter
                  (fun m ->
                    if List.mem m key_owners then begin
                      Metrics.incr t.metrics.read_repairs;
                      hint t m ~fingerprint ~kind:"analysis" body
                    end)
                  failed
            | None -> ());
            answer.line
          | Some "overloaded" ->
            if rest <> [] then Metrics.incr t.metrics.failovers;
            attempt (Some answer.line) failed rest
          | _ -> answer.line))
    in
    attempt None [] (candidates t fingerprint)

(* A [put] arriving at the router is a client-driven write: fan it out
   to every owner and demand the quorum ourselves, so even a degraded
   write converges on recovery through its hints. *)
let route_put t ~send ~tick ~fingerprint ~kind body =
  if kind = "analysis" then front_store t fingerprint body;
  let all_owners = owners t fingerprint in
  let live = List.filter (fun m -> not (is_down t m)) all_owners in
  let acks =
    put_or_hint t ~send ~tick ~kind ~fingerprint ~enough:max_int all_owners
      body
  in
  Sink.to_string
    (if acks >= min t.config.quorum (max 1 (List.length live)) then
       Protocol.ok_stored ~fingerprint
     else begin
       Metrics.incr t.metrics.quorum_failures;
       Protocol.error
         (Printf.sprintf "quorum not met for %s: %d/%d acks" fingerprint acks
            t.config.quorum)
     end)

let members_json t =
  Sink.Obj
    (List.map
       (fun (m, s) -> (m, Sink.Str (Membership.state_to_string s)))
       (Membership.states t.membership))

let front_stats_json t =
  let _, length, capacity = front_snapshot t in
  Sink.Obj [ ("length", Sink.Int length); ("capacity", Sink.Int capacity) ]

let router_stats t =
  Sink.Obj
    [
      ("ok", Sink.Bool true);
      ("router", Metrics.to_json t.metrics.registry);
      ("members", members_json t);
      ("front", front_stats_json t);
      ("hints", Sink.Int (Hints.pending t.hints));
    ]

let router_health t =
  Sink.Obj
    [
      ("ok", Sink.Bool true);
      ("shard", Sink.Str "router");
      ("inflight", Sink.Int (Metrics.level t.metrics.inflight));
      ("members", members_json t);
      ("cache", front_stats_json t);
      ("hints", Sink.Int (Hints.pending t.hints));
    ]

let dispatch t ~send ~tick line =
  match Protocol.parse_request line with
  | Error e ->
    Metrics.incr t.metrics.errors;
    (Sink.to_string (Protocol.error e), `Continue)
  | Ok { Protocol.query; _ } -> (
    (* Routing keys are tier-qualified, so the tiers' answers for the
       same game live on (possibly) different owners and never alias. *)
    let route fingerprint ~mode ~concept =
      let tier = Tier.of_query ~mode ~concept in
      ( route_analysis t ~send ~tick ~request:line ~tier
          (Tier.routing_key tier fingerprint),
        `Continue )
    in
    match query with
    | Protocol.Analyze { graph; prior; mode; concept } ->
      route (Fingerprint.game graph ~prior) ~mode ~concept
    | Protocol.Construction { name; k; mode; concept } -> (
      match Fingerprint.of_construction name k with
      | Error e ->
        Metrics.incr t.metrics.errors;
        (Sink.to_string (Protocol.error e), `Continue)
      | Ok fingerprint -> route fingerprint ~mode ~concept)
    | Protocol.Put { fingerprint; value } ->
      ( route_put t ~send ~tick ~fingerprint
          ~kind:(Bi_cache.Service.kind_of value)
          (Bi_cache.Service.body_of value),
        `Continue )
    | Protocol.Digest _ | Protocol.Pull _ ->
      (* Cluster-internal verbs: replica state lives on shards, the
         router holds only an ephemeral front cache.  fsck and the
         repair loop address shards directly. *)
      ( Sink.to_string
          (Protocol.error "digest/pull are shard verbs; address a shard directly"),
        `Continue )
    | Protocol.Stats -> (Sink.to_string (router_stats t), `Continue)
    | Protocol.Health -> (Sink.to_string (router_health t), `Continue)
    | Protocol.Shutdown -> (Sink.to_string Protocol.ok_shutdown, `Stop))

(* Every handled line is counted on entry and timed on exit, whether it
   returns or raises, so after shutdown [requests] equals the
   histogram's total. *)
let handle t ~send ~tick line =
  Metrics.incr t.metrics.requests;
  Metrics.enter t.metrics.inflight;
  let t0 = Clock.now_ns () in
  let finish () =
    Metrics.leave t.metrics.inflight;
    Metrics.observe t.metrics.latency ~ns:(Clock.now_ns () - t0)
  in
  match dispatch t ~send ~tick line with
  | answer ->
    finish ();
    answer
  | exception e ->
    finish ();
    raise e

(* --- health polling, warming, membership reload ----------------------- *)

(* Push every front-cache entry the member owns: after a recovery or a
   membership change the shard's disk may lag the cluster, and warming
   from the router's own recent answers restores byte-identical warm
   reads without recomputing anything. *)
let warm t ~tick member =
  let entries, _, _ = front_snapshot t in
  List.iter
    (fun (fingerprint, body) ->
      if List.mem member (owners t fingerprint) then
        if put_to t ~send:(exchange t Protocol.scan_answer) ~tick member
             ~fingerprint body
        then Metrics.incr t.metrics.warmed)
    entries

(* Deliver the writes a member missed while unreachable.  Runs on its
   Down→Up transition, before warming: hints are the entries known to
   be missing, warming is opportunistic.  A hint that still cannot be
   delivered goes back in the log for the next recovery. *)
let drain_hints t ~tick member =
  List.iter
    (fun (h : Hints.hint) ->
      if
        put_to t ~send:(exchange t Protocol.scan_answer) ~tick
          ~kind:h.Hints.kind member ~fingerprint:h.Hints.fingerprint
          h.Hints.body
      then Metrics.incr t.metrics.repairs
      else
        ignore
          (Hints.record t.hints ~member ~fingerprint:h.Hints.fingerprint
             ~kind:h.Hints.kind h.Hints.body))
    (Hints.take t.hints member)

let probe t ~tick member =
  Metrics.incr t.metrics.probes;
  let healthy =
    match
      exchange t ~timeout_s:t.config.probe_timeout_s Protocol.scan_answer
        member
        (Sink.to_string Protocol.health_request)
    with
    | Ok answer -> answer.Protocol.code = Some "ok"
    | Error _ -> false
  in
  if healthy then (
    match Membership.note_success t.membership ~now:tick member with
    | `Recovered ->
      Metrics.incr t.metrics.marked_up;
      drain_hints t ~tick member;
      warm t ~tick member
    | `Ok -> ())
  else begin
    Metrics.incr t.metrics.probe_failures;
    match Membership.note_failure t.membership ~now:tick member with
    | `Went_down -> Metrics.incr t.metrics.marked_down
    | `Ok -> ()
  end

(* --- anti-entropy ------------------------------------------------------ *)

(* The digest view of one live member, as key→check tables keyed by
   bucket.  [Error] covers transport failure and pre-repair shards that
   reject the verb — both mean "skip this round", never "diverged". *)
let member_rollup t member =
  match
    exchange t Sink.of_string member
      (Sink.to_string (Protocol.digest_request ()))
  with
  | Error _ -> Error ()
  | Ok resp ->
    if Protocol.is_ok resp then
      Result.map_error (fun _ -> ()) (Protocol.rollup_of resp)
    else Error ()

let member_bucket t member b =
  match
    exchange t Sink.of_string member
      (Sink.to_string (Protocol.digest_request ~bucket:b ()))
  with
  | Error _ -> Error ()
  | Ok resp ->
    if Protocol.is_ok resp then
      Result.map_error (fun _ -> ()) (Protocol.bucket_keys_of resp)
    else Error ()

(* Repair the keys of one bucket between members [a] and [b]: judge the
   pair's copies with the same divergence rule fsck uses (restricted to
   this pair), pull each divergent key from its authority and push it to
   the lagging side through the ordinary [put] — so repaired entries are
   byte-identical to replicated ones, and last-writer-wins follows the
   ring's owner order. *)
let repair_bucket t ~tick a b bucket =
  match (member_bucket t a bucket, member_bucket t b bucket) with
  | Error (), _ | _, Error () -> ()
  | Ok pa, Ok pb ->
    let table pairs =
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, c) -> Hashtbl.replace tbl k c) pairs;
      tbl
    in
    let _, divergent =
      Fsck.divergences ~ring:(current_ring t) ~replicas:t.config.replicas
        [ (a, table pa); (b, table pb) ]
    in
    Metrics.add t.metrics.divergent_keys (List.length divergent);
    List.iter
      (fun (d : Fsck.divergence) ->
        let targets = Fsck.targets d in
        if targets <> [] then begin
          match
            exchange t Sink.of_string d.Fsck.authority
              (Sink.to_string (Protocol.pull_request [ d.Fsck.key ]))
          with
          | Error _ -> ()
          | Ok resp -> (
            match Protocol.entries_of resp with
            | Ok (entry :: _) ->
              List.iter
                (fun target ->
                  if
                    put_to t ~send:(exchange t Protocol.scan_answer) ~tick
                      ~kind:entry.Bi_cache.Store.kind target
                      ~fingerprint:entry.Bi_cache.Store.key
                      entry.Bi_cache.Store.body
                  then Metrics.incr t.metrics.repairs)
                targets
            | Ok [] | Error _ -> ())
        end)
      divergent

(* One low-duty-cycle anti-entropy round: compare the digest rollups of
   one Up owner pair (a rotating cursor covers all adjacent pairs over
   successive rounds) and repair the differing buckets, a bounded number
   per round. *)
let repair_round t ~tick =
  let ups =
    List.filter
      (fun m -> Membership.state t.membership m = Some Membership.Up)
      (Membership.members t.membership)
  in
  let n = List.length ups in
  if n >= 2 then begin
    Metrics.incr t.metrics.repair_rounds;
    let a = List.nth ups (t.repair_cursor mod n) in
    let b = List.nth ups ((t.repair_cursor + 1) mod n) in
    t.repair_cursor <- t.repair_cursor + 1;
    match (member_rollup t a, member_rollup t b) with
    | Error (), _ | _, Error () -> ()
    | Ok ra, Ok rb ->
      let tbl = Hashtbl.create 64 in
      List.iter (fun (bk, d) -> Hashtbl.replace tbl bk [ d ]) ra;
      List.iter
        (fun (bk, d) ->
          match Hashtbl.find_opt tbl bk with
          | Some ds -> Hashtbl.replace tbl bk (d :: ds)
          | None -> Hashtbl.replace tbl bk [ d ])
        rb;
      let differing =
        Hashtbl.fold
          (fun bk ds acc ->
            match ds with
            | [ d1; d2 ] when d1 = d2 -> acc
            | _ -> bk :: acc)
          tbl []
        |> List.sort compare
      in
      let bounded =
        List.filteri (fun i _ -> i < repair_buckets_per_round) differing
      in
      List.iter (repair_bucket t ~tick a b) bounded
  end

let parse_members s =
  let raw =
    String.split_on_char ','
      (String.map (function '\n' | '\r' | '\t' | ' ' -> ',' | c -> c) s)
    |> List.filter_map (fun m ->
           let m = String.trim m in
           if m = "" then None else Some m)
  in
  (* Dedupe, keeping first-occurrence order: a duplicated member would
     double-weight the ring and count twice toward the quorum — two
     "copies" on one disk.  Noisy, because it is a config bug. *)
  let seen = Hashtbl.create 8 in
  List.filter
    (fun m ->
      if Hashtbl.mem seen m then begin
        Printf.eprintf "router: ignoring duplicate member %s\n%!" m;
        false
      end
      else begin
        Hashtbl.replace seen m ();
        true
      end)
    raw

let reload_members t ~tick =
  match t.members_file with
  | None -> ()
  | Some path -> (
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e ->
      Printf.eprintf "router: members reload failed: %s\n%!" e
    | content -> (
      let members = parse_members content in
      match validate_members members with
      | Error e -> Printf.eprintf "router: members reload rejected: %s\n%!" e
      | Ok () ->
        let ring = Ring.create ~vnodes:t.config.vnodes members in
        Mutex.lock t.ring_lock;
        t.ring <- ring;
        Mutex.unlock t.ring_lock;
        let added = Membership.set_members t.membership members in
        Printf.eprintf "router: members reloaded: %s%s\n%!"
          (String.concat "," members)
          (if added = [] then ""
           else " (new: " ^ String.concat "," added ^ ")");
        (* New members are probed (and warmed) on this same tick. *)
        List.iter (probe t ~tick) added))

(* The poller sleeps out a probe interval in slices of at most this
   long, checking for shutdown between them: [run] joins the poller, so
   a router stops within one slice of [shutdown] whatever the interval.
   The default interval (0.25 s) fits in one slice, so a router at its
   defaults sleeps once per tick, as it would without slicing. *)
let stop_slice_s = 0.5

let nap t seconds =
  let start = Clock.now_ns () in
  let rec go () =
    let left = seconds -. Clock.since start in
    if left > 0. && not (Lineserver.stopping t.ls) then begin
      Thread.delay (Float.min left stop_slice_s);
      go ()
    end
  in
  go ()

let poller t =
  let tick = ref 0 in
  while not (Lineserver.stopping t.ls) do
    incr tick;
    if Atomic.exchange t.reload false then reload_members t ~tick:!tick;
    List.iter (probe t ~tick:!tick) (Membership.due t.membership ~now:!tick);
    if
      t.config.repair_interval_ticks > 0
      && !tick mod t.config.repair_interval_ticks = 0
    then repair_round t ~tick:!tick;
    nap t t.config.probe_interval_s
  done

(* --- lifecycle -------------------------------------------------------- *)

let dump_metrics t path =
  let sink = Sink.create path in
  Fun.protect
    ~finally:(fun () -> Sink.close sink)
    (fun () ->
      Sink.emit sink
        [
          ("record", Sink.Str "router_metrics");
          ("router", Metrics.to_json t.metrics.registry);
          ("members", members_json t);
          ("front", front_stats_json t);
        ])

let handle_conn t ~send oc line =
  (* The poller owns the tick clock; request threads read a coarse
     now-ish tick for failure bookkeeping — exactness is irrelevant,
     only monotonicity matters, and 0 under-runs every schedule. *)
  let response, disposition = handle t ~send ~tick:0 line in
  let delivered =
    try
      output_string oc response;
      output_char oc '\n';
      flush oc;
      true
    with Sys_error _ -> false
  in
  match disposition with
  | `Stop -> `Stop
  | `Continue -> if delivered then `Continue else `Close

let run ?on_ready ?metrics_out ?members_file ?hints_path
    ?(config = default_config) ~members listen =
  (match validate_members members with
  | Ok () -> ()
  | Error e -> failwith ("router: " ^ e));
  if config.quorum < 1 then failwith "router: quorum must be >= 1";
  if config.replicas < config.quorum then
    failwith "router: replicas must be >= quorum";
  if config.hint_capacity < 1 then
    failwith "router: hint capacity must be >= 1";
  let ls = Lineserver.create listen in
  let t =
    {
      config;
      metrics = create_metrics ();
      membership = Membership.create members;
      ring = Ring.create ~vnodes:config.vnodes members;
      ring_lock = Mutex.create ();
      front = Lru.create ~capacity:(max 1 config.front_capacity);
      front_lock = Mutex.create ();
      hints = Hints.create ~capacity:config.hint_capacity ?path:hints_path ();
      ls;
      members_file;
      reload = Atomic.make false;
      repair_cursor = 0;
    }
  in
  let previous_hup =
    try
      Some
        (Sys.signal Sys.sighup
           (Sys.Signal_handle (fun _ -> Atomic.set t.reload true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let poller_th = Thread.create poller t in
  Lineserver.run ?on_ready
    ~handler:(fun () ->
      let links = Hashtbl.create 4 in
      {
        Lineserver.line = handle_conn t ~send:(exchange_linked t links);
        close = (fun () -> Hashtbl.iter (fun _ c -> Client.close c) links);
      })
    ls;
  Thread.join poller_th;
  (match previous_hup with
  | Some h -> ( try Sys.set_signal Sys.sighup h with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  Hints.close t.hints;
  Option.iter (dump_metrics t) metrics_out
