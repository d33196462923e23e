(* Tests for the cluster front-end: consistent-hash ring laws,
   membership state machine, and an end-to-end router over in-process
   shards — forward, front cache, quorum replication, failover with
   byte-identical warm answers, and structured errors when every shard
   is gone. *)

module Ring = Bi_router.Ring
module Membership = Bi_router.Membership
module Router = Bi_router.Router
module Hints = Bi_router.Hints
module Fsck = Bi_router.Fsck
module Store = Bi_cache.Store
module Protocol = Bi_serve.Protocol
module Server = Bi_serve.Server
module Client = Bi_serve.Client
module Service = Bi_cache.Service
module Sink = Bi_engine.Sink

(* --- ring laws --------------------------------------------------------- *)

let gen_member = QCheck2.Gen.(map (Printf.sprintf "shard-%d") (int_range 0 9))

let gen_members =
  QCheck2.Gen.(list_size (int_range 2 6) gen_member)

let gen_key = QCheck2.Gen.(map (Printf.sprintf "fp-%d") int)

(* Adding one member moves a key only onto that member: every other key
   keeps its previous owner.  This is the property that makes membership
   changes cheap — the cluster never reshuffles keys between survivors. *)
let ring_stable_under_addition =
  QCheck2.Test.make ~name:"adding a member moves keys only onto it" ~count:300
    QCheck2.Gen.(tup3 gen_members (int_range 10 19) gen_key)
    (fun (members, extra, key) ->
      let added = Printf.sprintf "shard-%d" extra in
      let before = Ring.create members in
      let after = Ring.create (added :: members) in
      match (Ring.owner before key, Ring.owner after key) with
      | Some old_owner, Some new_owner ->
        new_owner = old_owner || new_owner = added
      | _ -> false)

(* The mirror law: removing a member only moves that member's keys. *)
let ring_stable_under_removal =
  QCheck2.Test.make ~name:"removing a member strands only its keys" ~count:300
    QCheck2.Gen.(tup2 gen_members gen_key)
    (fun (members, key) ->
      QCheck2.assume (List.length (List.sort_uniq compare members) >= 2);
      let ring = Ring.create members in
      let victim = List.hd (Ring.members ring) in
      let survivor_ring =
        Ring.create (List.filter (fun m -> m <> victim) members)
      in
      match Ring.owner ring key with
      | Some owner when owner <> victim ->
        Ring.owner survivor_ring key = Some owner
      | _ -> true)

(* Replica sets are distinct members, primary first, and never larger
   than the membership. *)
let ring_owner_sets =
  QCheck2.Test.make ~name:"owner lists are distinct and bounded" ~count:300
    QCheck2.Gen.(tup3 gen_members (int_range 1 5) gen_key)
    (fun (members, n, key) ->
      let ring = Ring.create members in
      let owners = Ring.owners ring ~n key in
      let distinct = List.sort_uniq compare owners in
      List.length owners = min n (List.length (Ring.members ring))
      && List.length distinct = List.length owners
      && Ring.owner ring key = Some (List.hd owners))

(* With the default vnodes, 1k fingerprints spread across 5 shards
   within a 3x band of the fair share — no shard is starved or crushed. *)
let test_ring_balance () =
  let members = List.init 5 (Printf.sprintf "shard-%d") in
  let ring = Ring.create members in
  let counts = Hashtbl.create 8 in
  let keys = 1000 in
  for i = 0 to keys - 1 do
    (* Keys shaped like real fingerprints: hex digests. *)
    let key = Digest.to_hex (Digest.string (Printf.sprintf "game-%d" i)) in
    match Ring.owner ring key with
    | Some m ->
      Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m))
    | None -> Alcotest.fail "ring with members owned nothing"
  done;
  let fair = keys / List.length members in
  List.iter
    (fun m ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts m) in
      if n < fair / 3 || n > fair * 3 then
        Alcotest.failf "%s owns %d of %d keys (fair share %d)" m n keys fair)
    members

(* Equal member sets build identical rings regardless of order or
   duplication — SIGHUP reloads with a shuffled file must not rehash. *)
let test_ring_canonical () =
  let a = Ring.create [ "s1"; "s2"; "s3" ] in
  let b = Ring.create [ "s3"; "s1"; "s2"; "s1" ] in
  Alcotest.(check (list string)) "members" (Ring.members a) (Ring.members b);
  for i = 0 to 99 do
    let key = Printf.sprintf "k%d" i in
    Alcotest.(check (option string)) key (Ring.owner a key) (Ring.owner b key)
  done

(* --- membership state machine ----------------------------------------- *)

let test_membership_lifecycle () =
  let m = Membership.create [ "a"; "b" ] in
  Alcotest.(check (list string)) "members" [ "a"; "b" ] (Membership.members m);
  (* Everyone starts Suspect with a probe due immediately. *)
  Alcotest.(check (list string)) "all due at 0" [ "a"; "b" ]
    (Membership.due m ~now:0);
  Alcotest.(check (list string)) "suspects are routable" [ "a"; "b" ]
    (Membership.routable m);
  (* First success is a recovery (the warming trigger); repeats are not. *)
  (match Membership.note_success m ~now:0 "a" with
  | `Recovered -> ()
  | `Ok -> Alcotest.fail "first success must report `Recovered");
  (match Membership.note_success m ~now:1 "a" with
  | `Ok -> ()
  | `Recovered -> Alcotest.fail "repeat success must not re-trigger warming");
  Alcotest.(check bool) "a is Up" true
    (Membership.state m "a" = Some Membership.Up);
  (* Three consecutive failures take a member Down, once. *)
  (match Membership.note_failure m ~now:1 "b" with
  | `Ok -> ()
  | `Went_down -> Alcotest.fail "down too early");
  ignore (Membership.note_failure m ~now:3 "b");
  (match Membership.note_failure m ~now:7 "b" with
  | `Went_down -> ()
  | `Ok -> Alcotest.fail "third failure must report `Went_down");
  Alcotest.(check bool) "b is Down" true
    (Membership.state m "b" = Some Membership.Down);
  Alcotest.(check (list string)) "down members are not routable" [ "a" ]
    (Membership.routable m);
  (* Recovery resets everything. *)
  (match Membership.note_success m ~now:20 "b" with
  | `Recovered -> ()
  | `Ok -> Alcotest.fail "coming back from Down must report `Recovered");
  Alcotest.(check (list string)) "both routable again" [ "a"; "b" ]
    (Membership.routable m)

(* Probe backoff is deterministic: after f consecutive failures the next
   probe is min max_backoff (2^f) ticks out. *)
let test_membership_backoff () =
  let m = Membership.create ~max_backoff:8 [ "a" ] in
  ignore (Membership.note_failure m ~now:0 "a");
  Alcotest.(check (list string)) "not due before the backoff" []
    (Membership.due m ~now:1);
  Alcotest.(check (list string)) "due after 2 ticks" [ "a" ]
    (Membership.due m ~now:2);
  ignore (Membership.note_failure m ~now:2 "a");
  Alcotest.(check (list string)) "second backoff is 4 ticks" [ "a" ]
    (Membership.due m ~now:6);
  ignore (Membership.note_failure m ~now:6 "a");
  ignore (Membership.note_failure m ~now:14 "a");
  (* 2^4 = 16 exceeds max_backoff = 8: capped. *)
  Alcotest.(check (list string)) "backoff capped" [ "a" ]
    (Membership.due m ~now:22)

let test_membership_reload () =
  let m = Membership.create [ "a"; "b" ] in
  ignore (Membership.note_success m ~now:0 "a");
  let added = Membership.set_members m [ "a"; "c" ] in
  Alcotest.(check (list string)) "added members reported" [ "c" ] added;
  Alcotest.(check (list string)) "membership replaced" [ "a"; "c" ]
    (Membership.members m);
  (* Survivors keep their state; newcomers start Suspect and due now. *)
  Alcotest.(check bool) "a still Up" true
    (Membership.state m "a" = Some Membership.Up);
  Alcotest.(check bool) "c starts Suspect" true
    (Membership.state m "c" = Some Membership.Suspect);
  Alcotest.(check bool) "b forgotten" true (Membership.state m "b" = None)

(* parse_members warns on stderr for every duplicate it drops; the
   dedupe tests provoke hundreds of them on purpose. *)
let silencing_stderr f =
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stderr;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f

let test_parse_members () =
  Alcotest.(check (list string))
    "commas and whitespace"
    [ "/tmp/a.sock"; "127.0.0.1:7401"; "7402" ]
    (Router.parse_members "/tmp/a.sock, 127.0.0.1:7401\n7402");
  Alcotest.(check (list string)) "empty" [] (Router.parse_members " \n ,, ");
  (* Duplicates are dropped at parse time — first occurrence kept, order
     preserved — so a doubled line in a members file cannot double-weight
     the ring or let one shard count twice toward the quorum. *)
  silencing_stderr (fun () ->
      Alcotest.(check (list string))
        "duplicates dropped, order kept" [ "a"; "b"; "c" ]
        (Router.parse_members "a, b, a\nb c b"))

let parse_members_dedupes =
  QCheck2.Test.make ~name:"parse_members keeps first occurrences in order"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 12) gen_member)
    (fun members ->
      let dedupe xs =
        List.rev
          (List.fold_left
             (fun acc x -> if List.mem x acc then acc else x :: acc)
             [] xs)
      in
      silencing_stderr (fun () ->
          Router.parse_members (String.concat "," members) = dedupe members))

(* --- hinted handoff ---------------------------------------------------- *)

let test_hints_log () =
  let h = Hints.create ~capacity:2 () in
  Alcotest.(check int) "empty" 0 (Hints.pending h);
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.to_string (Sink.Int 1)));
  ignore (Hints.record h ~member:"b" ~fingerprint:"k2" ~kind:"payload" (Sink.to_string (Sink.Int 2)));
  Alcotest.(check int) "two parked" 2 (Hints.pending h);
  Alcotest.(check (list string)) "members, oldest hint first" [ "a"; "b" ]
    (Hints.members h);
  (* A newer write to the same (member, key) supersedes in place. *)
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.to_string (Sink.Int 3)));
  Alcotest.(check int) "superseded, not duplicated" 2 (Hints.pending h);
  (* At capacity the oldest hint (a's) is evicted to make room. *)
  let evicted =
    Hints.record h ~member:"b" ~fingerprint:"k3" ~kind:"analysis" (Sink.to_string (Sink.Int 4))
  in
  Alcotest.(check int) "one evicted" 1 evicted;
  Alcotest.(check int) "bounded" 2 (Hints.pending h);
  Alcotest.(check int) "a's hint was the eviction victim" 0
    (List.length (Hints.take h "a"));
  (match Hints.take h "b" with
  | [ h2; h3 ] ->
    Alcotest.(check string) "oldest first" "k2" h2.Hints.fingerprint;
    Alcotest.(check string) "kind kept" "payload" h2.Hints.kind;
    Alcotest.(check string) "newest last" "k3" h3.Hints.fingerprint
  | l -> Alcotest.failf "expected b's two hints, got %d" (List.length l));
  Alcotest.(check int) "drained" 0 (Hints.pending h);
  Alcotest.(check (list string)) "no members left" [] (Hints.members h);
  Hints.close h

let test_hints_durability () =
  let path = Filename.temp_file "bi_hints" ".jsonl" in
  let h = Hints.create ~path () in
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.to_string (Sink.Int 1)));
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.to_string (Sink.Int 2)));
  ignore (Hints.record h ~member:"b" ~fingerprint:"k2" ~kind:"payload" (Sink.to_string (Sink.Str "x")));
  ignore (Hints.take h "b");
  Hints.close h;
  (* A restarted router replays exactly the outstanding hints: the
     delivered one is tombstoned, the superseding body wins. *)
  let h = Hints.create ~path () in
  Alcotest.(check int) "only the undelivered hint survives" 1 (Hints.pending h);
  (match Hints.take h "a" with
  | [ hint ] ->
    Alcotest.(check string) "fingerprint" "k1" hint.Hints.fingerprint;
    Alcotest.(check string) "superseding body wins" "2"
      hint.Hints.body
  | l -> Alcotest.failf "expected one replayed hint, got %d" (List.length l));
  Hints.close h;
  Sys.remove path

(* --- divergence rule (fsck / anti-entropy core) ------------------------ *)

let test_fsck_divergences () =
  let ring = Ring.create [ "s1"; "s2"; "s3" ] in
  let owners = Ring.owners ring ~n:2 "k" in
  let primary = List.nth owners 0 and secondary = List.nth owners 1 in
  let other =
    List.find (fun m -> not (List.mem m owners)) (Ring.members ring)
  in
  let tbl pairs =
    let t = Hashtbl.create 4 in
    List.iter (fun (k, v) -> Hashtbl.replace t k v) pairs;
    t
  in
  let checked, divs =
    Fsck.divergences ~ring ~replicas:2
      [
        (primary, tbl [ ("k", "c1") ]);
        (secondary, tbl [ ("k", "c1") ]);
        (other, tbl []);
      ]
  in
  Alcotest.(check int) "keys checked" 1 checked;
  Alcotest.(check int) "agreement is silent" 0 (List.length divs);
  let _, divs =
    Fsck.divergences ~ring ~replicas:2
      [ (primary, tbl [ ("k", "c1") ]); (secondary, tbl []); (other, tbl []) ]
  in
  (match divs with
  | [ d ] ->
    Alcotest.(check string) "authority is the first holder" primary
      d.Fsck.authority;
    Alcotest.(check (list string)) "missing owner reported" [ secondary ]
      d.Fsck.missing;
    Alcotest.(check int) "bucket" (Store.bucket_of_key "k") d.Fsck.bucket
  | _ -> Alcotest.fail "expected one divergence for the missing replica");
  (* Conflicting checks: the holder earliest in ring-owner order is the
     authority — the deterministic LWW proxy repair converges onto. *)
  let _, divs =
    Fsck.divergences ~ring ~replicas:2
      [
        (primary, tbl [ ("k", "c1") ]);
        (secondary, tbl [ ("k", "c2") ]);
        (other, tbl []);
      ]
  in
  (match divs with
  | [ d ] -> Alcotest.(check string) "conflict authority" primary d.Fsck.authority
  | _ -> Alcotest.fail "expected one divergence for the conflict");
  (* A non-owner's stray copy (membership-change leftover) is ignored. *)
  let _, divs =
    Fsck.divergences ~ring ~replicas:2
      [
        (primary, tbl [ ("k", "c1") ]);
        (secondary, tbl [ ("k", "c1") ]);
        (other, tbl [ ("k", "zzz") ]);
      ]
  in
  Alcotest.(check int) "stray non-owner copy ignored" 0 (List.length divs)

(* --- end-to-end: router over two in-process shards --------------------- *)

let get_bool key j =
  match Sink.member key j with Some (Sink.Bool b) -> Some b | _ -> None

let request_ok client req =
  match Client.request client req with
  | Error f -> Alcotest.fail (Client.failure_to_string f)
  | Ok resp ->
    Alcotest.(check bool) "response ok" true (Protocol.is_ok resp);
    resp

let with_ready_thread f =
  let ready = Mutex.create () and readied = Condition.create () in
  let is_ready = ref false in
  let on_ready () =
    Mutex.lock ready;
    is_ready := true;
    Condition.signal readied;
    Mutex.unlock ready
  in
  let th = Thread.create (fun () -> f ~on_ready) () in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait readied ready
  done;
  Mutex.unlock ready;
  th

let start_shard ?limits ~dir ~name () =
  let socket = Filename.concat dir (name ^ ".sock") in
  let cache = Service.create ~shard:name () in
  let th =
    with_ready_thread (fun ~on_ready ->
        Server.run ~on_ready ?limits ~cache (Server.Unix_socket socket))
  in
  (socket, cache, th)

let stop_endpoint socket =
  try
    let c = Client.connect_unix socket in
    ignore (Client.request c Protocol.shutdown_request);
    Client.close c
  with Unix.Unix_error _ -> ()

let analysis_bytes resp =
  Sink.to_string (Option.get (Sink.member "analysis" resp))

let test_router_end_to_end () =
  let dir = Filename.temp_file "bi_router" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" () in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" () in
  let members = [ sock_a; sock_b ] in
  let router_sock = Filename.concat dir "router.sock" in
  (* front_capacity = 1 so the second construction evicts the first from
     the front cache, forcing the failover path below to hit shards. *)
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 0.05;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let c = Client.connect_unix router_sock in
      (* A router answers the control verbs itself. *)
      let h = request_ok c Protocol.health_request in
      Alcotest.(check (option string)) "router health" (Some "router")
        (Protocol.shard_of h);
      ignore (request_ok c Protocol.stats_request);
      (* Cold key: the router forwards, a shard computes. *)
      let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let r2 = request_ok c req2 in
      Alcotest.(check (option bool)) "cold compute" (Some false)
        (get_bool "cached" r2);
      let fp2 =
        match Sink.member "fingerprint" r2 with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let bytes2 = analysis_bytes r2 in
      (* Same key again: front cache, byte-identical. *)
      let r2' = request_ok c req2 in
      Alcotest.(check (option bool)) "front cache hit" (Some true)
        (get_bool "cached" r2');
      Alcotest.(check string) "front cache byte-identical" bytes2
        (analysis_bytes r2');
      (* With 2 members and quorum 2, replication has pushed the entry
         to both shards: each answers it cached, byte-identically. *)
      List.iter
        (fun sock ->
          let d = Client.connect_unix sock in
          let r = request_ok d req2 in
          Alcotest.(check (option bool))
            (sock ^ " holds a quorum copy") (Some true) (get_bool "cached" r);
          Alcotest.(check string) (sock ^ " copy byte-identical") bytes2
            (analysis_bytes r);
          Client.close d)
        members;
      (* A put through the router must reach the quorum too. *)
      let stored =
        request_ok c
          (Protocol.put_request ~fingerprint:fp2
             (Option.get (Sink.member "analysis" r2)))
      in
      Alcotest.(check (option bool)) "router put stored" (Some true)
        (get_bool "stored" stored);
      (* Evict fp2 from the 1-entry front cache... *)
      ignore (request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:3 ()));
      (* ...kill fp2's primary owner, and ask again through the router:
         failover must serve the replica's copy, byte-identical. *)
      let ring = Ring.create members in
      let primary = Option.get (Ring.owner ring fp2) in
      let replica = List.find (fun m -> m <> primary) members in
      stop_endpoint primary;
      Thread.join (if primary = sock_a then th_a else th_b);
      let r2'' = request_ok c req2 in
      Alcotest.(check (option bool)) "failover hits the replica's cache"
        (Some true) (get_bool "cached" r2'');
      Alcotest.(check string) "failover byte-identical" bytes2
        (analysis_bytes r2'');
      (* Both shards gone: a fresh key must come back as a structured
         error, never a hang or a torn line. *)
      stop_endpoint replica;
      Thread.join (if replica = sock_a then th_a else th_b);
      (match
         Client.request c (Protocol.construction_request ~name:"gworst-bliss" ~k:4 ())
       with
      | Ok resp ->
        Alcotest.(check bool) "structured error with no shards" false
          (Protocol.is_ok resp)
      | Error f -> Alcotest.fail (Client.failure_to_string f));
      (* Control verbs keep working even with every shard gone. *)
      ignore (request_ok c Protocol.stats_request);
      let bye = request_ok c Protocol.shutdown_request in
      Alcotest.(check (option bool)) "router stopping" (Some true)
        (get_bool "stopping" bye);
      Client.close c)

(* A correlated concept through the router: routed on the
   concept-qualified key, answered with the LP payload and no
   ["analysis"] member (so the front cache skips it — the repeat is
   served from the shard's cache, not the router's), while a nash
   request for the same game flows exactly as before. *)
let test_router_correlated () =
  let dir = Filename.temp_file "bi_router_corr" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" () in
  let members = [ sock_a ] in
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      replicas = 1;
      quorum = 1;
      probe_interval_s = 0.05;
      shard_timeout_s = 10.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      Thread.join th_a;
      Service.close cache_a)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req =
        Protocol.construction_request ~concept:Bi_correlated.Concept.Cce
          ~name:"gworst-bliss" ~k:2 ()
      in
      let r1 = request_ok c req in
      Alcotest.(check (option bool)) "cold compute through the router"
        (Some false) (get_bool "cached" r1);
      Alcotest.(check bool) "correlated payload present" true
        (Sink.member "correlated" r1 <> None);
      Alcotest.(check bool) "no analysis member" true
        (Sink.member "analysis" r1 = None);
      (match Sink.member "fingerprint" r1 with
      | Some (Sink.Str fp) ->
        Alcotest.(check bool) "concept-qualified fingerprint" true
          (Filename.check_suffix fp "+cce")
      | _ -> Alcotest.fail "fingerprint missing");
      (* No analysis member, so the front cache stored nothing: the
         repeat forwards to the shard, which answers from its cache. *)
      let r2 = request_ok c req in
      Alcotest.(check (option bool)) "repeat from the shard's cache"
        (Some true) (get_bool "cached" r2);
      Alcotest.(check string) "byte-identical correlated payload"
        (Sink.to_string (Option.get (Sink.member "correlated" r1)))
        (Sink.to_string (Option.get (Sink.member "correlated" r2)));
      (* The nash default for the same game still flows as before. *)
      let r3 =
        request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ())
      in
      Alcotest.(check bool) "nash answer has its analysis" true
        (Sink.member "analysis" r3 <> None);
      Alcotest.(check bool) "nash answer has no concept member" true
        (Sink.member "concept" r3 = None);
      let bye = request_ok c Protocol.shutdown_request in
      Alcotest.(check (option bool)) "router stopping" (Some true)
        (get_bool "stopping" bye);
      Client.close c)

(* [mode:"auto"] through the router.  The router cannot resolve the
   tier (it never builds games), so it routes on the certified key; the
   shard resolves a small game to exhaustive and answers under the bare
   fingerprint.  That answer must be forwarded untouched: neither
   front-cached nor replicated under the certified key, where a later
   certified request would find an analysis. *)
let test_router_auto_tier () =
  let module Mode = Bi_certify.Mode in
  let dir = Filename.temp_file "bi_router_auto" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" () in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" () in
  let members = [ sock_a; sock_b ] in
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      probe_interval_s = 0.05;
      shard_timeout_s = 10.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let ask mode =
        request_ok c
          (Protocol.construction_request ~mode ~name:"gworst-bliss" ~k:2 ())
      in
      let fingerprint r =
        match Sink.member "fingerprint" r with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let auto1 = ask Mode.Auto in
      let fp = fingerprint auto1 in
      Alcotest.(check bool) "auto resolves to exhaustive: bare fingerprint"
        false (String.contains fp '+');
      let cert = ask Mode.Certified in
      Alcotest.(check string) "certified fingerprint" (fp ^ "+certified")
        (fingerprint cert);
      Alcotest.(check bool) "certified answer carries its brackets" true
        (Sink.member "certified" cert <> None);
      Alcotest.(check bool) "certified answer carries no analysis" true
        (Sink.member "analysis" cert = None);
      let auto2 = ask Mode.Auto in
      Alcotest.(check string) "repeat auto keeps the shard's fingerprint" fp
        (fingerprint auto2);
      List.iter
        (fun sock ->
          let d = Client.connect_unix sock in
          let pulled =
            request_ok d (Protocol.pull_request [ fp ^ "+certified" ])
          in
          Client.close d;
          match Protocol.entries_of pulled with
          | Error e -> Alcotest.fail e
          | Ok entries ->
            Alcotest.(check (list string))
              (sock ^ ": no analysis under the certified key") []
              (List.filter_map
                 (fun (e : Store.entry) ->
                   if e.Store.kind = "analysis" then Some e.Store.key else None)
                 entries))
        members;
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

let get_int key j =
  match Sink.member key j with Some (Sink.Int n) -> Some n | _ -> None

let member_state stats m =
  match Sink.member "members" stats with
  | Some (Sink.Obj fields) -> (
    match List.assoc_opt m fields with Some (Sink.Str s) -> Some s | _ -> None)
  | _ -> None

let counter stats key =
  match Sink.member "router" stats with
  | Some counters -> Option.value ~default:0 (get_int key counters)
  | None -> 0

let wait_until ?(deadline = 15.) ~what f =
  let rec go left =
    if f () then ()
    else if left <= 0. then Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.1;
      go (left -. 0.1)
    end
  in
  go deadline

(* A failover read answered from a replica's cache parks the answer for
   every owner that failed (read-repair), and a fresh compute that
   cannot replicate to an owner parks a hint too.  Probes run only at
   startup here, so the dead primary stays nominally Up and is tried —
   and fails — first, making the failover deterministic.  The startup
   probe round must have landed before the kill: a probe failure on top
   of the request-path failures would push the dead primary to Down,
   and a Down owner is tried last, so the failover read would never
   fail on it and would park no read-repair hint. *)
let test_read_repair_parks_hints () =
  let dir = Filename.temp_file "bi_rr" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" () in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" () in
  let members = [ sock_a; sock_b ] in
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 30.;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  let router_joined = ref false in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      if not !router_joined then Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let r = request_ok c req in
      let bytes = analysis_bytes r in
      let fp =
        match Sink.member "fingerprint" r with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let ring = Ring.create members in
      let primary = Option.get (Ring.owner ring fp) in
      wait_until ~what:"both members up" (fun () ->
          let stats = request_ok c Protocol.stats_request in
          List.for_all (fun m -> member_state stats m = Some "up") members);
      stop_endpoint primary;
      Thread.join (if primary = sock_a then th_a else th_b);
      (* Fresh compute: replication to the dead owner parks a hint (and
         evicts the k=2 entry from the 1-slot front cache). *)
      ignore
        (request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:3 ()));
      (* The k=2 read now fails over to the replica's cache and parks
         the answer for the dead primary. *)
      let r' = request_ok c req in
      Alcotest.(check (option bool)) "failover read from the replica's cache"
        (Some true) (get_bool "cached" r');
      Alcotest.(check string) "failover byte-identical" bytes
        (analysis_bytes r');
      let stats = request_ok c Protocol.stats_request in
      Alcotest.(check bool) "both writes parked for the dead owner" true
        (Option.value ~default:0 (get_int "hints" stats) >= 2);
      Alcotest.(check bool) "read_repairs counted" true
        (counter stats "read_repairs" >= 1);
      Alcotest.(check bool) "hints_recorded counted" true
        (counter stats "hints_recorded" >= 2);
      (* The poller sleeps out a 30 s probe interval in short slices,
         so the router stops promptly after [shutdown]. *)
      ignore (request_ok c Protocol.shutdown_request);
      let asked = Bi_engine.Clock.now_ns () in
      Thread.join th_router;
      router_joined := true;
      let waited = Bi_engine.Clock.since asked in
      if waited > 1. then
        Alcotest.failf "router joined %.1f s after shutdown, not within 1 s"
          waited;
      Client.close c)

(* Down→Up recovery drains the hint log into the restarted (empty)
   shard before warming, and the anti-entropy loop converges the keys
   no hint covered — all without recomputing anything. *)
let test_recovery_drains_hints () =
  let dir = Filename.temp_file "bi_drain" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" () in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" () in
  let members = [ sock_a; sock_b ] in
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 0.05;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  (* The primary is killed and restarted mid-test; track its live
     handles so the teardown joins the final incarnation. *)
  let prim_cache = ref None and prim_thread = ref None in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Option.iter Thread.join !prim_thread;
      Service.close cache_a;
      Service.close cache_b;
      Option.iter Service.close !prim_cache)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let r2 = request_ok c req2 in
      let bytes2 = analysis_bytes r2 in
      let fp2 =
        match Sink.member "fingerprint" r2 with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let ring = Ring.create members in
      let primary = Option.get (Ring.owner ring fp2) in
      stop_endpoint primary;
      Thread.join (if primary = sock_a then th_a else th_b);
      wait_until ~what:"prober marking the primary down" (fun () ->
          member_state (request_ok c Protocol.stats_request) primary
          = Some "down");
      (* A compute while an owner is Down parks a hint instead of a
         copy; the client still gets its answer. *)
      let req3 = Protocol.construction_request ~name:"gworst-bliss" ~k:3 () in
      let r3 = request_ok c req3 in
      let bytes3 = analysis_bytes r3 in
      let fp3 =
        match Sink.member "fingerprint" r3 with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      Alcotest.(check bool) "hint parked while the owner is down" true
        (Option.value ~default:0
           (get_int "hints" (request_ok c Protocol.stats_request))
        >= 1);
      (* Restart the primary, empty: no store, no cache. *)
      let name = Filename.chop_suffix (Filename.basename primary) ".sock" in
      let _, cache', th' = start_shard ~dir ~name () in
      prim_cache := Some cache';
      prim_thread := Some th';
      (* Recovery must deliver the parked write.  Poll with [pull] —
         it never computes, so it cannot mask an undelivered hint. *)
      let holds fp expected_bytes =
        match
          let d = Client.connect_unix primary in
          Fun.protect
            ~finally:(fun () -> Client.close d)
            (fun () -> Client.request d (Protocol.pull_request [ fp ]))
        with
        | Ok resp when Protocol.is_ok resp -> (
          match Protocol.entries_of resp with
          | Ok [ e ] -> e.Store.body = expected_bytes
          | _ -> false)
        | _ -> false
      in
      wait_until ~what:"hint drain delivering the missed write" (fun () ->
          holds fp3 bytes3);
      wait_until ~what:"the hint log to empty" (fun () ->
          Option.value ~default:(-1)
            (get_int "hints" (request_ok c Protocol.stats_request))
          = 0);
      Alcotest.(check bool) "repairs counted" true
        (counter (request_ok c Protocol.stats_request) "repairs" >= 1);
      (* The pre-crash key had no hint (it was written while both owners
         were up) and was lost with the primary's memory: only the
         anti-entropy loop can bring it back. *)
      wait_until ~what:"anti-entropy converging the lost key" (fun () ->
          holds fp2 bytes2);
      (* And the converged copies serve: cached, byte-identical. *)
      let d = Client.connect_unix primary in
      List.iter
        (fun (req, bytes) ->
          let r = request_ok d req in
          Alcotest.(check (option bool)) "restarted primary answers cached"
            (Some true) (get_bool "cached" r);
          Alcotest.(check string) "restarted primary byte-identical" bytes
            (analysis_bytes r))
        [ (req2, bytes2); (req3, bytes3) ];
      Client.close d;
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* SIGHUP members-file reloads racing the prober, the anti-entropy
   loop, and live traffic: answers stay byte-identical through every
   flip, nothing deadlocks, and the final membership matches the file. *)
let test_sighup_reload_race () =
  let dir = Filename.temp_file "bi_hup" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" () in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" () in
  let members_file = Filename.concat dir "members" in
  let write_members members =
    let tmp = members_file ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (String.concat "\n" members);
    close_out oc;
    Sys.rename tmp members_file
  in
  write_members [ sock_a ];
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      replicas = 2;
      quorum = 1;
      front_capacity = 1;
      probe_interval_s = 0.02;
      repair_interval_ticks = 1;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~members_file ~config ~members:[ sock_a ]
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let req3 = Protocol.construction_request ~name:"gworst-bliss" ~k:3 () in
      let bytes2 = analysis_bytes (request_ok c req2) in
      let bytes3 = analysis_bytes (request_ok c req3) in
      let hup () = Unix.kill (Unix.getpid ()) Sys.sighup in
      silencing_stderr (fun () ->
          (* Flip the membership under load.  The 1-slot front cache and
             the alternating keys force every read through the routing
             path mid-reload; determinism makes the answers
             byte-identical whichever member serves them. *)
          for i = 1 to 12 do
            write_members
              (if i mod 2 = 0 then [ sock_a ] else [ sock_a; sock_b ]);
            hup ();
            let req, bytes = if i mod 2 = 0 then (req2, bytes2) else (req3, bytes3) in
            Alcotest.(check string)
              (Printf.sprintf "answer %d byte-identical under reload" i)
              bytes
              (analysis_bytes (request_ok c req));
            Thread.delay 0.03
          done;
          (* Settle on both members: the newcomer must be probed up and
             the membership must reflect exactly the file. *)
          write_members [ sock_a; sock_b ];
          hup ();
          wait_until ~what:"reloaded member probed up" (fun () ->
              member_state (request_ok c Protocol.stats_request) sock_b
              = Some "up"));
      let stats = request_ok c Protocol.stats_request in
      (match Sink.member "members" stats with
      | Some (Sink.Obj fields) ->
        Alcotest.(check (list string))
          "membership matches the file"
          (List.sort compare [ sock_a; sock_b ])
          (List.sort compare (List.map fst fields))
      | _ -> Alcotest.fail "members missing from stats");
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* The router forwards a client's line as the bytes it received: a
   member that records its input sees extra whitespace, field order and
   escapes exactly as the client sent them, for both analysis verbs.
   It answers probes (so it stays Up) and everything else with an
   error, which the router hands back as-is. *)
let test_router_forwards_verbatim () =
  let dir = Filename.temp_file "bi_router" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let member_sock = Filename.concat dir "recorder.sock" in
  let recorded = ref [] and lock = Mutex.create () in
  let ls = Bi_serve.Lineserver.create (Bi_serve.Lineserver.Unix_socket member_sock) in
  let handler oc line =
    Mutex.lock lock;
    recorded := line :: !recorded;
    Mutex.unlock lock;
    let response, disposition =
      match Protocol.parse_request line with
      | Ok { Protocol.query = Protocol.Health; _ } ->
        ( Protocol.ok_health ~shard:"recorder" ~inflight:0 ~cache:(Sink.Obj []),
          `Continue )
      | Ok { Protocol.query = Protocol.Shutdown; _ } -> (Protocol.ok_shutdown, `Stop)
      | _ -> (Protocol.error "recorded", `Continue)
    in
    output_string oc (Sink.to_string response);
    output_char oc '\n';
    flush oc;
    disposition
  in
  let th_member =
    with_ready_thread (fun ~on_ready ->
        Bi_serve.Lineserver.run ~on_ready
          ~handler:(fun () -> { Bi_serve.Lineserver.line = handler; close = ignore })
          ls)
  in
  let router_sock = Filename.concat dir "router.sock" in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~members:[ member_sock ]
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint member_sock;
      Thread.join th_member)
    (fun () ->
      let lines =
        [
          {|  { "k" : 3 ,"op":"construction",   "name" : "gworst-bliss" }	|};
          {|{"op" : "analyze", "game": {"kind":"directed","n":2,|}
          ^ {|"edges":[[0, 1, "2/4"]],"prior":[{"types":[[0,1]],"weight":"1"}]},|}
          ^ {| "mode":"\u0063ertified"}  |};
        ]
      in
      let c = Client.connect_unix router_sock in
      List.iter
        (fun line ->
          match Client.raw_request c line with
          | Error f -> Alcotest.fail (Client.failure_to_string f)
          | Ok response ->
            Alcotest.(check string) "member's answer returned as-is"
              (Sink.to_string (Protocol.error "recorded")) response)
        lines;
      Client.close c;
      Mutex.lock lock;
      let seen = !recorded in
      Mutex.unlock lock;
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "member received %S verbatim" line)
            true (List.mem line seen))
        lines)

(* --- persistent links ---------------------------------------------------- *)

(* A stand-in shard: a plain Unix listener, one thread per connection,
   that answers every line with [reply] (by default [{"ok":true}]) and
   logs, per accepted connection, the lines it read and whether it then
   read EOF.  A [Torn] reply is written without its newline and the
   connection closed, as a shard that crashed mid-answer leaves it. *)
type fake_conn = { mutable lines : string list; mutable eof : bool }
type reply = Line of string | Torn of string

type fake = {
  path : string;
  fd : Unix.file_descr;
  lock : Mutex.t;
  mutable conns : fake_conn list;  (* newest first *)
  stop : bool Atomic.t;
  mutable accept_th : Thread.t option;
}

let start_fake ?(reply = fun _ -> Line {|{"ok":true}|}) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  let f =
    { path; fd; lock = Mutex.create (); conns = []; stop = Atomic.make false;
      accept_th = None }
  in
  let logged g =
    Mutex.lock f.lock;
    g ();
    Mutex.unlock f.lock
  in
  let serve (conn, cfd) =
    let ic = Unix.in_channel_of_descr cfd in
    let oc = Unix.out_channel_of_descr cfd in
    let rec loop () =
      match input_line ic with
      | exception (End_of_file | Sys_error _) ->
        logged (fun () -> conn.eof <- true)
      | line -> (
        logged (fun () -> conn.lines <- line :: conn.lines);
        match reply line with
        | Line answer ->
          output_string oc answer;
          output_char oc '\n';
          flush oc;
          loop ()
        | Torn answer ->
          output_string oc answer;
          flush oc)
    in
    (try loop () with Sys_error _ -> ());
    Unix.close cfd
  in
  let rec accept () =
    match Unix.accept fd with
    | exception Unix.Unix_error _ -> ()
    | cfd, _ when Atomic.get f.stop -> Unix.close cfd
    | cfd, _ ->
      let conn = { lines = []; eof = false } in
      logged (fun () -> f.conns <- conn :: f.conns);
      ignore (Thread.create serve (conn, cfd));
      accept ()
  in
  f.accept_th <- Some (Thread.create accept ());
  f

let stop_fake f =
  Atomic.set f.stop true;
  (try
     let poke = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Fun.protect
       ~finally:(fun () -> Unix.close poke)
       (fun () -> Unix.connect poke (Unix.ADDR_UNIX f.path))
   with Unix.Unix_error _ -> ());
  Option.iter Thread.join f.accept_th;
  Unix.close f.fd;
  Sys.remove f.path

let is_health line =
  match Protocol.parse_request line with
  | Ok { Protocol.query = Protocol.Health; _ } -> true
  | _ -> false

(* The fake's connections that carried a forwarded request (the rest
   are the poller's one-shot probes), oldest first. *)
let fake_links f =
  Mutex.lock f.lock;
  let links =
    List.filter (fun c -> List.exists (fun l -> not (is_health l)) c.lines) f.conns
  in
  let accepted = List.length f.conns in
  Mutex.unlock f.lock;
  (List.rev links, accepted)

(* A router whose poller probes only at startup, so the request path is
   the only thing talking to members once they are up. *)
let start_quiet_router ~dir ~members =
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    { Router.default_config with probe_interval_s = 30.; shard_timeout_s = 5. }
  in
  let th =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  let c = Client.connect_unix router_sock in
  wait_until ~what:"every member up" (fun () ->
      let stats = request_ok c Protocol.stats_request in
      List.for_all (fun m -> member_state stats m = Some "up") members);
  (router_sock, th, c)

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* One client connection's forwards share one link to the member: ten
   forwards, one accept.  A second client connection opens its own. *)
let test_links_reused () =
  let dir = fresh_dir "bi_links" in
  let fake = start_fake (Filename.concat dir "fake.sock") in
  let router_sock, th_router, c = start_quiet_router ~dir ~members:[ fake.path ] in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_fake fake)
    (fun () ->
      let req = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      for _ = 1 to 10 do
        ignore (request_ok c req)
      done;
      let links, accepted = fake_links fake in
      Alcotest.(check (list int)) "ten forwards over one link" [ 10 ]
        (List.map (fun l -> List.length l.lines) links);
      let stats = request_ok c Protocol.stats_request in
      Alcotest.(check int) "forwards" 10 (counter stats "forwards");
      Alcotest.(check int) "connects = the member's accepts" accepted
        (counter stats "connects");
      let c2 = Client.connect_unix router_sock in
      ignore (request_ok c2 req);
      Client.close c2;
      let links, _ = fake_links fake in
      Alcotest.(check (list int)) "a second client connection, a second link"
        [ 10; 1 ]
        (List.map (fun l -> List.length l.lines) links))

(* A shard that closes the router's idle link (its idle timeout here)
   costs the next forward one fresh connection, not a failover: the
   same owner answers, from its cache. *)
let test_stale_link_retried () =
  let dir = fresh_dir "bi_stale" in
  let limits = { Server.default_limits with idle_timeout_s = 0.2 } in
  let sock_a, cache_a, th_a = start_shard ~limits ~dir ~name:"shard-a" () in
  let sock_b, cache_b, th_b = start_shard ~limits ~dir ~name:"shard-b" () in
  let router_sock, th_router, c =
    start_quiet_router ~dir ~members:[ sock_a; sock_b ]
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let req =
        Protocol.construction_request ~mode:Bi_certify.Mode.Certified
          ~name:"gworst-bliss" ~k:3 ()
      in
      Alcotest.(check (option bool)) "first forward computes" (Some false)
        (get_bool "cached" (request_ok c req));
      let before = counter (request_ok c Protocol.stats_request) "connects" in
      Thread.delay 0.5;
      (* Certified answers are not replicated: only the owner that
         computed this one can answer it cached. *)
      Alcotest.(check (option bool)) "the same owner answers" (Some true)
        (get_bool "cached" (request_ok c req));
      let stats = request_ok c Protocol.stats_request in
      Alcotest.(check int) "no failover" 0 (counter stats "failovers");
      Alcotest.(check int) "nothing unrouted" 0 (counter stats "unrouted");
      Alcotest.(check int) "one fresh connection" (before + 1)
        (counter stats "connects"))

(* An owner that dies with its link pooled: the reused link and the
   fresh retry both fail, so the forward fails over to the replica and
   the dead owner is noted failed once, as with a connection per
   exchange. *)
let test_dead_owner_fails_over () =
  let dir = fresh_dir "bi_dead" in
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" () in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" () in
  let members = [ sock_a; sock_b ] in
  let router_sock, th_router, c = start_quiet_router ~dir ~members in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let req =
        Protocol.construction_request ~mode:Bi_certify.Mode.Certified
          ~name:"gworst-bliss" ~k:3 ()
      in
      let r = request_ok c req in
      let key =
        match Sink.member "fingerprint" r with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let owner = Option.get (Ring.owner (Ring.create members) key) in
      stop_endpoint owner;
      Thread.join (if owner = sock_a then th_a else th_b);
      Alcotest.(check (option bool)) "the replica computes it" (Some false)
        (get_bool "cached" (request_ok c req));
      let stats = request_ok c Protocol.stats_request in
      Alcotest.(check int) "one failover" 1 (counter stats "failovers");
      Alcotest.(check int) "nothing unrouted" 0 (counter stats "unrouted");
      Alcotest.(check (option string)) "one failure noted" (Some "suspect")
        (member_state stats owner))

(* Router shutdown closes every worker's links, including those of a
   client connection still open: the member reads EOF on each, and
   [Router.run] returns within one 0.5 s poller slice (1 s allowed). *)
let test_shutdown_closes_links () =
  let dir = fresh_dir "bi_close" in
  let fake = start_fake (Filename.concat dir "fake.sock") in
  let _, th_router, c = start_quiet_router ~dir ~members:[ fake.path ] in
  let router_sock = Filename.concat dir "router.sock" in
  let c2 = Client.connect_unix router_sock in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Client.close c2;
      stop_fake fake)
    (fun () ->
      let req = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      ignore (request_ok c req);
      ignore (request_ok c2 req);
      Alcotest.(check int) "two links" 2 (List.length (fst (fake_links fake)));
      ignore (request_ok c Protocol.shutdown_request);
      let asked = Bi_engine.Clock.now_ns () in
      Thread.join th_router;
      let waited = Bi_engine.Clock.since asked in
      if waited > 1. then
        Alcotest.failf "router returned %.2f s after shutdown" waited;
      wait_until ~deadline:5. ~what:"EOF on every link" (fun () ->
          Mutex.lock fake.lock;
          let all = List.for_all (fun conn -> conn.eof) fake.conns in
          Mutex.unlock fake.lock;
          all))

(* --- relayed bytes ------------------------------------------------------ *)

(* Two scripted members behind a quiet router.  [primary] and
   [secondary] are a key's owners in ring order; each answers health
   probes and otherwise as [script] says for it, set per test case. *)
type scripted = {
  router : Client.t;
  owners : string -> string * string;
  script : (string, string -> reply) Hashtbl.t;
  fakes : fake list;
}

let with_scripted f =
  let dir = fresh_dir "bi_relay" in
  let script = Hashtbl.create 2 and lock = Mutex.create () in
  let reply_of path line =
    if is_health line then Line {|{"ok":true}|}
    else begin
      Mutex.lock lock;
      let r = Hashtbl.find_opt script path in
      Mutex.unlock lock;
      match r with Some r -> r line | None -> Line {|{"ok":true}|}
    end
  in
  let fakes =
    List.map
      (fun name ->
        let path = Filename.concat dir name in
        start_fake ~reply:(reply_of path) path)
      [ "a.sock"; "b.sock" ]
  in
  let members = List.map (fun fk -> fk.path) fakes in
  let router_sock, th_router, c = start_quiet_router ~dir ~members in
  let ring = Ring.create ~vnodes:Router.default_config.vnodes members in
  let owners key =
    match Ring.owners ring ~n:2 key with
    | [ p; s ] -> (p, s)
    | _ -> Alcotest.fail "expected two owners"
  in
  let set path r =
    Mutex.lock lock;
    Hashtbl.replace script path r;
    Mutex.unlock lock
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      stop_endpoint router_sock;
      Thread.join th_router;
      List.iter stop_fake fakes)
    (fun () -> f { router = c; owners; script; fakes } set)

let exhaustive_key name k =
  match Bi_cache.Fingerprint.of_construction name k with
  | Ok fp -> fp
  | Error e -> Alcotest.fail e

let analysis_body name k =
  match Bi_constructions.Registry.build name k with
  | Ok g -> Bi_cache.Codec.analysis_to_json (Bi_ncs.Bayesian_ncs.analyze g)
  | Error e -> Alcotest.fail e

let raw_request c line =
  match Client.raw_request c line with
  | Ok answer -> answer
  | Error f -> Alcotest.fail (Client.failure_to_string f)

let construction_line name k =
  Sink.to_string (Protocol.construction_request ~name ~k ())

(* The same answer as a shard might word it: members reversed and
   whitespace between every token. *)
let reworded answer =
  let rec spaced = function
    | Sink.Obj fields ->
      " { "
      ^ String.concat " , "
          (List.rev_map (fun (k, v) -> Sink.quote k ^ " :\t" ^ spaced v) fields)
      ^ " } "
    | Sink.List items -> " [ " ^ String.concat " , " (List.map spaced items) ^ " ] "
    | v -> " " ^ Sink.to_string v ^ " "
  in
  spaced answer

(* A garbage line, or a line torn by a crash, from the primary moves the
   forward to the replica, as any transport failure does. *)
let test_relay_bad_line_fails_over () =
  with_scripted (fun t set ->
      List.iteri
        (fun i bad ->
          let k = 2 + i in
          let primary, secondary = t.owners (exhaustive_key "gworst-bliss" k) in
          let good =
            Sink.to_string
              (Protocol.ok_answer ~fingerprint:(exhaustive_key "gworst-bliss" k)
                 ~cached:true [ ("analysis", analysis_body "gworst-bliss" k) ])
          in
          set primary (fun _ -> bad);
          set secondary (fun _ -> Line good);
          let before = counter (request_ok t.router Protocol.stats_request) "failovers" in
          Alcotest.(check string) "the replica's answer" good
            (raw_request t.router (construction_line "gworst-bliss" k));
          Alcotest.(check int) "one failover" (before + 1)
            (counter (request_ok t.router Protocol.stats_request) "failovers"))
        [ Line "not json {"; Torn {|{"ok":true,"fingerprint":"|} ])

(* Each verdict is handled the same in a shard's canonical wording and
   in a reworded one: [ok] is relayed and front-cached, [overloaded]
   fails over, [error] and [deadline_exceeded] are final. *)
let test_relay_reworded_answers () =
  with_scripted (fun t set ->
      let stats () = request_ok t.router Protocol.stats_request in
      let outcome ~k ~word verdict =
        let fingerprint = exhaustive_key "gworst-curse" k in
        let primary, secondary = t.owners fingerprint in
        let answer =
          match verdict with
          | "ok" ->
            Protocol.ok_answer ~fingerprint ~cached:true
              [ ("analysis", analysis_body "gworst-curse" k) ]
          | "overloaded" -> Protocol.overloaded ~retry_after_ms:5
          | "error" -> Protocol.error "no"
          | _ -> Protocol.deadline_exceeded
        in
        let fallback = Protocol.error "from the replica" in
        set primary (fun _ -> Line (word answer));
        set secondary (fun _ -> Line (Sink.to_string fallback));
        let s0 = stats () in
        let first = raw_request t.router (construction_line "gworst-curse" k) in
        let second = raw_request t.router (construction_line "gworst-curse" k) in
        let s1 = stats () in
        let delta key = counter s1 key - counter s0 key in
        ( Sink.of_string first,
          Sink.of_string second,
          delta "failovers",
          delta "front_hits",
          delta "forwards" )
      in
      List.iteri
        (fun i verdict ->
          let canonical = outcome ~k:(2 + (2 * i)) ~word:Sink.to_string verdict in
          let other = outcome ~k:(3 + (2 * i)) ~word:reworded verdict in
          let strip (a, b, f, h, w) =
            (* The fingerprints and analyses differ with k, and a
               reworded answer lists its members in another order:
               compare the other members as sets. *)
            let drop = function
              | Ok (Sink.Obj fields) ->
                Ok
                  (Sink.Obj
                     (List.sort compare
                        (List.filter
                           (fun (key, _) -> key <> "fingerprint" && key <> "analysis")
                           fields)))
              | j -> j
            in
            (drop a, drop b, f, h, w)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: same handling" verdict)
            true
            (strip canonical = strip other))
        [ "ok"; "overloaded"; "error"; "deadline_exceeded" ];
      (* And the handling itself, on the reworded forms. *)
      let _, _, failovers, front_hits, _ = outcome ~k:4 ~word:reworded "ok" in
      Alcotest.(check (pair int int)) "ok: relayed, then a front hit" (0, 1)
        (failovers, front_hits))

(* A fresh answer is replicated to the other owner, however the shard
   words it; and every byte the router writes from a canonical answer is
   the tree rendering it used to write: the forwarded answer, the front
   hit and the replication put. *)
let test_relay_bytes_match_trees () =
  with_scripted (fun t set ->
      List.iter
        (fun (k, canonical) ->
          let fingerprint = exhaustive_key "anshelevich" k in
          let primary, secondary = t.owners fingerprint in
          let body = analysis_body "anshelevich" k in
          let fresh =
            Sink.Obj
              [ ("analysis", body); ("fingerprint", Sink.Str fingerprint);
                ("ok", Sink.Bool true); ("cached", Sink.Bool false) ]
          in
          let puts = ref [] and lock = Mutex.create () in
          set primary (fun _ ->
              Line (if canonical then Sink.to_string fresh else reworded fresh));
          set secondary (fun line ->
              Mutex.lock lock;
              puts := line :: !puts;
              Mutex.unlock lock;
              Line (Sink.to_string (Protocol.ok_stored ~fingerprint)));
          let s0 = request_ok t.router Protocol.stats_request in
          let forwarded = raw_request t.router (construction_line "anshelevich" k) in
          let front_hit = raw_request t.router (construction_line "anshelevich" k) in
          let s1 = request_ok t.router Protocol.stats_request in
          let delta key = counter s1 key - counter s0 key in
          Alcotest.(check int) "replicated to the other owner" 1 (delta "replications");
          Alcotest.(check int) "quorum met" 0 (delta "quorum_failures");
          Alcotest.(check int) "then a front hit" 1 (delta "front_hits");
          if canonical then begin
            Mutex.lock lock;
            let seen = !puts in
            Mutex.unlock lock;
            Alcotest.(check (list string)) "the put is the tree's rendering"
              [ Sink.to_string (Protocol.put_request ~fingerprint body) ]
              seen;
            Alcotest.(check string) "the front hit is the tree's rendering"
              (Sink.to_string
                 (Protocol.ok_answer ~fingerprint ~cached:true [ ("analysis", body) ]))
              front_hit;
            Alcotest.(check string) "the forwarded answer is the shard's bytes"
              (Sink.to_string fresh) forwarded
          end)
        [ (2, true); (3, false) ])

(* The member names and order of the [server] and [router] objects, in
   [stats] and in both metrics dumps, are read by the benchmark, CI and
   [bi chaos --cluster]: they are pinned here.  The router's latency
   histogram and then its shard-connection count come last.  After
   shutdown every handled line has been counted on entry and timed on
   exit, so each dump's histogram totals its [requests]. *)
let server_members =
  [
    "requests"; "errors"; "hits"; "misses"; "coalesced"; "overloaded";
    "deadline_exceeded"; "idle_closed"; "faults_injected"; "queue_depth";
    "max_queue_depth"; "latency_log2_us";
  ]

let router_members =
  [
    "requests"; "errors"; "front_hits"; "forwards"; "failovers"; "unrouted";
    "replications"; "replication_failures"; "quorum_failures"; "probes";
    "probe_failures"; "marked_up"; "marked_down"; "warmed"; "hints_recorded";
    "hints_dropped"; "read_repairs"; "repair_rounds"; "divergent_keys";
    "repairs"; "inflight"; "max_inflight"; "latency_log2_us"; "connects";
  ]

let test_metrics_member_golden () =
  let dir = Filename.temp_file "bi_golden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let shard_sock = Filename.concat dir "shard.sock" in
  let shard_out = Filename.concat dir "serve_metrics.json" in
  let router_sock = Filename.concat dir "router.sock" in
  let router_out = Filename.concat dir "router_metrics.json" in
  let cache = Service.create ~shard:"shard-a" () in
  let th_shard =
    with_ready_thread (fun ~on_ready ->
        Server.run ~on_ready ~metrics_out:shard_out ~cache
          (Server.Unix_socket shard_sock))
  in
  let d = Client.connect_unix shard_sock in
  (* Before the router starts probing the shard, the only line in flight
     there is this health request itself. *)
  let shard_health = request_ok d Protocol.health_request in
  let config =
    { Router.default_config with replicas = 1; quorum = 1; probe_interval_s = 0.05 }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~metrics_out:router_out ~config
          ~members:[ shard_sock ]
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  let names = function
    | Some (Sink.Obj fields) -> List.map fst fields
    | _ -> Alcotest.fail "not an object"
  in
  let check_names = Alcotest.(check (list string)) in
  let c = Client.connect_unix router_sock in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Client.close d;
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint shard_sock;
      Thread.join th_shard;
      Service.close cache)
    (fun () ->
      let req = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      ignore (request_ok c req);
      ignore (request_ok c req);
      (match Client.raw_request c "{\"op\": 42}" with
      | Ok _ -> ()
      | Error f -> Alcotest.fail (Client.failure_to_string f));
      List.iter
        (fun (what, health) ->
          Alcotest.(check (option int))
            (what ^ " health counts itself in flight")
            (Some 1) (get_int "inflight" health))
        [ ("router", request_ok c Protocol.health_request);
          ("shard", shard_health) ];
      let stats = request_ok c Protocol.stats_request in
      check_names "router stats" [ "ok"; "router"; "members"; "front"; "hints" ]
        (names (Some stats));
      check_names "router stats router" router_members
        (names (Sink.member "router" stats));
      let stats = request_ok d Protocol.stats_request in
      check_names "shard stats" [ "ok"; "cache"; "server" ] (names (Some stats));
      check_names "shard stats server" server_members
        (names (Sink.member "server" stats)));
  let dump path =
    match
      Sink.of_string
        (In_channel.with_open_text path In_channel.input_all |> String.trim)
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let timed_all what obj =
    let total =
      match Sink.member "latency_log2_us" obj with
      | Some (Sink.List buckets) ->
        List.fold_left
          (fun acc b -> acc + Option.value ~default:0 (get_int "count" b))
          0 buckets
      | _ -> -1
    in
    Alcotest.(check (option int)) (what ^ " histogram totals requests")
      (get_int "requests" obj) (Some total)
  in
  let serve = dump shard_out and router = dump router_out in
  check_names "serve dump" [ "record"; "server"; "cache" ] (names (Some serve));
  check_names "serve dump server" server_members
    (names (Sink.member "server" serve));
  timed_all "serve dump" (Option.get (Sink.member "server" serve));
  check_names "router dump" [ "record"; "router"; "members"; "front" ]
    (names (Some router));
  check_names "router dump router" router_members
    (names (Sink.member "router" router));
  timed_all "router dump" (Option.get (Sink.member "router" router))

let () =
  Alcotest.run "bi_router"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest ring_stable_under_addition;
          QCheck_alcotest.to_alcotest ring_stable_under_removal;
          QCheck_alcotest.to_alcotest ring_owner_sets;
          Alcotest.test_case "balance across 1k fingerprints" `Quick
            test_ring_balance;
          Alcotest.test_case "canonical under order and duplicates" `Quick
            test_ring_canonical;
        ] );
      ( "membership",
        [
          Alcotest.test_case "lifecycle up/suspect/down" `Quick
            test_membership_lifecycle;
          Alcotest.test_case "deterministic probe backoff" `Quick
            test_membership_backoff;
          Alcotest.test_case "reload preserves survivors" `Quick
            test_membership_reload;
          Alcotest.test_case "member list parsing" `Quick test_parse_members;
          QCheck_alcotest.to_alcotest parse_members_dedupes;
        ] );
      ( "repair",
        [
          Alcotest.test_case "hint log record/supersede/evict/take" `Quick
            test_hints_log;
          Alcotest.test_case "hint log survives restart" `Quick
            test_hints_durability;
          Alcotest.test_case "divergence rule" `Quick test_fsck_divergences;
        ] );
      ( "router",
        [
          Alcotest.test_case "end to end with failover" `Quick
            test_router_end_to_end;
          Alcotest.test_case "correlated concept through the router" `Quick
            test_router_correlated;
          Alcotest.test_case "read-repair parks hints on failover" `Quick
            test_read_repair_parks_hints;
          Alcotest.test_case "recovery drains hints and anti-entropy heals"
            `Quick test_recovery_drains_hints;
          Alcotest.test_case "SIGHUP reload races probes and repair" `Quick
            test_sighup_reload_race;
          Alcotest.test_case "forwards the received line verbatim" `Quick
            test_router_forwards_verbatim;
          Alcotest.test_case "auto answers are forwarded untouched" `Quick
            test_router_auto_tier;
          Alcotest.test_case "metrics members keep their order" `Quick
            test_metrics_member_golden;
        ] );
      ( "links",
        [
          Alcotest.test_case "one link per member per client connection"
            `Quick test_links_reused;
          Alcotest.test_case "a link the shard closed is retried fresh" `Quick
            test_stale_link_retried;
          Alcotest.test_case "a dead owner's link fails over" `Quick
            test_dead_owner_fails_over;
          Alcotest.test_case "shutdown closes every link" `Quick
            test_shutdown_closes_links;
        ] );
      ( "relay",
        [
          Alcotest.test_case "a garbage or torn shard line fails over" `Quick
            test_relay_bad_line_fails_over;
          Alcotest.test_case "reworded answers are handled as canonical ones"
            `Quick test_relay_reworded_answers;
          Alcotest.test_case "relayed bytes equal the tree renderings" `Quick
            test_relay_bytes_match_trees;
        ] );
    ]
