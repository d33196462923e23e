(* The content-addressed cache: fingerprint canonicality (the qcheck
   properties the subsystem's correctness rests on), codec round-trips,
   LRU semantics, store replay/verification, and the service tier. *)

open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist
module Bncs = Bi_ncs.Bayesian_ncs
module Sink = Bi_engine.Sink
module Fingerprint = Bi_cache.Fingerprint
module Codec = Bi_cache.Codec
module Lru = Bi_cache.Lru
module Store = Bi_cache.Store
module Service = Bi_cache.Service

(* --- generators ------------------------------------------------------ *)

let gen_rat =
  QCheck2.Gen.(
    map2 (fun n d -> Rat.of_ints n d) (int_range 0 40) (int_range 1 12))

(* A well-formed random game description: a connected-enough graph (the
   fingerprint does not care about connectivity) plus a small prior. *)
let gen_description =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* directed = bool in
    let* edges =
      list_size (int_range 1 10)
        (let* s = int_range 0 (n - 1) in
         let* d = int_range 0 (n - 1) in
         let* c = gen_rat in
         return (s, d, c))
    in
    let* k = int_range 1 3 in
    let* support_size = int_range 1 3 in
    let* support =
      list_repeat support_size
        (array_repeat k (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))
    in
    let* weights = list_repeat support_size (map Rat.of_int (int_range 1 5)) in
    let kind = if directed then Graph.Directed else Graph.Undirected in
    return (kind, n, edges, List.combine support weights))

let build (kind, n, edges, prior) =
  (Graph.make kind ~n edges, Dist.make prior)

let fingerprint_of d =
  let graph, prior = build d in
  Fingerprint.game graph ~prior

let shuffle seed xs =
  let rng = Random.State.make [| seed |] in
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

(* --- fingerprint canonicality ---------------------------------------- *)

let prop_edge_order_irrelevant =
  QCheck2.Test.make ~name:"fingerprint ignores edge insertion order" ~count:200
    QCheck2.Gen.(pair gen_description gen_seed)
    (fun ((kind, n, edges, prior), seed) ->
      fingerprint_of (kind, n, edges, prior)
      = fingerprint_of (kind, n, shuffle seed edges, prior))

let prop_support_order_irrelevant =
  QCheck2.Test.make ~name:"fingerprint ignores prior enumeration order"
    ~count:200
    QCheck2.Gen.(pair gen_description gen_seed)
    (fun ((kind, n, edges, prior), seed) ->
      fingerprint_of (kind, n, edges, prior)
      = fingerprint_of (kind, n, edges, shuffle seed prior))

let prop_unreduced_rationals_irrelevant =
  QCheck2.Test.make ~name:"fingerprint ignores rational representation"
    ~count:200
    QCheck2.Gen.(pair gen_description (int_range 2 7))
    (fun ((kind, n, edges, prior), m) ->
      (* Rebuild every cost and weight from an unreduced fraction
         (m*num)/(m*den); [Rat.make] canonicalizes, so the fingerprints
         must agree. *)
      let blow r =
        let num = Rat.num r and den = Rat.den r in
        Rat.make (Bigint.mul (Bigint.of_int m) num) (Bigint.mul (Bigint.of_int m) den)
      in
      let edges' = List.map (fun (s, d, c) -> (s, d, blow c)) edges in
      let prior' = List.map (fun (t, w) -> (t, blow w)) prior in
      fingerprint_of (kind, n, edges, prior)
      = fingerprint_of (kind, n, edges', prior'))

let prop_weight_scaling_irrelevant =
  QCheck2.Test.make ~name:"fingerprint ignores prior weight scaling" ~count:200
    QCheck2.Gen.(pair gen_description (int_range 1 9))
    (fun ((kind, n, edges, prior), m) ->
      (* [Dist.make] normalizes to total mass one. *)
      let prior' =
        List.map (fun (t, w) -> (t, Rat.mul (Rat.of_int m) w)) prior
      in
      fingerprint_of (kind, n, edges, prior)
      = fingerprint_of (kind, n, edges, prior'))

let prop_undirected_endpoint_order_irrelevant =
  QCheck2.Test.make ~name:"fingerprint ignores undirected edge orientation"
    ~count:200 gen_description
    (fun (_, n, edges, prior) ->
      let flipped = List.map (fun (s, d, c) -> (d, s, c)) edges in
      fingerprint_of (Graph.Undirected, n, edges, prior)
      = fingerprint_of (Graph.Undirected, n, flipped, prior))

(* The paper corpus: every construction the bench exercises must have a
   distinct fingerprint — the whole cache keys on that. *)
let test_corpus_no_collisions () =
  let games =
    List.concat_map
      (fun name ->
        (* Diamond games grow doubly fast in the level; small levels
           suffice for the collision property. *)
        let ks = if name = "diamond" then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
        List.filter_map
          (fun k ->
            match Bi_constructions.Registry.build name k with
            | Ok g -> Some (Printf.sprintf "%s k=%d" name k, g)
            | Error _ -> None)
          ks)
      Bi_constructions.Registry.names
  in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length games > 10);
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (label, g) ->
      let fp = Fingerprint.of_game g in
      (match Hashtbl.find_opt tbl fp with
      | Some other ->
        Alcotest.failf "fingerprint collision: %s vs %s" label other
      | None -> ());
      Hashtbl.add tbl fp label)
    games

let test_fingerprint_distinguishes () =
  let base = (Graph.Undirected, 3, [ (0, 1, Rat.one); (1, 2, Rat.one) ],
              [ ([| (0, 2) |], Rat.one) ]) in
  let cost_changed = (Graph.Undirected, 3, [ (0, 1, Rat.of_ints 1 2); (1, 2, Rat.one) ],
                      [ ([| (0, 2) |], Rat.one) ]) in
  let kind_changed = (Graph.Directed, 3, [ (0, 1, Rat.one); (1, 2, Rat.one) ],
                      [ ([| (0, 2) |], Rat.one) ]) in
  let prior_changed = (Graph.Undirected, 3, [ (0, 1, Rat.one); (1, 2, Rat.one) ],
                       [ ([| (0, 1) |], Rat.one) ]) in
  let fp = fingerprint_of base in
  Alcotest.(check bool) "cost matters" true (fp <> fingerprint_of cost_changed);
  Alcotest.(check bool) "kind matters" true (fp <> fingerprint_of kind_changed);
  Alcotest.(check bool) "prior matters" true (fp <> fingerprint_of prior_changed)

(* The construction table answers exactly what building and
   fingerprinting would, builder errors included, for every registered
   name (and an unknown one) at every k of the memoised range and just
   past it on both sides; the second lookup is served from the table.
   Below the range the builders refuse with a structured error: no
   family divides by a zero or negative k. *)
let test_construction_table () =
  let module Registry = Bi_constructions.Registry in
  List.iter
    (fun name ->
      List.iter
        (fun k ->
          match Registry.build name k with
          | Ok _ when name = "diamond" && k = 0 -> ()
          | Ok _ -> Alcotest.failf "%s k=%d must be refused" name k
          | Error _ -> ())
        [ 0; -1 ])
    Registry.names;
  List.iter
    (fun name ->
      for k = -1 to Registry.max_k + 1 do
        let label = Printf.sprintf "%s k=%d" name k in
        let expected = Result.map Fingerprint.of_game (Registry.build name k) in
        Alcotest.(check (result string string))
          label expected
          (Fingerprint.of_construction name k);
        Alcotest.(check (result string string))
          (label ^ " again") expected
          (Fingerprint.of_construction name k)
      done)
    ("no-such-family" :: Registry.names)

(* --- codec round-trips ----------------------------------------------- *)

let prop_rat_roundtrip =
  QCheck2.Test.make ~name:"rational json roundtrip" ~count:500
    QCheck2.Gen.(pair (int_range (-500) 500) (int_range 1 400))
    (fun (n, d) ->
      let r = Rat.of_ints n d in
      match Codec.rat_of_json (Codec.rat_to_json r) with
      | Ok r' -> Rat.equal r r'
      | Error _ -> false)

let test_ext_roundtrip () =
  List.iter
    (fun e ->
      match Codec.ext_of_json (Codec.ext_to_json e) with
      | Ok e' -> Alcotest.(check bool) "ext roundtrip" true (Extended.equal e e')
      | Error msg -> Alcotest.fail msg)
    [ Extended.Inf; Extended.of_int 0; Extended.Fin (Rat.of_ints (-7) 3) ]

let test_analysis_roundtrip () =
  match Bi_constructions.Registry.build "gworst-bliss" 3 with
  | Error e -> Alcotest.fail e
  | Ok game ->
    let a = Bncs.analyze game in
    let j = Codec.analysis_to_json a in
    (match Codec.analysis_of_json j with
    | Error e -> Alcotest.fail e
    | Ok a' ->
      Alcotest.(check bool) "report survives" true
        (a.Bncs.report = a'.Bncs.report);
      Alcotest.(check bool) "witnesses survive" true
        (a.Bncs.opt_p_witness = a'.Bncs.opt_p_witness
        && a.Bncs.best_eq_p_witness = a'.Bncs.best_eq_p_witness
        && a.Bncs.worst_eq_p_witness = a'.Bncs.worst_eq_p_witness);
      (* Byte-identical re-rendering: the store checksum depends on it. *)
      Alcotest.(check string) "canonical rendering" (Sink.to_string j)
        (Sink.to_string (Codec.analysis_to_json a')))

let prop_game_roundtrip =
  QCheck2.Test.make ~name:"game description json roundtrip" ~count:200
    gen_description
    (fun d ->
      let graph, prior = build d in
      match Game_oracle.decode (Sink.to_string (Codec.game_to_json graph ~prior)) with
      | Error _ -> false
      | Ok (graph', prior') ->
        Fingerprint.game graph ~prior = Fingerprint.game graph' ~prior:prior')

let test_game_of_json_rejects () =
  List.iter
    (fun s ->
      match Game_oracle.decode s with
      | Ok _ -> Alcotest.failf "accepted invalid description %s" s
      | Error _ -> ())
    [
      {|{"kind":"sideways","n":2,"edges":[],"prior":[]}|};
      {|{"kind":"directed","n":2,"edges":[[0,5,"1"]],"prior":[{"types":[[0,1]],"weight":"1"}]}|};
      {|{"kind":"directed","n":2,"edges":[[0,1,"1/0"]],"prior":[{"types":[[0,1]],"weight":"1"}]}|};
      {|{"kind":"directed","n":2,"edges":[[0,1,"1"]],"prior":[]}|};
    ]

(* --- LRU -------------------------------------------------------------- *)

let test_lru_eviction_order () =
  let lru = Lru.create ~capacity:3 in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  Lru.add lru "c" 3;
  (* Touch "a" so "b" becomes the eviction victim. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find lru "a");
  Lru.add lru "d" 4;
  Alcotest.(check (option int)) "b evicted" None (Lru.find lru "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find lru "a");
  Alcotest.(check int) "evictions counted" 1 (Lru.evictions lru);
  (* Replacement does not grow the map or evict. *)
  Lru.add lru "c" 30;
  Alcotest.(check int) "length stable" 3 (Lru.length lru);
  Alcotest.(check (option int)) "replaced" (Some 30) (Lru.find lru "c");
  (* mem does not touch recency: "d" stays the victim after mem "d". *)
  ignore (Lru.find lru "a");
  ignore (Lru.find lru "c");
  Alcotest.(check bool) "mem" true (Lru.mem lru "d");
  Lru.add lru "e" 5;
  Alcotest.(check (option int)) "mem did not refresh d" None (Lru.find lru "d")

let test_lru_recency_hits () =
  (* A hit on the newest key leaves the order alone and allocates only
     the two options of the lookup (4 words; relinking costs 10). *)
  let lru = Lru.create ~capacity:3 in
  List.iter (fun (k, v) -> Lru.add lru k v) [ ("a", 1); ("b", 2); ("c", 3) ];
  let keys () = List.rev (Lru.fold (fun acc k _ -> k :: acc) [] lru) in
  ignore (Lru.find lru "c");
  Alcotest.(check (list string)) "newest hit keeps order" [ "c"; "b"; "a" ] (keys ());
  ignore (Lru.find lru "a");
  ignore (Lru.find lru "a");
  Alcotest.(check (list string)) "older hit moves to front" [ "a"; "c"; "b" ] (keys ());
  Lru.add lru "d" 4;
  Alcotest.(check (list string)) "least recent evicted" [ "d"; "a"; "c" ] (keys ());
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Lru.find lru "d"))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  if per_call > 4.5 then
    Alcotest.failf "find of the newest key allocates %.2f minor words per call" per_call

let test_lru_fold_mru_first () =
  let lru = Lru.create ~capacity:4 in
  List.iter (fun (k, v) -> Lru.add lru k v)
    [ ("a", 1); ("b", 2); ("c", 3) ];
  let keys = List.rev (Lru.fold (fun acc k _ -> k :: acc) [] lru) in
  Alcotest.(check (list string)) "mru order" [ "c"; "b"; "a" ] keys;
  Alcotest.check_raises "capacity >= 1" (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (Lru.create ~capacity:0))

(* --- store ------------------------------------------------------------ *)

let test_store_roundtrip_and_corruption () =
  let path = Filename.temp_file "bi_store" ".jsonl" in
  let store = Store.open_append path in
  let entries =
    [
      Store.entry ~key:"k1" ~kind:"payload" (Sink.to_string (Sink.Str "v1"));
      Store.entry ~key:"k2" ~kind:"analysis" (Sink.to_string (Sink.Obj [ ("x", Sink.Int 1) ]));
      Store.entry ~key:"k1" ~kind:"payload" (Sink.to_string (Sink.Str "v1-superseded"));
    ]
  in
  List.iter (Store.append store) entries;
  Store.close store;
  let replayed, invalid = Store.load path in
  Alcotest.(check int) "all entries replay" 3 (List.length replayed);
  Alcotest.(check int) "no invalid lines" 0 invalid;
  Alcotest.(check bool) "append order preserved" true
    (List.map (fun e -> e.Store.body) replayed
    = List.map (fun e -> e.Store.body) entries);
  (* Corrupt the middle entry's checksum, append garbage and a torn
     line: replay keeps the good entries and counts the rest. *)
  let replace_once ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let rec at i =
      if i + m > n then s
      else if String.sub s i m = sub then
        String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
      else at (i + 1)
    in
    at 0
  in
  let lines = List.map Store.entry_to_line entries in
  let oc = open_out path in
  List.iteri
    (fun i line ->
      let line =
        if i = 1 then replace_once ~sub:{|"x":1|} ~by:{|"x":2|} line else line
      in
      output_string oc line;
      output_char oc '\n')
    lines;
  output_string oc "not json at all\n";
  output_string oc "{\"record\":\"entry\",\"key\":\"torn";
  close_out oc;
  let replayed, invalid = Store.load path in
  Alcotest.(check int) "good entries survive" 2 (List.length replayed);
  Alcotest.(check int) "tampered + garbage + torn counted" 3 invalid;
  Sys.remove path

let test_store_missing_file () =
  let replayed, invalid = Store.load "/nonexistent/bi_store.jsonl" in
  Alcotest.(check int) "empty" 0 (List.length replayed);
  Alcotest.(check int) "no invalid" 0 invalid

(* --- compaction ------------------------------------------------------- *)

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> go (line :: acc)
        in
        go [])
  end

let test_store_compact () =
  let path = Filename.temp_file "bi_compact" ".jsonl" in
  let store = Store.open_append path in
  List.iter (Store.append store)
    [
      Store.entry ~key:"a" ~kind:"payload" (Sink.to_string (Sink.Int 1));
      Store.entry ~key:"b" ~kind:"payload" (Sink.to_string (Sink.Int 2));
      Store.entry ~key:"a" ~kind:"payload" (Sink.to_string (Sink.Int 3));
      Store.entry ~key:"a" ~kind:"payload" (Sink.to_string (Sink.Int 4));
    ]
  ;
  Store.close store;
  (* A torn tail and a garbage line, as a crash mid-append leaves them. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json at all\n";
  output_string oc {|{"record":"entry","key":"c","kind|};
  close_out oc;
  let c = Store.compact path in
  Alcotest.(check int) "kept last entry per key" 2 c.Store.kept;
  Alcotest.(check int) "stale duplicates dropped" 2 c.Store.superseded;
  Alcotest.(check int) "bad lines quarantined" 2 c.Store.quarantined;
  let replayed, invalid = Store.load path in
  Alcotest.(check int) "compacted log replays clean" 0 invalid;
  Alcotest.(check int) "one entry per key" 2 (List.length replayed);
  Alcotest.(check bool) "latest value wins" true
    (List.exists
       (fun e -> e.Store.key = "a" && e.Store.body = "4")
       replayed);
  (* The quarantine sidecar holds the rejected lines verbatim. *)
  let rej = read_lines (Store.rej_path path) in
  Alcotest.(check (list string)) "sidecar verbatim"
    [ "not json at all"; {|{"record":"entry","key":"c","kind|} ]
    rej;
  (* Idempotence: compacting a clean log is a no-op. *)
  let c2 = Store.compact path in
  Alcotest.(check int) "kept stable" 2 c2.Store.kept;
  Alcotest.(check int) "nothing superseded" 0 c2.Store.superseded;
  Alcotest.(check int) "nothing quarantined" 0 c2.Store.quarantined;
  let replayed2, _ = Store.load path in
  Alcotest.(check bool) "second pass preserves entries" true
    (List.map (fun e -> (e.Store.key, e.Store.body)) replayed
    = List.map (fun e -> (e.Store.key, e.Store.body)) replayed2);
  Sys.remove path;
  Sys.remove (Store.rej_path path)

let test_service_crash_then_compact () =
  let path = Filename.temp_file "bi_crash" ".jsonl" in
  Sys.remove path;
  let game =
    match Bi_constructions.Registry.build "gworst-curse" 3 with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let fp = Fingerprint.of_game game in
  let s1 = Service.create ~store_path:path () in
  let a1, _ = Service.analysis s1 fp (fun () -> Bncs.analyze game) in
  Service.close s1;
  (* kill -9 mid-append: the log ends in a half-written line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"record":"entry","key":"|};
  close_out oc;
  (* Reopen: the torn tail pushes the invalid share past the threshold,
     so the open-time compaction fires, quarantines the fragment and
     keeps every valid entry. *)
  let s2 = Service.create ~store_path:path () in
  let st = Service.stats s2 in
  Alcotest.(check int) "valid entry replayed" 1 st.Service.loaded;
  Alcotest.(check int) "torn tail quarantined" 1 st.Service.quarantined;
  let a2, hit = Service.analysis s2 fp (fun () -> Alcotest.fail "recomputed") in
  Alcotest.(check bool) "warm hit after recovery" true hit;
  Alcotest.(check string) "byte-identical answer"
    (Sink.to_string (Codec.analysis_to_json a1))
    (Sink.to_string (Codec.analysis_to_json a2));
  Service.close s2;
  (* The compacted log is clean: a third open replays with no invalid
     lines and no further compaction. *)
  let s3 = Service.create ~store_path:path () in
  let st3 = Service.stats s3 in
  Alcotest.(check int) "clean replay" 1 st3.Service.loaded;
  Alcotest.(check int) "no invalid lines" 0 st3.Service.invalid;
  Alcotest.(check int) "no compaction needed" 0 st3.Service.quarantined;
  Service.close s3;
  Sys.remove path;
  Sys.remove (Store.rej_path path)

let test_service_auto_compact_opt_out () =
  let path = Filename.temp_file "bi_noauto" ".jsonl" in
  let oc = open_out path in
  output_string oc "garbage line\n";
  close_out oc;
  let s = Service.create ~store_path:path ~auto_compact:false () in
  let st = Service.stats s in
  Alcotest.(check int) "invalid counted" 1 st.Service.invalid;
  Alcotest.(check int) "nothing quarantined" 0 st.Service.quarantined;
  Service.close s;
  Alcotest.(check bool) "no sidecar written" false
    (Sys.file_exists (Store.rej_path path));
  Sys.remove path

(* --- service ---------------------------------------------------------- *)

let test_service_miss_then_hit () =
  let s = Service.create ~capacity:8 () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    Sink.Int 42
  in
  let v1, hit1 = Service.payload s "fp1/q" compute in
  let v2, hit2 = Service.payload s "fp1/q" compute in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check bool) "same value" true (v1 = v2);
  Alcotest.(check int) "computed once" 1 !calls;
  let st = Service.stats s in
  Alcotest.(check int) "hits" 1 st.Service.hits;
  Alcotest.(check int) "misses" 1 st.Service.misses;
  Service.close s

let test_service_restart_from_store () =
  let path = Filename.temp_file "bi_service" ".jsonl" in
  Sys.remove path;
  let game =
    match Bi_constructions.Registry.build "gworst-curse" 3 with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let fp = Fingerprint.of_game game in
  let s1 = Service.create ~store_path:path () in
  let a1, hit1 = Service.analysis s1 fp (fun () -> Bncs.analyze game) in
  Alcotest.(check bool) "cold miss" false hit1;
  Service.close s1;
  (* A fresh service over the same store must answer from the replayed
     entry: the thunk proves it is never called. *)
  let s2 = Service.create ~store_path:path () in
  Alcotest.(check int) "entry replayed" 1 (Service.stats s2).Service.loaded;
  let a2, hit2 = Service.analysis s2 fp (fun () -> Alcotest.fail "recomputed") in
  Alcotest.(check bool) "warm hit" true hit2;
  Alcotest.(check bool) "identical report" true (a1.Bncs.report = a2.Bncs.report);
  Alcotest.(check bool) "identical witnesses" true
    (a1.Bncs.opt_p_witness = a2.Bncs.opt_p_witness);
  Service.close s2;
  Sys.remove path

let test_service_lru_bounds_memory () =
  let s = Service.create ~capacity:2 () in
  ignore (Service.payload s "a" (fun () -> Sink.Int 1));
  ignore (Service.payload s "b" (fun () -> Sink.Int 2));
  ignore (Service.payload s "c" (fun () -> Sink.Int 3));
  let st = Service.stats s in
  Alcotest.(check int) "capacity respected" 2 st.Service.length;
  Alcotest.(check int) "eviction counted" 1 st.Service.evictions;
  Alcotest.(check (option string)) "oldest evicted" None
    (Option.map (fun _ -> "present") (Service.find s "a"));
  Service.close s

(* --- digest view ------------------------------------------------------- *)

let test_store_digest_helpers () =
  let b = Store.bucket_of_key "some-key" in
  Alcotest.(check bool) "bucket in range" true (b >= 0 && b < Store.buckets);
  Alcotest.(check int) "bucket deterministic" b (Store.bucket_of_key "some-key");
  let pairs = [ ("k1", "c1"); ("k2", "c2"); ("k3", "c3") ] in
  Alcotest.(check string) "bucket digest ignores pair order"
    (Store.bucket_digest pairs)
    (Store.bucket_digest (List.rev pairs));
  Alcotest.(check bool) "bucket digest sees check changes" true
    (Store.bucket_digest pairs
    <> Store.bucket_digest [ ("k1", "cX"); ("k2", "c2"); ("k3", "c3") ])

let test_service_digest_view () =
  let s = Service.create ~capacity:8 () in
  let keys = List.init 5 (fun i -> Printf.sprintf "key-%d" i) in
  List.iteri (fun i k -> Service.insert s k (Service.Payload (Sink.Int i))) keys;
  let rollup = Service.digest_rollup s in
  let buckets_of_keys =
    List.sort_uniq compare (List.map Store.bucket_of_key keys)
  in
  Alcotest.(check (list int)) "rollup covers exactly the resident buckets"
    buckets_of_keys (List.map fst rollup);
  (* Every rollup digest is recomputable from its bucket's pairs. *)
  List.iter
    (fun (b, digest) ->
      Alcotest.(check string) "bucket digest matches pairs" digest
        (Store.bucket_digest (Service.bucket_keys s b)))
    rollup;
  (* Pull serves every advertised key; unknown keys surface as missing. *)
  let entries, missing = Service.pull s ("nope" :: keys) in
  Alcotest.(check (list string)) "missing reported" [ "nope" ] missing;
  Alcotest.(check (list string)) "entries in request order" keys
    (List.map (fun (e : Store.entry) -> e.Store.key) entries);
  (* The advertised check is the md5 of the canonical body — what a
     peer would verify after a pull. *)
  List.iter
    (fun (e : Store.entry) ->
      let b = Store.bucket_of_key e.Store.key in
      let check = List.assoc e.Store.key (Service.bucket_keys s b) in
      Alcotest.(check string) "check is md5 of body"
        (Store.check_of e.Store.body) check)
    entries;
  Service.close s

let test_service_digest_tracks_eviction () =
  let s = Service.create ~capacity:2 () in
  List.iteri
    (fun i k -> Service.insert s k (Service.Payload (Sink.Int i)))
    [ "a"; "b"; "c" ];
  (* "a" was evicted: the digest view must never advertise a key pull
     cannot serve, or anti-entropy would chase phantom divergence. *)
  let advertised =
    List.concat_map
      (fun (b, _) -> List.map fst (Service.bucket_keys s b))
      (Service.digest_rollup s)
  in
  Alcotest.(check bool) "evicted key dropped from digests" false
    (List.mem "a" advertised);
  Alcotest.(check (list string)) "resident keys advertised" [ "b"; "c" ]
    (List.sort compare advertised);
  let entries, missing = Service.pull s [ "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "evicted key missing" [ "a" ] missing;
  Alcotest.(check int) "resident keys pulled" 2 (List.length entries);
  Service.close s

let test_store_rej_sidecar_dedupe () =
  let path = Filename.temp_file "bi_rej" ".jsonl" in
  let append_lines lines =
    let oc = open_out_gen [ Open_append ] 0o644 path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let store = Store.open_append path in
  Store.append store (Store.entry ~key:"a" ~kind:"payload" (Sink.to_string (Sink.Int 1)));
  Store.close store;
  append_lines [ "garbage one"; "garbage two" ];
  ignore (Store.compact path);
  Alcotest.(check int) "sidecar holds both bad lines" 2 (Store.rej_lines path);
  (* The same damage again: a second compaction must not append lines
     the sidecar already quarantined. *)
  append_lines [ "garbage one"; "garbage two" ];
  ignore (Store.compact path);
  Alcotest.(check int) "sidecar deduplicated" 2 (Store.rej_lines path);
  append_lines [ "garbage three" ];
  ignore (Store.compact path);
  Alcotest.(check int) "fresh damage still appended" 3 (Store.rej_lines path);
  Sys.remove path;
  Sys.remove (Store.rej_path path)

let test_service_rejected_stat () =
  let path = Filename.temp_file "bi_rejstat" ".jsonl" in
  let oc = open_out path in
  output_string oc "garbage line\n";
  close_out oc;
  let s = Service.create ~store_path:path () in
  let st = Service.stats s in
  Alcotest.(check int) "quarantined at open" 1 st.Service.quarantined;
  Alcotest.(check int) "rejected surfaces sidecar size" 1 st.Service.rejected;
  Service.close s;
  (* A fresh service over the now-clean store: nothing new quarantined,
     but [rejected] still reports the sidecar's accumulated size. *)
  let s2 = Service.create ~store_path:path () in
  let st2 = Service.stats s2 in
  Alcotest.(check int) "no new quarantine" 0 st2.Service.quarantined;
  Alcotest.(check int) "rejected persists across restarts" 1
    st2.Service.rejected;
  Service.close s2;
  Sys.remove path;
  Sys.remove (Store.rej_path path)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_edge_order_irrelevant; prop_support_order_irrelevant;
      prop_unreduced_rationals_irrelevant; prop_weight_scaling_irrelevant;
      prop_undirected_endpoint_order_irrelevant; prop_rat_roundtrip;
      prop_game_roundtrip;
    ]

(* --- store golden fixture ------------------------------------------------

   fixtures/store_golden.jsonl was written by the cache as it stood
   before it held bytes: an exhaustive, a certified and a cce entry, then
   two payload puts under a key that needs JSON escaping (the first one
   superseded).  Replayed through [Service.create], each key's cached
   answer, the pull of every key, the digest rollup and the compacted
   file match the goldens written alongside it, byte for byte. *)

module Tier = Bi_serve.Tier
module Protocol = Bi_serve.Protocol

let golden_keys =
  [
    (Tier.Exhaustive, "bc50b2156f47a22522bf2bda2b36d25c");
    (Tier.Certified, "47feed0829f41cb14d9f5fb7087bba97+certified");
    (Tier.Correlated Bi_correlated.Concept.Cce, "d5bc03b8b12c553d0cbf89282e2f917c+cce");
    (Tier.Certified, "put \"quoted\"\\key\twith/tab+certified");
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fixture name =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "fixtures") name

let copy_fixture name =
  let path = Filename.temp_file "bi_golden" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> output_string oc (read_file (fixture name)));
  path

let test_store_golden () =
  let path = copy_fixture "store_golden.jsonl" in
  let svc = Service.create ~store_path:path ~auto_compact:false ~shard:"golden" () in
  Alcotest.(check int) "every line replays" 5 (Service.stats svc).Service.loaded;
  let answers =
    List.map
      (fun (tier, key) ->
        match Service.lookup svc key with
        | Some e -> Tier.response tier ~fingerprint:key ~cached:true e.Store.body
        | None -> Alcotest.failf "%S not replayed" key)
      golden_keys
  in
  let entries, missing = Service.pull svc (List.map snd golden_keys @ [ "absent" ]) in
  let pulled = Protocol.ok_pulled ~shard:"golden" ~entries ~missing in
  let digest =
    Sink.to_string (Protocol.ok_digest ~shard:"golden" ~rollup:(Service.digest_rollup svc))
  in
  Service.close svc;
  Alcotest.(check (list string)) "answers, pull and digest"
    (String.split_on_char '\n' (String.trim (read_file (fixture "store_golden.expected"))))
    (answers @ [ pulled; digest ]);
  Sys.remove path;
  let path = copy_fixture "store_golden.jsonl" in
  let c = Store.compact path in
  Alcotest.(check int) "one superseded" 1 c.Store.superseded;
  Alcotest.(check string) "compacted file"
    (read_file (fixture "store_golden.compacted")) (read_file path);
  Sys.remove path

let () =
  Alcotest.run "bi_cache"
    [
      ("fingerprint-canonicality", qtests);
      ( "fingerprint-corpus",
        [
          Alcotest.test_case "paper corpus never collides" `Quick
            test_corpus_no_collisions;
          Alcotest.test_case "semantic changes change the fingerprint" `Quick
            test_fingerprint_distinguishes;
          Alcotest.test_case "construction table = build + fingerprint" `Quick
            test_construction_table;
        ] );
      ( "codec",
        [
          Alcotest.test_case "extended values" `Quick test_ext_roundtrip;
          Alcotest.test_case "full analysis" `Quick test_analysis_roundtrip;
          Alcotest.test_case "invalid descriptions rejected" `Quick
            test_game_of_json_rejects;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "recency on hits" `Quick test_lru_recency_hits;
          Alcotest.test_case "fold order and capacity" `Quick
            test_lru_fold_mru_first;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip, tampering, torn tail" `Quick
            test_store_roundtrip_and_corruption;
          Alcotest.test_case "missing file is empty" `Quick
            test_store_missing_file;
          Alcotest.test_case "compact keeps last entry per key" `Quick
            test_store_compact;
          Alcotest.test_case "rej sidecar deduplicates" `Quick
            test_store_rej_sidecar_dedupe;
          Alcotest.test_case "golden fixture replays byte for byte" `Quick
            test_store_golden;
        ] );
      ( "digest",
        [
          Alcotest.test_case "bucket helpers" `Quick test_store_digest_helpers;
          Alcotest.test_case "rollup, bucket keys and pull agree" `Quick
            test_service_digest_view;
          Alcotest.test_case "eviction keeps digests honest" `Quick
            test_service_digest_tracks_eviction;
          Alcotest.test_case "rejected stat surfaces the sidecar" `Quick
            test_service_rejected_stat;
        ] );
      ( "service",
        [
          Alcotest.test_case "miss then hit" `Quick test_service_miss_then_hit;
          Alcotest.test_case "restart answers from store" `Quick
            test_service_restart_from_store;
          Alcotest.test_case "lru bounds memory" `Quick
            test_service_lru_bounds_memory;
          Alcotest.test_case "crash recovery compacts and preserves" `Quick
            test_service_crash_then_compact;
          Alcotest.test_case "auto compaction can be disabled" `Quick
            test_service_auto_compact_opt_out;
        ] );
    ]
