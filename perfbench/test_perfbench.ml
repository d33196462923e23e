(* Tests of the benchmark's own code: order statistics, request-list
   determinism and freshness, and the answer checks.  Exits non-zero on
   the first failure.  The smoke runs of every workload are driven by
   [python3 perfbench/run.py --self-test]. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let close a b = Float.abs (a -. b) < 1e-9

let stats () =
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check "median of 1..10" (close (Stats.median ten) 5.5);
  check "p50 of 1..10 is nearest-rank 5" (close (Stats.percentile ten 50.) 5.);
  check "p90 of 1..10" (close (Stats.percentile ten 90.) 9.);
  check "p99 of 1..10 is the maximum" (close (Stats.percentile ten 99.) 10.);
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p99 of 1..100 (unsorted)" (close (Stats.percentile hundred 99.) 99.);
  (* Reference values from Python's statistics.quantiles(data, n=4). *)
  let q a = Stats.quartiles (Array.of_list a) in
  check "quartiles of 1..10" (List.for_all2 close (q [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]) [ 2.75; 5.5; 8.25 ]);
  check "quartiles of five values" (List.for_all2 close (q [ 3.5; 1.25; 9.0; 4.0; 7.75 ]) [ 2.375; 4.0; 8.375 ]);
  check "quartiles of two values (clamped)" (List.for_all2 close (q [ 2.0; 1.0 ]) [ 0.75; 1.5; 2.25 ]);
  check "quartiles of eleven values"
    (List.for_all2 close (q [ 5.; 1.; 4.; 2.; 3.; 9.; 8.; 7.; 6.; 10.; 11. ]) [ 3.; 6.; 9. ]);
  check "spread of 1..10" (close (Stats.spread ten) ((8.25 -. 2.75) /. 5.5))

(* Every measured request falls in the block whose bounds hold it, also
   when the block count does not divide the request count. *)
let blocks () =
  List.iter
    (fun n ->
      let inside i =
        let lo, hi = Session.block_bounds n (Session.block_of n i) in
        lo <= i && i < hi
      in
      check (Printf.sprintf "block_of places all %d requests" n)
        (List.for_all inside (List.init n Fun.id)))
    [ 40; 1000; 5700; 36000 ];
  let host = { Calib.reference with wall_ms = 2. *. Calib.reference.wall_ms } in
  check "a trial twice as long is a wall factor of 2" (close (Calib.wall_factor host host) 2.);
  check "and leaves the round-trip and CPU factors at 1"
    (close (Calib.rtt_factor host host) 1. && close (Calib.cpu_factor host host) 1.)

let lines (w : Workload.t) =
  Array.to_list (Array.map (fun (r : Workload.req) -> r.line) (Array.append w.setup w.measured))

let determinism () =
  List.iter
    (fun kind ->
      let a = Workload.make kind ~seed:7 ~measured:300 in
      let b = Workload.make kind ~seed:7 ~measured:300 in
      let c = Workload.make kind ~seed:8 ~measured:300 in
      check (Workload.name kind ^ ": same seed, byte-identical lines") (lines a = lines b);
      check (Workload.name kind ^ ": another seed, other lines") (lines a <> lines c);
      let tiers = List.map (fun (r : Workload.req) -> Games.tier r.spec) (Array.to_list a.measured) in
      List.iter
        (fun t ->
          let share =
            float_of_int (List.length (List.filter (( = ) t) tiers)) /. 300.
          in
          check
            (Printf.sprintf "%s: %s is at least 10 %% of requests" (Workload.name kind)
               (Games.tier_name t))
            (share >= 0.10))
        Games.tiers)
    Workload.kinds

let keys reqs = List.map (fun (r : Workload.req) -> Games.cache_key r.spec) (Array.to_list reqs)

let freshness () =
  let cold = Workload.make Workload.Shard_cold ~seed:3 ~measured:1500 in
  let measured = keys cold.measured and warmup = keys cold.setup in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  check "shard-cold: measured keys pairwise distinct" (distinct measured);
  let set l = List.fold_left (fun s k -> Hashtbl.replace s k (); s) (Hashtbl.create 4096) l in
  let disjoint a b = let sb = set b in not (List.exists (Hashtbl.mem sb) a) in
  check "shard-cold: measured keys disjoint from its warm-up" (disjoint measured warmup);
  let hot = Workload.make Workload.Shard_hot ~seed:3 ~measured:10 in
  check "shard-cold: measured keys disjoint from the hot set" (disjoint measured (keys hot.setup));
  check "shard-cold: every measured request is never-seen"
    (Array.for_all Workload.never_seen cold.measured);
  let cluster = Workload.make Workload.Cluster_mixed ~seed:3 ~measured:2000 in
  let fresh = List.filter Workload.never_seen (Array.to_list cluster.measured) in
  check "cluster-mixed: at least 3 % never-seen games" (List.length fresh >= 60);
  check "cluster-mixed: never-seen games distinct and not in the fill"
    (let f = List.map (fun (r : Workload.req) -> Games.cache_key r.spec) fresh in
     distinct f && disjoint f (keys cluster.setup))

let answers () =
  let base_of s = Games.expected_response s in
  List.iter
    (fun mk ->
      let base = mk (Games.Scaled ("anshelevich", 3, 1)) in
      let scaled m = mk (Games.Scaled ("anshelevich", 3, m)) in
      let tier = Games.tier base in
      let name = Games.tier_name tier ^ " " ^ Bi_correlated.Concept.to_string base.Games.concept in
      let base_payload =
        match Check.payload tier (base_of base) with Ok (_, p) -> p | Error e -> failwith e
      in
      let three = base_of (scaled 3) in
      check (name ^ ": a cost-scaled answer passes") (Check.scaled tier ~base:base_payload ~m:3 three = Ok ());
      check (name ^ ": a mis-scaled answer is rejected")
        (Check.scaled tier ~base:base_payload ~m:4 three <> Ok ());
      let field = match tier with Games.Exhaustive -> {|"opt_p":"|} | Games.Certified -> {|"lo":"|} | Games.Correlated -> {|"best":"|} in
      let tampered =
        match Check.find_sub three field with
        | Some i ->
          let j = i + String.length field in
          String.sub three 0 j ^ "1" ^ String.sub three j (String.length three - j)
        | None -> three
      in
      check (name ^ ": a tampered answer is rejected")
        (tampered <> three && Check.scaled tier ~base:base_payload ~m:3 tampered <> Ok ());
      check (name ^ ": a cached answer to a never-seen game is rejected")
        (match Check.expected_hit three with
        | Some hit -> Check.scaled tier ~base:base_payload ~m:3 hit <> Ok ()
        | None -> false))
    [
      Games.nash;
      Games.certified;
      Games.correlated Bi_correlated.Concept.Cce;
      Games.correlated Bi_correlated.Concept.Comm;
    ];
  let fill = {|{"ok":true,"fingerprint":"ab","cached":false,"analysis":{}}|} in
  check "a hit is the fill answer with cached:true"
    (Check.expected_hit fill = Some {|{"ok":true,"fingerprint":"ab","cached":true,"analysis":{}}|});
  check "a fill answer without cached:false has no expected hit"
    (Check.expected_hit {|{"ok":false,"code":"error"}|} = None)

let () =
  stats ();
  blocks ();
  determinism ();
  freshness ();
  answers ();
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
