(* Reproduction of Table 1: the twelve asymptotic bounds on Bayesian
   ignorance in NCS games.  Universal rows are validated over random
   corpora; existential rows over the paper's constructions, exact where
   exhaustion is feasible and closed-form beyond.

   Every exact result is content-addressed: with a cache service
   attached, analyses are keyed by the canonical game fingerprint (and
   auxiliary payloads by fingerprint + solver parameters), so a warm
   rerun replays the stored values — byte-identical output — instead of
   re-running the exhaustive solvers or even rebuilding the games. *)

open Bayesian_ignorance
open Num
module Bncs = Ncs.Bayesian_ncs
module Measures = Bayes.Measures
module Ag = Constructions.Affine_game
module An = Constructions.Anshelevich_game
module Gw = Constructions.Gworst_game
module Diamond = Steiner.Diamond
module Online = Steiner.Online
module Service = Cache.Service
module Sink = Engine.Sink

let header = [ "cell"; "paper bound"; "measured"; "verdict" ]

let ratio_opt num den =
  match num, den with
  | Some n, Some d -> Measures.ratio n d
  | _ -> None

let fl r = Rat.to_float r

(* --- cached exact analyses --- *)

let analysis ~pool ~cache game =
  match cache with
  | None -> Bncs.analyze ~pool game
  | Some c ->
    fst
      (Service.analysis c (Cache.Fingerprint.of_game game) (fun () ->
           Bncs.analyze ~pool game))

let report ~pool ~cache game = (analysis ~pool ~cache game).Bncs.report

(* From a description (graph + prior): the fingerprint needs only the
   description, so a warm run skips [Bncs.make] entirely — for the big
   instances the game build costs as much as the solve. *)
let report_of_description ~pool ~cache (graph, prior) =
  match cache with
  | None -> (Bncs.analyze ~pool (Bncs.make graph ~prior)).Bncs.report
  | Some c ->
    (fst
       (Service.analysis c
          (Cache.Fingerprint.game graph ~prior)
          (fun () -> Bncs.analyze ~pool (Bncs.make graph ~prior))))
      .Bncs.report

(* An auxiliary solver result cached as an opaque JSON payload under
   fingerprint/query.  [decode] failure (impossible for entries we wrote
   ourselves, since the store verifies checksums) falls back to
   recomputing. *)
let cached_payload ~cache ~key ~encode ~decode compute =
  match cache with
  | None -> compute ()
  | Some c -> (
    let payload, _hit = Service.payload c key (fun () -> encode (compute ())) in
    match decode payload with Some v -> v | None -> compute ())

(* --- Universal rows over a corpus --- *)

type corpus_stats = {
  games : int;
  max_opt_ratio : float;
  max_best_ratio : float;
  max_worst_ratio : float;
  min_best_ratio : float;
  min_worst_ratio : float;
  max_k : int;
  all_within_k : bool; (* worst-eqP <= k optC everywhere (Lemma 3.1) *)
}

let corpus_stats ~pool ~cache descriptions =
  let stats =
    List.filter_map
      (fun (graph, prior) ->
        match report_of_description ~pool ~cache (graph, prior) with
        | exception Invalid_argument _ -> None
        | m ->
          let k =
            match Prob.Dist.support prior with
            | t :: _ -> Array.length t
            | [] -> 0
          in
          let r = Measures.ratios_of_report m in
          let within =
            match m.Measures.worst_eq_p with
            | None -> true
            | Some w ->
              Extended.( <= ) w (Extended.mul (Extended.of_int k) m.Measures.opt_c)
          in
          Some (k, r, within))
      descriptions
  in
  let fold get init better =
    List.fold_left
      (fun acc (_, r, _) -> match get r with Some v -> better acc (fl v) | None -> acc)
      init stats
  in
  {
    games = List.length stats;
    max_opt_ratio = fold (fun r -> r.Measures.r_opt) 1.0 Float.max;
    max_best_ratio = fold (fun r -> r.Measures.r_best_eq) 1.0 Float.max;
    max_worst_ratio = fold (fun r -> r.Measures.r_worst_eq) 1.0 Float.max;
    min_best_ratio = fold (fun r -> r.Measures.r_best_eq) Float.infinity Float.min;
    min_worst_ratio = fold (fun r -> r.Measures.r_worst_eq) Float.infinity Float.min;
    max_k = List.fold_left (fun acc (k, _, _) -> Stdlib.max acc k) 0 stats;
    all_within_k = List.for_all (fun (_, _, w) -> w) stats;
  }

let universal_rows ~label stats =
  let k = float_of_int stats.max_k in
  [
    [
      Printf.sprintf "%s optP/optC universal" label;
      "1 <= ratio <= O(k)";
      Printf.sprintf "max %.3f over %d games (k <= %d)" stats.max_opt_ratio
        stats.games stats.max_k;
      Verdict.cell (stats.max_opt_ratio >= 1.0 && stats.max_opt_ratio <= k);
    ];
    [
      Printf.sprintf "%s best-eq universal" label;
      "Omega(1/log k) <= ratio <= O(k)";
      Printf.sprintf "range [%.3f, %.3f]" stats.min_best_ratio stats.max_best_ratio;
      Verdict.cell
        (stats.max_best_ratio <= k
         && stats.min_best_ratio >= 1.0 /. (1.0 +. (2.0 *. log k)));
    ];
    [
      Printf.sprintf "%s worst-eq universal" label;
      "Omega(1/k) <= ratio <= O(k), worst-eqP <= k optC";
      Printf.sprintf "range [%.3f, %.3f], Lemma 3.1 %s" stats.min_worst_ratio
        stats.max_worst_ratio
        (if stats.all_within_k then "holds" else "VIOLATED");
      Verdict.cell
        (stats.all_within_k
         && stats.max_worst_ratio <= k
         && stats.min_worst_ratio >= 1.0 /. k);
    ];
  ]

(* --- Existential rows --- *)

(* Directed optP/optC = Omega(k): the affine-plane game (Lemma 3.2). *)
let affine_row ~pool ~cache () =
  let exact =
    let m = report ~pool ~cache (Ag.game 2) in
    (m.Measures.opt_p, m.Measures.worst_eq_c)
  in
  let measured_ratio =
    match exact with
    | Extended.Fin p, Some (Extended.Fin c) -> Rat.to_float (Rat.div p c)
    | _ -> nan
  in
  let predicted_2 = fl (Ag.predicted_ratio 2) in
  let series =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "m=%d: %.3f" m (fl (Ag.predicted_ratio m)))
         [ 2; 3; 5; 7; 11 ])
  in
  [
    "directed optP/optC existential (L3.2)";
    "Omega(k) at n = Theta(k^2)";
    Printf.sprintf "m=2 exhaustive: %.3f (closed form %.3f); growth: %s"
      measured_ratio predicted_2 series;
    Verdict.cell (Float.abs (measured_ratio -. predicted_2) < 1e-9);
  ]

(* Directed best-eq existential O(1/log k): Anshelevich game (Lemma 3.3). *)
let anshelevich_row ~pool ~cache () =
  let exact k =
    let m = report ~pool ~cache (An.game k) in
    match ratio_opt m.Measures.worst_eq_p m.Measures.best_eq_c with
    | Some r -> fl r
    | None -> nan
  in
  let e5 = exact 5 and e7 = exact 7 in
  let p5 = fl (An.predicted_ratio 5) and p7 = fl (An.predicted_ratio 7) in
  let closed =
    String.concat ", "
      (List.map
         (fun k -> Printf.sprintf "k=%d: %.3f" k (An.predicted_ratio_float k))
         [ 16; 64; 256; 1024 ])
  in
  [
    "directed best-eq existential (L3.3)";
    "worst-eqP/best-eqC = O(1/log k), n = Theta(k)";
    Printf.sprintf "exhaustive k=5: %.3f, k=7: %.3f; decay: %s" e5 e7 closed;
    Verdict.cell
      (Float.abs (e5 -. p5) < 1e-9 && Float.abs (e7 -. p7) < 1e-9 && e7 < e5);
  ]

(* Worst-eq existential rows, on G_worst (Lemmas 3.6/3.7). *)
let gworst_rows ~pool ~cache ~directed label =
  let measure game =
    let m = report ~pool ~cache game in
    match ratio_opt m.Measures.worst_eq_p m.Measures.worst_eq_c with
    | Some r -> fl r
    | None -> nan
  in
  let curse k = measure (Gw.curse_game ?directed:(Some directed) k) in
  let bliss k = measure (Gw.bliss_game ?directed:(Some directed) k) in
  let c3 = curse 3 and c5 = curse 5 and c7 = curse 7 in
  let b3 = bliss 3 and b5 = bliss 5 and b7 = bliss 7 in
  [
    [
      Printf.sprintf "%s worst-eq existential Omega(k)" label;
      "ratio = Omega(k) at n = O(1)";
      Printf.sprintf "k=3: %.3f, k=5: %.3f, k=7: %.3f" c3 c5 c7;
      Verdict.cell (c3 < c5 && c5 < c7 && c7 > 3.0);
    ];
    [
      Printf.sprintf "%s worst-eq existential O(1/k)" label;
      "ratio = O(1/k) at n = O(1)";
      Printf.sprintf "k=3: %.3f, k=5: %.3f, k=7: %.3f" b3 b5 b7;
      Verdict.cell (b3 > b5 && b5 > b7 && b7 < 0.5);
    ];
  ]

(* Undirected optP/optC <= O(log n): Lemma 3.4 via FRT trees.

   The whole row is one cached payload keyed by the digest of all trial
   fingerprints plus the sampling parameters: the trials share one
   outer RNG stream, so caching them individually could desynchronize
   it on a partial hit.  Ratios are Monte-Carlo floats; they are stored
   as IEEE-754 bit patterns so the warm rerun is bit-identical. *)
let frt_row ~pool ~cache () =
  let trials = [ (6, 1); (6, 2); (8, 3); (8, 4); (10, 5); (10, 6); (12, 7); (12, 8) ] in
  let trees = 8 in
  let outer_seed = 424242 in
  (* Instance descriptions depend only on the per-trial seed and are
     cheap to build; games are built lazily, only on a cache miss. *)
  let describe (n, seed) =
    let rng' = Random.State.make [| seed |] in
    let g = Graphs.Gen.random_connected_graph rng' ~n ~p:0.35 ~max_cost:7 in
    (* Agents: shared source 0, random destinations; a uniform prior
       over a few such type profiles. *)
    let k = 3 in
    let profile () = Array.init k (fun _ -> (0, Random.State.int rng' n)) in
    let support = List.init 3 (fun _ -> profile ()) in
    (n, g, support)
  in
  let described = List.map describe trials in
  let compute () =
    let rng = Random.State.make [| outer_seed |] in
    List.filter_map
      (fun (n, g, support) ->
        let game = Bncs.make g ~prior:(Prob.Dist.uniform support) in
        match Bncs.opt_c ~pool game with
        | Extended.Fin opt_c when not (Rat.is_zero opt_c) ->
          (* The Lemma 3.4 strategy: expected cost over sampled trees. *)
          let total = ref 0.0 in
          for _ = 1 to trees do
            let tree = Embed.Frt.sample rng g in
            let cost =
              Prob.Dist.expectation
                (fun tp ->
                  let edges =
                    List.concat_map
                      (fun (x, y) -> Embed.Frt.expand_pair tree g x y)
                      (Array.to_list tp)
                  in
                  Graphs.Graph.total_cost g edges)
                (Prob.Dist.uniform support)
            in
            total := !total +. Rat.to_float cost
          done;
          let tree_strategy_cost = !total /. float_of_int trees in
          Some (tree_strategy_cost /. Rat.to_float opt_c, n)
        | _ -> None)
      described
  in
  let key =
    lazy
      (let fps =
         List.map
           (fun (_, g, support) ->
             Cache.Fingerprint.game g ~prior:(Prob.Dist.uniform support))
           described
       in
       Service.key
         ~fingerprint:(Cache.Fingerprint.digest_hex (String.concat "," fps))
         ~query:(Printf.sprintf "frt:trees=%d;rng=%d" trees outer_seed))
  in
  let encode results =
    Sink.List
      (List.map
         (fun (r, n) ->
           Sink.List [ Sink.Str (Int64.to_string (Int64.bits_of_float r)); Sink.Int n ])
         results)
  in
  let decode = function
    | Sink.List items ->
      let item = function
        | Sink.List [ Sink.Str bits; Sink.Int n ] ->
          Option.map (fun b -> (Int64.float_of_bits b, n)) (Int64.of_string_opt bits)
        | _ -> None
      in
      let decoded = List.filter_map item items in
      if List.length decoded = List.length items then Some decoded else None
    | _ -> None
  in
  let results =
    match cache with
    | None -> compute ()
    | Some _ ->
      cached_payload ~cache ~key:(Lazy.force key) ~encode ~decode compute
  in
  let worst =
    List.fold_left (fun acc (r, _) -> Float.max acc r) 1.0 results
  in
  let bound =
    List.fold_left
      (fun acc (r, n) ->
        acc && r <= 4.0 *. (log (float_of_int n) /. log 2.0) +. 4.0)
      true results
  in
  [
    "undirected optP/optC universal (L3.4)";
    "optP <= O(log n) optC via random tree strategies";
    Printf.sprintf "max E_tree[K]/optC = %.3f over %d instances (n <= 12)" worst
      (List.length results);
    Verdict.cell (bound && results <> []);
  ]

(* Undirected optP/optC = Omega(log n): the diamond game (Lemma 3.5). *)
let diamond_row ~pool ~cache () =
  let exact1 =
    let _, game = Constructions.Diamond_game.game 1 in
    let m = report ~pool ~cache game in
    match m.Measures.opt_p with Extended.Fin r -> fl r | Extended.Inf -> nan
  in
  (* Level 2 is beyond exhaustion but within branch-and-bound reach; the
     bounded search result is cached under fingerprint/bnb:budget, and
     counts as certified only once Bnb.check has replayed its tree. *)
  let exact2, certified2 =
    let _, game = Constructions.Diamond_game.game 2 in
    let budget = 3_000_000 in
    let compute () =
      let o = Certify.Bnb.optimum ~node_budget:budget game in
      ( o.Certify.Bnb.value,
        match o.Certify.Bnb.certificate with
        | Some c -> Certify.Bnb.check game c = Ok ()
        | None -> false )
    in
    let encode (v, certified) =
      Sink.Obj [ ("value", Cache.Codec.ext_to_json v); ("certified", Bool certified) ]
    in
    let decode j =
      match (Sink.member "value" j, Sink.member "certified" j) with
      | Some vj, Some (Sink.Bool c) -> (
        match Cache.Codec.ext_of_json vj with
        | Ok v -> Some (v, c)
        | Error _ -> None)
      | _ -> None
    in
    let key =
      match cache with
      | None -> ""
      | Some _ ->
        Service.key
          ~fingerprint:(Cache.Fingerprint.of_game game)
          ~query:(Printf.sprintf "bnb:%d" budget)
    in
    let v, certified = cached_payload ~cache ~key ~encode ~decode compute in
    ((match v with Extended.Fin r -> fl r | Extended.Inf -> nan), certified)
  in
  let oblivious j =
    fl (Constructions.Diamond_game.oblivious_profile_cost (Diamond.build j))
  in
  let o0 = oblivious 0 and o1 = oblivious 1 and o2 = oblivious 2 and o3 = oblivious 3 in
  [
    "undirected optP/optC existential (L3.5)";
    "Omega(log n) at k = Theta(n), via online Steiner adversary";
    Printf.sprintf
      "exact optP/optC: level 1 = %.3f, level 2 = %.4f (B&B%s); profile cost by level: %.2f %.2f %.2f %.2f (optC = 1)"
      exact1 exact2
      (if certified2 then ", certified" else ", budget hit")
      o0 o1 o2 o3;
    Verdict.cell
      (Float.abs (exact1 -. 1.25) < 1e-9
       && exact2 > exact1 +. 0.2
       && o1 > o0 +. 0.2 && o2 > o1 +. 0.2 && o3 > o2 +. 0.2);
  ]

(* Undirected best-eq existential: Omega(log n) via the diamond (its
   optimal profiles are equilibria), and < 1 via the Anshelevich
   phenomenon surviving on a small graph.  Both games already have
   cached analyses by this point in the run. *)
let undirected_best_eq_row ~pool ~cache () =
  let bliss =
    (* worst-eqP < best-eqC already exhibits best-eqP/best-eqC < 1. *)
    let m = report ~pool ~cache (An.game 5) in
    match ratio_opt m.Measures.best_eq_p m.Measures.best_eq_c with
    | Some r -> fl r
    | None -> nan
  in
  let diamond =
    let _, game = Constructions.Diamond_game.game 1 in
    let m = report ~pool ~cache game in
    match ratio_opt m.Measures.best_eq_p m.Measures.best_eq_c with
    | Some r -> fl r
    | None -> nan
  in
  [
    "undirected best-eq existential";
    "Omega(log n) and, separately, < 1 at n = O(1)";
    Printf.sprintf "diamond level 1: %.3f; bliss game k=5: %.3f" diamond bliss;
    Verdict.cell (diamond > 1.0 && bliss < 1.0);
  ]

let run ~pool ~sink ~cache =
  print_endline "=== Table 1: Bayesian ignorance bounds in NCS games ===";
  print_endline "";
  let directed_stats =
    corpus_stats ~pool ~cache (Corpus.descriptions ~directed:true ~count:30 ())
  in
  let undirected_stats =
    corpus_stats ~pool ~cache (Corpus.descriptions ~directed:false ~count:30 ())
  in
  let rows =
    universal_rows ~label:"directed" directed_stats
    @ [ affine_row ~pool ~cache (); anshelevich_row ~pool ~cache () ]
    @ gworst_rows ~pool ~cache ~directed:true "directed"
    @ universal_rows ~label:"undirected" undirected_stats
    @ [
        frt_row ~pool ~cache (); diamond_row ~pool ~cache ();
        undirected_best_eq_row ~pool ~cache ();
      ]
    @ gworst_rows ~pool ~cache ~directed:false "undirected"
  in
  print_endline (Report.table ~header rows);
  Engine.Sink.table sink ~section:"table1" ~header rows;
  print_endline ""
