(* Tests for the extension modules: price of anarchy/stability, weighted
   NCS games, visibility interpolation, and the certified
   branch-and-bound optP solver. *)

open Bi_num
module Graph = Bi_graph.Graph
module Gen = Bi_graph.Gen
module Dist = Bi_prob.Dist
module Strategic = Bi_game.Strategic
module Anarchy = Bi_game.Anarchy
module Complete = Bi_ncs.Complete
module Weighted = Bi_ncs.Weighted
module Bncs = Bi_ncs.Bayesian_ncs
module Visibility = Bi_bayes.Visibility
module Bayesian = Bi_bayes.Bayesian
module Bnb = Bi_certify.Bnb

let rat = Alcotest.testable Rat.pp Rat.equal
let ext = Alcotest.testable Extended.pp Extended.equal

let r = Rat.of_int
let rr = Rat.of_ints

(* --- Price of anarchy / stability --- *)

let parallel_strategic () =
  Complete.to_strategic
    (Complete.make
       (Graph.make Undirected ~n:2 [ (0, 1, r 1); (0, 1, r 2) ])
       [| (0, 1); (0, 1) |])

let test_poa_pos_parallel () =
  let g = parallel_strategic () in
  (* best eq 1, worst eq 2, opt 1. *)
  Alcotest.(check (option rat)) "PoA = 2" (Some (r 2)) (Anarchy.price_of_anarchy g);
  Alcotest.(check (option rat)) "PoS = 1" (Some Rat.one) (Anarchy.price_of_stability g)

let test_poa_none_without_equilibria () =
  let pennies =
    Strategic.make ~players:2 ~actions:[| 2; 2 |] ~cost:(fun a i ->
        Extended.of_int (if (i = 0) = (a.(0) = a.(1)) then 0 else 1))
  in
  Alcotest.(check (option rat)) "no PoA" None (Anarchy.price_of_anarchy pennies);
  Alcotest.(check (option rat)) "no PoS" None (Anarchy.price_of_stability pennies)

let test_potential_minimizer_is_nash () =
  let ncs =
    Complete.make
      (Graph.make Undirected ~n:2 [ (0, 1, r 1); (0, 1, r 2) ])
      [| (0, 1); (0, 1) |]
  in
  let g = Complete.to_strategic ncs in
  let minimizer = Anarchy.potential_minimizer g ~potential:(Complete.potential ncs) in
  Alcotest.(check bool) "nash" true (Strategic.is_nash g minimizer);
  Alcotest.(check bool) "H(k) PoS bound" true
    (Anarchy.potential_method_pos_bound g ~potential:(Complete.potential ncs)
       ~bound:(Rat.harmonic 2))

let prop_pos_at_most_poa =
  QCheck2.Test.make ~name:"PoS <= PoA whenever both exist" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let graph = Gen.random_connected_graph rng ~n:(3 + Random.State.int rng 3) ~p:0.4 ~max_cost:5 in
      let n = Graph.n_vertices graph in
      let pairs = Array.init 2 (fun _ -> (Random.State.int rng n, Random.State.int rng n)) in
      let g = Complete.to_strategic (Complete.make graph pairs) in
      match Anarchy.price_of_anarchy g, Anarchy.price_of_stability g with
      | Some poa, Some pos -> Rat.( <= ) pos poa && Rat.( <= ) Rat.one pos
      | None, None -> true
      | _ -> false)

(* --- Weighted NCS --- *)

let weighted_parallel weights =
  Weighted.make
    (Graph.make Undirected ~n:2 [ (0, 1, r 1); (0, 1, r 2) ])
    ~pairs:[| (0, 1); (0, 1) |] ~weights

let test_weighted_degenerates_to_fair () =
  (* Equal weights = fair sharing: same costs as Complete. *)
  let w = weighted_parallel [| Rat.one; Rat.one |] in
  let c =
    Complete.make (Graph.make Undirected ~n:2 [ (0, 1, r 1); (0, 1, r 2) ])
      [| (0, 1); (0, 1) |]
  in
  Seq.iter
    (fun profile ->
      for i = 0 to 1 do
        Alcotest.check rat "same player cost"
          (Complete.player_cost c profile i)
          (Weighted.player_cost w profile i)
      done)
    (Bi_ds.Combinat.product_arrays [| [| 0; 1 |]; [| 0; 1 |] |]);
  Alcotest.(check (option rat)) "same PoA" (Some (r 2))
    (Anarchy.price_of_anarchy (Weighted.to_strategic w))

let test_weighted_shares_proportional () =
  let w = weighted_parallel [| r 3; Rat.one |] in
  (* Both on the cheap edge: player 0 pays 3/4, player 1 pays 1/4. *)
  Alcotest.check rat "heavy share" (rr 3 4) (Weighted.player_cost w [| 0; 0 |] 0);
  Alcotest.check rat "light share" (rr 1 4) (Weighted.player_cost w [| 0; 0 |] 1);
  Alcotest.check rat "social cost unchanged" (r 1) (Weighted.social_cost w [| 0; 0 |])

let test_weighted_validation () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Weighted.make: weights must be positive") (fun () ->
      ignore (weighted_parallel [| Rat.zero; Rat.one |]));
  Alcotest.check_raises "length"
    (Invalid_argument "Weighted.make: weights length mismatch") (fun () ->
      ignore
        (Weighted.make
           (Graph.make Undirected ~n:2 [ (0, 1, r 1) ])
           ~pairs:[| (0, 1) |] ~weights:[| Rat.one; Rat.one |]))

let prop_weighted_best_response_exact =
  QCheck2.Test.make ~name:"weighted best response = enumeration argmin" ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let graph = Gen.random_connected_graph rng ~n:(3 + Random.State.int rng 3) ~p:0.4 ~max_cost:5 in
      let n = Graph.n_vertices graph in
      let k = 2 in
      let pairs = Array.init k (fun _ -> (Random.State.int rng n, Random.State.int rng n)) in
      let weights = Array.init k (fun _ -> Rat.of_int (1 + Random.State.int rng 4)) in
      let g = Weighted.make graph ~pairs ~weights in
      let profile = Array.init k (fun i -> Random.State.int rng (List.length (Weighted.paths g i))) in
      let ok = ref true in
      for i = 0 to k - 1 do
        let br = Weighted.best_response g profile i in
        let cost_with j =
          let p = Array.copy profile in
          p.(i) <- j;
          Weighted.player_cost g p i
        in
        let br_cost = cost_with br in
        List.iteri
          (fun j _ -> if Rat.( < ) (cost_with j) br_cost then ok := false)
          (Weighted.paths g i)
      done;
      !ok)

let prop_weighted_equilibria_sound =
  QCheck2.Test.make ~name:"weighted equilibria pass the deviation check" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let graph = Gen.random_connected_graph rng ~n:4 ~p:0.5 ~max_cost:4 in
      let pairs = [| (0, 3 mod Graph.n_vertices graph); (0, 2) |] in
      let weights = [| Rat.of_int (1 + Random.State.int rng 3); Rat.one |] in
      let g = Weighted.make graph ~pairs ~weights in
      Seq.fold_left
        (fun acc profile ->
          acc
          &&
          let i = Random.State.int rng 2 in
          let br = Weighted.best_response g profile i in
          let deviated = Array.copy profile in
          deviated.(i) <- br;
          Rat.( <= ) (Weighted.player_cost g profile i) (Weighted.player_cost g deviated i))
        true
        (Strategic.nash_equilibria (Weighted.to_strategic g)))

(* --- Visibility interpolation --- *)

let guess_game () =
  Bayesian.make ~players:2 ~n_types:[| 1; 2 |] ~n_actions:[| 2; 1 |]
    ~prior:(Dist.uniform [ [| 0; 0 |]; [| 0; 1 |] ])
    ~cost:(fun t a i ->
      if i = 1 then Extended.zero
      else if a.(0) = t.(1) then Extended.zero
      else Extended.one)

let test_visibility_endpoints () =
  let g = guess_game () in
  let report_opt_p, _ = Bi_bayes.Measures.opt_p_exhaustive g in
  Alcotest.check ext "0 informed = optP" report_opt_p
    (Visibility.optimum g ~informed:[| false; false |]);
  Alcotest.check ext "all informed = optC" (Bi_bayes.Measures.opt_c g)
    (Visibility.optimum g ~informed:[| true; true |]);
  (* Informing the guessing agent closes the whole gap. *)
  Alcotest.check ext "informing the gap-bearer" Extended.zero
    (Visibility.optimum g ~informed:[| true; false |])

let test_visibility_monotone () =
  let g = guess_game () in
  let series = Visibility.gap_closure g in
  Alcotest.(check int) "k+1 points" 3 (List.length series);
  let values = List.map snd series in
  let rec monotone = function
    | a :: (b :: _ as rest) -> Extended.( <= ) b a && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing" true (monotone values)

let prop_visibility_sandwich =
  QCheck2.Test.make ~name:"optC <= opt(informed) <= optP" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let graph = Gen.random_connected_graph rng ~n:3 ~p:0.6 ~max_cost:4 in
      let n = Graph.n_vertices graph in
      let profile () = Array.init 2 (fun _ -> (0, Random.State.int rng n)) in
      let support = List.init 2 (fun _ -> profile ()) in
      let bg = Bncs.make graph ~prior:(Dist.uniform support) in
      let g = Bncs.game bg in
      let opt_p, _ = Bi_bayes.Measures.opt_p_exhaustive g in
      let opt_c = Bi_bayes.Measures.opt_c g in
      let mid = Visibility.optimum g ~informed:[| true; false |] in
      Extended.( <= ) opt_c mid && Extended.( <= ) mid opt_p)

(* --- Branch and bound --- *)

(* The certified optimum of [g], once [Bnb.check] has replayed its
   certificate; [None] when the search left none. *)
let certified_optimum g =
  let o = Bnb.optimum g in
  match o.Bnb.certificate with
  | Some c -> if Bnb.check g c = Ok () then Some o.Bnb.value else None
  | None -> None

let prop_bnb_matches_exhaustive =
  QCheck2.Test.make ~name:"branch-and-bound optP = exhaustive optP" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let graph = Gen.random_connected_graph rng ~n:(3 + Random.State.int rng 2) ~p:0.5 ~max_cost:5 in
      let n = Graph.n_vertices graph in
      let profile () = Array.init 2 (fun _ -> (0, Random.State.int rng n)) in
      let support = List.init (1 + Random.State.int rng 2) (fun _ -> profile ()) in
      let g = Bncs.make graph ~prior:(Dist.uniform support) in
      let exhaustive, _ = Bncs.opt_p_exhaustive g in
      match certified_optimum g with
      | Some v -> Extended.equal v exhaustive
      | None -> false)

let test_bnb_on_constructions () =
  List.iter
    (fun (name, game, expected) ->
      Alcotest.(check (option ext)) (name ^ " certified value") (Some expected)
        (certified_optimum game))
    [
      ( "anshelevich k=5",
        Bi_constructions.Anshelevich_game.game 5,
        Extended.of_rat (Bi_constructions.Anshelevich_game.predicted_worst_eq_p 5) );
      ( "affine m=2",
        Bi_constructions.Affine_game.game 2,
        Extended.of_rat (Bi_constructions.Affine_game.predicted_social_cost 2) );
    ]

let test_bnb_budget_gives_upper_bound () =
  (* The root relaxation closes most paper games at once; the affine
     game's search needs thousands of nodes.  With a tiny budget it
     cannot finish, so no certificate; the incumbent from benevolent
     descent is still a sound upper bound and the root relaxation a
     sound lower bound. *)
  let game = Bi_constructions.Affine_game.game 2 in
  let o = Bnb.optimum ~node_budget:3 game in
  Alcotest.(check bool) "not certified" true (o.Bnb.certificate = None);
  let exhaustive, _ = Bncs.opt_p_exhaustive game in
  Alcotest.(check bool) "upper bound" true (Extended.( <= ) exhaustive o.Bnb.value);
  Alcotest.(check bool) "lower bound" true (Extended.( <= ) o.Bnb.lower exhaustive)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pos_at_most_poa;
      prop_weighted_best_response_exact;
      prop_weighted_equilibria_sound;
      prop_visibility_sandwich;
      prop_bnb_matches_exhaustive;
    ]

let () =
  Alcotest.run "extensions"
    [
      ( "anarchy",
        [
          Alcotest.test_case "PoA/PoS on parallel edges" `Quick test_poa_pos_parallel;
          Alcotest.test_case "no pure equilibria" `Quick test_poa_none_without_equilibria;
          Alcotest.test_case "potential minimizer" `Quick test_potential_minimizer_is_nash;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "equal weights = fair sharing" `Quick
            test_weighted_degenerates_to_fair;
          Alcotest.test_case "proportional shares" `Quick test_weighted_shares_proportional;
          Alcotest.test_case "validation" `Quick test_weighted_validation;
        ] );
      ( "visibility",
        [
          Alcotest.test_case "endpoints = optP/optC" `Quick test_visibility_endpoints;
          Alcotest.test_case "monotone closure" `Quick test_visibility_monotone;
        ] );
      ( "branch_and_bound",
        [
          Alcotest.test_case "paper constructions" `Quick test_bnb_on_constructions;
          Alcotest.test_case "budget exhaustion" `Quick test_bnb_budget_gives_upper_bound;
        ] );
      ("properties", qtests);
    ]
