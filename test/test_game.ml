(* Tests for strategic-form cost games, and for the congestion-game
   laws (Rosenthal) on network cost-sharing games — congestion games
   whose resources are edges, each shared fairly among its buyers. *)

open Bi_num
module Strategic = Bi_game.Strategic
module Complete = Bi_ncs.Complete
module Graph = Bi_graph.Graph

let ext = Alcotest.testable Extended.pp Extended.equal
let rat = Alcotest.testable Rat.pp Rat.equal

(* Cost-minimization prisoner's dilemma: action 0 = cooperate, 1 = defect.
   Unique NE (1,1) with social cost 4; optimum (0,0) with social cost 2. *)
let prisoners_dilemma () =
  let table = [| [| (1, 1); (3, 0) |]; [| (0, 3); (2, 2) |] |] in
  Strategic.make ~players:2 ~actions:[| 2; 2 |] ~cost:(fun a i ->
      let c1, c2 = table.(a.(0)).(a.(1)) in
      Extended.of_int (if i = 0 then c1 else c2))

(* Cost matching pennies: no pure Nash equilibrium. *)
let matching_pennies () =
  Strategic.make ~players:2 ~actions:[| 2; 2 |] ~cost:(fun a i ->
      let matched = a.(0) = a.(1) in
      Extended.of_int (if (i = 0) = matched then 0 else 1))

(* Coordination game with a good and a bad equilibrium. *)
let coordination () =
  Strategic.make ~players:2 ~actions:[| 2; 2 |] ~cost:(fun a i ->
      ignore i;
      if a.(0) <> a.(1) then Extended.of_int 5
      else if a.(0) = 0 then Extended.of_int 1
      else Extended.of_int 2)

let test_pd_equilibrium () =
  let g = prisoners_dilemma () in
  Alcotest.(check bool) "DD is nash" true (Strategic.is_nash g [| 1; 1 |]);
  Alcotest.(check bool) "CC is not nash" false (Strategic.is_nash g [| 0; 0 |]);
  Alcotest.(check int) "unique equilibrium" 1
    (Seq.length (Strategic.nash_equilibria g));
  (match Strategic.best_equilibrium g with
   | Some (c, a) ->
     Alcotest.check ext "eq cost" (Extended.of_int 4) c;
     Alcotest.(check (array int)) "eq profile" [| 1; 1 |] a
   | None -> Alcotest.fail "PD has an equilibrium");
  let opt, profile = Strategic.optimum g in
  Alcotest.check ext "optimum" (Extended.of_int 2) opt;
  Alcotest.(check (array int)) "optimal profile" [| 0; 0 |] profile

let test_pd_dynamics () =
  let g = prisoners_dilemma () in
  match Strategic.best_response_dynamics g [| 0; 0 |] with
  | Some a -> Alcotest.(check (array int)) "converges to DD" [| 1; 1 |] a
  | None -> Alcotest.fail "dynamics diverged"

let test_matching_pennies () =
  let g = matching_pennies () in
  Alcotest.(check int) "no pure equilibrium" 0 (Seq.length (Strategic.nash_equilibria g));
  Alcotest.(check bool) "best none" true (Strategic.best_equilibrium g = None);
  Alcotest.(check bool) "worst none" true (Strategic.worst_equilibrium g = None)

let test_coordination_best_worst () =
  let g = coordination () in
  Alcotest.(check int) "two equilibria" 2 (Seq.length (Strategic.nash_equilibria g));
  (match Strategic.best_equilibrium g, Strategic.worst_equilibrium g with
   | Some (b, _), Some (w, _) ->
     Alcotest.check ext "best" (Extended.of_int 2) b;
     Alcotest.check ext "worst" (Extended.of_int 4) w
   | _ -> Alcotest.fail "equilibria exist")

let test_best_deviation () =
  let g = prisoners_dilemma () in
  (match Strategic.best_deviation g [| 0; 0 |] 0 with
   | Some (a, c) ->
     Alcotest.(check int) "deviate to defect" 1 a;
     Alcotest.check ext "deviation cost" Extended.zero c
   | None -> Alcotest.fail "cooperation is not stable");
  Alcotest.(check bool) "no deviation at NE" true
    (Strategic.best_deviation g [| 1; 1 |] 0 = None)

let test_infinite_costs () =
  (* A player with an infeasible action: equilibria avoid it. *)
  let g =
    Strategic.make ~players:1 ~actions:[| 2 |] ~cost:(fun a _ ->
        if a.(0) = 0 then Extended.Inf else Extended.of_int 3)
  in
  match Strategic.best_equilibrium g with
  | Some (c, a) ->
    Alcotest.check ext "finite equilibrium" (Extended.of_int 3) c;
    Alcotest.(check (array int)) "feasible action" [| 1 |] a
  | None -> Alcotest.fail "equilibrium exists"

let test_validation () =
  Alcotest.check_raises "empty actions"
    (Invalid_argument "Strategic.make: empty action space") (fun () ->
      ignore
        (Strategic.make ~players:1 ~actions:[| 0 |] ~cost:(fun _ _ -> Extended.zero)));
  Alcotest.check_raises "player count"
    (Invalid_argument "Strategic.make: need at least one player") (fun () ->
      ignore
        (Strategic.make ~players:0 ~actions:[||] ~cost:(fun _ _ -> Extended.zero)))

(* --- congestion games: NCS games, resources = edges --- *)

(* Two players, two resources with fair sharing: r0 costs 2, r1 costs 3
   — two parallel edges between the players' common terminals. *)
let two_resource_game () =
  Complete.make
    (Graph.make Undirected ~n:2 [ (0, 1, Rat.of_int 2); (0, 1, Rat.of_int 3) ])
    [| (0, 1); (0, 1) |]

let test_congestion_costs () =
  let g = two_resource_game () in
  Alcotest.(check (array int)) "loads both on r0" [| 2; 0 |] (Complete.loads g [| 0; 0 |]);
  Alcotest.check rat "shared cost" Rat.one (Complete.player_cost g [| 0; 0 |] 0);
  Alcotest.check rat "alone cost" (Rat.of_int 3) (Complete.player_cost g [| 0; 1 |] 1)

let test_congestion_equilibria () =
  let s = Complete.to_strategic (two_resource_game ()) in
  let eqs = List.of_seq (Strategic.nash_equilibria s) in
  (* Both-on-r0 (social 2) and both-on-r1 (social 3) are equilibria;
     the splits are not. *)
  Alcotest.(check int) "two equilibria" 2 (List.length eqs);
  match Strategic.best_equilibrium s, Strategic.worst_equilibrium s with
  | Some (b, _), Some (w, _) ->
    Alcotest.check ext "best eq" (Extended.of_int 2) b;
    Alcotest.check ext "worst eq" (Extended.of_int 3) w
  | _ -> Alcotest.fail "equilibria exist"

let test_rosenthal_potential_exact () =
  let g = two_resource_game () in
  let s = Complete.to_strategic g in
  Alcotest.(check bool) "rosenthal is exact potential" true
    (Strategic.is_exact_potential s (Complete.potential g))

let test_rosenthal_values () =
  let g = two_resource_game () in
  (* Both on r0: 2/1 + 2/2 = 3. *)
  Alcotest.check rat "H-sum" (Rat.of_int 3) (Complete.potential g [| 0; 0 |]);
  (* Split: 2 + 3. *)
  Alcotest.check rat "split" (Rat.of_int 5) (Complete.potential g [| 0; 1 |])

let test_congestion_validation () =
  (* A player's resources are the edges of paths between her
     terminals, so a terminal outside the graph is rejected. *)
  Alcotest.check_raises "bad terminal"
    (Invalid_argument "Complete.make: terminal out of range") (fun () ->
      ignore
        (Complete.make
           (Graph.make Undirected ~n:2 [ (0, 1, Rat.one) ])
           [| (0, 3) |]))

(* Random network cost-sharing game for property tests: 2-3 players
   with random terminals on a small connected graph. *)
let random_congestion seed =
  let rng = Random.State.make [| seed |] in
  let graph =
    Bi_graph.Gen.random_connected_graph rng ~n:(3 + Random.State.int rng 2) ~p:0.4
      ~max_cost:9
  in
  let n = Graph.n_vertices graph in
  let players = 2 + Random.State.int rng 2 in
  let g =
    Complete.make graph
      (Array.init players (fun _ -> (Random.State.int rng n, Random.State.int rng n)))
  in
  (g, Complete.to_strategic g)

let prop_congestion_has_pure_ne =
  QCheck2.Test.make ~name:"congestion games have pure equilibria (Rosenthal)" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, s = random_congestion seed in
      Strategic.best_equilibrium s <> None)

let prop_congestion_potential_exact =
  QCheck2.Test.make ~name:"rosenthal potential is exact on random games" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g, s = random_congestion seed in
      Strategic.is_exact_potential s (Complete.potential g))

let prop_dynamics_reach_nash =
  QCheck2.Test.make ~name:"best-response dynamics reach a Nash equilibrium" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, s = random_congestion seed in
      let start = Array.make (Strategic.players s) 0 in
      match Strategic.best_response_dynamics s start with
      | Some a -> Strategic.is_nash s a
      | None -> false)

let prop_optimum_lower_bounds_equilibria =
  QCheck2.Test.make ~name:"optimum <= every equilibrium cost" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, s = random_congestion seed in
      let opt, _ = Strategic.optimum s in
      Seq.fold_left
        (fun acc a -> acc && Extended.( <= ) opt (Strategic.social_cost s a))
        true (Strategic.nash_equilibria s))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_congestion_has_pure_ne;
      prop_congestion_potential_exact;
      prop_dynamics_reach_nash;
      prop_optimum_lower_bounds_equilibria;
    ]

let () =
  Alcotest.run "bi_game"
    [
      ( "strategic",
        [
          Alcotest.test_case "prisoner's dilemma" `Quick test_pd_equilibrium;
          Alcotest.test_case "dynamics" `Quick test_pd_dynamics;
          Alcotest.test_case "matching pennies" `Quick test_matching_pennies;
          Alcotest.test_case "coordination best/worst" `Quick test_coordination_best_worst;
          Alcotest.test_case "best deviation" `Quick test_best_deviation;
          Alcotest.test_case "infinite costs" `Quick test_infinite_costs;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "costs & loads" `Quick test_congestion_costs;
          Alcotest.test_case "equilibria" `Quick test_congestion_equilibria;
          Alcotest.test_case "potential exactness" `Quick test_rosenthal_potential_exact;
          Alcotest.test_case "potential values" `Quick test_rosenthal_values;
          Alcotest.test_case "validation" `Quick test_congestion_validation;
        ] );
      ("properties", qtests);
    ]
