(* Tests for NCS games: Shapley sharing, Rosenthal potential, exact
   best responses, equilibria, optima (including Steiner cross-checks),
   and the Bayesian NCS layer with a fully hand-computed instance. *)

open Bi_num
module Graph = Bi_graph.Graph
module Gen = Bi_graph.Gen
module Dist = Bi_prob.Dist
module Complete = Bi_ncs.Complete
module Bncs = Bi_ncs.Bayesian_ncs
module Bayesian = Bi_bayes.Bayesian
module Measures = Bi_bayes.Measures

let rat = Alcotest.testable Rat.pp Rat.equal
let ext = Alcotest.testable Extended.pp Extended.equal

let r = Rat.of_int
let rr = Rat.of_ints

(* Two parallel edges from 0 to 1: e0 costs 1, e1 costs 2; two agents
   both routing 0 -> 1. *)
let parallel_game () =
  Complete.make (Graph.make Undirected ~n:2 [ (0, 1, r 1); (0, 1, r 2) ]) [| (0, 1); (0, 1) |]

let profile_of g pick =
  (* Map each agent to the index of the path equal to [pick i]. *)
  Array.init (Complete.players g) (fun i ->
      let paths = Array.of_list (Complete.paths g i) in
      let rec find j =
        if j >= Array.length paths then Alcotest.fail "path not found"
        else if paths.(j) = pick i then j
        else find (j + 1)
      in
      find 0)

let test_parallel_costs () =
  let g = parallel_game () in
  let both_cheap = profile_of g (fun _ -> [ 0 ]) in
  Alcotest.check rat "shared payment" (rr 1 2) (Complete.player_cost g both_cheap 0);
  Alcotest.check rat "social = union" (r 1) (Complete.social_cost g both_cheap);
  let split = profile_of g (fun i -> [ i ]) in
  Alcotest.check rat "alone on expensive" (r 2) (Complete.player_cost g split 1);
  Alcotest.check rat "union of both" (r 3) (Complete.social_cost g split)

let test_parallel_equilibria () =
  let g = parallel_game () in
  (* Both-on-cheap and both-on-expensive are equilibria (sharing the
     expensive edge costs 1 each; moving alone to the cheap one also
     costs 1 — no strict improvement).  Splits are not equilibria. *)
  let eqs = List.of_seq (Complete.nash_equilibria g) in
  Alcotest.(check int) "two equilibria" 2 (List.length eqs);
  (match Complete.best_equilibrium g, Complete.worst_equilibrium g with
   | Some (b, _), Some (w, _) ->
     Alcotest.check rat "best" (r 1) b;
     Alcotest.check rat "worst" (r 2) w
   | _ -> Alcotest.fail "equilibria exist");
  let opt, _ = Complete.optimum g in
  Alcotest.check rat "optimum" (r 1) opt;
  Alcotest.(check bool) "PoS bound" true (Complete.price_of_stability_bound_holds g)

let test_potential_is_exact () =
  let g = parallel_game () in
  Alcotest.(check bool) "rosenthal exact on strategic lowering" true
    (Bi_game.Strategic.is_exact_potential (Complete.to_strategic g)
       (fun profile -> Complete.potential g profile));
  let both_cheap = profile_of g (fun _ -> [ 0 ]) in
  Alcotest.check rat "potential value" (rr 3 2) (Complete.potential g both_cheap)

let test_best_response_shortest_path () =
  (* Grid-ish graph: agent 1 sits on a path; agent 0's best response
     shares it. *)
  let graph =
    Graph.make Undirected ~n:4
      [ (0, 1, r 4); (0, 2, r 3); (2, 1, r 3); (1, 3, r 1) ]
  in
  let g = Complete.make graph [| (0, 1); (0, 3) |] in
  (* Agent 1 currently uses 0-2-1-3; agent 0's options: direct (4) or
     share 0-2-1 paying 3. *)
  let start =
    profile_of g (fun i -> if i = 0 then [ 0 ] else [ 1; 2; 3 ])
  in
  let br = Complete.best_response g start 0 in
  let deviated = Array.copy start in
  deviated.(0) <- br;
  Alcotest.check rat "shared best response" (r 3) (Complete.player_cost g deviated 0);
  Alcotest.(check (list int)) "the shared path" [ 1; 2 ]
    (Complete.action_edges g deviated 0)

let test_dynamics_reach_nash () =
  let g = parallel_game () in
  match Complete.equilibrium_by_dynamics g [| 1; 0 |] with
  | Some p -> Alcotest.(check bool) "is nash" true (Complete.is_nash g p)
  | None -> Alcotest.fail "dynamics must converge (potential game)"

let test_optimum_rooted_agrees () =
  let graph =
    Graph.make Undirected ~n:5
      [ (0, 1, r 2); (0, 2, r 2); (1, 3, r 2); (2, 3, r 1); (0, 3, r 4); (3, 4, r 1) ]
  in
  let g = Complete.make graph [| (0, 3); (0, 4) |] in
  let brute, _ = Complete.optimum g in
  (match Complete.optimum_rooted g with
   | Some (Extended.Fin v) -> Alcotest.check rat "rooted = brute force" brute v
   | _ -> Alcotest.fail "shared source, should compute");
  (* Different sources: no rooted shortcut. *)
  let g2 = Complete.make graph [| (1, 3); (0, 4) |] in
  Alcotest.(check bool) "not rooted" true (Complete.optimum_rooted g2 = None)

let test_disconnected_rejected () =
  let graph = Graph.make Undirected ~n:3 [ (0, 1, r 1) ] in
  Alcotest.check_raises "no path"
    (Invalid_argument "Complete.make: agent with disconnected terminals") (fun () ->
      ignore (Complete.make graph [| (0, 2) |]))

(* --- The hand-computed Bayesian NCS instance ---

   Graph: two parallel 0-1 edges, e0 costing 1 and e1 costing 3/2.
   Agent 0 always travels 0->1.  Agent 1 travels 0->1 with probability
   1/2 and is absent (0->0) otherwise.

   Worked out by hand:
     optP = optC = best-eqC = 1,   best-eqP = worst-eqP = 1  (unique
     Bayesian equilibrium: both buy e0, absent agent buys nothing),
     worst-eqC = 5/4 (when both are present, both-on-e1 is a Nash
     equilibrium of the underlying game costing 3/2).
   So worst-eqP / worst-eqC = 4/5 < 1: mild "ignorance is bliss". *)
let unknown_partner () =
  let graph = Graph.make Undirected ~n:2 [ (0, 1, r 1); (0, 1, rr 3 2) ] in
  Bncs.make graph
    ~prior:(Dist.uniform [ [| (0, 1); (0, 1) |]; [| (0, 1); (0, 0) |] ])

let test_bayesian_ncs_structure () =
  let g = unknown_partner () in
  Alcotest.(check int) "players" 2 (Bncs.players g);
  Alcotest.(check int) "agent 0 types" 1 (Array.length (Bncs.types g 0));
  Alcotest.(check int) "agent 1 types" 2 (Array.length (Bncs.types g 1));
  Alcotest.(check int) "agent 0 actions" 2 (Array.length (Bncs.actions g 0));
  (* Agent 1: paths e0, e1 and the empty path. *)
  Alcotest.(check int) "agent 1 actions" 3 (Array.length (Bncs.actions g 1));
  (* At the absent type, everything trivially connects 0 to 0. *)
  Alcotest.(check int) "absent type valid actions" 3
    (List.length (Bncs.valid_actions g 1 1));
  Alcotest.(check int) "present type valid actions" 2
    (List.length (Bncs.valid_actions g 1 0))

let test_bayesian_ncs_measures () =
  let g = unknown_partner () in
  let m = Bncs.measures_exhaustive g in
  Alcotest.check ext "optP" Extended.one m.Measures.opt_p;
  Alcotest.check ext "optC" Extended.one m.Measures.opt_c;
  Alcotest.(check (option ext)) "best-eqP" (Some Extended.one) m.Measures.best_eq_p;
  Alcotest.(check (option ext)) "worst-eqP" (Some Extended.one) m.Measures.worst_eq_p;
  Alcotest.(check (option ext)) "best-eqC" (Some Extended.one) m.Measures.best_eq_c;
  Alcotest.(check (option ext)) "worst-eqC" (Some (Extended.of_ints 5 4)) m.Measures.worst_eq_c;
  Alcotest.(check bool) "observation 2.2" true (Measures.observation_2_2_holds m);
  (* Ignorance is (mildly) bliss here. *)
  (match m.Measures.worst_eq_p, m.Measures.worst_eq_c with
   | Some p, Some c -> Alcotest.(check bool) "worst-eqP < worst-eqC" true Extended.(p < c)
   | _ -> Alcotest.fail "worst equilibria exist")

let test_bayesian_ncs_equilibrium_unique () =
  let g = unknown_partner () in
  let eqs = List.of_seq (Bncs.bayesian_equilibria g) in
  Alcotest.(check int) "unique Bayesian equilibrium" 1 (List.length eqs);
  match eqs with
  | [ s ] ->
    (* Both present agents buy e0 ([0] is e0's path index for agent 0). *)
    Alcotest.(check (list int)) "agent 0 buys e0" [ 0 ] (Bncs.actions g 0).(s.(0).(0));
    Alcotest.(check (list int)) "agent 1 buys e0 when present" [ 0 ]
      (Bncs.actions g 1).(s.(1).(0));
    Alcotest.(check (list int)) "agent 1 buys nothing when absent" []
      (Bncs.actions g 1).(s.(1).(1))
  | _ -> Alcotest.fail "unique"

let test_bayesian_ncs_dynamics_and_bounds () =
  let g = unknown_partner () in
  (match Bncs.equilibrium_by_dynamics g with
   | Some s ->
     Alcotest.(check bool) "dynamics land on equilibrium" true
       (Bayesian.is_bayesian_equilibrium (Bncs.game g) s)
   | None -> Alcotest.fail "dynamics converge");
  Alcotest.(check bool) "lemma 3.1 bound" true (Bncs.lemma_3_1_bound_holds g);
  Alcotest.(check bool) "lemma 3.8 bound" true (Bncs.lemma_3_8_bound_holds g)

let test_bayesian_potential_decreases () =
  let g = unknown_partner () in
  (* The shortest-path profile is the equilibrium here; check the
     potential is minimized there among valid profiles. *)
  let eq = Bncs.shortest_path_profile g in
  let eq_pot = Bncs.bayesian_potential g eq in
  Seq.iter
    (fun s ->
      if Rat.( < ) (Bncs.bayesian_potential g s) eq_pot then
        Alcotest.fail "equilibrium should minimize the potential here")
    (Bncs.valid_strategy_profiles g)

(* --- Random cross-checks --- *)

let random_complete seed =
  let rng = Random.State.make [| seed |] in
  let n = 3 + Random.State.int rng 3 in
  let graph = Gen.random_connected_graph rng ~n ~p:0.4 ~max_cost:6 in
  let k = 1 + Random.State.int rng 2 in
  let pairs =
    Array.init k (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  Complete.make graph pairs

let prop_best_response_matches_enumeration =
  QCheck2.Test.make ~name:"shortest-path best response = enumeration argmin" ~count:80
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_complete seed in
      let rng = Random.State.make [| seed + 1 |] in
      let profile =
        Array.init (Complete.players g) (fun i ->
            Random.State.int rng (List.length (Complete.paths g i)))
      in
      let ok = ref true in
      for i = 0 to Complete.players g - 1 do
        let br = Complete.best_response g profile i in
        let cost_with j =
          let p = Array.copy profile in
          p.(i) <- j;
          Complete.player_cost g p i
        in
        let br_cost = cost_with br in
        for j = 0 to List.length (Complete.paths g i) - 1 do
          if Rat.( < ) (cost_with j) br_cost then ok := false
        done
      done;
      !ok)

let prop_ncs_has_pure_equilibrium =
  QCheck2.Test.make ~name:"NCS games have pure equilibria" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_complete seed in
      match Complete.equilibrium_by_dynamics g (Array.make (Complete.players g) 0) with
      | Some p -> Complete.is_nash g p
      | None -> false)

let prop_pos_bound =
  QCheck2.Test.make ~name:"price of stability <= H(k) on random NCS games" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> Complete.price_of_stability_bound_holds (random_complete seed))

let random_bayesian_ncs seed =
  let rng = Random.State.make [| seed |] in
  let n = 3 + Random.State.int rng 2 in
  let graph = Gen.random_connected_graph rng ~n ~p:0.35 ~max_cost:5 in
  let k = 2 in
  let profile () =
    Array.init k (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  let support = List.init (1 + Random.State.int rng 2) (fun _ -> profile ()) in
  Bncs.make graph
    ~prior:(Dist.make (List.map (fun t -> (t, Rat.of_int (1 + Random.State.int rng 2))) support))

let prop_bayesian_ncs_obs22 =
  QCheck2.Test.make ~name:"observation 2.2 on random Bayesian NCS games" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      Measures.observation_2_2_holds (Bncs.measures_exhaustive g))

let prop_bayesian_ncs_lemma31 =
  QCheck2.Test.make ~name:"lemma 3.1 universal bound on random games" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> Bncs.lemma_3_1_bound_holds (random_bayesian_ncs seed))

let prop_bayesian_ncs_lemma38 =
  QCheck2.Test.make ~name:"lemma 3.8 universal bound on random games" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> Bncs.lemma_3_8_bound_holds (random_bayesian_ncs seed))

let prop_bayesian_dynamics_reach_equilibrium =
  QCheck2.Test.make ~name:"Bayesian BR dynamics reach an equilibrium" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      match Bncs.equilibrium_by_dynamics g with
      | Some s -> Bayesian.is_bayesian_equilibrium (Bncs.game g) s
      | None -> false)

(* The solvers evaluate deviations incrementally (delta against a load
   vector built once per profile); these properties pin that evaluation
   to the from-scratch definition on random instances. *)
let prop_incremental_nash_matches_scratch =
  QCheck2.Test.make ~name:"incremental Nash predicate = from-scratch deviation scan"
    ~count:80
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_complete seed in
      let rng = Random.State.make [| seed + 7 |] in
      let ok = ref true in
      for _ = 1 to 5 do
        let profile =
          Array.init (Complete.players g) (fun i ->
              Random.State.int rng (List.length (Complete.paths g i)))
        in
        let scratch_nash =
          let no_improvement i =
            let current = Complete.player_cost g profile i in
            List.for_all
              (fun j ->
                let p = Array.copy profile in
                p.(i) <- j;
                Rat.( <= ) current (Complete.player_cost g p i))
              (List.init (List.length (Complete.paths g i)) Fun.id)
          in
          List.for_all no_improvement
            (List.init (Complete.players g) Fun.id)
        in
        if Complete.is_nash g profile <> scratch_nash then ok := false
      done;
      !ok)

let prop_bayesian_fast_eval_matches_generic =
  QCheck2.Test.make
    ~name:"incremental Bayesian predicate & social cost = generic evaluation"
    ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let game = Bncs.game g in
      let fast_eqs = List.of_seq (Bncs.bayesian_equilibria g) in
      let generic_eqs =
        List.of_seq
          (Seq.filter
             (Bayesian.is_bayesian_equilibrium game)
             (Bncs.valid_strategy_profiles g))
      in
      fast_eqs = generic_eqs
      && Seq.for_all
           (fun s ->
             Extended.equal (Bncs.social_cost g s) (Bayesian.social_cost game s))
           (Bncs.valid_strategy_profiles g))

(* --- The evaluation kernel ---

   Both kernel instances against the generic lowered Bayesian game, on
   the shared random games, a quarter of them with every cost scaled
   past 2^62 so the int lowering must refuse. *)

module Kernel = Bi_ncs.Kernel
module Pool = Bi_engine.Pool
module Budget = Bi_engine.Budget

let random_kernel_game seed =
  let d = Random_games.description seed in
  if seed mod 4 = 0 then Random_games.game ~scale:Random_games.past_word d
  else Random_games.game d

(* Mostly valid actions, sometimes any action, so the invalid-profile
   semantics (infinite interim and social costs) are exercised too. *)
let random_profile rng g =
  Array.init (Bncs.players g) (fun i ->
      Array.init
        (Array.length (Bncs.types g i))
        (fun ti ->
          if Random.State.int rng 4 = 0 then
            Random.State.int rng (Array.length (Bncs.actions g i))
          else begin
            let vs = Bncs.valid_actions g i ti in
            List.nth vs (Random.State.int rng (List.length vs))
          end))

let with_action s i ti a =
  let s' = Array.map Array.copy s in
  s'.(i).(ti) <- a;
  s'

(* The certificate margins by definition, through the generic game. *)
let generic_margins g s =
  let bg = Bncs.game g in
  let rec go i ti acc =
    if i >= Bncs.players g then Ok (List.rev acc)
    else if ti >= Bayesian.n_types bg i then go (i + 1) 0 acc
    else
      match Bayesian.interim_cost bg s i ti with
      | None -> go i (ti + 1) acc
      | Some (Extended.Inf) -> Error (i, ti)
      | Some (Extended.Fin current) ->
        let acc =
          List.fold_left
            (fun acc alt ->
              if alt = s.(i).(ti) then acc
              else
                match Bayesian.interim_cost bg (with_action s i ti alt) i ti with
                | Some (Extended.Fin c) -> (i, ti, s.(i).(ti), alt, Rat.sub c current) :: acc
                | _ -> Alcotest.fail "a valid alternative priced infinite")
            acc (Bncs.valid_actions g i ti)
        in
        go i (ti + 1) acc
  in
  go 0 0 []

(* Every kernel answer for [s] equals the generic evaluation's. *)
let kernel_agrees (type gm) (module K : Kernel.S with type game = gm) (kg : gm) g s =
  let bg = Bncs.game g in
  let sc = K.scratch kg in
  let valid = K.fill kg sc s in
  let social =
    if valid then Extended.of_rat (K.social_rat kg (K.social_cost kg sc)) else Extended.Inf
  in
  let ok = ref (Extended.equal social (Bayesian.social_cost bg s)) in
  ok := !ok && K.is_equilibrium kg sc s = Bayesian.is_bayesian_equilibrium bg s;
  for i = 0 to Bncs.players g - 1 do
    for ti = 0 to Array.length (Bncs.types g i) - 1 do
      let mine =
        Option.map
          (fun (a, v) -> (a, Extended.of_rat (K.interim_rat kg i ti v)))
          (K.best_deviation kg sc s i ti)
      in
      ok :=
        !ok
        && Option.equal
             (fun (a, v) (b, w) -> a = b && Extended.equal v w)
             mine
             (Bayesian.best_type_deviation bg s i ti)
    done
  done;
  let same_margins a b =
    match (a, b) with
    | Ok xs, Ok ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (i, ti, a, b, x) (j, tj, c, d, y) ->
             i = j && ti = tj && a = c && b = d && Rat.equal x y)
           xs ys
    | Error e, Error f -> e = f
    | _ -> false
  in
  ok := !ok && same_margins (K.margins kg sc s) (generic_margins g s);
  if valid then ok := !ok && K.benevolent kg s = Bayesian.benevolent_descent bg s;
  !ok

let prop_kernel_instances_match_generic =
  QCheck2.Test.make
    ~name:"kernel int and rat instances = generic Bayesian evaluation"
    ~count:120
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_kernel_game seed in
      let sh = Bncs.shape g in
      let rng = Random.State.make [| seed; 17 |] in
      let profiles = List.init 4 (fun _ -> random_profile rng g) in
      let fits = Bigint.compare (Kernel.bound sh) (Bigint.of_int max_int) <= 0 in
      (* the game's own lowering is the one the bound picks: the int
         instance when it fits, checked against the unscaled rat one *)
      let (Kernel.Packed (k, kg) as own) = Bncs.kernel g in
      Kernel.instance own = (if fits then "int" else "rat")
      && List.for_all
           (fun s ->
             kernel_agrees (module Kernel.Q) (Kernel.lower_rat sh) g s
             && kernel_agrees k kg g s)
           profiles)

(* One player, one type, one two-edge path: the union of that path is
   the largest sum the kernel can form, and it equals the bound. *)
let boundary_game c1 c2 =
  let graph = Graph.make Directed ~n:3 [ (0, 1, c1); (1, 2, c2) ] in
  Bncs.make graph ~prior:(Dist.point [| (0, 2) |])

let test_kernel_boundary () =
  let at_limit = boundary_game (r (max_int - 5)) (r 5) in
  let past_limit =
    boundary_game (Rat.of_bigint (Bigint.add (Bigint.of_int (max_int - 5)) Bigint.one)) (r 5)
  in
  Alcotest.(check string) "bound = max_int" (string_of_int max_int)
    (Bigint.to_string (Kernel.bound (Bncs.shape at_limit)));
  Alcotest.(check string) "int at the bound" "int" (Kernel.instance (Bncs.kernel at_limit));
  Alcotest.(check string) "rat one past it" "rat" (Kernel.instance (Bncs.kernel past_limit));
  (* the largest sum is formed without overflow *)
  Alcotest.check ext "union at the bound" (Extended.of_rat (r max_int))
    (Bncs.social_cost at_limit [| [| 0 |] |]);
  (* weights count too: a free game whose prior needs a huge common
     denominator cannot scale its weights into machine words *)
  let weighted d =
    Bncs.make
      (Graph.make Directed ~n:2 [ (0, 1, Rat.zero) ])
      ~prior:
        (Dist.make
           [ ([| (0, 1) |], Rat.make Bigint.one d);
             ([| (1, 1) |], Rat.sub Rat.one (Rat.make Bigint.one d)) ])
  in
  let max_big = Bigint.of_int max_int in
  Alcotest.(check string) "free game, weights at the bound" "int"
    (Kernel.instance (Bncs.kernel (weighted max_big)));
  Alcotest.(check string) "free game, weights past it" "rat"
    (Kernel.instance (Bncs.kernel (weighted (Bigint.add max_big Bigint.one))))

(* Sweeps shard by the leading agent's strategy: any pool size gives the
   same values and witnesses, on either instance. *)
let prop_kernel_pool_sizes =
  QCheck2.Test.make ~name:"kernel sweeps identical for pool sizes one and two"
    ~count:15
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_kernel_game seed in
      Bncs.valid_profile_count g > 2000.
      || Pool.with_pool 1 (fun p1 ->
             Pool.with_pool 2 (fun p2 ->
                 let a = Bncs.analyze ~pool:p1 g and b = Bncs.analyze ~pool:p2 g in
                 a.Bncs.report = b.Bncs.report
                 && a.Bncs.opt_p_witness = b.Bncs.opt_p_witness
                 && a.Bncs.best_eq_p_witness = b.Bncs.best_eq_p_witness
                 && a.Bncs.worst_eq_p_witness = b.Bncs.worst_eq_p_witness)))

let test_kernel_sweeps_poll () =
  let g = random_kernel_game 7 in
  let polled f =
    let b = Budget.of_timeout_ms 600_000 in
    f b;
    Budget.polls b > 0
  in
  Alcotest.(check bool) "bayesian sweep polls" true
    (polled (fun budget -> ignore (Bncs.opt_p_exhaustive ~budget g)));
  Alcotest.(check bool) "equilibrium sweep polls" true
    (polled (fun budget -> ignore (Bncs.best_eq_p ~budget g)));
  Alcotest.(check bool) "per-state sweeps poll" true
    (polled (fun budget -> ignore (Bncs.best_eq_c ~budget g)))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_best_response_matches_enumeration;
      prop_ncs_has_pure_equilibrium;
      prop_pos_bound;
      prop_bayesian_ncs_obs22;
      prop_bayesian_ncs_lemma31;
      prop_bayesian_ncs_lemma38;
      prop_bayesian_dynamics_reach_equilibrium;
      prop_incremental_nash_matches_scratch;
      prop_bayesian_fast_eval_matches_generic;
      prop_kernel_instances_match_generic;
      prop_kernel_pool_sizes;
    ]

let () =
  Alcotest.run "bi_ncs"
    [
      ( "complete",
        [
          Alcotest.test_case "payments & social cost" `Quick test_parallel_costs;
          Alcotest.test_case "equilibria" `Quick test_parallel_equilibria;
          Alcotest.test_case "potential exactness" `Quick test_potential_is_exact;
          Alcotest.test_case "best response via dijkstra" `Quick test_best_response_shortest_path;
          Alcotest.test_case "dynamics" `Quick test_dynamics_reach_nash;
          Alcotest.test_case "optimum rooted" `Quick test_optimum_rooted_agrees;
          Alcotest.test_case "disconnected rejected" `Quick test_disconnected_rejected;
        ] );
      ( "bayesian",
        [
          Alcotest.test_case "structure" `Quick test_bayesian_ncs_structure;
          Alcotest.test_case "hand-computed measures" `Quick test_bayesian_ncs_measures;
          Alcotest.test_case "unique equilibrium" `Quick test_bayesian_ncs_equilibrium_unique;
          Alcotest.test_case "dynamics & universal bounds" `Quick
            test_bayesian_ncs_dynamics_and_bounds;
          Alcotest.test_case "potential minimization" `Quick test_bayesian_potential_decreases;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "lowering refuses exactly past the machine word" `Quick
            test_kernel_boundary;
          Alcotest.test_case "sweeps poll the budget" `Quick test_kernel_sweeps_poll;
        ] );
      ("properties", qtests);
    ]
