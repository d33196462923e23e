open Bi_num
module Graph = Bi_graph.Graph
module Paths = Bi_graph.Paths
module Dist = Bi_prob.Dist
module Bayesian = Bi_bayes.Bayesian
module Measures = Bi_bayes.Measures
module Pool = Bi_engine.Pool
module Reduce = Bi_engine.Reduce
module Budget = Bi_engine.Budget

type t = {
  graph : Graph.t;
  players : int;
  types : (int * int) array array;
  actions : int list array array;
  valid : int list array array; (* player -> type -> valid action indices *)
  game : Bayesian.t;
  prior_pairs : (int * int) array Dist.t;
  complete_memo : ((int * int) list, Complete.t) Hashtbl.t;
  (* Solver-side precomputation: the exhaustive searches evaluate every
     valid strategy profile, so paths are kept as int arrays, validity as
     a table, and the prior support as an indexed array with, per (agent,
     type), the support states where that type is realized. *)
  edge_arrays : int array array array; (* player -> action -> edge ids *)
  edge_cost : Rat.t array;
  valid_tbl : bool array array array; (* player -> type -> action *)
  support_w : (int array * Rat.t) array; (* lowered prior, Dist order *)
  states_by_type : int array array array; (* player -> type -> state idxs *)
}

let dedup_keep_order xs =
  let seen = Hashtbl.create 64 in
  List.rev
    (List.fold_left
       (fun acc x ->
         if Hashtbl.mem seen x then acc
         else begin
           Hashtbl.add seen x ();
           x :: acc
         end)
       [] xs)

let make graph ~prior =
  let support = Dist.support prior in
  let players =
    match support with
    | [] -> invalid_arg "Bayesian_ncs.make: empty prior"
    | t :: _ -> Array.length t
  in
  if players = 0 then invalid_arg "Bayesian_ncs.make: no agents";
  List.iter
    (fun t ->
      if Array.length t <> players then
        invalid_arg "Bayesian_ncs.make: inconsistent number of agents in prior")
    support;
  let n = Graph.n_vertices graph in
  List.iter
    (Array.iter (fun (x, y) ->
         if x < 0 || x >= n || y < 0 || y >= n then
           invalid_arg "Bayesian_ncs.make: terminal out of range"))
    support;
  (* Agent i's types: distinct pairs in support order. *)
  let types =
    Array.init players (fun i ->
        Array.of_list (dedup_keep_order (List.map (fun t -> t.(i)) support)))
  in
  (* Agent i's actions: union of simple paths over her types. *)
  let actions =
    Array.init players (fun i ->
        let all =
          List.concat_map
            (fun (x, y) ->
              let ps = Paths.simple_paths graph x y in
              if ps = [] then
                invalid_arg "Bayesian_ncs.make: type with disconnected terminals";
              ps)
            (Array.to_list types.(i))
        in
        Array.of_list (dedup_keep_order all))
  in
  let valid =
    Array.init players (fun i ->
        Array.map
          (fun (x, y) ->
            List.filter
              (fun ai -> Graph.is_path_between graph actions.(i).(ai) x y)
              (List.init (Array.length actions.(i)) Fun.id))
          types.(i))
  in
  (* Pair -> type index, hashed (types are deduplicated, so first = only). *)
  let type_tbl =
    Array.init players (fun i ->
        let h = Hashtbl.create (Array.length types.(i)) in
        Array.iteri (fun ti pair -> Hashtbl.add h pair ti) types.(i);
        h)
  in
  let type_index i pair = Hashtbl.find type_tbl.(i) pair in
  let prior_types =
    Dist.map (fun t -> Array.mapi type_index t) prior
  in
  let cost t a i =
    let x, y = types.(i).(t.(i)) in
    let mine = actions.(i).(a.(i)) in
    if not (Graph.is_path_between graph mine x y) then Extended.Inf
    else begin
      let load = Array.make (Graph.n_edges graph) 0 in
      Array.iteri
        (fun j aj ->
          List.iter (fun e -> load.(e) <- load.(e) + 1) actions.(j).(aj))
        a;
      (* Plain fold: the closure is invoked from pool workers, so no
         scratch accumulator can be shared, and paths are short enough
         that [Rat.add]'s zero shortcut beats setting one up per call. *)
      let total = ref Rat.zero in
      List.iter
        (fun e -> total := Rat.add !total (Rat.div_int (Graph.cost graph e) load.(e)))
        mine;
      Extended.of_rat !total
    end
  in
  let game =
    Bayesian.make ~players
      ~n_types:(Array.map Array.length types)
      ~n_actions:(Array.map Array.length actions)
      ~prior:prior_types ~cost
  in
  let edge_arrays = Array.map (Array.map Array.of_list) actions in
  let edge_cost = Array.init (Graph.n_edges graph) (Graph.cost graph) in
  let valid_tbl =
    Array.init players (fun i ->
        Array.map
          (fun valid_ais ->
            let row = Array.make (Array.length actions.(i)) false in
            List.iter (fun ai -> row.(ai) <- true) valid_ais;
            row)
          valid.(i))
  in
  let support_w = Array.of_list (Dist.to_list prior_types) in
  let states_by_type =
    Array.init players (fun i ->
        Array.init (Array.length types.(i)) (fun ti ->
            let idxs = ref [] in
            Array.iteri
              (fun sidx (t, _) -> if t.(i) = ti then idxs := sidx :: !idxs)
              support_w;
            Array.of_list (List.rev !idxs)))
  in
  { graph; players; types; actions; valid; game;
    prior_pairs = prior; complete_memo = Hashtbl.create 32;
    edge_arrays; edge_cost; valid_tbl; support_w; states_by_type }

let graph g = g.graph
let players g = g.players
let game g = g.game
let prior g = g.prior_pairs
let types g i = Array.copy g.types.(i)
let actions g i = Array.copy g.actions.(i)
let valid_actions g i ti = g.valid.(i).(ti)

(* Per-state column blocks of the correlated-play LPs: the action
   profiles valid at one support state.  Invalid actions cost infinity,
   so no finite-cost distribution puts mass on them — excluding them
   keeps every LP coefficient a finite rational. *)
let state_action_profiles g t =
  if Array.length t <> g.players then
    invalid_arg "Bncs.state_action_profiles: type profile length";
  let choices = Array.to_list (Array.mapi (fun i ti -> g.valid.(i).(ti)) t) in
  Seq.map Array.of_list (Bi_ds.Combinat.product choices)

(* Float for the same reason as [Complete.profile_count]: the count
   exists to detect enumeration infeasibility, where ints overflow. *)
let valid_profile_count g =
  let acc = ref 1.0 in
  Array.iter
    (Array.iter (fun vs -> acc := !acc *. float_of_int (List.length vs)))
    g.valid;
  !acc

let complete_game g pair_profile =
  let key = Array.to_list pair_profile in
  match Hashtbl.find_opt g.complete_memo key with
  | Some c -> c
  | None ->
    let c = Complete.make g.graph pair_profile in
    Hashtbl.add g.complete_memo key c;
    c

(* Incremental profile evaluation.  [scratch] is caller-owned: a load
   matrix with one vector per prior-support state, filled once per
   strategy profile, after which social costs read the loaded edges
   directly and the equilibrium predicate prices deviations as deltas
   (remove the deviator's path from her type's states, cost each
   candidate at load + 1, restore); plus two reusable rational
   accumulators — [racc] for inner per-path/per-state sums and [wacc]
   for the weighted sums layered over them — so the evaluation allocates
   no intermediate rationals.  All quantities stay exact, so every value
   and comparison agrees with the generic [Bayesian] evaluation. *)

type scratch = { loads : int array array; racc : Rat.Acc.t; wacc : Rat.Acc.t }

let make_scratch g =
  {
    loads = Array.make_matrix (Array.length g.support_w) (Graph.n_edges g.graph) 0;
    racc = Rat.Acc.create ();
    wacc = Rat.Acc.create ();
  }

(* Fill the per-state load vectors for profile [s].  Returns false when
   some realized action fails to connect its type's terminals; callers
   then fall back to the generic evaluation, which prices those states at
   infinity.  (Profiles from [valid_strategy_profiles] always pass.) *)
let fill_loads g loads s =
  let ok = ref true in
  Array.iteri
    (fun sidx (t, _) ->
      let load = loads.(sidx) in
      Array.fill load 0 (Array.length load) 0;
      Array.iteri
        (fun i ti ->
          let ai = s.(i).(ti) in
          if not g.valid_tbl.(i).(ti).(ai) then ok := false;
          let es = g.edge_arrays.(i).(ai) in
          for k = 0 to Array.length es - 1 do
            let e = es.(k) in
            load.(e) <- load.(e) + 1
          done)
        t)
    g.support_w;
  !ok

(* Expected union cost: per state, every player pays her shared costs,
   which telescope to the plain cost of the loaded edge set. *)
let expected_union_cost g sc =
  Rat.Acc.clear sc.wacc;
  Array.iteri
    (fun sidx (_, w) ->
      let load = sc.loads.(sidx) in
      Rat.Acc.clear sc.racc;
      for e = 0 to Array.length load - 1 do
        if load.(e) > 0 then Rat.Acc.add sc.racc g.edge_cost.(e)
      done;
      Rat.Acc.add_mul sc.wacc w (Rat.Acc.to_rat sc.racc))
    g.support_w;
  Rat.Acc.to_rat sc.wacc

(* Inner path sums run through [sc.racc] (cleared per call); callers
   layering weighted sums over them use [sc.wacc]. *)
let path_cost_loaded g sc load es =
  Rat.Acc.clear sc.racc;
  for k = 0 to Array.length es - 1 do
    let e = es.(k) in
    Rat.Acc.add_div_int sc.racc g.edge_cost.(e) load.(e)
  done;
  Rat.Acc.to_rat sc.racc

let deviation_cost_loaded g sc load es =
  Rat.Acc.clear sc.racc;
  for k = 0 to Array.length es - 1 do
    let e = es.(k) in
    Rat.Acc.add_div_int sc.racc g.edge_cost.(e) (load.(e) + 1)
  done;
  Rat.Acc.to_rat sc.racc

let add_path_loaded load es =
  for k = 0 to Array.length es - 1 do
    let e = es.(k) in
    load.(e) <- load.(e) + 1
  done

let remove_path_loaded load es =
  for k = 0 to Array.length es - 1 do
    let e = es.(k) in
    load.(e) <- load.(e) - 1
  done

(* Equilibrium predicate against filled loads, for profiles valid on the
   whole support.  Interim costs are compared with unnormalized
   conditional weights (the prior weights of the states where (i, ti) is
   realized): dividing by the positive marginal rescales both sides of
   every comparison, so the verdict matches the generic predicate.
   Invalid deviations carry infinite interim cost there and can never
   improve on a finite current cost, so they are skipped.  The loads are
   restored before returning. *)
let is_eq_loaded g sc s =
  let rec player i =
    if i >= g.players then true else typ i 0
  and typ i ti =
    if ti >= Array.length g.types.(i) then player (i + 1)
    else begin
      let states = g.states_by_type.(i).(ti) in
      (* No support state realizes (i, ti): no interim constraint. *)
      if Array.length states = 0 then typ i (ti + 1)
      else begin
        let ai = s.(i).(ti) in
        let mine = g.edge_arrays.(i).(ai) in
        Rat.Acc.clear sc.wacc;
        Array.iter
          (fun sidx ->
            let _, w = g.support_w.(sidx) in
            Rat.Acc.add_mul sc.wacc w (path_cost_loaded g sc sc.loads.(sidx) mine))
          states;
        let current = Rat.Acc.to_rat sc.wacc in
        Array.iter (fun sidx -> remove_path_loaded sc.loads.(sidx) mine) states;
        let improving = ref false in
        let nact = Array.length g.edge_arrays.(i) in
        let ai' = ref 0 in
        while (not !improving) && !ai' < nact do
          let a = !ai' in
          if a <> ai && g.valid_tbl.(i).(ti).(a) then begin
            let cand = g.edge_arrays.(i).(a) in
            Rat.Acc.clear sc.wacc;
            Array.iter
              (fun sidx ->
                let _, w = g.support_w.(sidx) in
                Rat.Acc.add_mul sc.wacc w
                  (deviation_cost_loaded g sc sc.loads.(sidx) cand))
              states;
            if Rat.( < ) (Rat.Acc.to_rat sc.wacc) current then improving := true
          end;
          incr ai'
        done;
        Array.iter (fun sidx -> add_path_loaded sc.loads.(sidx) mine) states;
        if !improving then false else typ i (ti + 1)
      end
    end
  in
  player 0

let is_equilibrium_with g sc s =
  if fill_loads g sc.loads s then is_eq_loaded g sc s
  else Bayesian.is_bayesian_equilibrium g.game s

let social_cost_with g sc s =
  if fill_loads g sc.loads s then Extended.of_rat (expected_union_cost g sc)
  else Bayesian.social_cost g.game s

(* Agent [i]'s valid strategies: one valid action per type, in the order
   [valid_strategy_profiles] enumerates them. *)
let player_strategies g i =
  Array.of_list
    (List.of_seq
       (Seq.map Array.of_list (Bi_ds.Combinat.product (Array.to_list g.valid.(i)))))

let valid_strategy_profiles g =
  let per_player =
    List.init g.players (fun i ->
        let choices = Array.to_list g.valid.(i) in
        List.of_seq (Seq.map Array.of_list (Bi_ds.Combinat.product choices)))
  in
  Seq.map Array.of_list (Bi_ds.Combinat.product per_player)

(* Valid-profile search sharded by agent 0's strategy (the leading-
   strategy prefix).  Shards run on the pool; each folds the product of
   the remaining agents' strategies sequentially, and the shard partials
   are reduced in shard order — so value, witnessing profile and
   tie-breaking all coincide with the sequential left-to-right scan over
   [valid_strategy_profiles], whatever the pool size.  Each shard owns
   one scratch block handed to its scoring function. *)
let sharded_search ?pool ?(budget = Budget.unlimited) ~monoid ~score g =
  let rest =
    List.init (g.players - 1) (fun j ->
        Array.to_list (player_strategies g (j + 1)))
  in
  let eval s0 =
    let sc = make_scratch g in
    Seq.fold_left
      (fun acc tail ->
        Budget.check budget;
        let profile = Array.make g.players s0 in
        List.iteri (fun j sj -> profile.(j + 1) <- sj) tail;
        match score sc profile with
        | None -> acc
        | Some v -> monoid.Reduce.combine acc v)
      monoid.Reduce.empty
      (Bi_ds.Combinat.product rest)
  in
  let shards = player_strategies g 0 in
  match pool with
  | Some pool when Pool.size pool > 1 -> Reduce.map_reduce pool ~monoid eval shards
  | _ -> Reduce.fold monoid (Array.map eval shards)

let bayesian_equilibria g =
  let sc = make_scratch g in
  Seq.filter (is_equilibrium_with g sc) (valid_strategy_profiles g)

let social_cost g s =
  let sc = make_scratch g in
  social_cost_with g sc s

let bayesian_potential g s =
  let load = Array.make (Graph.n_edges g.graph) 0 in
  let acc = Rat.Acc.create () in
  Dist.expectation
    (fun t ->
      Array.fill load 0 (Array.length load) 0;
      Array.iteri
        (fun j tj ->
          List.iter (fun e -> load.(e) <- load.(e) + 1) g.actions.(j).(s.(j).(tj)))
        t;
      Rat.Acc.clear acc;
      Array.iteri
        (fun e l ->
          if l > 0 then Rat.Acc.add_mul acc g.edge_cost.(e) (Rat.harmonic l))
        load;
      Rat.Acc.to_rat acc)
    (Bayesian.prior g.game)

let shortest_path_profile g =
  Array.init g.players (fun i ->
      Array.mapi
        (fun ti _ ->
          match g.valid.(i).(ti) with
          | [] -> assert false (* every type has a connecting path by make *)
          | candidates ->
            let path_cost ai = Paths.path_cost g.graph g.actions.(i).(ai) in
            List.fold_left
              (fun best ai ->
                if Rat.( < ) (path_cost ai) (path_cost best) then ai else best)
              (List.hd candidates) (List.tl candidates))
        g.types.(i))

let equilibrium_by_dynamics ?max_steps g =
  Bayesian.best_response_dynamics ?max_steps g.game (shortest_path_profile g)

let opt_c ?pool ?budget g =
  Dist.expectation_ext
    (fun pairs ->
      let c = complete_game g pairs in
      match Complete.optimum_rooted c with
      | Some v -> v
      | None -> Extended.of_rat (fst (Complete.optimum ?pool ?budget c)))
    g.prior_pairs

(* The memoizing [complete_game] stays on the calling domain; parallelism
   lives inside the per-state Complete solvers. *)
let expect_eq_c pick g =
  let exception Missing in
  try
    Some
      (Dist.expectation_ext
         (fun pairs ->
           match pick (complete_game g pairs) with
           | Some (v, _) -> Extended.of_rat v
           | None -> raise Missing)
         g.prior_pairs)
  with Missing -> None

let best_eq_c ?pool ?budget g =
  expect_eq_c (fun c -> Complete.best_equilibrium ?pool ?budget c) g

let worst_eq_c ?pool ?budget g =
  expect_eq_c (fun c -> Complete.worst_equilibrium ?pool ?budget c) g

let opt_p_exhaustive ?pool ?budget g =
  match
    sharded_search ?pool ?budget
      ~monoid:(Reduce.first_min ~cmp:Extended.compare)
      ~score:(fun sc s -> Some (Some (s, social_cost_with g sc s)))
      g
  with
  | Some (s, c) -> (c, s)
  | None -> assert false

(* Equilibrium scoring against a shard-owned load matrix: one fill per
   profile serves the predicate (delta deviations) and the social cost
   (loaded-edge sums).  Profiles invalid somewhere on the support fall
   back to the generic evaluation; [valid_strategy_profiles] never
   produces one. *)
let eq_score_loaded g sc s =
  if fill_loads g sc.loads s then begin
    if is_eq_loaded g sc s then Some (Extended.of_rat (expected_union_cost g sc))
    else None
  end
  else if Bayesian.is_bayesian_equilibrium g.game s then
    Some (Bayesian.social_cost g.game s)
  else None

let extreme_eq_p ?pool ?budget monoid g =
  Option.map
    (fun (s, c) -> (c, s))
    (sharded_search ?pool ?budget ~monoid
       ~score:(fun sc s ->
         Option.map (fun c -> Some (s, c)) (eq_score_loaded g sc s))
       g)

let best_eq_p ?pool ?budget g =
  extreme_eq_p ?pool ?budget (Reduce.first_min ~cmp:Extended.compare) g

let worst_eq_p ?pool ?budget g =
  extreme_eq_p ?pool ?budget (Reduce.first_max ~cmp:Extended.compare) g

(* Best and worst Bayesian equilibrium in a single sweep: the equilibrium
   predicate dominates the cost of the scan, so fusing the two extreme
   searches halves the work of [measures_exhaustive]. *)
let eq_extremes ?pool ?budget g =
  sharded_search ?pool ?budget
    ~monoid:
      (Reduce.both
         (Reduce.first_min ~cmp:Extended.compare)
         (Reduce.first_max ~cmp:Extended.compare))
    ~score:(fun sc s ->
      Option.map
        (fun c ->
          let cell = Some (s, c) in
          (cell, cell))
        (eq_score_loaded g sc s))
    g

type analysis = {
  report : Measures.report;
  opt_p_witness : Bayesian.strategy_profile;
  best_eq_p_witness : Bayesian.strategy_profile option;
  worst_eq_p_witness : Bayesian.strategy_profile option;
}

let analyze ?pool ?budget g =
  let opt_p, opt_p_witness = opt_p_exhaustive ?pool ?budget g in
  let best, worst = eq_extremes ?pool ?budget g in
  {
    report =
      {
        Measures.opt_p;
        best_eq_p = Option.map snd best;
        worst_eq_p = Option.map snd worst;
        opt_c = opt_c ?pool ?budget g;
        best_eq_c = best_eq_c ?pool ?budget g;
        worst_eq_c = worst_eq_c ?pool ?budget g;
      };
    opt_p_witness;
    best_eq_p_witness = Option.map fst best;
    worst_eq_p_witness = Option.map fst worst;
  }

let measures_exhaustive ?pool g = (analyze ?pool g).report

let lemma_3_1_bound_holds ?pool g =
  match worst_eq_p ?pool g with
  | None -> true
  | Some (worst, _) ->
    Extended.( <= ) worst (Extended.mul (Extended.of_int g.players) (opt_c ?pool g))

let lemma_3_8_bound_holds ?pool g =
  match best_eq_p ?pool g with
  | None -> true
  | Some (best, _) ->
    let opt_p, _ = opt_p_exhaustive ?pool g in
    Extended.( <= ) best
      (Extended.mul (Extended.of_rat (Rat.harmonic g.players)) opt_p)
