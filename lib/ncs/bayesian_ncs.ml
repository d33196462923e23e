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
  (* The solvers' view: paths as edge arrays, validity, the prior's
     support as indexed states, lowered once into the evaluation
     kernel's int or Rat instance. *)
  shape : Kernel.shape;
  kernel : Kernel.packed;
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
  let support = Dist.to_list prior_types in
  let shape =
    Kernel.shape ~n_edges:(Graph.n_edges graph)
      ~cost:(Array.init (Graph.n_edges graph) (Graph.cost graph))
      ~paths:(Array.map (Array.map Array.of_list) actions)
      ~valid
      ~states:(Array.of_list (List.map fst support))
      ~weights:(Array.of_list (List.map snd support))
  in
  { graph; players; types; actions; valid; game;
    prior_pairs = prior; complete_memo = Hashtbl.create 32;
    shape; kernel = Kernel.lower shape }

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

let shape g = g.shape
let kernel g = g.kernel

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
   one kernel scratch (a load vector per support state) handed to its
   scoring function. *)
let sharded_search ?pool ?(budget = Budget.unlimited) ~scratch ~monoid ~score g =
  let rest =
    List.init (g.players - 1) (fun j ->
        Array.to_list (player_strategies g (j + 1)))
  in
  let eval s0 =
    let sc = scratch () in
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

(* Valid profiles fill without a miss, by construction. *)
let fill_valid fill sc s = if not (fill sc s) then assert false

let bayesian_equilibria g =
  match g.kernel with
  | Kernel.Packed ((module K), kg) ->
    let sc = K.scratch kg in
    Seq.filter
      (fun s ->
        fill_valid (K.fill kg) sc s;
        K.is_equilibrium kg sc s)
      (valid_strategy_profiles g)

(* A profile playing an invalid action at some realized type leaves that
   player's cost, and so the social cost, infinite. *)
let social_cost g s =
  match g.kernel with
  | Kernel.Packed ((module K), kg) ->
    let sc = K.scratch kg in
    if K.fill kg sc s then Extended.of_rat (K.social_rat kg (K.social_cost kg sc))
    else Extended.Inf

(* The Rosenthal potential per state, priced from scratch: the oracle
   the descent laws watch fall. *)
let bayesian_potential g s =
  let rosenthal _ a =
    let load = Array.make (Graph.n_edges g.graph) 0 in
    Array.iteri
      (fun j aj -> List.iter (fun e -> load.(e) <- load.(e) + 1) g.actions.(j).(aj))
      a;
    let acc = ref Rat.zero in
    Array.iteri
      (fun e l ->
        if l > 0 then
          acc := Rat.add !acc (Rat.mul (Graph.cost g.graph e) (Rat.harmonic l)))
      load;
    !acc
  in
  Bayesian.bayesian_potential g.game rosenthal s

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
  match g.kernel with
  | Kernel.Packed ((module K), kg) -> (
    match
      sharded_search ?pool ?budget
        ~scratch:(fun () -> K.scratch kg)
        ~monoid:(Reduce.first_min ~cmp:K.compare)
        ~score:(fun sc s ->
          fill_valid (K.fill kg) sc s;
          Some (Some (s, K.social_cost kg sc)))
        g
    with
    | Some (s, c) -> (Extended.of_rat (K.social_rat kg c), s)
    | None -> assert false)

(* Equilibrium sweeps against a shard-owned kernel scratch: one fill per
   profile serves the predicate (delta deviations) and the social cost
   (loaded-edge sums); the winners' costs leave the kernel as rationals. *)
let extreme_eq_p ?pool ?budget ~worst g =
  match g.kernel with
  | Kernel.Packed ((module K), kg) ->
    let monoid =
      if worst then Reduce.first_max ~cmp:K.compare else Reduce.first_min ~cmp:K.compare
    in
    Option.map
      (fun (s, c) -> (Extended.of_rat (K.social_rat kg c), s))
      (sharded_search ?pool ?budget
         ~scratch:(fun () -> K.scratch kg)
         ~monoid
         ~score:(fun sc s ->
           fill_valid (K.fill kg) sc s;
           if K.is_equilibrium kg sc s then Some (Some (s, K.social_cost kg sc))
           else None)
         g)

let best_eq_p ?pool ?budget g = extreme_eq_p ?pool ?budget ~worst:false g
let worst_eq_p ?pool ?budget g = extreme_eq_p ?pool ?budget ~worst:true g

(* Best and worst Bayesian equilibrium in a single sweep: the equilibrium
   predicate dominates the cost of the scan, so fusing the two extreme
   searches halves the work of [measures_exhaustive]. *)
let eq_extremes ?pool ?budget g =
  match g.kernel with
  | Kernel.Packed ((module K), kg) ->
    let out = Option.map (fun (s, c) -> (Extended.of_rat (K.social_rat kg c), s)) in
    let best, worst =
      sharded_search ?pool ?budget
        ~scratch:(fun () -> K.scratch kg)
        ~monoid:
          (Reduce.both
             (Reduce.first_min ~cmp:K.compare)
             (Reduce.first_max ~cmp:K.compare))
        ~score:(fun sc s ->
          fill_valid (K.fill kg) sc s;
          if K.is_equilibrium kg sc s then begin
            let cell = Some (s, K.social_cost kg sc) in
            Some (cell, cell)
          end
          else None)
        g
    in
    (out best, out worst)

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
        best_eq_p = Option.map fst best;
        worst_eq_p = Option.map fst worst;
        opt_c = opt_c ?pool ?budget g;
        best_eq_c = best_eq_c ?pool ?budget g;
        worst_eq_c = worst_eq_c ?pool ?budget g;
      };
    opt_p_witness;
    best_eq_p_witness = Option.map snd best;
    worst_eq_p_witness = Option.map snd worst;
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
