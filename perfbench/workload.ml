(* The three workloads as seeded request lists: a set-up list (fill or
   warm-up) and a measured list, each request paired with the check its
   answer must pass.  The same seed and size give byte-identical lists. *)

open Games

type expect =
  | Fill  (** set-up: answered fresh, answer kept for the checks below *)
  | Hit of int  (** byte-identical to set-up answer [i] with [cached:true] *)
  | Scaled_from of int * int
      (** set-up answer [i] with every cost-valued field times [m] *)
  | Fresh
      (** a never-seen game: answered fresh; a seeded sample is
          recomputed in-process after the run *)

type req = { spec : spec; line : string; expect : expect }

(* A request whose game the program has never seen: it must compute. *)
let never_seen r = match r.expect with Scaled_from _ | Fresh -> true | Fill | Hit _ -> false
type kind = Shard_hot | Shard_cold | Cluster_mixed
type t = { kind : kind; setup : req array; measured : req array }

let kinds = [ Shard_hot; Shard_cold; Cluster_mixed ]

let name = function
  | Shard_hot -> "shard-hot"
  | Shard_cold -> "shard-cold"
  | Cluster_mixed -> "cluster-mixed"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* Nominal measured requests per second of [--seconds]: the measured
   list holds [seconds * rate] requests, so a run replays fixed work and
   lasts about [seconds] on the reference host. *)
let nominal_rate = function
  | Shard_hot -> 4000
  | Shard_cold -> 380
  | Cluster_mixed -> 2400

(* Every run measures at least this many requests, so p99 has at least
   ten samples beyond it. *)
let min_measured = 1000

let req expect spec = { spec; line = line spec; expect }

let pick rng weighted =
  let total = List.fold_left (fun a (w, _) -> a +. w) 0. weighted in
  let x = Random.State.float rng total in
  let rec go acc = function
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else go (acc +. w) rest
    | [] -> invalid_arg "Workload.pick: empty"
  in
  go 0. weighted

(* Random games are kept only when small: solver cost is heavy-tailed
   in the number of valid strategy profiles (every tier) and in the
   number of communication-deviation rows (the LP tiers).  The caps keep
   a never-seen random game no dearer than a scaled family game: a few
   ms on the correlated tier, well under one elsewhere. *)
let max_random_profiles = 40.
let max_random_deviations = 24

let small_enough s =
  let g = build s in
  Bi_ncs.Bayesian_ncs.valid_profile_count g <= max_random_profiles
  && Bi_correlated.Correlated.deviation_count (Bi_correlated.Correlated.make g)
       Bi_correlated.Concept.Comm
     <= max_random_deviations

(* A stream of random games, skipping any over the profile cap or whose
   cache key is already in [seen], and recording the keys it hands out. *)
let random_stream ~seen ~seed ~stream =
  let j = ref 0 in
  let rec next mk =
    let s = mk (Random [| seed; stream; !j |]) in
    incr j;
    let key = cache_key s in
    if Hashtbl.mem seen key || not (small_enough s) then next mk
    else begin
      Hashtbl.replace seen key ();
      s
    end
  in
  next

(* --- the hot working set (shard-hot fill, cluster-mixed fill) ------- *)

let certified_ks = [ 2; 4; 8; 12; 16; 20; 24; 28; 32 ]

let hot_set ~seen seed =
  let constructions f ks =
    List.concat_map (fun fam -> List.map (fun k -> f (Construction (fam, k))) ks)
      families
  in
  let nash_constructions = constructions nash [ 2; 3; 4; 5; 6; 7 ] in
  List.iter (fun s -> Hashtbl.replace seen (cache_key s) ()) nash_constructions;
  let random = random_stream ~seen ~seed ~stream:1 in
  let rec randoms acc n = if n = 0 then List.rev acc else randoms (random nash :: acc) (n - 1) in
  nash_constructions
  @ randoms [] 12
  @ constructions certified certified_ks
  @ constructions (correlated Bi_correlated.Concept.Cce) [ 2; 3; 4 ]
  @ constructions (correlated Bi_correlated.Concept.Comm) [ 2; 3; 4 ]

let indices_by_tier setup =
  List.map
    (fun t ->
      ( t,
        Array.of_list
          (List.filter_map
             (fun (i, r) -> if Games.tier r.spec = t then Some i else None)
             (List.mapi (fun i r -> (i, r)) (Array.to_list setup))) ))
    tiers

let hit rng setup by_tier weights =
  let ids = List.assoc (pick rng weights) by_tier in
  let i = ids.(Random.State.int rng (Array.length ids)) in
  { (setup.(i)) with expect = Hit i }

(* --- shard-cold ------------------------------------------------------ *)

(* (tier maker, family, k) combinations whose cost-scaled copies make up
   most of the cold stream.  Each k keeps a miss in the low milliseconds.
   The set-up list starts with one base (m = 1) answer per combination,
   in this order. *)
let cold_combos =
  Array.of_list
    (List.concat_map
       (fun fam ->
         List.map (fun k -> (nash, fam, k)) [ 2; 3; 4; 5 ]
         @ List.map (fun k -> (certified, fam, k)) [ 2; 3; 4; 6; 8 ]
         @ List.concat_map
             (fun k ->
               [
                 (correlated Bi_correlated.Concept.Cce, fam, k);
                 (correlated Bi_correlated.Concept.Comm, fam, k);
               ])
             [ 2; 3 ])
       families)

(* Random games per round of the cold stream, by tier maker.  With one
   scaled game of each of the 39 combinations, a round is 52 requests:
   18 exhaustive, 17 certified, 17 correlated (cce + comm); a quarter
   random games. *)
let cold_random =
  [
    (6, nash);
    (2, certified);
    (3, correlated Bi_correlated.Concept.Cce);
    (2, correlated Bi_correlated.Concept.Comm);
  ]

(* The warm-up is [cold_rounds] rounds, each one never-seen scaled game
   of every combination plus one random game per concept and tier: the
   same work for every seed, so set-up time repeats across seeds. *)
let cold_rounds = 10

let cold_warmup ~seen ~seed ~next_m =
  let random = random_stream ~seen ~seed ~stream:2 in
  let round () =
    let scaled =
      List.init (Array.length cold_combos) (fun i ->
          let mk, fam, k = cold_combos.(i) in
          let s = mk (Scaled (fam, k, next_m.(i))) in
          next_m.(i) <- next_m.(i) + 1;
          Hashtbl.replace seen (cache_key s) ();
          req Fill s)
    in
    let randoms = List.map (fun (_, mk) -> req Fill (random mk)) cold_random in
    scaled @ randoms
  in
  List.concat (List.init cold_rounds (fun _ -> round ()))

(* [count] never-seen measured requests, in rounds of the same make-up:
   a scaled game of every combination and [cold_random] random games,
   in an order the seed shuffles.  So every seed measures the same mix
   of work, and the seed picks the order and the random games.  A
   scaled request takes its combination's next multiplier from
   [next_m], so no two requests of one combination share a game (and
   requests of different combinations differ in game or tier), while
   every m stays small. *)
let cold_measured rng ~seen ~seed ~next_m count =
  let random = random_stream ~seen ~seed ~stream:3 in
  let slots =
    Array.of_list
      (List.init (Array.length cold_combos) (fun i -> `Scaled i)
      @ List.concat_map (fun (n, mk) -> List.init n (fun _ -> `Random mk)) cold_random)
  in
  let round () =
    let order = Array.copy slots in
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.to_list order
  in
  let one = function
    | `Scaled i ->
      let mk, fam, k = cold_combos.(i) in
      let m = next_m.(i) in
      next_m.(i) <- m + 1;
      let s = mk (Scaled (fam, k, m)) in
      Hashtbl.replace seen (cache_key s) ();
      req (Scaled_from (i, m)) s
    | `Random mk -> req Fresh (random mk)
  in
  let rec go acc n =
    if n <= 0 then List.rev acc
    else
      let r = round () in
      let take = List.filteri (fun i _ -> i < n) r in
      go (List.rev_append (List.map one take) acc) (n - List.length take)
  in
  go [] count

let shard_cold ~seed ~measured =
  let rng = Random.State.make [| seed; 0xc01d |] in
  let seen = Hashtbl.create 4096 in
  let bases =
    Array.to_list
      (Array.map (fun (mk, fam, k) -> req Fill (mk (Scaled (fam, k, 1)))) cold_combos)
  in
  List.iter (fun r -> Hashtbl.replace seen (cache_key r.spec) ()) bases;
  let next_m = Array.make (Array.length cold_combos) 2 in
  let warmup = cold_warmup ~seen ~seed ~next_m in
  let measured = cold_measured rng ~seen ~seed ~next_m measured in
  {
    kind = Shard_cold;
    setup = Array.of_list (bases @ warmup);
    measured = Array.of_list measured;
  }

(* --- shard-hot and cluster-mixed ------------------------------------- *)

let hot_weights = [ (0.40, Exhaustive); (0.30, Certified); (0.30, Correlated) ]

(* Share of shard-hot requests that hit one of the large tree games: at
   least 3 %, so p99 sits inside their mode (a few ms of parsing and
   fingerprinting, well above the transport and scheduling tail of the
   small hits) rather than in that tail. *)
let large_share = 0.03

let shard_hot ~seed ~measured =
  let rng = Random.State.make [| seed; 0x407 |] in
  let seen = Hashtbl.create 256 in
  let small = Array.of_list (List.map (req Fill) (hot_set ~seen seed)) in
  let large =
    Array.of_list
      (List.mapi
         (fun i mk -> req Fill (mk (Tree [| seed; 5; i |])))
         [
           nash;
           nash;
           certified;
           certified;
           correlated Bi_correlated.Concept.Cce;
           correlated Bi_correlated.Concept.Comm;
         ])
  in
  let setup = Array.append small large in
  let by_tier = indices_by_tier small in
  let one () =
    if Random.State.float rng 1. < large_share then begin
      let i = Array.length small + Random.State.int rng (Array.length large) in
      { (setup.(i)) with expect = Hit i }
    end
    else hit rng setup by_tier hot_weights
  in
  { kind = Shard_hot; setup; measured = Array.init measured (fun _ -> one ()) }

(* Share of cluster-mixed requests that are never-seen games: at least
   3 %, so p99 sits inside their mode rather than on its edge.  They are
   the gworst families at k = 6 with costs scaled by a new m each: one
   mode of a few ms of exhaustive solving, well above the hits, so p99
   measures that work rather than scheduling noise. *)
let fresh_share = 0.05

let cluster_weights = [ (0.45, Exhaustive); (0.25, Certified); (0.25, Correlated) ]

let cluster_mixed ~seed ~measured =
  let rng = Random.State.make [| seed; 0xc105 |] in
  let seen = Hashtbl.create 256 in
  let setup = Array.of_list (List.map (req Fill) (hot_set ~seen seed)) in
  let by_tier = indices_by_tier setup in
  let fresh =
    Array.of_list
      (List.map
         (fun fam ->
           let base = nash (Construction (fam, 6)) in
           let rec index i = if setup.(i).spec = base then i else index (i + 1) in
           (fam, index 0))
         [ "gworst-bliss"; "gworst-curse" ])
  in
  let next_m = Array.make (Array.length fresh) 2 in
  let one () =
    if Random.State.float rng 1. < fresh_share then begin
      let f = Random.State.int rng (Array.length fresh) in
      let fam, base = fresh.(f) in
      let m = next_m.(f) in
      next_m.(f) <- m + 1;
      req (Scaled_from (base, m)) (nash (Scaled (fam, 6, m)))
    end
    else hit rng setup by_tier cluster_weights
  in
  let rec go acc n = if n = 0 then List.rev acc else go (one () :: acc) (n - 1) in
  { kind = Cluster_mixed; setup; measured = Array.of_list (go [] measured) }

let make kind ~seed ~measured =
  match kind with
  | Shard_hot -> shard_hot ~seed ~measured
  | Shard_cold -> shard_cold ~seed ~measured
  | Cluster_mixed -> cluster_mixed ~seed ~measured
