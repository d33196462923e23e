(* Bechamel micro-benchmarks of the core solvers: one entry per heavy
   computational kernel used by the reproduction. *)

open Bayesian_ignorance
open Num
open Bechamel
open Toolkit

let grid = Graphs.Gen.grid_graph 8 8 Rat.one

let dijkstra_test =
  Test.make ~name:"dijkstra 8x8 grid"
    (Staged.stage (fun () -> ignore (Graphs.Graph.dijkstra grid 0)))

let steiner_test =
  Test.make ~name:"steiner DP, 5 terminals"
    (Staged.stage (fun () ->
         ignore
           (Graphs.Steiner_dp.steiner_cost grid ~root:0
              ~terminals:[ 7; 56; 63; 27; 36 ])))

let equilibria_test =
  let game = Constructions.Gworst_game.bliss_game 5 in
  Test.make ~name:"bayesian equilibria, G_worst k=5"
    (Staged.stage (fun () ->
         ignore (Seq.length (Ncs.Bayesian_ncs.bayesian_equilibria game))))

(* Certified-tier descent: every start of anshelevich k=8 descended to
   its fixpoint and certified (margins and value) through the evaluation
   kernel.  One call is ~50 us on a 2-vCPU host, and one per run fit at
   r² 0.84 in the committed baseline; each run makes four. *)
let descent_game =
  match Constructions.Registry.build "anshelevich" 8 with
  | Ok g -> g
  | Error e -> failwith e

let descent_test =
  Test.make ~name:"certified descent, anshelevich k=8 x4"
    (Staged.stage (fun () ->
         for _ = 1 to 4 do
           ignore (Sys.opaque_identity (Certify.Descent.equilibria descent_game))
         done))

(* Section 4 kernel: the certified LP for R~ of a fixed positive
   16x8 cost matrix — normalize, build the program, simplex to the
   optimum. *)
let section4_test =
  let phi =
    Minimax.Section4.make
      (Array.init 16 (fun i ->
           Array.init 8 (fun j -> Rat.of_int (1 + (((i * 7) + (j * 3) + (i * j)) mod 11)))))
  in
  Test.make ~name:"section 4 LP, 16x8"
    (Staged.stage (fun () -> ignore (Minimax.Section4.solve phi)))

(* Each run draws the same eight trees from fixed seeds: a generator
   shared across runs draws a different tree each run, so the work per
   run varies and the fit swings (r² 0.96 to 0.10 between bench runs
   on a 2-vCPU host). *)
let frt_test =
  let g = Graphs.Gen.grid_graph 4 4 Rat.one in
  Test.make ~name:"FRT tree on 4x4 grid, 8 seeds"
    (Staged.stage (fun () ->
         for seed = 1 to 8 do
           ignore (Sys.opaque_identity (Embed.Frt.sample (Random.State.make [| seed |]) g))
         done))

(* Kernels of a few hundred ns or less are too little work per run for
   a trustworthy OLS fit (the single divmod fit r² 0.61, the three small
   compares r² -0.90), so each run repeats them; the [xN] in the names
   keeps trajectory tooling from comparing them with the unbatched
   series. *)
let bigint_test =
  let a = Bigint.factorial 60 and b = Bigint.factorial 40 in
  Test.make ~name:"bigint divmod 60!/40! x64"
    (Staged.stage (fun () ->
         for _ = 1 to 64 do
           ignore (Sys.opaque_identity (Bigint.divmod a b))
         done))

(* Arithmetic kernels: the solvers spend their inner loops in Rat.add and
   Rat.compare on tiny values (per-edge shared costs), with occasional
   large operands from harmonic sums and powers.  Both regimes are
   measured so the fast-path/big split stays visible in the trajectory. *)

let small_rats = Array.init 24 (fun i -> Rat.of_ints 1 (i + 1))

(* One fold is ~3 us, which fit at r² 0.86: each run makes sixteen. *)
let rat_add_small_test =
  Test.make ~name:"rat add, small operands x16"
    (Staged.stage (fun () ->
         for _ = 1 to 16 do
           ignore (Sys.opaque_identity (Array.fold_left Rat.add Rat.zero small_rats))
         done))

let large_a = Rat.pow (Rat.of_ints 7 3) 40
let large_b = Rat.pow (Rat.of_ints 11 5) 35

let rat_add_large_test =
  Test.make ~name:"rat add, large operands"
    (Staged.stage (fun () ->
         ignore (Rat.add (Rat.add large_a large_b) (Rat.add large_b large_a))))

let rat_cmp_small_test =
  let x = Rat.of_ints 355 113 and y = Rat.of_ints 22 7 in
  let u = Rat.of_ints 5 6 and v = Rat.of_ints 13 15 in
  Test.make ~name:"rat compare, small operands x256"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         for _ = 1 to 256 do
           acc := !acc + Rat.compare x y + Rat.compare u v + Rat.compare x u
         done;
         ignore (Sys.opaque_identity !acc)))

(* A single fixed comparison is too little work per run: the ~0.25 µs
   signal drowns in loop and clock overhead and the OLS fit collapses
   (r² ≈ 0.10 in earlier trajectories).  Walk a batch of fresh,
   pairwise-distinct large operands instead — every run does 32 full
   cross-multiplication compares on multi-limb magnitudes, and the
   accumulated sum keeps the work observable.  (The kernel is named
   [x32] so trajectory tooling never compares it against the old
   single-compare series.) *)
let rat_cmp_large_pairs =
  Array.init 32 (fun i ->
      ( Rat.pow (Rat.of_ints (7 + i) 3) 40,
        Rat.pow (Rat.of_ints (15 + (2 * i)) 7) 38 ))

let rat_cmp_large_test =
  Test.make ~name:"rat compare, large operands x32"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         Array.iter
           (fun (x, y) -> acc := !acc + Rat.compare x y)
           rat_cmp_large_pairs;
         ignore (Sys.opaque_identity !acc)))

(* Per-profile cost kernel: social cost of every profile of a 4-agent
   complete-information NCS game (4 paths each: two parallel edges and
   two detours) — the innermost evaluation of the exhaustive solvers. *)
let profile_cost_game =
  let graph =
    Graphs.Graph.make Undirected ~n:4
      [
        (0, 1, Rat.one); (0, 1, Rat.of_ints 3 2); (0, 2, Rat.of_ints 1 2);
        (2, 1, Rat.one); (0, 3, Rat.of_ints 2 3); (3, 1, Rat.of_ints 1 3);
      ]
  in
  Ncs.Complete.make graph [| (0, 1); (0, 1); (0, 1); (0, 1) |]

let profile_cost_test =
  Test.make ~name:"profile cost, 4 agents x 4 paths"
    (Staged.stage (fun () ->
         ignore
           (Seq.fold_left
              (fun acc p -> Rat.add acc (Ncs.Complete.social_cost profile_cost_game p))
              Rat.zero
              (Ncs.Complete.profile_space profile_cost_game))))

(* Correlated kernel: a communication-equilibrium miss on gworst-curse
   k = 3, shard-cold's slowest LP mode — price the columns, assemble
   both polytopes, and solve all four LPs (the float guide proposes each
   basis, the exact loop rebuilds and proves it). *)
let correlated_game =
  match Constructions.Registry.build "gworst-curse" 3 with
  | Ok g -> g
  | Error e -> failwith e

let correlated_test =
  Test.make ~name:"correlated analyze, gworst-curse k=3 comm"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Correlated.Correlated.analyze ~concept:Correlated.Concept.Comm
                 correlated_game))))

(* Simplex pivot kernel: one basis update of the exact-rational revised
   simplex — rescale the pivot row, then eliminate the pivot column from
   the other 23 rows via the fused Rat.sub_mul — on a 24-row basis
   inverse of small rationals, the regime the correlated LPs live in.
   The update mutates in place, so each pivot works on a fresh copy;
   each run does eight of them (one fit r² 0.74). *)
let pivot_binv =
  Array.init 24 (fun i ->
      Array.init 24 (fun j -> Rat.of_ints (((i * 5) + (j * 3)) mod 11 - 5) (j + 2)))

let pivot_xb = Array.init 24 (fun i -> Rat.of_ints (i + 1) 3)
let pivot_column = Array.init 24 (fun i -> Rat.of_ints ((2 * i) + 1) 5)

let simplex_pivot_test =
  Test.make ~name:"simplex pivot, 24 rows x8"
    (Staged.stage (fun () ->
         for _ = 1 to 8 do
           let binv = Array.map Array.copy pivot_binv in
           let xb = Array.copy pivot_xb in
           Lp.Simplex.pivot ~binv ~xb ~column:pivot_column ~row:11
         done))

(* Cache-service kernels: the canonical fingerprint (serialize + hash a
   game description) and a service hit (mutex + LRU lookup + recency
   touch) — the per-request costs a warm analysis pays instead of the
   exhaustive solve.  One call of either is a few hundred ns to a few
   µs, too little work per run for a trustworthy OLS fit (r² 0.06 and
   0.10 unbatched), so each run repeats it; the [xN] in the names keeps
   trajectory tooling from comparing them with the unbatched series.
   The fingerprint went from x64 to x256 when x64 fit at r² 0.89.  The
   hit is the byte lookup the server calls ([Service.lookup]). *)

let fingerprint_game = Constructions.Gworst_game.bliss_game 5

let fingerprint_test =
  Test.make ~name:"canonical fingerprint, G_worst k=5 x256"
    (Staged.stage (fun () ->
         for _ = 1 to 256 do
           ignore (Sys.opaque_identity (Cache.Fingerprint.of_game fingerprint_game))
         done))

let cache_hit_test =
  let service = Cache.Service.create ~capacity:64 () in
  let key = Cache.Fingerprint.of_game fingerprint_game in
  Cache.Service.insert service key
    (Cache.Service.Payload (Engine.Sink.Str "warm"));
  Test.make ~name:"cache hit, in-memory LRU x4096"
    (Staged.stage (fun () ->
         for _ = 1 to 4096 do
           ignore (Sys.opaque_identity (Cache.Service.lookup service key))
         done))

(* A hit's answer, per tier: the byte lookup and the answer line the
   server writes for it — a fixed header, the tier member and the
   body's stored bytes.  Each run answers 256 hits. *)
let serve_hit_test label tier name k =
  let game =
    match Constructions.Registry.build name k with
    | Ok g -> g
    | Error e -> failwith e
  in
  let key = Serve.Tier.key tier (Cache.Fingerprint.of_game game) in
  let service = Cache.Service.create ~capacity:64 () in
  (match Serve.Tier.solve ~verify:false tier game with
  | Ok v -> Cache.Service.insert service key v
  | Error e -> failwith e);
  Test.make ~name:("serve hit response, " ^ label ^ " x256")
    (Staged.stage (fun () ->
         for _ = 1 to 256 do
           match Cache.Service.lookup service key with
           | Some e ->
             ignore
               (Sys.opaque_identity
                  (Serve.Tier.response tier ~fingerprint:key ~cached:true
                     e.Cache.Store.body))
           | None -> assert false
         done))

let serve_hit_tests =
  [
    serve_hit_test "nash analysis, gworst-curse k=4" Serve.Tier.Exhaustive
      "gworst-curse" 4;
    serve_hit_test "certified, anshelevich k=8" Serve.Tier.Certified
      "anshelevich" 8;
    serve_hit_test "cce, gworst-curse k=3"
      (Serve.Tier.Correlated Correlated.Concept.Cce) "gworst-curse" 3;
  ]

(* The read path of a hit on a large inline game: parse the ~20 KB
   request line of a random 1500-vertex tree game (a [LCG] draws the
   tree so the line never depends on the stdlib's [Random]) and
   fingerprint what it describes.  Its costs are one digit each; its
   twin writes each as 20 digits, past the machine word, so every cost
   takes the [Rat] route. *)
let tree_line cost =
  let state = ref 42 in
  let next bound =
    state := ((!state * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    (!state lsr 17) mod bound
  in
  let n = 1500 in
  let edges =
    List.init (n - 1) (fun v -> (next (v + 1), v + 1, cost (1 + next 9)))
  in
  let graph = Graphs.Graph.make Undirected ~n edges in
  let prior = Prob.Dist.make [ ([| (next n, next n); (next n, next n) |], Rat.one) ] in
  Engine.Sink.to_string (Serve.Protocol.analyze_request graph ~prior)

let tree_hit_test name line =
  Test.make ~name
    (Staged.stage (fun () ->
         match Serve.Protocol.parse_request line with
         | Ok { Serve.Protocol.query = Serve.Protocol.Analyze { graph; prior; _ }; _ } ->
           ignore (Sys.opaque_identity (Cache.Fingerprint.game graph ~prior))
         | _ -> assert false))

let tree_hit_tests =
  let wide c =
    Rat.of_bigint (Bigint.add (Bigint.of_string "10000000000000000000") (Bigint.of_int c))
  in
  [
    tree_hit_test "wire parse + fingerprint, 1500-vertex tree line" (tree_line Rat.of_int);
    tree_hit_test "wire parse + fingerprint, 1500-vertex tree line, 20-digit costs"
      (tree_line wide);
  ]

(* Digest-rollup kernel: fold 10k resident (key, check) pairs into the
   256-bucket md5 rollup that anti-entropy rounds and online fsck
   exchange — the fixed per-round cost of the repair subsystem. *)
let rollup_service =
  let service = Cache.Service.create ~capacity:10_240 () in
  for i = 0 to 9_999 do
    Cache.Service.insert service
      (Cache.Fingerprint.digest_hex (string_of_int i))
      (Cache.Service.Payload (Engine.Sink.Int i))
  done;
  service

let digest_rollup_test =
  Test.make ~name:"digest rollup, 10k entries"
    (Staged.stage (fun () ->
         ignore (Cache.Service.digest_rollup rollup_service)))

(* The gate's yardstick: fixed work that calls no code of this
   program, so no change to the program moves it while host speed
   moves it like every other kernel.  It mixes what the kernels spend
   their time on — allocation, integer division, hashing, sorting and
   pointer chasing — driven by an LCG so it never depends on the
   stdlib's [Random]. *)
let reference_kernel = "reference, stdlib only"
let reference_name = "kernels/" ^ reference_kernel

let reference_test =
  Test.make ~name:reference_kernel
    (Staged.stage (fun () ->
         let x = ref 0x2545F491 in
         let next () =
           x := ((!x * 1103515245) + 12345) land 0x3fffffff;
           !x
         in
         let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
         let h = Hashtbl.create 256 in
         let fractions =
           List.init 512 (fun i ->
               let p = 1 + (next () mod 997) and q = 1 + (next () mod 991) in
               let g = gcd p q in
               Hashtbl.replace h (i land 255) (p / g, q / g);
               (p / g, q / g))
         in
         let sorted =
           List.sort (fun (a, b) (c, d) -> compare (a * d) (c * b)) fractions
         in
         ignore
           (Sys.opaque_identity
              (Hashtbl.fold (fun _ (p, q) acc -> acc + p - q) h (List.length sorted)))))

let benchmark () =
  let tests =
    Test.make_grouped ~name:"kernels"
      ([
         reference_test; bigint_test; rat_add_small_test; rat_add_large_test;
         rat_cmp_small_test; rat_cmp_large_test; simplex_pivot_test;
         profile_cost_test; dijkstra_test; steiner_test; equilibria_test;
         descent_test; section4_test; correlated_test; frt_test; fingerprint_test;
         cache_hit_test; digest_rollup_test;
       ]
      @ tree_hit_tests @ serve_hit_tests)
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 256) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw_results in
  (Analyze.merge ols instances [ results ], raw_results)

let () =
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ minor_allocated; major_allocated; monotonic_clock ]

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window
    ~predictor:Measure.run results

(* Per-kernel estimates in a plain form: (name, ns_per_run, r²). *)
let estimate_rows results =
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> []
  | Some by_name ->
    let rows =
      Hashtbl.fold
        (fun name ols acc ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Some e
            | _ -> None
          in
          (name, ns, Analyze.OLS.r_square ols) :: acc)
        by_name []
    in
    List.sort compare rows

(* Persist the per-kernel OLS estimates as JSON lines so the bench
   trajectory has machine-readable points to compare successive PRs
   against (BENCH_micro.json, sibling of BENCH_results.json). *)
let persist_estimates rows =
  let micro_sink = Engine.Sink.create "BENCH_micro.json" in
  Engine.Sink.emit micro_sink
    [ ("record", Str "run"); ("suite", Str "micro kernels") ];
  List.iter
    (fun (name, ns, r2) ->
      let opt_float = function
        | Some v -> Engine.Sink.Float v
        | None -> Engine.Sink.Null
      in
      Engine.Sink.emit micro_sink
        [
          ("record", Str "micro");
          ("name", Str name);
          ("ns_per_run", opt_float ns);
          ("r_square", opt_float r2);
        ])
    rows;
  Engine.Sink.close micro_sink

(* OLS fits below this are measuring noise, not the kernel; the footer
   names them so a silently broken harness shows up in the transcript. *)
let r2_floor = 0.9

let r2_footer rows =
  let fits = List.filter_map (fun (_, _, r2) -> r2) rows in
  match fits with
  | [] -> print_endline "(r-square sanity: no OLS fits reported)"
  | _ ->
    let low =
      List.filter
        (fun (_, _, r2) -> match r2 with Some r -> r < r2_floor | None -> true)
        rows
    in
    let min_r2 = List.fold_left Stdlib.min 1.0 fits in
    if low = [] then
      Printf.printf "(r-square sanity: all %d kernels >= %.2f, min %.3f)\n"
        (List.length rows) r2_floor min_r2
    else begin
      Printf.printf "(r-square sanity: min %.3f; below %.2f:" min_r2 r2_floor;
      List.iter
        (fun (name, _, r2) ->
          Printf.printf " %s=%s" name
            (match r2 with Some r -> Printf.sprintf "%.3f" r | None -> "n/a"))
        low;
      print_endline ")"
    end

(* --compare: per-kernel speedup against a committed baseline file, with
   a regression gate.  Host speed drifts by half again within minutes,
   so raw nanoseconds compare hosts, not programs: each kernel is gated
   on its time relative to the reference kernel of the same run,
   against the same ratio in the baseline.  The baseline is read before
   the sink truncates BENCH_micro.json, so comparing a run against its
   own previous output file works.  Kernels present on only one side
   are reported but not gated — renames and new kernels are not
   regressions. *)

let compare_with : string option ref = ref None
let regression_tolerance = 1.25

let load_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
    Printf.eprintf "--compare: %s\n" e;
    exit 1
  | body ->
    String.split_on_char '\n' body
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match Engine.Sink.of_string line with
             | Error _ -> None
             | Ok j -> (
               match
                 ( Engine.Sink.member "record" j,
                   Engine.Sink.member "name" j,
                   Engine.Sink.member "ns_per_run" j )
               with
               | Some (Str "micro"), Some (Str name), Some (Float ns) ->
                 Some (name, ns)
               | Some (Str "micro"), Some (Str name), Some (Int ns) ->
                 Some (name, float_of_int ns)
               | _ -> None))

let print_comparison baseline rows =
  print_endline "";
  let now_reference =
    List.find_map
      (fun (name, ns, _) -> if name = reference_name then ns else None)
      rows
  in
  match (List.assoc_opt reference_name baseline, now_reference) with
  | None, _ ->
    Printf.printf
      "regression gate: the baseline has no %S row; re-baseline (run the \
       micro section and commit its BENCH_micro.json)\n"
      reference_name;
    Verdict.failed := true
  | _, None ->
    Printf.printf "regression gate: no estimate for %S in this run\n"
      reference_name;
    Verdict.failed := true
  | Some base_ref, Some now_ref ->
    Printf.printf "%-56s %11s %11s %9s\n" "vs baseline (time / reference)"
      "base" "now" "speedup";
    let worst = ref None in
    List.iter
      (fun (name, ns, _) ->
        match (ns, List.assoc_opt name baseline) with
        | _ when name = reference_name -> ()
        | Some now, Some base ->
          let base = base /. base_ref and now = now /. now_ref in
          let speedup = base /. now in
          let flag =
            if now > base *. regression_tolerance then begin
              (match !worst with
              | Some (_, w) when w <= speedup -> ()
              | _ -> worst := Some (name, speedup));
              "  REGRESSION"
            end
            else ""
          in
          Printf.printf "%-56s %11.3f %11.3f %8.2fx%s\n" name base now speedup
            flag
        | Some now, None ->
          Printf.printf "%-56s %11s %11.3f %9s\n" name "-" (now /. now_ref) "new"
        | None, _ -> ())
      rows;
    List.iter
      (fun (name, base) ->
        if not (List.exists (fun (n, _, _) -> n = name) rows) then
          Printf.printf "%-56s %11.3f %11s %9s\n" name (base /. base_ref) "-"
            "gone")
      baseline;
    Printf.printf "(reference kernel: %.0f ns/run now, %.0f in the baseline)\n"
      now_ref base_ref;
    (match !worst with
    | Some (name, speedup) ->
      Printf.printf
        "regression gate: %s slowed to %.2fx of baseline relative to the \
         reference (tolerance %.2fx)\n"
        name (1. /. speedup) regression_tolerance;
      Verdict.failed := true
    | None ->
      Printf.printf
        "regression gate: no kernel beyond %.0f%% of baseline relative to the \
         reference\n"
        ((regression_tolerance -. 1.) *. 100.))

let run ~pool:_ ~sink:_ ~cache:_ =
  print_endline "=== Micro-benchmarks (bechamel) ===";
  print_endline "";
  let baseline = Option.map load_baseline !compare_with in
  let results, _ = benchmark () in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  img (window, results) |> Notty_unix.eol |> Notty_unix.output_image;
  let rows = estimate_rows results in
  persist_estimates rows;
  print_endline "(per-kernel OLS estimates -> BENCH_micro.json)";
  r2_footer rows;
  Option.iter (fun b -> print_comparison b rows) baseline;
  print_endline ""
