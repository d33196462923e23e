(* Full reproduction harness for "Bayesian ignorance" (Alon, Emek,
   Feldman, Tennenholtz; PODC 2010 / TCS 2012).

   Regenerates every evaluation artifact of the paper:
   - Table 1 (the twelve ignorance bounds), row by row;
   - the two figures' constructions as k-series (Fig. 1: G_k;
     Fig. 2: G_worst);
   - the universal laws (Observation 2.2, Lemmas 3.1 and 3.8) on random
     corpora;
   - Section 4 (Proposition 4.2 and Lemma 4.1) exactly, by certified LP;
   plus bechamel micro-benchmarks of the computational kernels.

   Usage: dune exec bench/main.exe [-- [--jobs N] [--cache FILE] section ...]
   where section is any of: table1 figures checks sec4 ablations certified
   correlated micro.  The certified section cross-checks the certified
   solver tier against exhaustion on the overlap window, then pushes the
   Table-1 quantities to k = 20..50 with machine-checked certificates,
   writing its rows to BENCH_certified.json.  The correlated section
   cross-checks the exact-rational LP solver on the same window (every
   pure equilibrium inside both polytopes, values interleaving exactly,
   pub-best = optC) and quantifies the value of shared randomness on a
   beyond-window k-series, writing its rows to BENCH_correlated.json.
   With no section arguments, everything runs.  --jobs N (or BI_JOBS=N)
   runs the exhaustive solvers on N worker domains; results are
   bit-identical to --jobs 1.  --cache FILE attaches the
   content-addressed result cache backed by that append-only JSON-lines
   file: a warm rerun replays every exact result from the store and
   emits byte-identical tables.  Structured results are written as JSON
   lines to BENCH_results.json alongside the printed tables. *)

open Bayesian_ignorance
module Pool = Engine.Pool
module Sink = Engine.Sink

let sections =
  [
    ("table1", Table1.run);
    ("figures", Figures.run);
    ("checks", Checks.run);
    ("sec4", Sec4.run);
    ("ablations", Ablations.run);
    ("certified", Certified.run);
    ("correlated", Correlated_bench.run);
    ("micro", Micro.run);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--cache FILE] [--compare FILE] [section ...]\n\
     available sections: %s\n"
    (String.concat ", " (List.map fst sections));
  exit 1

let parse_args args =
  let rec go jobs cache acc = function
    | [] -> (jobs, cache, List.rev acc)
    | "--compare" :: rest -> (
      match rest with
      | path :: rest' ->
        Micro.compare_with := Some path;
        go jobs cache acc rest'
      | [] ->
        Printf.eprintf "--compare expects a baseline file argument\n";
        exit 1)
    | ("--jobs" | "-j") :: rest -> (
      match rest with
      | n :: rest' -> (
        match Pool.parse_jobs n with
        | Ok n -> go (Some n) cache acc rest'
        | Error e ->
          Printf.eprintf "--jobs: %s\n" e;
          exit 1)
      | [] ->
        Printf.eprintf "--jobs expects an argument\n";
        exit 1)
    | "--cache" :: rest -> (
      match rest with
      | path :: rest' -> go jobs (Some path) acc rest'
      | [] ->
        Printf.eprintf "--cache expects a file argument\n";
        exit 1)
    | s :: _ when String.length s > 0 && s.[0] = '-' ->
      Printf.eprintf "unknown option %S\n" s;
      usage ()
    | s :: rest -> go jobs cache (s :: acc) rest
  in
  go None None [] args

let () =
  (* A malformed BI_JOBS is an operator error, not a silent jobs=1 run. *)
  (match Pool.env_jobs () with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 1);
  let jobs_opt, cache_path, requested =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  let asked = match jobs_opt with Some n -> n | None -> Pool.default_size () in
  let jobs = Pool.recommended_jobs asked in
  let requested = if requested = [] then List.map fst sections else requested in
  List.iter
    (fun name -> if not (List.mem_assoc name sections) then usage ())
    requested;
  print_endline "Bayesian ignorance: reproduction benchmark suite";
  print_endline "(paper values are asymptotic; verdicts check the shape)";
  Printf.printf "(jobs = %d%s; structured results -> BENCH_results.json)\n" jobs
    (if jobs < asked then
       Printf.sprintf " — %d requested, clamped to the core count" asked
     else "");
  print_endline "";
  let pool = Pool.create jobs in
  let sink = Sink.create "BENCH_results.json" in
  let cache =
    Option.map (fun path -> Cache.Service.create ~store_path:path ()) cache_path
  in
  (* Bracketed like the timing footers so the warm-vs-cold byte-identity
     check can filter it out with the same rule. *)
  Option.iter
    (fun c ->
      let s = Cache.Service.stats c in
      Printf.printf
        "[cache: %s; %d entries replayed, %d invalid, %d quarantined]\n\n"
        (Option.get cache_path) s.Cache.Service.loaded s.Cache.Service.invalid
        s.Cache.Service.quarantined)
    cache;
  Sink.emit sink
    [
      ("record", Str "run");
      ("suite", Str "bayesian-ignorance bench");
      ("jobs", Int jobs);
      ("sections", List (List.map (fun s -> Sink.Str s) requested));
    ];
  Fun.protect
    ~finally:(fun () ->
      Option.iter Cache.Service.close cache;
      Sink.close sink;
      Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun name ->
          let run = List.assoc name sections in
          let (), span = Engine.Timer.timed (fun () -> run ~pool ~sink ~cache) in
          Format.printf "[%s: %a at jobs = %d]@.@." name Engine.Timer.pp_span
            span jobs;
          Sink.emit sink
            [
              ("record", Str "section");
              ("section", Str name);
              ("seconds", Float span.Engine.Timer.seconds);
              ("minor_words", Float span.Engine.Timer.minor_words);
              ("major_words", Float span.Engine.Timer.major_words);
              ("jobs", Int jobs);
            ])
        requested);
  (* A FAIL verdict or a micro regression reports in its section so every
     other requested section still runs; the process exit is what CI
     checks. *)
  if !Verdict.failed then exit 1
