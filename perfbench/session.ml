(* One benchmark run: set the program up several times, drive the
   measured requests closed-loop through the last set-up with the host
   calibrated between blocks, check every answer, recompute a sample
   in-process, and (traced) replay the measured requests through the
   layers in-process. *)

module Sink = Bi_engine.Sink
module Protocol = Bi_serve.Protocol

(* Closed-loop connections of the load process: one per core of the
   reference host, like callers that each wait for their reply. *)
let conns = 2

(* Set-ups per run; [setup_s] is their median. *)
let setup_reps = 3

(* Measured requests replayed in-process by a traced run. *)
let replay_count = function
  | Workload.Shard_hot -> 2000
  | Workload.Shard_cold -> 300
  | Workload.Cluster_mixed -> 1000

(* Never-seen games (and fill answers) recomputed in-process per run. *)
let recompute_sample = 12

type options = {
  kind : Workload.kind;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  bi : string;  (* the program binary *)
  root : string;  (* run directories and results, inside the checkout *)
}

type e2e = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
}

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (* the first few, for the log *)
  e2e : e2e list;
  per_layer : (string * float * string) list;
  notes : (string * Sink.json) list;  (* everything else worth keeping *)
}

(* --- run directories and processes ------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

type instance = {
  dir : string;
  procs : Proc.t list;  (* the router first, then the shards *)
  target : string;  (* socket the load process drives *)
  shards : string list;  (* shard sockets, as seen from here *)
  members : string list;  (* shard addresses as the router names them *)
}

let sock i = Printf.sprintf "s%d.sock" i

let stop_all procs =
  List.map (fun p -> (p.Proc.name, Proc.stop p)) procs

let health_members inst =
  match Sink.of_string (Loadgen.exchange ~path:inst.target (Sink.to_string Protocol.health_request)) with
  | Ok j -> (
    match Sink.member "members" j with
    | Some (Sink.Obj ms) -> List.map (fun (m, s) -> (m, s = Sink.Str "up")) ms
    | _ -> [])
  | Error _ -> []

(* Spawns the workload's processes in [dir] and returns once each has
   printed its readiness banner (and, for the cluster, once the router's
   [health] lists every member up). *)
let start ~bi ~dir kind =
  let spawned = ref [] in
  let spawn name args =
    let p = Proc.spawn ~dir ~exe:bi ~name args in
    spawned := p :: !spawned;
    p
  in
  let ready prefix p =
    match Proc.banner p with
    | Ok b when String.starts_with ~prefix b -> ()
    | Ok b -> failwith (Printf.sprintf "%s: unexpected banner %S" p.Proc.name b)
    | Error e -> failwith e
  in
  try
    let n = if kind = Workload.Cluster_mixed then 3 else 1 in
    let shards =
      List.init n (fun i ->
          spawn (Printf.sprintf "shard%d" i)
            [ "serve"; "--socket"; sock i; "--cache"; Printf.sprintf "s%d.jsonl" i ])
    in
    List.iter (ready "bi serve: unix socket") shards;
    let shard_paths = List.init n (fun i -> Filename.concat dir (sock i)) in
    match kind with
    | Workload.Cluster_mixed ->
      let members = List.init n (fun i -> "./" ^ sock i) in
      let router =
        spawn "router"
          [ "router"; "--socket"; "router.sock"; "--members"; String.concat "," members ]
      in
      ready "bi router: unix socket" router;
      let inst =
        {
          dir;
          procs = router :: shards;
          target = Filename.concat dir "router.sock";
          shards = shard_paths;
          members;
        }
      in
      (* The router probes every member as it starts; its first probe
         round lands within one probe interval of the banner. *)
      let rec up tries =
        let states = health_members inst in
        if List.length states = n && List.for_all snd states then ()
        else if tries = 0 then failwith "router health: not every member is up"
        else begin
          Unix.sleepf Bi_router.Router.default_config.probe_interval_s;
          up (tries - 1)
        end
      in
      up 8;
      inst
    | _ ->
      { dir; procs = shards; target = List.hd shard_paths; shards = shard_paths; members = [] }
  with e ->
    ignore (stop_all !spawned);
    raise e

(* --- set-up ------------------------------------------------------------ *)

type fill = { answers : string array; sent : int; bad : int }

let lines reqs = Array.map (fun (r : Workload.req) -> r.line) reqs

let count_bad ok = Array.fold_left (fun a b -> if b then a else a + 1) 0 ok

(* Sends the set-up list; in the cluster, certified and correlated
   answers are then written to every owner with a router [put], so the
   replicas agree before measuring and anti-entropy has nothing left to
   repair while the measured phase runs. *)
let fill inst (w : Workload.t) =
  let answers = Array.make (Array.length w.setup) "" in
  let r =
    Loadgen.run ~conns ~path:inst.target (lines w.setup) (fun i line ->
        answers.(i) <- line;
        Check.is_fresh_ok line)
  in
  let bad = count_bad r.Loadgen.ok in
  if w.kind <> Workload.Cluster_mixed then
    { answers; sent = Array.length answers; bad }
  else
    let puts =
      Array.to_list w.setup
      |> List.mapi (fun i (req : Workload.req) -> (i, req))
      |> List.filter_map (fun (i, (req : Workload.req)) ->
             let tier = Games.tier req.spec in
             if tier = Games.Exhaustive then None
             else
               match Check.payload tier answers.(i) with
               | Ok (j, body) -> (
                 match Sink.member "fingerprint" j with
                 | Some (Sink.Str fingerprint) ->
                   Some
                     (Sink.to_string
                        (Protocol.put_request ~kind:"payload" ~fingerprint body))
                 | _ -> None)
               | Error _ -> None)
      |> Array.of_list
    in
    let p =
      Loadgen.run ~conns ~path:inst.target puts (fun _ line ->
          match Sink.of_string line with
          | Ok j -> Protocol.is_ok j
          | Error _ -> false)
    in
    {
      answers;
      sent = Array.length answers + Array.length puts;
      bad = bad + count_bad p.Loadgen.ok;
    }

(* --- measuring --------------------------------------------------------- *)

let now_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let program_cpu inst = List.fold_left (fun a p -> a +. Proc.cpu_seconds p) 0. inst.procs

let stats path =
  match Sink.of_string (Loadgen.exchange ~path (Sink.to_string Protocol.stats_request)) with
  | Ok j -> j
  | Error _ -> Sink.Null

let int_at path j =
  let rec go j = function
    | [] -> ( match j with Sink.Int n -> n | _ -> 0)
    | k :: rest -> ( match Sink.member k j with Some v -> go v rest | None -> 0)
  in
  go j path

(* Host-wide (steal, total) CPU ticks from /proc/stat: the share of time
   the hypervisor gave the host's vCPUs to other guests.  A diagnostic
   beside the probe, never gated. *)
let host_ticks () =
  match Proc.read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
    match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
    | "cpu" :: fields ->
      let ticks = List.filter_map int_of_string_opt fields in
      ((match List.nth_opt ticks 7 with Some t -> t | None -> 0), List.fold_left ( + ) 0 ticks)
    | _ -> (0, 0))

(* --- counters ---------------------------------------------------------- *)

let sum_delta before after path =
  List.fold_left2 (fun a b0 b1 -> a + int_at path b1 - int_at path b0) 0 before after

(* Solver work summed over the payloads of the measured requests that
   computed (every request but a hit). *)
let solver_counters (w : Workload.t) kept =
  let profiles = ref 0. and starts = ref 0 and nodes = ref 0 and equilibria = ref 0 in
  let pivots = ref 0 and columns = ref 0 in
  Array.iteri
    (fun i (r : Workload.req) ->
      match r.expect with
      | Workload.Hit _ -> ()
      | _ -> (
        let tier = Games.tier r.spec in
        match (tier, Check.payload tier kept.(i)) with
        | Games.Exhaustive, _ ->
          profiles := !profiles +. Bi_ncs.Bayesian_ncs.valid_profile_count (Games.build r.spec)
        | Games.Certified, Ok (_, p) ->
          starts := !starts + int_at [ "descent_starts" ] p;
          nodes := !nodes + int_at [ "bnb_nodes" ] p;
          equilibria := !equilibria + int_at [ "equilibria" ] p
        | Games.Correlated, Ok (_, p) ->
          pivots :=
            !pivots
            + List.fold_left (fun a q -> a + int_at [ "pivots"; q ] p) 0
                [ "best"; "worst"; "pub_best"; "pub_worst" ];
          columns := !columns + int_at [ "columns" ] p
        | _, Error _ -> ()))
    w.measured;
  [
    ("ncs.profiles", !profiles);
    ("certify.descent_starts", float_of_int !starts);
    ("certify.bnb_nodes", float_of_int !nodes);
    ("certify.equilibria", float_of_int !equilibria);
    ("lp.pivots", float_of_int !pivots);
    ("lp.columns", float_of_int !columns);
  ]

(* Deterministic sample of [k] elements of [l]. *)
let sample rng k l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = 0 to min k n - 1 do
    let j = i + Random.State.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min k n))

(* The measured requests split, in send order, into [blocks] runs of
   consecutive requests, with the host calibrated between every two
   (and before the first, after the last).  Each timed end-to-end
   number is the median of its calibrated per-block values: a host slow
   phase then moves a few blocks, not the result. *)
let blocks = 16

let block_bounds n b = (b * n / blocks, (b + 1) * n / blocks)

(* The block request [i] of [n] falls in. *)
let block_of n i = (((i + 1) * blocks) - 1) / n

(* Blocks without a sample of the quantity (only possible in a smoke
   run's tiny blocks) are left out. *)
let median_over_blocks f =
  Stats.median (Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (List.init blocks f)))

(* p99 is the median of per-block p99s over blocks of at least
   [Workload.min_measured] requests (so each has ten samples beyond its
   p99), at most [blocks] of them. *)
let p99_over_blocks lat =
  let n = Array.length lat in
  let k = max 1 (min blocks (n / Workload.min_measured)) in
  Stats.median
    (Array.init k (fun b ->
         let lo = b * n / k and hi = (b + 1) * n / k in
         Stats.percentile (Array.sub lat lo (hi - lo)) 99.))

(* Requests per second of block [b]: its successes over the time from
   its first send to its last answer. *)
let block_rps (res : Loadgen.result) b =
  let lo, hi = block_bounds (Array.length res.send_at) b in
  let last = ref 0. and ok = ref 0 in
  for i = lo to hi - 1 do
    last := Float.max !last (res.send_at.(i) +. res.latency_s.(i));
    if res.ok.(i) then incr ok
  done;
  float_of_int !ok /. (!last -. res.send_at.(lo))

(* --- one run ----------------------------------------------------------- *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let run o =
  let reference = Calib.start () in
  Fun.protect ~finally:(fun () -> Calib.stop reference) @@ fun () ->
  let calibrate () = Calib.measure reference in
  let calibrate_before = calibrate () in
  let measured =
    if o.smoke then 40
    else max Workload.min_measured (o.seconds * Workload.nominal_rate o.kind)
  in
  let w = Workload.make o.kind ~seed:o.seed ~measured in
  let reps = if o.smoke then 1 else setup_reps in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] and warnings = ref [] in
  let fail why =
    incr failed;
    if List.length !failures < 8 then failures := why :: !failures
  in
  let live = ref None in
  (* Stops and reaps every process of [inst]; the run directory goes
     too unless a process misbehaved, so its logs stay for a look. *)
  let stop inst =
    live := None;
    let clean =
      List.for_all
        (fun (name, r) ->
          match r with
          | Ok "exit 0" -> true
          | Ok status ->
            warnings := Printf.sprintf "%s: %s" name status :: !warnings;
            false
          | Error e ->
            fail e;
            false)
        (stop_all inst.procs)
    in
    if clean then rm_rf inst.dir
  in
  Fun.protect
    ~finally:(fun () -> Option.iter stop !live)
    (fun () ->
      let setups =
        List.init reps (fun rep ->
            let dir =
              Filename.concat o.root (Printf.sprintf "run-%d-%d" (Unix.getpid ()) rep)
            in
            rm_rf dir;
            mkdir_p dir;
            let t0 = Unix.gettimeofday () in
            let inst = start ~bi:o.bi ~dir o.kind in
            live := Some inst;
            let f = fill inst w in
            let t = Unix.gettimeofday () -. t0 in
            attempted := !attempted + f.sent;
            if f.bad > 0 then fail (Printf.sprintf "set-up: %d wrong answers" f.bad);
            if rep < reps - 1 then stop inst;
            (inst, f, t))
      in
      let inst, f, _ = List.nth setups (reps - 1) in
      (* Every set-up computes the same answers, byte for byte. *)
      List.iteri
        (fun rep (_, (g : fill), _) ->
          if g.answers <> f.answers then
            fail (Printf.sprintf "set-up %d answered differently from the last" rep))
        setups;
      let setup_times = Array.of_list (List.map (fun (_, _, t) -> t) setups) in
      let answers = f.answers in
      (* --- measured phase --- *)
      let n = Array.length w.measured in
      let replayed = if o.trace then min n (replay_count o.kind) else 0 in
      let hit_lines = Array.map Check.expected_hit answers in
      let bases = Hashtbl.create 64 in
      let base_payload j tier =
        match Hashtbl.find_opt bases j with
        | Some p -> p
        | None ->
          let p =
            match Check.payload tier answers.(j) with Ok (_, p) -> p | Error _ -> Sink.Null
          in
          Hashtbl.replace bases j p;
          p
      in
      let kept = Array.make n "" in
      let answer i line =
        let r = w.measured.(i) in
        let verdict =
          match r.expect with
          | Workload.Hit j ->
            if Some line = hit_lines.(j) then Ok ()
            else Error "hit differs from its fill answer"
          | Workload.Scaled_from (j, m) ->
            let tier = Games.tier r.spec in
            Check.scaled tier ~base:(base_payload j tier) ~m line
          | Workload.Fresh | Workload.Fill ->
            if Check.is_fresh_ok line then Ok ()
            else Error "never-seen game not answered fresh"
        in
        (match r.expect with
        | Workload.Hit _ when i >= replayed -> ()
        | _ -> kept.(i) <- line);
        match verdict with
        | Ok () -> true
        | Error e ->
          fail (Printf.sprintf "request %d: %s" i e);
          false
      in
      let cluster = o.kind = Workload.Cluster_mixed in
      let snapshot () =
        if o.trace then
          (List.map stats inst.shards, if cluster then [ stats inst.target ] else [])
        else ([], [])
      in
      let shards0, router0 = snapshot () in
      (* Program CPU at the start of every block, and at the end; the
         host calibrated at the start of every block (with nothing in
         flight), and at the end. *)
      let block_cpu = Array.make (blocks + 1) 0. in
      let cal = Array.make (blocks + 1) calibrate_before in
      let starts_block i = fst (block_bounds n (block_of n i)) = i in
      let at_barrier i = cal.(block_of n i) <- calibrate () in
      let before_send i = if starts_block i then block_cpu.(block_of n i) <- program_cpu inst in
      let self0 = now_cpu () and words0 = Gc.minor_words () in
      let host0 = host_ticks () in
      let res =
        Loadgen.run ~conns ~before_send ~barrier:starts_block ~at_barrier ~path:inst.target
          (lines w.measured) answer
      in
      block_cpu.(blocks) <- program_cpu inst;
      cal.(blocks) <- calibrate ();
      let host1 = host_ticks () in
      let self1 = now_cpu () and words1 = Gc.minor_words () in
      let shards1, router1 = snapshot () in
      attempted := !attempted + n;
      let rss = List.fold_left (fun a p -> a +. Proc.peak_rss_mb p) 0. inst.procs in
      let procs = List.length inst.procs in
      (* --- traced: in-process replay, while the cluster's shards run --- *)
      let replay =
        if not o.trace then None
        else begin
          let cluster =
            if not cluster then None
            else
              Some
                {
                  Replay.ring =
                    Bi_router.Ring.create
                      ~vnodes:Bi_router.Router.default_config.vnodes inst.members;
                  replicas = Bi_router.Router.default_config.replicas;
                  path_of = (fun m -> Filename.concat inst.dir (Filename.basename m));
                }
          in
          let t =
            Replay.create ?cluster ~store_path:(Filename.concat inst.dir "replay.jsonl") ()
          in
          Array.iteri (fun i (r : Workload.req) -> Replay.preload t r.spec answers.(i)) w.setup;
          for i = 0 to replayed - 1 do
            Replay.one t ~req:i w.measured.(i) kept.(i)
          done;
          Bi_cache.Service.close t.Replay.svc;
          attempted := !attempted + replayed;
          List.iter
            (fun (i, why) -> fail (Printf.sprintf "replay of request %d: %s" i why))
            (List.rev t.Replay.mismatches);
          Some t
        end
      in
      stop inst;
      (* --- in-process recompute of a seeded sample --- *)
      let rng = Random.State.make [| o.seed; 0x5a3 |] in
      let fresh =
        List.filter_map
          (fun i ->
            let r = w.measured.(i) in
            if r.expect = Workload.Fresh then Some (r.spec, kept.(i)) else None)
          (List.init n Fun.id)
      in
      let fills = List.init (Array.length w.setup) (fun i -> (w.setup.(i).spec, answers.(i))) in
      let checks =
        match o.kind with
        | Workload.Shard_cold ->
          List.filteri (fun i _ -> i < Array.length Workload.cold_combos) fills
          @ sample rng recompute_sample fresh
        | Workload.Shard_hot -> sample rng recompute_sample fills
        | Workload.Cluster_mixed ->
          sample rng (recompute_sample / 2) fills @ sample rng recompute_sample fresh
      in
      List.iter
        (fun (spec, line) ->
          incr attempted;
          if Games.expected_response spec <> line then
            fail ("recomputed answer differs: " ^ Games.line spec))
        checks;
      let calibrate_after = calibrate () in
      (* --- metrics --- *)
      let wall_f = Array.init blocks (fun b -> Calib.wall_factor cal.(b) cal.(b + 1)) in
      (* The set-ups ran between the first calibration and the one
         before the first block. *)
      let setup_f = Calib.wall_factor calibrate_before cal.(0) in
      let rtt_f = Array.init blocks (fun b -> Calib.rtt_factor cal.(b) cal.(b + 1)) in
      let cpu_f = Array.init blocks (fun b -> Calib.cpu_factor cal.(b) cal.(b + 1)) in
      let raw_lat_ms = Array.map (fun s -> s *. 1e3) res.Loadgen.latency_s in
      let rescale f = Array.mapi (fun i l -> l /. f.(block_of n i)) raw_lat_ms in
      let tail_ms = rescale wall_f and typical_ms = rescale rtt_f in
      let block_p50 lat_ms keep b =
        let lo, hi = block_bounds n b in
        let a =
          Array.of_list
            (List.filter_map
               (fun i -> if keep i then Some lat_ms.(i) else None)
               (List.init (hi - lo) (fun k -> lo + k)))
        in
        if a = [||] then nan else Stats.percentile a 50.
      in
      let m name value unit_ samples = { name; value; unit_; samples } in
      let tier_count t =
        Array.fold_left
          (fun a (r : Workload.req) -> if Games.tier r.spec = t then a + 1 else a)
          0 w.measured
      in
      (* The end-to-end numbers, at the reference host's speed
         ([calibrated]) or as timed on this host. *)
      let end_to_end calibrated =
        let pick calibrated_value raw = if calibrated then calibrated_value else raw in
        let lat_ms = pick typical_ms raw_lat_ms and tail_ms = pick tail_ms raw_lat_ms in
        let wall b = pick wall_f.(b) 1. and cpu b = pick cpu_f.(b) 1. in
        [
          m "throughput_rps" (median_over_blocks (fun b -> block_rps res b *. wall b)) "1/s" n;
          m "latency_p50_ms" (median_over_blocks (block_p50 lat_ms (fun _ -> true))) "ms" n;
          m "latency_p99_ms" (p99_over_blocks tail_ms) "ms" n;
        ]
        @ List.map
            (fun t ->
              m
                (Games.tier_name t ^ "_p50_ms")
                (median_over_blocks
                   (block_p50 lat_ms (fun i -> Games.tier w.measured.(i).spec = t)))
                "ms" (tier_count t))
            Games.tiers
        @ [
            m "cpu_us_per_req"
              (median_over_blocks (fun b ->
                   let lo, hi = block_bounds n b in
                   (block_cpu.(b + 1) -. block_cpu.(b)) *. 1e6 /. float_of_int (hi - lo) /. cpu b))
              "us" n;
            m "setup_s" (Stats.median setup_times /. pick setup_f 1.) "s" reps;
            m "peak_rss_mb" rss "MB" procs;
          ]
      in
      let e2e = end_to_end true and raw = end_to_end false in
      let loadgen_us = (self1 -. self0) *. 1e6 /. float_of_int n in
      let per_layer =
        match replay with
        | None -> []
        | Some t ->
          let layers, unaccounted_us =
            Replay.summarise t ~root_latency_s:res.Loadgen.latency_s
              ~root_words:((words1 -. words0) /. float_of_int n)
          in
          let fresh_count =
            Array.fold_left (fun a r -> if Workload.never_seen r then a + 1 else a) 0 w.measured
          in
          let sd = sum_delta shards0 shards1 and rd = sum_delta router0 router1 in
          let hits = sd [ "server"; "hits" ] and misses = sd [ "server"; "misses" ] in
          let request_path path = rd path - rd [ "router"; "repairs" ] - rd [ "router"; "warmed" ] in
          List.concat_map
            (fun (l, (s : Replay.layer_summary)) ->
              [
                (l ^ ".calls", float_of_int s.calls, "count");
                (l ^ ".p50_us", s.p50_us, "us");
                (l ^ ".self_ms", s.self_ms, "ms");
                (l ^ ".minor_words", s.minor_words, "words");
              ])
            layers
          @ [
              ("serve.unaccounted_us", unaccounted_us, "us");
              ("cache.hit_ratio", ratio hits (hits + misses), "ratio");
              ("cache.evictions", float_of_int (sd [ "cache"; "evictions" ]), "count");
              ("serve.coalesced", float_of_int (sd [ "server"; "coalesced" ]), "count");
              ("serve.overloaded", float_of_int (sd [ "server"; "overloaded" ]), "count");
              ("serve.errors", float_of_int (sd [ "server"; "errors" ]), "count");
              ( "serve.max_queue_depth",
                float_of_int
                  (List.fold_left (fun a s -> max a (int_at [ "server"; "max_queue_depth" ] s)) 0 shards1),
                "count" );
              ("router.front_hit_ratio", ratio (rd [ "router"; "front_hits" ]) n, "ratio");
              ("router.forwards_per_req", ratio (request_path [ "router"; "forwards" ]) n, "ratio");
              ( "router.replications_per_miss",
                ratio (request_path [ "router"; "replications" ]) fresh_count,
                "ratio" );
              ("router.failovers", float_of_int (rd [ "router"; "failovers" ]), "count");
              ("router.quorum_failures", float_of_int (rd [ "router"; "quorum_failures" ]), "count");
              ("router.probes", float_of_int (rd [ "router"; "probes" ]), "count");
            ]
          @ List.map (fun (k, v) -> (k, v, "count")) (solver_counters w kept)
          @ [
              ("loadgen.cpu_us_per_req", loadgen_us, "us");
              ("trace.throughput_rps", (List.hd e2e).value, "1/s");
              ("trace.latency_p50_ms", (List.nth e2e 1).value, "ms");
              ("trace.latency_p99_ms", (List.nth e2e 2).value, "ms");
            ]
      in
      let floats a = Sink.List (Array.to_list (Array.map (fun x -> Sink.Float x) a)) in
      let notes =
        [
          ("workload", Sink.Str (Workload.name o.kind));
          ("seed", Sink.Int o.seed);
          ("seconds", Sink.Int o.seconds);
          ("trace", Sink.Bool o.trace);
          ("setup_s_samples", floats setup_times);
          ("measured_s", Sink.Float res.Loadgen.elapsed_s);
          ("block_rps", floats (Array.init blocks (block_rps res)));
          ("block_rps_spread", Sink.Float (Stats.spread (Array.init blocks (block_rps res))));
          ( "as_timed",
            Sink.Obj (List.map (fun (e : e2e) -> (e.name, Sink.Float e.value)) raw) );
          ("block_wall_factor", floats wall_f);
          ("block_rtt_factor", floats rtt_f);
          ("block_cpu_factor", floats cpu_f);
          ("setup_wall_factor", Sink.Float setup_f);
          ( "host_probe_ms",
            Sink.Obj
              [
                ("before", Sink.Float calibrate_before.Calib.wall_ms);
                ("after", Sink.Float calibrate_after.Calib.wall_ms);
              ] );
          ("loadgen_cpu_us_per_req", Sink.Float loadgen_us);
          ( "host_steal_share",
            Sink.Float (ratio (fst host1 - fst host0) (snd host1 - snd host0)) );
          ("warnings", Sink.List (List.rev_map (fun s -> Sink.Str s) !warnings));
        ]
      in
      ( {
          attempted = !attempted;
          failed = !failed;
          failures = List.rev !failures;
          e2e;
          per_layer;
          notes;
        },
        replay,
        res ))
