(* Command-line explorer for the Bayesian-ignorance reproduction.

   $ bi construction anshelevich -k 5      # measures of a paper game
   $ bi adversary -l 4 -s 100              # diamond online adversary
   $ bi sec4 anshelevich -k 3              # public-randomness analysis
   $ bi plane -p 5                         # affine-plane sanity check
   $ bi serve --socket bi.sock             # analysis server
   $ bi query construction diamond -k 3    # ask a running server *)

open Bayesian_ignorance
open Num
module Bncs = Ncs.Bayesian_ncs
module Measures = Bayes.Measures
module Sink = Engine.Sink

let print_report report =
  print_endline
    (Report.table ~header:[ "quantity"; "value" ] (Report.measures_rows report));
  let ratios = Measures.ratios_of_report report in
  print_newline ();
  print_endline
    (Report.table
       ~header:[ "ratio"; "value" ]
       [
         [ "optP/optC"; Report.ratio_cell ratios.Measures.r_opt ];
         [ "best-eqP/best-eqC"; Report.ratio_cell ratios.Measures.r_best_eq ];
         [ "worst-eqP/worst-eqC"; Report.ratio_cell ratios.Measures.r_worst_eq ];
       ]);
  print_newline ();
  Printf.printf "observation 2.2 (optC <= optP <= best-eqP <= worst-eqP): %s\n"
    (Report.verdict (Measures.observation_2_2_holds report))

let ratio_json = function
  | None -> Sink.Null
  | Some r -> Sink.Str (Rat.to_string r)

(* A construction record is the server's answer to the same request:
   its fingerprint, cached flag and tier members after the ["ok"]
   header, with the exhaustive tier's ratios and Observation 2.2
   verdict appended. *)
let construction_json ~name ~k response value =
  let answer =
    match Sink.of_string response with
    | Ok (Sink.Obj (_ok :: members)) -> members
    | _ -> []
  in
  let extras =
    match value with
    | Cache.Service.Payload _ -> []
    | Cache.Service.Analysis analysis ->
      let report = analysis.Bncs.report in
      let ratios = Measures.ratios_of_report report in
      [
        ( "ratios",
          Sink.Obj
            [
              ("opt", ratio_json ratios.Measures.r_opt);
              ("best_eq", ratio_json ratios.Measures.r_best_eq);
              ("worst_eq", ratio_json ratios.Measures.r_worst_eq);
            ] );
        ("observation_2_2", Sink.Bool (Measures.observation_2_2_holds report));
      ]
  in
  Sink.Obj
    ((("record", Sink.Str "construction")
     :: ("construction", Sink.Str name)
     :: ("k", Sink.Int k)
     :: answer)
    @ extras)

(* Rendered from the JSON payload rather than the certificate record, so
   cached answers (where only the payload survives) print identically. *)
let print_certified payload =
  let bracket_cell field =
    match Sink.member field payload with
    | Some b ->
      let endpoint m =
        match Sink.member m b with Some (Sink.Str v) -> v | _ -> "?"
      in
      let lo = endpoint "lo" and hi = endpoint "hi" in
      if String.equal lo hi then lo else Printf.sprintf "[%s, %s]" lo hi
    | None -> "?"
  in
  let int_of field =
    match Sink.member field payload with Some (Sink.Int n) -> n | _ -> 0
  in
  let bool_of field =
    match Sink.member field payload with Some (Sink.Bool b) -> b | _ -> false
  in
  print_endline
    (Report.table
       ~header:[ "quantity"; "certified bracket" ]
       [
         [ "optP"; bracket_cell "opt_p" ];
         [ "best-eqP"; bracket_cell "best_eq_p" ];
         [ "worst-eqP"; bracket_cell "worst_eq_p" ];
         [ "optC"; bracket_cell "opt_c" ];
         [ "best-eqC"; bracket_cell "best_eq_c" ];
         [ "worst-eqC"; bracket_cell "worst_eq_c" ];
       ]);
  Printf.printf
    "\n%d equilibria from %d descent starts; branch-and-bound %s in %d nodes\n"
    (int_of "equilibria") (int_of "descent_starts")
    (if bool_of "bnb_certified" then "closed (optimum certified)"
     else "open (bracket only)")
    (int_of "bnb_nodes")

(* Rendered from the JSON payload rather than the report record, so
   cached answers (where only the payload survives) print identically. *)
let print_correlated payload =
  let value_cell field =
    match Sink.member field payload with Some (Sink.Str v) -> v | _ -> "?"
  in
  let int_of field =
    match Sink.member field payload with Some (Sink.Int n) -> n | _ -> 0
  in
  let concept =
    match Sink.member "concept" payload with Some (Sink.Str c) -> c | _ -> "?"
  in
  print_endline
    (Report.table
       ~header:[ "quantity"; "exact value" ]
       [
         [ "best-" ^ concept ^ "P"; value_cell "best" ];
         [ "worst-" ^ concept ^ "P"; value_cell "worst" ];
         [ "pub-bestP"; value_cell "pub_best" ];
         [ "pub-worstP"; value_cell "pub_worst" ];
       ]);
  let pivots =
    match Sink.member "pivots" payload with
    | Some p ->
      List.fold_left
        (fun acc f ->
          acc + match Sink.member f p with Some (Sink.Int n) -> n | _ -> 0)
        0
        [ "best"; "worst"; "pub_best"; "pub_worst" ]
    | None -> 0
  in
  Printf.printf
    "\nLP over %d states, %d columns, %d deviation rows; %d simplex pivots; \
     dual certificates verified\n"
    (int_of "states") (int_of "columns") (int_of "deviations") pivots

(* Unknown names exit 1, a [k] the family rejects exits 2. *)
let build_or_exit name k =
  match Constructions.Registry.build name k with
  | Ok game -> game
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit (if List.mem name Constructions.Registry.names then 2 else 1)

let print_answer ~name ~k tier value =
  match (tier, value) with
  | _, Cache.Service.Analysis analysis ->
    Printf.printf "construction %s, parameter %d\n\n" name k;
    print_report analysis.Bncs.report
  | Serve.Tier.Correlated concept, Cache.Service.Payload payload ->
    Printf.printf "construction %s, parameter %d (%s concept)\n\n" name k
      (Correlated.Concept.to_string concept);
    print_correlated payload
  | _, Cache.Service.Payload payload ->
    Printf.printf "construction %s, parameter %d (certified tier)\n\n" name k;
    print_certified payload

(* The server's tier dispatch, run locally: the same key, solver and
   cached value, with every certificate re-checked (a rejection exits
   3). *)
let construction name k jobs json cache_path mode concept =
  Engine.Pool.with_pool (Engine.Pool.recommended_jobs jobs) (fun pool ->
      let game, build_span =
        Engine.Timer.timed (fun () -> build_or_exit name k)
      in
      let tier = Serve.Tier.resolve (Serve.Tier.of_query ~mode ~concept) game in
      let key = Serve.Tier.key tier (Cache.Fingerprint.of_game game) in
      let cache =
        Option.map (fun path -> Cache.Service.create ~store_path:path ()) cache_path
      in
      let solve () =
        match Serve.Tier.solve ~pool ~verify:true tier game with
        | Ok value -> value
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 3
      in
      let (value, cached), solve_span =
        Engine.Timer.timed (fun () ->
            match cache with
            | None -> (solve (), false)
            | Some c -> (
              match Cache.Service.find c key with
              | Some value when Cache.Service.kind_of value = Serve.Tier.kind tier
                -> (value, true)
              | Some _ | None ->
                let value = solve () in
                Cache.Service.insert c key value;
                (value, false)))
      in
      if json then
        print_endline
          (Sink.to_string
             (construction_json ~name ~k
                (Serve.Tier.response tier ~fingerprint:key ~cached
                   (Cache.Service.body_of value))
                value))
      else begin
        print_answer ~name ~k tier value;
        Format.printf "@.[build: %a; solve: %a%s]@." Engine.Timer.pp_seconds
          build_span.Engine.Timer.seconds Engine.Timer.pp_seconds
          solve_span.Engine.Timer.seconds
          (if cached then " (cached)" else "")
      end;
      Option.iter Cache.Service.close cache);
  0

let adversary levels samples seed =
  let d = Steiner.Diamond.build levels in
  let g = Steiner.Diamond.graph d in
  Printf.printf "diamond level %d: %d vertices, %d edges, OPT = 1 always\n\n"
    levels
    (Graphs.Graph.n_vertices g)
    (Graphs.Graph.n_edges g);
  let algorithms =
    [ Steiner.Online.greedy; Steiner.Online.oblivious_shortest_path ]
  in
  List.iter
    (fun alg ->
      if levels <= 3 then
        Printf.printf "%-25s E[ALG] = %s (exact)\n" alg.Steiner.Online.name
          (Rat.to_string (Steiner.Diamond.expected_cost d alg))
      else begin
        let rng = Random.State.make [| seed |] in
        Printf.printf "%-25s E[ALG] ~ %.4f (%d samples)\n" alg.Steiner.Online.name
          (Steiner.Diamond.mean_cost rng ~samples d alg)
          samples
      end)
    algorithms;
  0

let sec4 name k =
  let game = build_or_exit name k in
  let phi =
    try Minimax.Section4.of_bayesian_ncs game with
    | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  Printf.printf "phi: %d strategy profiles x %d type profiles\n"
    (Minimax.Section4.n_strategies phi)
    (Minimax.Section4.n_type_profiles phi);
  let sol = Minimax.Section4.solve phi in
  Printf.printf "R~(phi) = R(phi) = %s (%d pivots)\n"
    (Rat.to_string sol.Minimax.Section4.value)
    sol.Minimax.Section4.pivots;
  Printf.printf "public-randomness guarantee of q: %s\n"
    (Rat.to_string
       (Minimax.Section4.randomized_guarantee phi sol.Minimax.Section4.mixture));
  Printf.printf "optP/optC under the worst prior p*: %s\n"
    (Rat.to_string
       (Minimax.Section4.ratio_under_prior phi sol.Minimax.Section4.prior));
  match Minimax.Section4.check phi sol with
  | Ok () ->
    print_endline "certificate: checked";
    0
  | Error e ->
    Printf.eprintf "error: certificate rejected: %s\n" e;
    3

let plane p =
  match Constructions.Affine_plane.make p with
  | plane ->
    Printf.printf "AG(2, %d): %d points, %d lines; axioms: %s\n" p
      (Constructions.Affine_plane.n_points plane)
      (Constructions.Affine_plane.n_lines plane)
      (Report.verdict (Constructions.Affine_plane.check_axioms plane));
    0
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    2

(* --- server / client --- *)

let default_socket = "bi.sock"

let serve socket tcp cache_path capacity metrics_out jobs deadline
    max_concurrent max_queue idle_timeout chaos_spec shard_id =
  let chaos_cfg =
    match chaos_spec with
    | Some spec -> Serve.Chaos.parse spec
    | None -> Serve.Chaos.of_env ()
  in
  match chaos_cfg with
  | Error e ->
    Printf.eprintf "error: chaos spec: %s\n" e;
    2
  | Ok cfg -> (
    let chaos =
      if Serve.Chaos.is_enabled cfg then Some (Serve.Chaos.create cfg) else None
    in
    let limits =
      {
        Serve.Server.max_concurrent;
        max_queue;
        idle_timeout_s = idle_timeout;
        max_deadline_ms = deadline;
      }
    in
    let listen =
      match tcp with
      | Some port -> Serve.Server.Tcp port
      | None -> Serve.Server.Unix_socket socket
    in
    let cache =
      Cache.Service.create ~capacity ?store_path:cache_path ?shard:shard_id ()
    in
    let stats0 = Cache.Service.stats cache in
    match
      Engine.Pool.with_pool (Engine.Pool.recommended_jobs jobs) (fun pool ->
          (* The banner doubles as the readiness signal for scripts
             tailing our output, so print it only once the listener is
             actually accepting. *)
          let on_ready () =
            (match listen with
            | Serve.Server.Unix_socket path ->
              Printf.printf "bi serve: unix socket %s" path
            | Serve.Server.Tcp port ->
              Printf.printf "bi serve: tcp 127.0.0.1:%d" port);
            Option.iter (Printf.printf " (shard %s)") shard_id;
            if
              stats0.Cache.Service.loaded > 0
              || stats0.Cache.Service.invalid > 0
              || stats0.Cache.Service.quarantined > 0
            then
              Printf.printf
                " (store: %d entries replayed, %d invalid, %d quarantined)"
                stats0.Cache.Service.loaded stats0.Cache.Service.invalid
                stats0.Cache.Service.quarantined;
            if chaos <> None then Printf.printf " (chaos on)";
            print_newline ();
            flush stdout
          in
          Serve.Server.run ~pool ~metrics_out ~on_ready ~limits ?chaos ~cache
            listen)
    with
    | () ->
      Cache.Service.close cache;
      Printf.printf "bi serve: stopped; metrics in %s\n" metrics_out;
      0
    | exception Failure msg ->
      Cache.Service.close cache;
      Printf.eprintf "error: %s\n" msg;
      1)

let retry_of ~retries ~retry_base_ms =
  if retries <= 0 then None
  else
    Some
      {
        Serve.Client.default_retry with
        attempts = retries;
        base_delay_ms = retry_base_ms;
      }

let query socket tcp verb name k deadline retries retry_base_ms mode concept =
  let request =
    match verb with
    | "construction" -> (
      match name with
      | Some name ->
        Ok
          (Serve.Protocol.construction_request ?deadline_ms:deadline ~mode
             ~concept ~name ~k ())
      | None -> Error "query construction: NAME argument required")
    | "analyze" -> (
      match Sink.of_string (In_channel.input_all stdin) with
      | Ok game ->
        Ok
          (Serve.Protocol.analyze_game_request ?deadline_ms:deadline ~mode
             ~concept game)
      | Error e -> Error (Printf.sprintf "game description on stdin: %s" e))
    | "stats" -> Ok Serve.Protocol.stats_request
    | "health" -> Ok Serve.Protocol.health_request
    | "shutdown" -> Ok Serve.Protocol.shutdown_request
    | v ->
      Error
        (Printf.sprintf
           "unknown verb %S (try: construction, analyze, stats, health, \
            shutdown)" v)
  in
  match request with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    2
  | Ok request -> (
    match
      match tcp with
      | Some port -> Serve.Client.connect_tcp port
      | None -> Serve.Client.connect_unix socket
    with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "error: cannot connect to server: %s\n"
        (Unix.error_message err);
      1
    | client -> (
      let retry = retry_of ~retries ~retry_base_ms in
      let response = Serve.Client.request ?retry client request in
      Serve.Client.close client;
      match response with
      | Error f ->
        Printf.eprintf "error: %s\n" (Serve.Client.failure_to_string f);
        1
      | Ok response ->
        print_endline (Sink.to_string response);
        if Serve.Protocol.is_ok response then 0 else 1))

(* --- cluster router --- *)

let router socket tcp members members_file replicas quorum front_capacity
    metrics_out =
  let initial =
    match members with
    | Some m -> Ok (Router.Router.parse_members m)
    | None -> (
      match members_file with
      | None ->
        Error "router: no members (give --members or --members-file)"
      | Some path -> (
        match In_channel.with_open_text path In_channel.input_all with
        | content -> Ok (Router.Router.parse_members content)
        | exception Sys_error e -> Error ("router: members file: " ^ e)))
  in
  match initial with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    2
  | Ok members -> (
    let config =
      {
        Router.Router.default_config with
        replicas;
        quorum;
        front_capacity;
      }
    in
    let listen =
      match tcp with
      | Some port -> Serve.Lineserver.Tcp port
      | None -> Serve.Lineserver.Unix_socket socket
    in
    let on_ready () =
      (match listen with
      | Serve.Lineserver.Unix_socket path ->
        Printf.printf "bi router: unix socket %s" path
      | Serve.Lineserver.Tcp port ->
        Printf.printf "bi router: tcp 127.0.0.1:%d" port);
      Printf.printf " -> %s (replicas %d, quorum %d)\n"
        (String.concat "," members)
        config.Router.Router.replicas config.Router.Router.quorum;
      flush stdout
    in
    match
      Router.Router.run ~on_ready ~metrics_out ?members_file ~config ~members
        listen
    with
    | () ->
      Printf.printf "bi router: stopped; metrics in %s\n" metrics_out;
      0
    | exception Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      1)

(* --- fsck --- *)

(* One connection per exchange, like the router's poller (its probes,
   hint drains and anti-entropy; only its request path keeps persistent
   links): fsck must see a partitioned shard as unreachable, not camp
   on it. *)
let fsck_exchange_source ~timeout_s member =
  Router.Fsck.exchange_source ~name:member (fun line ->
      match Router.Router.addr_of_member member with
      | Error e -> Error e
      | Ok addr -> (
        match Serve.Client.make ~timeout_s addr with
        | exception Unix.Unix_error (err, _, _) ->
          Error (Unix.error_message err)
        | client ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close client)
            (fun () ->
              match Serve.Client.request_line client line with
              | Ok resp -> Ok resp
              | Error f -> Error (Serve.Client.failure_to_string f))))

let fsck_run ~ring_members ~replicas ~repair sources =
  let ring = Router.Ring.create ring_members in
  Router.Fsck.run ~ring ~replicas ~repair sources

(* Exit codes: 0 clean, 1 divergent (or repair failed to converge),
   2 usage error or a source that could not be read at all. *)
let fsck_exit ~repair (report : Router.Fsck.report) =
  if report.Router.Fsck.unreachable <> [] then 2
  else if
    (if repair then
       report.Router.Fsck.remaining > 0
       || report.Router.Fsck.repair_failures <> []
     else report.Router.Fsck.divergent <> [])
  then 1
  else 0

let fsck members members_file stores replicas repair report_file timeout_s =
  let members_of_flags () =
    match (members, members_file) with
    | Some m, _ -> Ok (Some (Router.Router.parse_members m))
    | None, Some path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | content -> Ok (Some (Router.Router.parse_members content))
      | exception Sys_error e -> Error ("fsck: members file: " ^ e))
    | None, None -> Ok None
  in
  let plan =
    Result.bind (members_of_flags ()) (fun members ->
        match (stores, members) with
        | [], None ->
          Error "fsck: nothing to check (give --members or --store)"
        | [], Some ms ->
          (* Online: every member is a live shard driven over digest/pull. *)
          let replicas =
            Option.value replicas
              ~default:Router.Router.default_config.Router.Router.replicas
          in
          Ok
            ( ms,
              replicas,
              List.map (fsck_exchange_source ~timeout_s) ms )
        | paths, members ->
          (* Offline: read store files directly.  With --members the
             paths pair positionally with the ring names; without,
             the paths themselves name the ring and full replication
             is assumed (every store should hold every key). *)
          let names =
            match members with
            | None -> Ok paths
            | Some ms when List.length ms = List.length paths -> Ok ms
            | Some ms ->
              Error
                (Printf.sprintf
                   "fsck: %d --store paths but %d members; they pair \
                    positionally"
                   (List.length paths) (List.length ms))
          in
          Result.map
            (fun names ->
              let replicas =
                Option.value replicas
                  ~default:
                    (if members = None then List.length paths
                     else
                       Router.Router.default_config.Router.Router.replicas)
              in
              ( names,
                replicas,
                List.map2
                  (fun name path -> Router.Fsck.store_source ~name path)
                  names paths ))
            names)
  in
  match plan with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    2
  | Ok (ring_members, replicas, sources) ->
    if replicas < 1 || replicas > List.length ring_members then begin
      Printf.eprintf "error: fsck: --replicas must be in [1, %d]\n"
        (List.length ring_members);
      2
    end
    else begin
      let report = fsck_run ~ring_members ~replicas ~repair sources in
      let json = Sink.to_string (Router.Fsck.report_to_json report) in
      print_endline json;
      (match report_file with
      | None -> ()
      | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (json ^ "\n")));
      fsck_exit ~repair report
    end

(* --- chaos soak --- *)

(* Per-worker outcome counts; summed after the join, so no locking. *)
type soak_tally = {
  mutable sent : int;
  mutable answered : int;  (* ok responses *)
  mutable server_error : int;  (* structured "error" responses *)
  mutable shed : int;  (* final response was overloaded *)
  mutable expired : int;  (* final response was deadline_exceeded *)
  mutable torn : int;  (* raw probe hit an injected transport fault *)
  mutable io_unresolved : int;  (* retries exhausted without a response *)
  mutable malformed : int;  (* server spoke non-protocol — must stay 0 *)
}

let new_tally () =
  {
    sent = 0;
    answered = 0;
    server_error = 0;
    shed = 0;
    expired = 0;
    torn = 0;
    io_unresolved = 0;
    malformed = 0;
  }

(* Soak stop times and readiness/exit deadlines are {!Engine.Clock}
   readings, so a wall-clock step can neither stretch nor cut short a
   soak or a wait. *)
let passed deadline = Engine.Clock.now_ns () > deadline

let garbage_probes =
  [|
    "{\"op\": \"analyze\", garbage";
    "]]]]";
    "{\"op\": 42}";
    "{\"op\": \"construction\", \"name\": 7}";
    String.make 4096 '[';
  |]

(* One soak worker: a deterministic stream of requests — cached and
   uncached constructions, stats, unknown names, deadline-doomed
   requests and raw garbage — against a retrying client that must end
   every exchange in a valid answer or a structured error. *)
let soak_worker ~connect ~stop_at ~seed ~retries tally =
  let retry =
    { Serve.Client.default_retry with attempts = max 1 retries;
      seed = Some seed }
  in
  let counter = ref 0 in
  let draw () =
    let u = Serve.Chaos.unit_float ~seed ~counter:!counter in
    incr counter;
    u
  in
  let rec connect_retrying attempts =
    match connect () with
    | client -> client
    | exception Unix.Unix_error (err, _, _) when attempts > 1 ->
      ignore err;
      Thread.delay 0.1;
      connect_retrying (attempts - 1)
  in
  let client = ref (connect_retrying 20) in
  let fresh () =
    Serve.Client.close !client;
    client := connect_retrying 20
  in
  let classify = function
    | Ok resp -> (
      match Serve.Protocol.response_code resp with
      | Some "ok" -> tally.answered <- tally.answered + 1
      | Some "overloaded" -> tally.shed <- tally.shed + 1
      | Some "deadline_exceeded" -> tally.expired <- tally.expired + 1
      | Some _ -> tally.server_error <- tally.server_error + 1
      | None -> tally.malformed <- tally.malformed + 1)
    | Error (Serve.Client.Io _) ->
      tally.io_unresolved <- tally.io_unresolved + 1
    | Error (Serve.Client.Malformed _) -> tally.malformed <- tally.malformed + 1
    | Error Serve.Client.Closed ->
      tally.io_unresolved <- tally.io_unresolved + 1
  in
  while not (passed stop_at) do
    let u = draw () in
    tally.sent <- tally.sent + 1;
    if u < 0.55 then begin
      let name = if draw () < 0.5 then "gworst-bliss" else "gworst-curse" in
      let k = if draw () < 0.5 then 2 else 3 in
      let deadline_ms = if draw () < 0.15 then Some 1 else None in
      classify
        (Serve.Client.request ~retry !client
           (Serve.Protocol.construction_request ?deadline_ms ~name ~k ()))
    end
    else if u < 0.7 then
      classify (Serve.Client.request ~retry !client Serve.Protocol.stats_request)
    else if u < 0.85 then
      classify
        (Serve.Client.request ~retry !client
           (Serve.Protocol.construction_request ~name:"no-such-family" ~k:2 ()))
    else begin
      (* Raw garbage probe, no retry: the server must answer a parseable
         structured error and keep the connection usable — unless a
         transport fault tore the exchange, which we count separately
         and recover from by reconnecting. *)
      let probe =
        garbage_probes.(int_of_float (draw () *. float_of_int (Array.length garbage_probes)))
      in
      match Serve.Client.raw_request !client probe with
      | Ok line -> (
        match Sink.of_string line with
        | Ok resp -> (
          match Serve.Protocol.response_code resp with
          | Some _ -> tally.server_error <- tally.server_error + 1
          | None -> tally.malformed <- tally.malformed + 1)
        | Error _ ->
          tally.torn <- tally.torn + 1;
          fresh ())
      | Error Serve.Client.Closed ->
        tally.sent <- tally.sent - 1;
        fresh ()
      | Error _ ->
        tally.torn <- tally.torn + 1;
        fresh ()
    end
  done;
  Serve.Client.close !client

let chaos_soak socket tcp clients seconds retries seed =
  let connect () =
    match tcp with
    | Some port -> Serve.Client.connect_tcp ~timeout_s:30. port
    | None -> Serve.Client.connect_unix ~timeout_s:30. socket
  in
  let stop_at = Engine.Clock.after_ms (seconds * 1000) in
  let tallies = Array.init clients (fun _ -> new_tally ()) in
  let workers =
    Array.mapi
      (fun i tally ->
        Thread.create
          (fun () ->
            soak_worker ~connect ~stop_at ~seed:(seed + (7919 * (i + 1)))
              ~retries tally)
          ())
      tallies
  in
  Array.iter Thread.join workers;
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let sent = sum (fun t -> t.sent)
  and answered = sum (fun t -> t.answered)
  and server_error = sum (fun t -> t.server_error)
  and shed = sum (fun t -> t.shed)
  and expired = sum (fun t -> t.expired)
  and torn = sum (fun t -> t.torn)
  and io_unresolved = sum (fun t -> t.io_unresolved)
  and malformed = sum (fun t -> t.malformed) in
  print_endline
    (Sink.to_string
       (Sink.Obj
          [
            ("record", Str "chaos_soak");
            ("clients", Int clients);
            ("seconds", Int seconds);
            ("sent", Int sent);
            ("answered", Int answered);
            ("server_error", Int server_error);
            ("overloaded", Int shed);
            ("deadline_exceeded", Int expired);
            ("torn", Int torn);
            ("io_unresolved", Int io_unresolved);
            ("malformed", Int malformed);
          ]));
  if malformed = 0 && io_unresolved = 0 && sent > 0 then 0 else 1

(* --- cluster chaos soak --- *)

(* Spawn a backend shard as a real child process: cluster chaos must be
   able to kill -9 a shard without taking the harness down with it. *)
let spawn_shard ?chaos ~dir ~port ~index () =
  let path name = Filename.concat dir (Printf.sprintf "shard-%d%s" index name) in
  let log =
    Unix.openfile (path ".log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let argv =
    [
      Sys.executable_name; "serve"; "--tcp"; string_of_int port;
      "--cache"; path ".jsonl"; "--shard-id"; Printf.sprintf "shard-%d" index;
      "--metrics-out"; path "-metrics.json";
    ]
    @ (match chaos with None -> [] | Some spec -> [ "--chaos"; spec ])
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin log
      log
  in
  Unix.close log;
  pid

let wait_shard_ready ~port ~deadline_at =
  let rec go () =
    if passed deadline_at then false
    else
      match Serve.Client.connect_tcp ~timeout_s:5. port with
      | exception Unix.Unix_error _ ->
        Thread.delay 0.1;
        go ()
      | c ->
        let ok =
          match Serve.Client.request c Serve.Protocol.health_request with
          | Ok resp -> Serve.Protocol.is_ok resp
          | Error _ -> false
        in
        Serve.Client.close c;
        if ok then true
        else begin
          Thread.delay 0.1;
          go ()
        end
  in
  go ()

let wait_exit pid =
  let deadline = Engine.Clock.after_ms 10_000 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if passed deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end
      else begin
        Thread.delay 0.1;
        go ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let shutdown_endpoint connect =
  match connect () with
  | exception Unix.Unix_error _ -> ()
  | c ->
    ignore (Serve.Client.request c Serve.Protocol.shutdown_request);
    Serve.Client.close c

(* The warm key whose answer must survive the shard kill byte-for-byte. *)
let warm_name = "gworst-bliss"
let warm_k = 3

let fetch_construction ?(attempts = 10) ~name ~k connect =
  match connect () with
  | exception Unix.Unix_error (err, _, _) ->
    Error ("connect: " ^ Unix.error_message err)
  | c -> (
    let retry = { Serve.Client.default_retry with attempts } in
    let r =
      Serve.Client.request ~retry c
        (Serve.Protocol.construction_request ~name ~k ())
    in
    Serve.Client.close c;
    match r with
    | Ok resp when Serve.Protocol.is_ok resp -> (
      match (Sink.member "fingerprint" resp, Sink.member "analysis" resp) with
      | Some (Sink.Str fp), Some a -> Ok (fp, Sink.to_string a, resp)
      | _ -> Error ("response missing fields: " ^ Sink.to_string resp))
    | Ok resp -> Error ("not ok: " ^ Sink.to_string resp)
    | Error f -> Error (Serve.Client.failure_to_string f))

let fetch_warm ?attempts connect =
  fetch_construction ?attempts ~name:warm_name ~k:warm_k connect

let response_cached resp =
  match Sink.member "cached" resp with
  | Some (Sink.Bool b) -> b
  | _ -> false

(* Kill -9 a shard mid-soak, assert warm answers stay byte-identical
   across the failover (via the router AND straight from the replica
   shard, which is what proves the quorum write landed), restart the
   shard, and assert identity again once the cluster has healed. *)
let cluster_soak ~shards ~clients ~seconds ~retries ~seed ~router_metrics_out
    ~partition_p ~partition_ms ~fsck_report_out =
  let dir = Filename.temp_dir "bi-cluster" "" in
  let base_port = 20000 + (Unix.getpid () mod 10000) in
  let ports = Array.init shards (fun i -> base_port + i) in
  let members =
    Array.to_list (Array.map (Printf.sprintf "127.0.0.1:%d") ports)
  in
  let port_of_member m = List.assoc m (List.combine members (Array.to_list ports)) in
  let index_of_member m =
    let p = port_of_member m in
    let rec find i = if ports.(i) = p then i else find (i + 1) in
    find 0
  in
  (* The warm key's fingerprint — and therefore its ring owners — is a
     pure function of the member list, so the kill target and the shard
     that carries partition chaos (one that owns neither copy) are both
     known before any process starts. *)
  let warm_fp =
    match Cache.Fingerprint.of_construction warm_name warm_k with
    | Ok fp -> fp
    | Error e ->
      Printf.eprintf "cluster: cannot build warm construction: %s\n%!" e;
      exit 2
  in
  let ring = Router.Ring.create members in
  let warm_owners = Router.Ring.owners ring ~n:2 warm_fp in
  let victim_member = List.nth warm_owners 0 in
  let replica_member = List.nth warm_owners 1 in
  let victim = index_of_member victim_member in
  let chaos_target =
    if partition_p <= 0. then None
    else
      List.find_opt
        (fun i -> not (List.mem (List.nth members i) warm_owners))
        (List.init shards (fun i -> i))
  in
  let chaos_spec =
    Printf.sprintf "seed=%d,partition_p=%g,partition_ms=%d" (seed + 1)
      partition_p partition_ms
  in
  (* Fresh keys the victim owns: written through the router while the
     victim is dead, they land on the other owner and park a hint —
     real divergence for fsck to catch and the healing paths to close.
     Only families that solve in milliseconds at k 2-8 are drawn (the
     others run for seconds to minutes at k 3).  Which keys the victim
     owns depends on the ports; with three shards, k 2-8 leaves at
     least three of them for every base port the soak can pick.  Keys
     it owns as primary come first. *)
  let fresh_keys =
    let candidates =
      List.concat_map
        (fun name ->
          List.filter_map
            (fun k ->
              match Cache.Fingerprint.of_construction name k with
              | Error _ -> None
              | Ok fp ->
                if fp = warm_fp then None
                else
                  let owners = Router.Ring.owners ring ~n:2 fp in
                  if List.mem victim_member owners then
                    Some (name, k, fp, List.hd owners = victim_member)
                  else None)
            (List.init 7 (fun i -> i + 2)))
        [ "anshelevich"; "gworst-bliss"; "gworst-curse" ]
    in
    let primaries, others = List.partition (fun (_, _, _, p) -> p) candidates in
    List.filteri (fun i _ -> i < 3) (primaries @ others)
    |> List.map (fun (n, k, fp, _) -> (n, k, fp))
  in
  Printf.eprintf "cluster: %d shards in %s, ports %d-%d%s\n%!" shards dir
    base_port
    (base_port + shards - 1)
    (match chaos_target with
    | None -> ""
    | Some i -> Printf.sprintf ", partition chaos on shard-%d (%s)" i chaos_spec);
  let pids =
    Array.init shards (fun i ->
        let chaos = if chaos_target = Some i then Some chaos_spec else None in
        spawn_shard ?chaos ~dir ~port:ports.(i) ~index:i ())
  in
  let teardown_shards () =
    Array.iteri
      (fun i pid ->
        shutdown_endpoint (fun () ->
            Serve.Client.connect_tcp ~timeout_s:5. ports.(i));
        wait_exit pid)
      pids
  in
  let ready_deadline = Engine.Clock.after_ms 30_000 in
  if
    not
      (Array.for_all
         (fun port -> wait_shard_ready ~port ~deadline_at:ready_deadline)
         ports)
  then begin
    Printf.eprintf "cluster: shards failed to become ready\n%!";
    teardown_shards ();
    1
  end
  else begin
    (* The router runs in-process (we assert on its behavior, not its
       process isolation) on a private socket.  A front cache of one
       entry forces nearly every soak request through real routing. *)
    let router_sock = Filename.concat dir "router.sock" in
    let hints_path = Filename.concat dir "hints.jsonl" in
    let config = { Router.Router.default_config with front_capacity = 1 } in
    let ready_m = Mutex.create () in
    let ready_c = Condition.create () in
    let ready = ref false in
    let router_th =
      Thread.create
        (fun () ->
          Router.Router.run
            ~on_ready:(fun () ->
              Mutex.lock ready_m;
              ready := true;
              Condition.broadcast ready_c;
              Mutex.unlock ready_m)
            ~metrics_out:router_metrics_out ~hints_path ~config ~members
            (Serve.Lineserver.Unix_socket router_sock))
        ()
    in
    Mutex.lock ready_m;
    while not !ready do
      Condition.wait ready_c ready_m
    done;
    Mutex.unlock ready_m;
    let connect_router () =
      Serve.Client.connect_unix ~timeout_s:30. router_sock
    in
    let connect_shard m () =
      Serve.Client.connect_tcp ~timeout_s:30. (port_of_member m)
    in
    let teardown () =
      shutdown_endpoint connect_router;
      Thread.join router_th;
      teardown_shards ()
    in
    match fetch_warm connect_router with
    | Error e ->
      Printf.eprintf "cluster: warm fetch failed: %s\n%!" e;
      teardown ();
      1
    | Ok (fp, bytes0, _) ->
      Printf.eprintf "cluster: warm key %s owned by %s (replica %s)\n%!" fp
        victim_member replica_member;
      let checks = ref [] in
      let check name ok =
        Printf.eprintf "cluster: check %s: %s\n%!" name
          (if ok then "ok" else "FAILED");
        checks := (name, ok) :: !checks
      in
      let identical label = function
        | Ok (fp', bytes, _) -> fp' = fp && bytes = bytes0
        | Error e ->
          Printf.eprintf "cluster: %s: %s\n%!" label e;
          false
      in
      check "fingerprint_offline_match" (fp = warm_fp);
      (* The router's warm answer (a front hit, spliced from the body
         bytes it kept) is the owning shard's own answer, byte for
         byte. *)
      check "router_relays_shard_bytes"
        (let line =
           Sink.to_string
             (Serve.Protocol.construction_request ~name:warm_name ~k:warm_k ())
         in
         let rec raw connect tries =
           match connect () with
           | exception Unix.Unix_error _ when tries > 1 -> raw connect (tries - 1)
           | exception Unix.Unix_error _ -> None
           | c -> (
             let r = Serve.Client.raw_request c line in
             Serve.Client.close c;
             match r with
             | Ok answer -> Some answer
             | Error _ when tries > 1 -> raw connect (tries - 1)
             | Error _ -> None)
         in
         match (raw connect_router 5, raw (connect_shard victim_member) 5) with
         | Some routed, Some owned -> String.equal routed owned
         | _ -> false);
      let t0 = Engine.Clock.now_ns () in
      let at frac = t0 + int_of_float (frac *. float_of_int seconds *. 1e9) in
      let stop_at = at 1. in
      let sleep_until t =
        let dt = float_of_int (t - Engine.Clock.now_ns ()) /. 1e9 in
        if dt > 0. then Thread.delay dt
      in
      let store_path i = Filename.concat dir (Printf.sprintf "shard-%d.jsonl" i) in
      (* (name, k, fingerprint, canonical bytes) of every fresh key the
         router answered while the victim was dead. *)
      let issued_keys = ref [] in
      let timeline () =
        sleep_until (at 0.35);
        Printf.eprintf "cluster: kill -9 shard-%d\n%!" victim;
        (try Unix.kill pids.(victim) Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pids.(victim))
         with Unix.Unix_error _ -> ());
        (* Write the victim-owned fresh keys into the hole: the router
           fails over to the surviving owner and parks a hint. *)
        (* The router answers "no shard available" — a structured error
           the client rightly never retries — whenever a key's surviving
           owner is itself inside a partition window, so the harness
           retries past the window instead. *)
        let rec issue_fresh ~tries (name, k, key_fp) =
          match fetch_construction ~attempts:3 ~name ~k connect_router with
          | Ok (fp', bytes, _) when fp' = key_fp -> Some (name, k, key_fp, bytes)
          | Ok (fp', _, _) ->
            Printf.eprintf "cluster: fresh key %s/%d: fingerprint %s != %s\n%!"
              name k fp' key_fp;
            None
          | Error e ->
            if tries > 1 then begin
              Thread.delay 0.4;
              issue_fresh ~tries:(tries - 1) (name, k, key_fp)
            end
            else begin
              Printf.eprintf "cluster: fresh key %s/%d: %s\n%!" name k e;
              None
            end
        in
        issued_keys := List.filter_map (issue_fresh ~tries:10) fresh_keys;
        Printf.eprintf "cluster: issued %d fresh victim-owned keys\n%!"
          (List.length !issued_keys);
        (* Offline fsck over the store files must see the hole: the
           surviving owner logged the fresh keys, the victim's file
           cannot have them. *)
        Thread.delay 0.3;
        let offline =
          fsck_run ~ring_members:members ~replicas:2 ~repair:false
            (List.map
               (fun m ->
                 Router.Fsck.store_source ~name:m
                   (store_path (index_of_member m)))
               members)
        in
        check "divergence_appeared"
          (List.exists
             (fun (d : Router.Fsck.divergence) ->
               List.exists
                 (fun (_, _, key_fp, _) -> key_fp = d.Router.Fsck.key)
                 !issued_keys)
             offline.Router.Fsck.divergent
          || (!issued_keys = [] && offline.Router.Fsck.divergent <> []));
        sleep_until (at 0.5);
        check "router_failover_identity"
          (identical "router failover fetch" (fetch_warm connect_router));
        check "replica_holds_quorum_copy"
          (match fetch_warm ~attempts:5 (connect_shard replica_member) with
          | Ok (fp', bytes, resp) ->
            fp' = fp && bytes = bytes0 && response_cached resp
          | Error e ->
            Printf.eprintf "cluster: replica fetch: %s\n%!" e;
            false);
        sleep_until (at 0.65);
        Printf.eprintf "cluster: restart shard-%d\n%!" victim;
        pids.(victim) <- spawn_shard ~dir ~port:ports.(victim) ~index:victim ();
        check "victim_restarted"
          (wait_shard_ready ~port:ports.(victim)
             ~deadline_at:(Engine.Clock.after_ms 20_000))
      in
      let timeline_th = Thread.create timeline () in
      (* One connection to the partitioned shard held through the soak,
         sending [health] every 50 ms: partitions are decided per line,
         so a window must hang up on it unanswered at least once, as on
         a new connection. *)
      let persistent_hang_ups = Atomic.make 0 in
      let persistent_th =
        Option.map
          (fun i ->
            (* One attempt per ping; a broken connection is reopened
               before the next one. *)
            let retry = { Serve.Client.default_retry with attempts = 1 } in
            let client = connect_shard (List.nth members i) () in
            Thread.create
              (fun () ->
                while not (passed stop_at) do
                  (match
                     Serve.Client.request ~retry client
                       Serve.Protocol.health_request
                   with
                  | Error _ when Serve.Client.hung_up client ->
                    Atomic.incr persistent_hang_ups
                  | Ok _ | Error _ -> ());
                  Thread.delay 0.05
                done;
                Serve.Client.close client)
              ())
          chaos_target
      in
      let tallies = Array.init clients (fun _ -> new_tally ()) in
      let workers =
        Array.mapi
          (fun i tally ->
            Thread.create
              (fun () ->
                soak_worker ~connect:connect_router ~stop_at
                  ~seed:(seed + (7919 * (i + 1)))
                  ~retries tally)
              ())
          tallies
      in
      Array.iter Thread.join workers;
      Thread.join timeline_th;
      Option.iter
        (fun th ->
          Thread.join th;
          check "persistent_link_hung_up" (Atomic.get persistent_hang_ups > 0))
        persistent_th;
      check "router_identity_after_recovery"
        (identical "post-recovery router fetch" (fetch_warm connect_router));
      check "victim_store_identity"
        (identical "restarted victim fetch"
           (fetch_warm ~attempts:5 (connect_shard victim_member)));
      (* Heal the partition before judging convergence — a shard still
         hanging up on random lines would make online fsck flap. *)
      (match chaos_target with
      | None -> ()
      | Some i ->
        Printf.eprintf "cluster: healing partition chaos on shard-%d\n%!" i;
        shutdown_endpoint (fun () ->
            Serve.Client.connect_tcp ~timeout_s:5. ports.(i));
        wait_exit pids.(i);
        pids.(i) <- spawn_shard ~dir ~port:ports.(i) ~index:i ();
        ignore
          (wait_shard_ready ~port:ports.(i)
             ~deadline_at:(Engine.Clock.after_ms 20_000)));
      (* The hint drain on the victim's recovery and the anti-entropy
         loop should converge the cluster on their own; give them a
         window, then let an explicit fsck --repair pass close any
         tail before the zero-divergence gate. *)
      let online_sources () =
        List.map (fsck_exchange_source ~timeout_s:10.) members
      in
      let rec converge deadline =
        let r =
          fsck_run ~ring_members:members ~replicas:2 ~repair:false
            (online_sources ())
        in
        if r.Router.Fsck.unreachable = [] && r.Router.Fsck.divergent = []
        then r
        else if passed deadline then begin
          Printf.eprintf
            "cluster: %d divergent after self-healing window; running \
             repair pass\n%!"
            (List.length r.Router.Fsck.divergent);
          fsck_run ~ring_members:members ~replicas:2 ~repair:true
            (online_sources ())
        end
        else begin
          Thread.delay 0.5;
          converge deadline
        end
      in
      let final_fsck = converge (Engine.Clock.after_ms 20_000) in
      check "fsck_clean_after_repair"
        (final_fsck.Router.Fsck.unreachable = []
        && final_fsck.Router.Fsck.remaining = 0
        && final_fsck.Router.Fsck.repair_failures = []);
      (* The repaired copies must be the replicated bytes, served from
         the victim's own store (cached), not recomputed on demand. *)
      check "repaired_bytes_identical"
        (match !issued_keys with
        | [] -> false
        | issued ->
          List.for_all
            (fun (name, k, key_fp, bytes) ->
              match
                fetch_construction ~attempts:5 ~name ~k
                  (connect_shard victim_member)
              with
              | Ok (fp', bytes', resp) ->
                fp' = key_fp && bytes' = bytes && response_cached resp
              | Error e ->
                Printf.eprintf "cluster: victim fetch of %s/%d: %s\n%!" name
                  k e;
                false)
            issued);
      let fsck_json = Router.Fsck.report_to_json final_fsck in
      Out_channel.with_open_text fsck_report_out (fun oc ->
          Out_channel.output_string oc (Sink.to_string fsck_json ^ "\n"));
      teardown ();
      (* The metrics dump lands on router shutdown; the healing paths
         must actually have run, not just left the stores consistent. *)
      let router_repairs =
        match
          In_channel.with_open_text router_metrics_out In_channel.input_all
        with
        | exception Sys_error _ -> -1
        | content -> (
          match Sink.of_string (String.trim content) with
          | Error _ -> -1
          | Ok json -> (
            match
              Option.bind (Sink.member "router" json) (Sink.member "repairs")
            with
            | Some (Sink.Int n) -> n
            | _ -> -1))
      in
      check "router_repairs_recorded" (router_repairs > 0);
      let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
      let sent = sum (fun t -> t.sent)
      and answered = sum (fun t -> t.answered)
      and server_error = sum (fun t -> t.server_error)
      and shed = sum (fun t -> t.shed)
      and expired = sum (fun t -> t.expired)
      and torn = sum (fun t -> t.torn)
      and io_unresolved = sum (fun t -> t.io_unresolved)
      and malformed = sum (fun t -> t.malformed) in
      let all_checks_ok = List.for_all snd !checks in
      print_endline
        (Sink.to_string
           (Sink.Obj
              [
                ("record", Str "cluster_chaos_soak");
                ("shards", Int shards);
                ("clients", Int clients);
                ("seconds", Int seconds);
                ("killed", Str (Printf.sprintf "shard-%d" victim));
                ( "partitioned",
                  match chaos_target with
                  | None -> Sink.Null
                  | Some i -> Str (Printf.sprintf "shard-%d" i) );
                ("fresh_keys", Int (List.length !issued_keys));
                ("router_repairs", Int router_repairs);
                ("fsck", fsck_json);
                ("sent", Int sent);
                ("answered", Int answered);
                ("server_error", Int server_error);
                ("overloaded", Int shed);
                ("deadline_exceeded", Int expired);
                ("torn", Int torn);
                ("io_unresolved", Int io_unresolved);
                ("malformed", Int malformed);
                ( "checks",
                  Obj (List.rev_map (fun (n, ok) -> (n, Sink.Bool ok)) !checks)
                );
              ]));
      if malformed = 0 && io_unresolved = 0 && sent > 0 && all_checks_ok then 0
      else 1
  end

let chaos_entry socket tcp clients seconds retries seed cluster
    router_metrics_out partition_p partition_ms fsck_report_out =
  match cluster with
  | None -> chaos_soak socket tcp clients seconds retries seed
  | Some shards ->
    if shards < 2 then begin
      Printf.eprintf "error: --cluster needs at least 2 shards\n";
      2
    end
    else if partition_p < 0. || partition_p > 1. then begin
      Printf.eprintf "error: --partition-p must be a probability in [0,1]\n";
      2
    end
    else
      cluster_soak ~shards ~clients ~seconds ~retries ~seed ~router_metrics_out
        ~partition_p ~partition_ms ~fsck_report_out

(* --- cmdliner wiring --- *)

open Cmdliner

let k_arg default =
  Arg.(value & opt int default & info [ "k" ] ~docv:"K" ~doc:"Size parameter.")

(* Jobs counts are validated at parse time (>= 1, structured error),
   mirroring the serve protocol's [k] validation: a bad --jobs is a
   usage error on arrival, not a silent clamp inside the pool. *)
let jobs_conv =
  let parse s =
    match Engine.Pool.parse_jobs s with
    | Ok n -> Ok n
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv (Engine.Pool.default_size ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the exhaustive solvers (defaults to \
           $(b,BI_JOBS) or 1; clamped to the core count). Results are \
           identical for any value.")

let mode_conv =
  let parse s =
    match Certify.Mode.of_string s with
    | Ok m -> Ok m
    | Error e -> Error (`Msg e)
  in
  let print ppf m = Format.pp_print_string ppf (Certify.Mode.to_string m) in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(
    value
    & opt mode_conv Certify.Mode.default
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Solver tier: $(b,exhaustive) enumerates every profile for exact \
           point values; $(b,certified) runs potential descent, \
           branch-and-bound and smoothness bounds, returning \
           machine-checked interval brackets that scale to k in the tens; \
           $(b,auto) picks by valid-profile count.")

let concept_conv =
  let parse s =
    match Correlated.Concept.of_string s with
    | Ok c -> Ok c
    | Error e -> Error (`Msg e)
  in
  let print ppf c = Format.pp_print_string ppf (Correlated.Concept.to_string c) in
  Arg.conv (parse, print)

let concept_arg =
  Arg.(
    value
    & opt concept_conv Correlated.Concept.default
    & info [ "concept" ] ~docv:"CONCEPT"
        ~doc:
          "Solution concept: $(b,nash) enumerates pure Bayesian-Nash \
           equilibria (the paper's eqP measures); $(b,cce) and $(b,comm) \
           solve the coarse-correlated / communication equilibrium \
           polytopes by exact-rational LP, returning best/worst social \
           cost with machine-checked dual certificates plus the \
           public-randomness values. Non-nash concepts ignore $(b,--mode).")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"FILE"
        ~doc:
          "Content-addressed result cache backed by this append-only JSON-lines \
           file; created when missing, replayed and verified at startup.")

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Listen on (connect to) loopback TCP instead of the Unix socket.")

let construction_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:Constructions.Registry.describe)
  in
  let json_arg =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:"Emit the full analysis as a single JSON object on stdout.")
  in
  Cmd.v
    (Cmd.info "construction" ~doc:"Exact ignorance measures of a paper construction")
    Term.(
      const construction $ name_arg $ k_arg 4 $ jobs_arg $ json_arg $ cache_arg
      $ mode_arg $ concept_arg)

let adversary_cmd =
  let levels =
    Arg.(value & opt int 3 & info [ "l"; "levels" ] ~docv:"L" ~doc:"Diamond level.")
  in
  let samples =
    Arg.(value & opt int 100 & info [ "s"; "samples" ] ~docv:"N" ~doc:"Monte-Carlo samples.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "adversary" ~doc:"Online Steiner tree vs the diamond adversary")
    Term.(const adversary $ levels $ samples $ seed)

let sec4_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Construction name (as in $(b,construction)).")
  in
  Cmd.v
    (Cmd.info "sec4" ~doc:"Public random bits vs the common prior (Section 4)")
    Term.(const sec4 $ name_arg $ k_arg 3)

let plane_cmd =
  let p =
    Arg.(value & opt int 5 & info [ "p" ] ~docv:"P" ~doc:"Prime order.")
  in
  Cmd.v
    (Cmd.info "plane" ~doc:"Affine-plane incidence sanity check")
    Term.(const plane $ p)

let retries_arg default =
  Arg.(
    value
    & opt int default
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total attempts per request: transport failures and overload \
           responses are retried with capped exponential backoff and \
           deterministic jitter. 0 disables retrying.")

let retry_base_arg =
  Arg.(
    value
    & opt int 25
    & info [ "retry-base-ms" ] ~docv:"MS"
        ~doc:"First retry backoff; doubles per attempt, capped at 2 s.")

let serve_cmd =
  let capacity =
    Arg.(
      value
      & opt int 4096
      & info [ "capacity" ] ~docv:"N" ~doc:"In-memory LRU capacity (entries).")
  in
  let metrics_out =
    Arg.(
      value
      & opt string "SERVE_metrics.json"
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"File receiving the final metrics dump on shutdown.")
  in
  let deadline =
    Arg.(
      value
      & opt int 0
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Per-request wall-clock budget: caps any $(b,deadline_ms) a \
             request carries and applies to requests that carry none. \
             Expired requests get a structured $(b,deadline_exceeded) \
             response. 0 means unlimited.")
  in
  let max_concurrent =
    Arg.(
      value
      & opt int Serve.Server.default_limits.Serve.Server.max_concurrent
      & info [ "max-concurrent" ] ~docv:"N"
          ~doc:"Analyses computing at once; further ones queue.")
  in
  let max_queue =
    Arg.(
      value
      & opt int Serve.Server.default_limits.Serve.Server.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Queued analyses beyond which requests are shed immediately \
             with a structured $(b,overloaded) response.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float 0.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections idle for this long. 0 disables.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection, e.g. \
             $(b,seed=1,delay_p=0.2,delay_ms=40,drop_p=0.05,truncate_p=0.05,corrupt_store_p=0.1). \
             Defaults to the $(b,BI_CHAOS) environment variable. Never use \
             in production.")
  in
  let shard_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard-id" ] ~docv:"ID"
          ~doc:
            "Name this node carries as a cluster shard; reported by the \
             $(b,health) and $(b,stats) verbs so a router can tell its \
             members apart.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Analysis server: cached exact ignorance measures over a socket")
    Term.(
      const serve $ socket_arg $ tcp_arg $ cache_arg $ capacity $ metrics_out
      $ jobs_arg $ deadline $ max_concurrent $ max_queue $ idle_timeout
      $ chaos $ shard_id)

let router_cmd =
  let members =
    Arg.(
      value
      & opt (some string) None
      & info [ "members" ] ~docv:"LIST"
          ~doc:
            "Comma-separated shard addresses: a socket path, a bare port, \
             or $(b,127.0.0.1:port).")
  in
  let members_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "members-file" ] ~docv:"FILE"
          ~doc:
            "File holding the member list (commas or whitespace); re-read \
             on SIGHUP to change membership without a restart.")
  in
  let replicas =
    Arg.(
      value
      & opt int Router.Router.default_config.Router.Router.replicas
      & info [ "replicas" ] ~docv:"N" ~doc:"Owners per key on the hash ring.")
  in
  let quorum =
    Arg.(
      value
      & opt int Router.Router.default_config.Router.Router.quorum
      & info [ "quorum" ] ~docv:"W"
          ~doc:"Copies a cache write must reach (at most $(b,--replicas)).")
  in
  let front_capacity =
    Arg.(
      value
      & opt int Router.Router.default_config.Router.Router.front_capacity
      & info [ "front-capacity" ] ~docv:"N"
          ~doc:"Router-side answer cache (entries); also the warm set \
                pushed to recovering shards.")
  in
  let metrics_out =
    Arg.(
      value
      & opt string "ROUTER_metrics.json"
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"File receiving the final router metrics dump on shutdown.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Cluster front-end: consistent-hashes fingerprints across shards, \
          replicates writes to a quorum, fails over on overload and loss, \
          probes health and warms recovered members")
    Term.(
      const router $ socket_arg $ tcp_arg $ members $ members_file $ replicas
      $ quorum $ front_capacity $ metrics_out)

let query_cmd =
  let verb_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VERB"
          ~doc:
            "One of: $(b,construction) NAME (named paper game), $(b,analyze) \
             (game description JSON on stdin), $(b,stats), $(b,health), \
             $(b,shutdown).")
  in
  let name_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"NAME" ~doc:"Construction name for the construction verb.")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Attach a $(b,deadline_ms) budget: the server answers \
             $(b,deadline_exceeded) instead of running past it.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Send one request to a running analysis server")
    Term.(
      const query $ socket_arg $ tcp_arg $ verb_arg $ name_arg
      $ k_arg Serve.Protocol.default_k $ deadline $ retries_arg 0
      $ retry_base_arg $ mode_arg $ concept_arg)

let fsck_cmd =
  let members =
    Arg.(
      value
      & opt (some string) None
      & info [ "members" ] ~docv:"LIST"
          ~doc:
            "Comma-separated shard addresses to check live over the \
             cluster-internal $(b,digest)/$(b,pull) verbs; with \
             $(b,--store), ring names for the store files instead \
             (paired positionally).")
  in
  let members_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "members-file" ] ~docv:"FILE"
          ~doc:"File holding the member list (commas or whitespace).")
  in
  let stores =
    Arg.(
      value
      & opt_all string []
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Offline mode: check these append-only store files directly \
             (repeatable). Without $(b,--members) the paths themselves \
             name the ring and full replication is assumed.")
  in
  let replicas =
    Arg.(
      value
      & opt (some int) None
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Owners per key on the hash ring; must match the router's. \
             Defaults to the router default, or to every source in \
             stores-only mode.")
  in
  let repair =
    Arg.(
      value
      & flag
      & info [ "repair" ]
          ~doc:
            "Converge: push the authoritative copy (the holder earliest \
             in ring-owner order) to every owner that lacks it or \
             disagrees, through the ordinary $(b,put) path, then \
             re-measure.")
  in
  let report_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the JSON report to $(docv).")
  in
  let timeout =
    Arg.(
      value
      & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-exchange read timeout for live shards.")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Replica consistency check: compare every key's copies across \
          its ring owners (live shards or store files), report \
          divergences per bucket, optionally repair; exits 0 when \
          consistent, 1 on divergence or failed repair, 2 on usage \
          errors or unreachable sources")
    Term.(
      const fsck $ members $ members_file $ stores $ replicas $ repair
      $ report_file $ timeout)

let chaos_cmd =
  let clients =
    Arg.(
      value
      & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent soak clients.")
  in
  let seconds =
    Arg.(
      value
      & opt int 10
      & info [ "seconds" ] ~docv:"S" ~doc:"Soak duration.")
  in
  let seed =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed for the request mix.")
  in
  let cluster =
    Arg.(
      value
      & opt ~vopt:(Some 3) (some int) None
      & info [ "cluster" ] ~docv:"N"
          ~doc:
            "Cluster mode: spawn $(docv) local shards (default 3) and a \
             router, soak through the router, kill -9 the shard owning a \
             warm key mid-soak, restart it, and additionally require warm \
             answers to stay byte-identical across the failover.")
  in
  let router_metrics_out =
    Arg.(
      value
      & opt string "ROUTER_metrics.json"
      & info [ "router-metrics-out" ] ~docv:"FILE"
          ~doc:"Cluster mode: file receiving the router metrics dump.")
  in
  let partition_p =
    Arg.(
      value
      & opt float 0.
      & info [ "partition-p" ] ~docv:"P"
          ~doc:
            "Cluster mode: give one non-owner shard partition chaos — \
             each request line opens, with probability $(docv), a \
             window during which the shard hangs up on every line, on \
             new and open connections alike. \
             The soak then requires the healing paths to converge: \
             divergence must appear while the victim is down and \
             $(b,bi fsck) must report zero divergent keys afterwards.")
  in
  let partition_ms =
    Arg.(
      value
      & opt int 300
      & info [ "partition-ms" ] ~docv:"MS"
          ~doc:"Cluster mode: partition window length.")
  in
  let fsck_report_out =
    Arg.(
      value
      & opt string "FSCK_report.json"
      & info [ "fsck-report-out" ] ~docv:"FILE"
          ~doc:"Cluster mode: file receiving the final fsck report.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak a running server with a deterministic mix of valid, doomed \
          and garbage requests; exits non-zero if any exchange ends in a \
          hang, a malformed response, or an unrecovered transport failure")
    Term.(
      const chaos_entry $ socket_arg $ tcp_arg $ clients $ seconds
      $ retries_arg 8 $ seed $ cluster $ router_metrics_out $ partition_p
      $ partition_ms $ fsck_report_out)

let () =
  (* Surface a malformed BI_JOBS before any command runs off jobs = 1. *)
  (match Engine.Pool.env_jobs () with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 2);
  let doc = "explorer for the Bayesian-ignorance reproduction" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "bi" ~doc)
          [
            construction_cmd; adversary_cmd; sec4_cmd; plane_cmd; serve_cmd;
            router_cmd; query_cmd; chaos_cmd; fsck_cmd;
          ]))
