module Sink = Bi_engine.Sink
module Clock = Bi_engine.Clock
module Metrics = Bi_engine.Metrics
module Pool = Bi_engine.Pool
module Budget = Bi_engine.Budget
module Service = Bi_cache.Service
module Fingerprint = Bi_cache.Fingerprint
module Bncs = Bi_ncs.Bayesian_ncs
module Registry = Bi_constructions.Registry

type listen = Lineserver.listen = Unix_socket of string | Tcp of int

type limits = {
  max_concurrent : int;
  max_queue : int;
  idle_timeout_s : float;
  max_deadline_ms : int;
}

let default_limits =
  { max_concurrent = 8; max_queue = 64; idle_timeout_s = 0.; max_deadline_ms = 0 }

(* The server's instruments, registered in the member order of the
   [server] object that [stats] and the metrics dump render. *)
type metrics = {
  registry : Metrics.t;
  requests : Metrics.counter;
  errors : Metrics.counter;
  hits : Metrics.counter;
  misses : Metrics.counter;
  coalesced : Metrics.counter;
  overloaded : Metrics.counter;
  deadline_exceeded : Metrics.counter;
  idle_closed : Metrics.counter;
  faults_injected : Metrics.counter;
  queue : Metrics.gauge;  (* requests being handled *)
  latency : Metrics.histogram;
}

let create_metrics () =
  let registry = Metrics.create () in
  let counter = Metrics.counter registry in
  let requests = counter "requests" in
  let errors = counter "errors" in
  let hits = counter "hits" in
  let misses = counter "misses" in
  let coalesced = counter "coalesced" in
  let overloaded = counter "overloaded" in
  let deadline_exceeded = counter "deadline_exceeded" in
  let idle_closed = counter "idle_closed" in
  let faults_injected = counter "faults_injected" in
  let queue = Metrics.gauge registry "queue_depth" ~peak:"max_queue_depth" in
  let latency = Metrics.histogram registry "latency_log2_us" in
  { registry; requests; errors; hits; misses; coalesced; overloaded;
    deadline_exceeded; idle_closed; faults_injected; queue; latency }

type t = {
  cache : Service.t;
  pool : Pool.t option;
  metrics : metrics;
  limits : limits;
  chaos : Chaos.t option;
  ls : Lineserver.t;
  lock : Mutex.t;  (* guards [inflight] *)
  cond : Condition.t;  (* signalled when an in-flight computation ends *)
  inflight : (string, unit) Hashtbl.t;
  adm_lock : Mutex.t;  (* guards [running] and [queued] *)
  mutable running : int;  (* analyses currently computing *)
  mutable queued : int;  (* leaders waiting for a compute slot *)
}

(* How a request can fail before or during its analysis. *)
type failure =
  | Overloaded of int  (* retry_after_ms hint *)
  | Deadline
  | Msg of string

let chaos_sleep ms = if ms > 0 then Thread.delay (float_of_int ms /. 1000.)

(* --- admission control ------------------------------------------------ *)

let slot_poll_s = 0.002

(* Admission applies to computation leaders only: cache hits, coalesced
   waiters and the control verbs are never shed, so the cache keeps
   answering and operators keep observing even when the solvers are
   saturated.  A leader is shed outright once [max_concurrent] analyses
   are running and [max_queue] more are waiting; otherwise it polls for
   a free slot, bailing out if its deadline passes or the server stops.
   The retry hint grows with the backlog so clients spread out. *)
let try_admit t ~budget =
  Mutex.lock t.adm_lock;
  let limits = t.limits in
  let total = t.running + t.queued in
  if total >= limits.max_concurrent + limits.max_queue then begin
    let backlog = total - limits.max_concurrent + 1 in
    Mutex.unlock t.adm_lock;
    Error (Overloaded (min 2000 (25 * backlog)))
  end
  else begin
    t.queued <- t.queued + 1;
    let rec wait () =
      if t.running < limits.max_concurrent then begin
        t.queued <- t.queued - 1;
        t.running <- t.running + 1;
        Mutex.unlock t.adm_lock;
        Ok ()
      end
      else begin
        Mutex.unlock t.adm_lock;
        let bail =
          if Lineserver.stopping t.ls then Some (Msg "server is shutting down")
          else if Budget.expired budget then Some Deadline
          else None
        in
        match bail with
        | Some f ->
          Mutex.lock t.adm_lock;
          t.queued <- t.queued - 1;
          Mutex.unlock t.adm_lock;
          Error f
        | None ->
          Thread.delay slot_poll_s;
          Mutex.lock t.adm_lock;
          wait ()
      end
    in
    wait ()
  end

let release_slot t =
  Mutex.lock t.adm_lock;
  t.running <- t.running - 1;
  Mutex.unlock t.adm_lock

(* --- request coalescing ---------------------------------------------- *)

(* One leader computes per cache key; duplicates wait on [cond] and
   are answered from cache when the leader lands.  A leader that fails
   broadcasts too, so a waiter re-checks, finds neither a cached value
   nor an in-flight leader, and takes over the computation itself.
   The chaos compute delay runs inside the admission slot, so injected
   latency exercises the load-shedding path like real slow work.
   [kind] is the tier's entry kind ({!Tier.kind}): a cached entry of
   another kind reads as a miss rather than a crash.  A hit is the
   entry's bytes; a fresh value is rendered once, by [Service.add]. *)
let compute t ~budget ~chaos_delay_ms ~key ~kind solve =
  Mutex.lock t.lock;
  let rec obtain ~waited =
    match Service.lookup t.cache key with
    | Some e when String.equal e.Bi_cache.Store.kind kind ->
      (* A coalesced waiter is answered from the leader's fresh entry,
         so it counts as a hit as well. *)
      Metrics.incr t.metrics.hits;
      if waited then Metrics.incr t.metrics.coalesced;
      Mutex.unlock t.lock;
      Ok (e, true)
    | Some _ | None ->
      if Budget.expired budget then begin
        Mutex.unlock t.lock;
        Error Deadline
      end
      else if Hashtbl.mem t.inflight key then begin
        Condition.wait t.cond t.lock;
        obtain ~waited:true
      end
      else begin
        Hashtbl.add t.inflight key ();
        Mutex.unlock t.lock;
        Metrics.incr t.metrics.misses;
        let result =
          match try_admit t ~budget with
          | Error _ as e -> e
          | Ok () ->
            Fun.protect
              ~finally:(fun () -> release_slot t)
              (fun () ->
                chaos_sleep chaos_delay_ms;
                if Budget.expired budget then Error Deadline
                else
                  match solve () with
                  | Ok v -> Ok (Service.add t.cache key v, false)
                  | Error _ as e -> e
                  | exception Budget.Expired -> Error Deadline
                  | exception Invalid_argument msg -> Error (Msg msg)
                  | exception exn -> Error (Msg (Printexc.to_string exn)))
        in
        Mutex.lock t.lock;
        Hashtbl.remove t.inflight key;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        result
      end
  in
  obtain ~waited:false

(* --- request handling ------------------------------------------------ *)

let budget_of t deadline_ms =
  match (deadline_ms, t.limits.max_deadline_ms) with
  | None, 0 -> Budget.unlimited
  | Some ms, 0 -> Budget.of_timeout_ms ms
  | None, cap -> Budget.of_timeout_ms cap
  | Some ms, cap -> Budget.of_timeout_ms (min ms cap)

let failure_response t = function
  | Overloaded hint ->
    Metrics.incr t.metrics.overloaded;
    (Sink.to_string (Protocol.overloaded ~retry_after_ms:hint), `Continue)
  | Deadline ->
    Metrics.incr t.metrics.deadline_exceeded;
    (Sink.to_string Protocol.deadline_exceeded, `Continue)
  | Msg e ->
    Metrics.incr t.metrics.errors;
    (Sink.to_string (Protocol.error e), `Continue)

(* Answer one analysis request of a resolved tier: its key, its solver
   (run only by a miss's leader, which builds the game then) and its
   response all come from {!Tier}. *)
let answer t ~budget ~chaos_delay_ms ~fingerprint tier build =
  let key = Tier.key tier fingerprint in
  let solve () =
    Result.bind (build ())
      (Tier.solve ?pool:t.pool ~budget ~verify:false tier)
    |> Result.map_error (fun e -> Msg e)
  in
  match compute t ~budget ~chaos_delay_ms ~key ~kind:(Tier.kind tier) solve with
  | Ok (e, cached) ->
    (Tier.response tier ~fingerprint:key ~cached e.Bi_cache.Store.body, `Continue)
  | Error f -> failure_response t f

(* [auto] must build the game to count its valid profiles; the resolved
   tier then reuses the built game. *)
let dispatch t ~budget ~chaos_delay_ms ~fingerprint ~mode ~concept build =
  match Tier.of_query ~mode ~concept with
  | Tier.Known tier -> answer t ~budget ~chaos_delay_ms ~fingerprint tier build
  | Tier.Auto as request -> (
    match build () with
    | Error e -> failure_response t (Msg e)
    | exception Invalid_argument msg -> failure_response t (Msg msg)
    | Ok game ->
      answer t ~budget ~chaos_delay_ms ~fingerprint (Tier.resolve request game)
        (fun () -> Ok game))

let handle_query t ~budget ~chaos_delay_ms query =
  match query with
  | Protocol.Analyze { graph; prior; mode; concept } ->
    let fingerprint = Fingerprint.game graph ~prior in
    dispatch t ~budget ~chaos_delay_ms ~fingerprint ~mode ~concept (fun () ->
        Ok (Bncs.make graph ~prior))
  | Protocol.Construction { name; k; mode; concept } -> (
    (* The fingerprint comes from the construction table; the game is
       built only if a solver needs it (a miss, or [auto] counting its
       profiles). *)
    match Fingerprint.of_construction name k with
    | Error e -> failure_response t (Msg e)
    | Ok fingerprint ->
      dispatch t ~budget ~chaos_delay_ms ~fingerprint ~mode ~concept (fun () ->
          Registry.build name k))
  (* [put] and [health] are cluster-control verbs: like [stats] they are
     never shed and never queue behind solver work, so replication and
     liveness probing keep working on a saturated shard. *)
  | Protocol.Put { fingerprint; value } ->
    chaos_sleep chaos_delay_ms;
    Service.insert t.cache fingerprint value;
    (Sink.to_string (Protocol.ok_stored ~fingerprint), `Continue)
  (* [digest] and [pull] are the repair-path control verbs: cheap reads
     of the resident digest view, never shed, so anti-entropy and fsck
     keep converging replicas even while the solvers are saturated. *)
  | Protocol.Digest { bucket } ->
    chaos_sleep chaos_delay_ms;
    let shard =
      Option.value (Service.stats t.cache).Service.shard ~default:"unnamed"
    in
    let answer =
      match bucket with
      | None -> Protocol.ok_digest ~shard ~rollup:(Service.digest_rollup t.cache)
      | Some b ->
        Protocol.ok_bucket ~shard ~bucket:b ~keys:(Service.bucket_keys t.cache b)
    in
    (Sink.to_string answer, `Continue)
  | Protocol.Pull { keys } ->
    chaos_sleep chaos_delay_ms;
    let shard =
      Option.value (Service.stats t.cache).Service.shard ~default:"unnamed"
    in
    let entries, missing = Service.pull t.cache keys in
    (Protocol.ok_pulled ~shard ~entries ~missing, `Continue)
  | Protocol.Health ->
    chaos_sleep chaos_delay_ms;
    let stats = Service.stats t.cache in
    let shard = Option.value stats.Service.shard ~default:"unnamed" in
    ( Sink.to_string
        (Protocol.ok_health ~shard ~inflight:(Metrics.level t.metrics.queue)
           ~cache:(Service.stats_to_json stats)),
      `Continue )
  | Protocol.Stats ->
    chaos_sleep chaos_delay_ms;
    ( Sink.to_string
        (Protocol.ok_stats
           ~cache:(Service.stats_to_json (Service.stats t.cache))
           ~server:(Metrics.to_json t.metrics.registry)),
      `Continue )
  | Protocol.Shutdown ->
    chaos_sleep chaos_delay_ms;
    (Sink.to_string Protocol.ok_shutdown, `Stop)

let handle_line t ~chaos_delay_ms line =
  Metrics.incr t.metrics.requests;
  Metrics.enter t.metrics.queue;
  let t0 = Clock.now_ns () in
  let response, disposition =
    match Protocol.parse_request line with
    | Error e -> failure_response t (Msg e)
    | Ok { Protocol.query; deadline_ms } -> (
      let budget = budget_of t deadline_ms in
      match handle_query t ~budget ~chaos_delay_ms query with
      | r -> r
      | exception Budget.Expired -> failure_response t Deadline
      | exception exn -> failure_response t (Msg (Printexc.to_string exn)))
  in
  Metrics.leave t.metrics.queue;
  Metrics.observe t.metrics.latency ~ns:(Clock.now_ns () - t0);
  (response, disposition)

(* One answered exchange, including the chaos transport decision: a
   dropped or truncated response leaves the client with wreckage, so
   the connection is closed rather than left desynchronized. *)
let answer_line t oc line =
  let action =
    match t.chaos with
    | None -> Chaos.deliver
    | Some c -> Chaos.response_action c
  in
  if Chaos.faulty action then Metrics.incr t.metrics.faults_injected;
  let response, disposition =
    handle_line t ~chaos_delay_ms:action.Chaos.delay_ms line
  in
  let alive =
    match action.Chaos.transport with
    | `Drop -> false
    | `Truncate ->
      (* A torn write: half the line, no newline, then hang up —
         the same wreckage a crash mid-response leaves. *)
      (try
         output_string oc (String.sub response 0 (String.length response / 2));
         flush oc
       with Sys_error _ -> ());
      false
    | `Deliver -> (
      try
        output_string oc response;
        output_char oc '\n';
        flush oc;
        true
      with Sys_error _ -> false)
  in
  match disposition with
  | `Stop -> `Stop
  | `Continue -> if alive then `Continue else `Close

(* The per-line peer decision comes first: inside a partition window
   the line is hung up on without being handled, and a stall delays it,
   on a long-lived connection exactly as on a fresh one. *)
let handle_conn_line t oc line =
  let peer =
    match t.chaos with None -> `Proceed | Some c -> Chaos.peer_action c
  in
  if peer <> `Proceed then Metrics.incr t.metrics.faults_injected;
  match peer with
  | `Hang_up -> `Close
  | `Stall ms ->
    chaos_sleep ms;
    answer_line t oc line
  | `Proceed -> answer_line t oc line

(* --- lifecycle ------------------------------------------------------- *)

let dump_metrics t path =
  let sink = Sink.create path in
  Fun.protect
    ~finally:(fun () -> Sink.close sink)
    (fun () ->
      Sink.emit sink
        [
          ("record", Sink.Str "serve_metrics");
          ("server", Metrics.to_json t.metrics.registry);
          ("cache", Service.stats_to_json (Service.stats t.cache));
        ])

let run ?pool ?metrics_out ?on_ready ?(limits = default_limits) ?chaos ~cache
    listen =
  let metrics = create_metrics () in
  (* Room to queue as many connections as admission would take
     requests, so a burst of clients that the limits admit is not
     turned away by the listener's queue first. *)
  let ls =
    Lineserver.create ~idle_timeout_s:limits.idle_timeout_s
      ~on_idle_close:(fun () -> Metrics.incr metrics.idle_closed)
      ~backlog:(limits.max_concurrent + limits.max_queue)
      listen
  in
  let t =
    {
      cache;
      pool;
      metrics;
      limits;
      chaos;
      ls;
      lock = Mutex.create ();
      cond = Condition.create ();
      inflight = Hashtbl.create 16;
      adm_lock = Mutex.create ();
      running = 0;
      queued = 0;
    }
  in
  Lineserver.run ?on_ready
    ~handler:(fun () ->
      { Lineserver.line = handle_conn_line t; close = ignore })
    ls;
  Option.iter (dump_metrics t) metrics_out
