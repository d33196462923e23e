(** The concurrent analysis server.

    Listens on a Unix-domain socket or a loopback TCP port and speaks
    {!Protocol} — one JSON object per line in each direction, any
    number of requests per connection.  Each connection is served by
    its own POSIX thread (reaped as connections close); solver work for
    a cache miss runs on the shared {!Bi_engine.Pool} (concurrent entry
    degrades to sequential safely).  Duplicate in-flight requests for
    the same game fingerprint coalesce: one leader computes, waiters
    are answered from cache and counted as coalesced hits.

    Overload and deadlines are first-class: at most
    [limits.max_concurrent] analyses compute at once, at most
    [limits.max_queue] more wait, and further analysis requests are
    shed immediately with a structured [overloaded] response carrying a
    [retry_after_ms] hint.  Cache hits, coalesced waits, [stats] and
    [shutdown] are never shed.  The listener queues up to
    [max_concurrent + max_queue] connections not yet accepted.  A
    request's [deadline_ms] (capped by [limits.max_deadline_ms] when
    set) bounds its wall-clock time — queueing included — via
    {!Bi_engine.Budget}; an expired request gets [deadline_exceeded],
    never a partial answer.  With
    [limits.idle_timeout_s] set, connections idle past it are closed.

    A {!Chaos} configuration injects deterministic faults (partition
    hang-ups and stalls decided per request line, delays inside the
    admission slot, dropped or truncated responses, corrupted store
    lines) for soak testing; every fault is counted in the metrics.

    [run] blocks until a [shutdown] request, SIGINT or SIGTERM, then
    stops accepting, wakes idle connections, joins all connection
    threads, optionally dumps metrics, and returns. *)

type listen = Lineserver.listen = Unix_socket of string | Tcp of int
(** TCP binds loopback only; the server performs no authentication.
    For [Unix_socket], an existing path is probed before binding: only
    a refused connection (a stale socket left by a crash) is unlinked —
    a live server or a non-socket file makes [run] raise [Failure]
    instead of clobbering it.  (The socket machinery — accept loop,
    thread-per-connection, graceful shutdown — lives in {!Lineserver};
    this module supplies the protocol handler on top.) *)

type limits = {
  max_concurrent : int;  (** Analyses computing at once. *)
  max_queue : int;  (** Leaders waiting for a slot before shedding. *)
  idle_timeout_s : float;  (** Per-connection read timeout; 0 = none. *)
  max_deadline_ms : int;
      (** Cap on (and, when requests carry none, default for) request
          deadlines; 0 = unlimited. *)
}

val default_limits : limits
(** 8 concurrent, 64 queued, no idle timeout, no deadline cap. *)

val run :
  ?pool:Bi_engine.Pool.t ->
  ?metrics_out:string ->
  ?on_ready:(unit -> unit) ->
  ?limits:limits ->
  ?chaos:Chaos.t ->
  cache:Bi_cache.Service.t ->
  listen ->
  unit
(** [run ~cache listen] serves until shut down.  [on_ready] fires once
    the listening socket is bound — tests use it to start clients
    without polling.  [metrics_out] names a file that receives a final
    one-line JSON dump of server metrics and cache statistics.  The
    caller retains ownership of [cache] (and [pool]) and closes them
    after [run] returns.
    @raise Failure when the listen address is held by a live server or
    a non-socket file. *)
