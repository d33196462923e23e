(** A blocking client for the analysis server.

    Opens one connection and issues line-delimited JSON requests
    (build them with {!Protocol}); each {!request} writes one line and
    blocks for the one-line response.

    Failures are classified, and the client tracks its own health: any
    I/O or framing failure marks the connection broken, after which a
    plain {!request} refuses to reuse it ({!failure.Closed}) instead of
    silently writing into a dead socket.  A {!request} with [~retry]
    reconnects to the remembered address and retries with capped
    exponential backoff and deterministic jitter; [overloaded]
    responses are retried too, honouring the server's
    [retry_after_ms] hint. *)

type t

type addr =
  | Unix_path of string  (** A Unix-domain socket path. *)
  | Tcp_port of int  (** A loopback TCP port. *)

type failure =
  | Io of string
      (** The transport failed: connect/read/write error, connection
          reset, read timeout, or a response line torn mid-write. *)
  | Malformed of string
      (** The connection stayed up but the response line was not JSON —
          the server is speaking a different protocol. *)
  | Closed
      (** The client was {!close}d, or is broken and was called without
          [~retry]. *)

val failure_to_string : failure -> string

type retry = {
  attempts : int;  (** Total tries, including the first. *)
  base_delay_ms : int;  (** Backoff starts here and doubles. *)
  max_delay_ms : int;  (** Per-wait cap. *)
  seed : int option;
      (** Jitter stream seed ({!Chaos.unit_float}).  [None] — the
          default — derives a seed from the pid, a per-process
          connection counter and the peer address, so independent
          clients that lose the same server spread their retries out
          instead of replaying one shared jitter sequence in lockstep.
          Pass [Some s] for a reproducible schedule in tests. *)
}

val default_retry : retry
(** 5 attempts, 25 ms base, 2 s cap, derived (per-connection) seed. *)

val backoff_wait_ms :
  base_delay_ms:int ->
  max_delay_ms:int ->
  seed:int ->
  wait_index:int ->
  attempt:int ->
  hint_ms:int option ->
  int
(** The pure backoff schedule: wait [attempt] is
    [min max_delay_ms (base_delay_ms * 2^attempt)] scaled into
    [[1/2, 1)] by the [(seed, wait_index)] jitter stream, raised to
    [hint_ms] when the server's [retry_after_ms] hint is larger, and
    never below 1 ms.  Without a hint the result lies in
    [[1, max_delay_ms]]; a hint acts as a floor and may exceed the
    cap.  Exposed for the qcheck laws. *)

val connect_unix : ?timeout_s:float -> string -> t
(** Connects to a Unix-domain socket path.  With [~timeout_s], reads
    that block longer fail as {!failure.Io} (socket receive timeout)
    instead of hanging forever.
    @raise Unix.Unix_error when the server is not listening. *)

val connect_tcp : ?timeout_s:float -> int -> t
(** Connects to the loopback TCP port. *)

val make : ?timeout_s:float -> addr -> t
(** Connects to an {!addr} — the general form of {!connect_unix} /
    {!connect_tcp} (the router resolves member strings to addresses).
    @raise Unix.Unix_error when the server is not listening. *)

val request :
  ?retry:retry -> t -> Bi_engine.Sink.json -> (Bi_engine.Sink.json, failure) result
(** Sends one request, returns the parsed response.  Check
    {!Protocol.is_ok} / {!Protocol.response_code} for the server-level
    verdict.  Without [~retry], one attempt on the current connection;
    with it, transport failures and [overloaded] responses trigger
    reconnect-and-retry until the attempt budget runs out (the last
    outcome is returned, so a final [overloaded] response surfaces as
    such). *)

val request_line : t -> string -> (Bi_engine.Sink.json, failure) result
(** One attempt of {!request} for a request already rendered as a line:
    the bytes are sent verbatim (a router forwards a client's line this
    way) and the response is parsed and classified exactly as
    {!request} does — a torn line is {!failure.Io}, a garbled line on a
    live connection {!failure.Malformed}. *)

val request_with :
  t -> string -> (string -> ('a, string) result) -> ('a, failure) result
(** {!request_line} with its own reader of the response line in place
    of {!Bi_engine.Sink.of_string}: a line the reader rejects is
    classified, and breaks the connection, as a line that does not
    parse.  The router reads shard answers with
    {!Protocol.scan_answer}. *)

val raw_request : t -> string -> (string, failure) result
(** Sends a raw line (no JSON validation — the fuzz and soak harnesses
    use this to probe with garbage) and returns the raw response line.
    Never retries. *)

val hung_up : t -> bool
(** True when the last request failed because the peer had already
    closed the connection: the write failed, or the read met EOF before
    the first byte of the response or a reset.  A read timeout, a torn
    line or a garbled line is not a hang-up.  The router uses this to
    tell a reused link that its shard closed while it sat idle from a
    shard that failed mid-answer. *)

val close : t -> unit
(** Idempotent. *)
