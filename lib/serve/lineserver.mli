(** The line-oriented connection fabric shared by {!Server} and the
    cluster router.

    Owns everything about a socket endpoint that is not protocol:
    binding the listener (with socket-clobber protection), a
    thread-per-connection accept loop with bounded thread reaping,
    per-connection idle timeouts, and the graceful-shutdown dance
    (stop flag, self-connect poke to wake a blocked [accept], then, from
    the accept loop, [SHUTDOWN_RECEIVE] on live connections to unblock
    parked reads, join-all on exit).  The caller supplies, per
    connection, a handler that interprets one input line and writes
    whatever response it wants, and closes what the connection owns
    when it ends. *)

type listen = Unix_socket of string | Tcp of int
(** TCP binds loopback only; no authentication is performed.  For
    [Unix_socket], an existing path is probed before binding: only a
    refused connection (a stale socket left by a crash) is unlinked — a
    live server or a non-socket file makes {!create} raise [Failure]
    instead of clobbering it. *)

type t

val create :
  ?idle_timeout_s:float -> ?on_idle_close:(unit -> unit) -> ?backlog:int -> listen -> t
(** Binds the listening socket immediately (so a bad address fails
    before any serving starts), with room for [backlog] (default 16)
    connections not yet accepted.  [idle_timeout_s > 0] closes
    connections whose next request does not arrive in time, reporting
    each through [on_idle_close].
    @raise Failure when the listen address is held by a live server or
    a non-socket file. *)

val stopping : t -> bool
(** True once shutdown has been initiated; long-running handlers poll
    it to bail out early. *)

val initiate_shutdown : t -> unit
(** Sets the stop flag and wakes the accept loop, which then wakes
    every blocked connection thread.  Idempotent and lock-free, so it
    is safe from any thread, from handlers (returning [`Stop] does
    this) and as the SIGINT/SIGTERM handler {!run} installs — which
    OCaml may run on a thread that holds the server's own lock. *)

(** One connection's handler. *)
type handler = {
  line : out_channel -> string -> [ `Continue | `Close | `Stop ];
      (** Runs once per non-blank line; writes (or deliberately
          withholds) the response on the given channel and returns
          [`Continue] to keep the connection, [`Close] to drop it, or
          [`Stop] to shut the whole server down. *)
  close : unit -> unit;
      (** Runs once when the connection ends, however it ends, before
          the server unregisters it and outside the server's lock: the
          place to release what the handler holds for this connection
          (the router's shard links). *)
}

val run : ?on_ready:(unit -> unit) -> handler:(unit -> handler) -> t -> unit
(** Accepts until shutdown (via {!initiate_shutdown}, a [`Stop] from
    a handler, SIGINT or SIGTERM), then joins all connection threads
    and closes + unlinks the listener.  [on_ready] fires once the
    accept loop is about to start — tests use it to connect without
    polling.  [handler ()] runs on each accepted connection's own
    thread before its first read, so per-connection state lives for
    exactly one connection and is closed before [run] returns.  Blank
    lines are skipped; read errors and idle timeouts close the
    connection. *)

val set_unregister_hook : t -> (unit -> unit) -> unit
(** Test seam: the function runs on a connection's thread while it
    unregisters the ended connection, holding the server's lock — the
    window in which a signal delivered to that thread runs its handler
    there. *)
