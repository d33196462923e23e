type listen = Unix_socket of string | Tcp of int

type handler = {
  line : out_channel -> string -> [ `Continue | `Close | `Stop ];
  close : unit -> unit;
}

type t = {
  lock : Mutex.t;  (* guards [conns], [threads], [finished] *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  threads : (int, Thread.t) Hashtbl.t;
  mutable finished : int list;  (* conn ids whose threads have exited *)
  mutable next_conn : int;
  stop : bool Atomic.t;
  listen_fd : Unix.file_descr;
  listen : listen;
  idle_timeout_s : float;
  on_idle_close : unit -> unit;
  mutable unregister_hook : unit -> unit;  (* test seam, see the .mli *)
}

(* Refuses to clobber another server's socket: an existing path is
   probed with a connect — only a refused connection proves the socket
   is stale and safe to unlink.  A live listener or a non-socket file
   is an error, not a casualty. *)
let bind_listener ~backlog = function
  | Unix_socket path ->
    if Sys.file_exists path then begin
      (match (Unix.lstat path).Unix.st_kind with
      | Unix.S_SOCK -> ()
      | _ ->
        failwith
          (Printf.sprintf "refusing to replace %s: not a socket" path));
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
        | exception Unix.Unix_error (err, _, _) -> `Unknown err
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      match verdict with
      | `Stale -> Unix.unlink path
      | `Live ->
        failwith
          (Printf.sprintf "a server is already listening on %s" path)
      | `Unknown err ->
        failwith
          (Printf.sprintf "cannot probe %s (%s); not replacing it" path
             (Unix.error_message err))
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd backlog;
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd backlog;
    fd

let create ?(idle_timeout_s = 0.) ?(on_idle_close = fun () -> ()) ?(backlog = 16) listen =
  {
    lock = Mutex.create ();
    conns = Hashtbl.create 16;
    threads = Hashtbl.create 16;
    finished = [];
    next_conn = 0;
    stop = Atomic.make false;
    listen_fd = bind_listener ~backlog listen;
    listen;
    idle_timeout_s;
    on_idle_close;
    unregister_hook = ignore;
  }

let set_unregister_hook t f = t.unregister_hook <- f

let stopping t = Atomic.get t.stop

(* [accept] is woken by connecting to our own listening address — a
   plain [close] does not reliably interrupt a blocked [accept]. *)
let poke_listener t =
  let domain, addr =
    match t.listen with
    | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp port ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.connect fd addr with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* This runs as the SIGINT/SIGTERM handler, so it takes no lock: OCaml
   runs a handler on whichever thread next reaches a poll point, and
   that thread may hold [t.lock] (a connection unregistering) —
   relocking an error-checking mutex raises there and leaves the lock
   held for good.  The accept loop, once woken, unblocks the connection
   threads itself ([stop_connections]). *)
let initiate_shutdown t =
  if Atomic.compare_and_set t.stop false true then poke_listener t

(* Unblocks connection threads parked in [input_line]; run by the accept
   loop once it sees the stop flag. *)
let stop_connections t =
  Mutex.lock t.lock;
  Hashtbl.iter
    (fun _ fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  Mutex.unlock t.lock

let serve_conn t ~handler conn_id fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let unregister () =
    Mutex.lock t.lock;
    Hashtbl.remove t.conns conn_id;
    t.finished <- conn_id :: t.finished;
    t.unregister_hook ();
    Mutex.unlock t.lock;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:unregister (fun () ->
      let h = handler () in
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> ()
        | exception Sys_error _ -> ()
        (* SO_RCVTIMEO expiring surfaces as [Sys_blocked_io]. *)
        | exception Sys_blocked_io -> t.on_idle_close ()
        | line when String.trim line = "" -> loop ()
        | line -> (
          match h.line oc line with
          | `Close -> ()
          | `Stop -> initiate_shutdown t
          | `Continue -> if not (Atomic.get t.stop) then loop ())
      in
      (* The handler's own resources go before [unregister], outside
         [t.lock]. *)
      Fun.protect ~finally:h.close loop)

(* Join connection threads that have announced their exit; called from
   the accept loop so the thread table stays bounded by the number of
   live connections instead of growing for the server's lifetime. *)
let reap t =
  Mutex.lock t.lock;
  let done_ = t.finished in
  t.finished <- [];
  let ths =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.threads id with
        | Some th ->
          Hashtbl.remove t.threads id;
          Some th
        | None -> None)
      done_
  in
  Mutex.unlock t.lock;
  List.iter Thread.join ths

let run ?(on_ready = fun () -> ()) ~handler t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_on_signal = Sys.Signal_handle (fun _ -> initiate_shutdown t) in
  let previous_int = Sys.signal Sys.sigint stop_on_signal in
  let previous_term = Sys.signal Sys.sigterm stop_on_signal in
  on_ready ();
  let rec accept_loop () =
    reap t;
    if not (Atomic.get t.stop) then
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error (_, _, _) -> ()
      | fd, _ ->
        if Atomic.get t.stop then
          try Unix.close fd with Unix.Unix_error _ -> ()
        else begin
          if t.idle_timeout_s > 0. then
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.idle_timeout_s;
          (* Register the thread under the lock before it can finish:
             [serve_conn]'s exit path takes the same lock, so the table
             entry always exists by the time its id reaches [finished]. *)
          Mutex.lock t.lock;
          let conn_id = t.next_conn in
          t.next_conn <- conn_id + 1;
          Hashtbl.replace t.conns conn_id fd;
          let th =
            Thread.create
              (fun () -> serve_conn t ~handler conn_id fd)
              ()
          in
          Hashtbl.replace t.threads conn_id th;
          Mutex.unlock t.lock;
          accept_loop ()
        end
  in
  accept_loop ();
  stop_connections t;
  let remaining =
    Mutex.lock t.lock;
    let ths = Hashtbl.fold (fun _ th acc -> th :: acc) t.threads [] in
    Mutex.unlock t.lock;
    ths
  in
  List.iter Thread.join remaining;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.listen with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Sys.set_signal Sys.sigint previous_int;
  Sys.set_signal Sys.sigterm previous_term
