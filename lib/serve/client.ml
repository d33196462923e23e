module Sink = Bi_engine.Sink

type addr =
  | Unix_path of string
  | Tcp_port of int

type failure =
  | Io of string
  | Malformed of string
  | Closed

let failure_to_string = function
  | Io e -> Printf.sprintf "i/o failure: %s" e
  | Malformed e -> Printf.sprintf "malformed response: %s" e
  | Closed -> "client is closed"

type retry = {
  attempts : int;
  base_delay_ms : int;
  max_delay_ms : int;
  seed : int option;
}

let default_retry =
  { attempts = 5; base_delay_ms = 25; max_delay_ms = 2000; seed = None }

type t = {
  mutable ic : in_channel;
  mutable oc : out_channel;
  mutable state : [ `Live | `Broken | `Closed ];
  mutable hung_up : bool;  (* the last request met a closed peer *)
  addr : addr;
  timeout_s : float option;
  ident : int;  (* default jitter seed: unique per connection *)
  mutable waits : int;  (* jitter stream position across retries *)
}

(* The default jitter seed mixes the pid with a per-process connection
   counter and the peer address, so a fleet of clients that all lose
   the same shard does NOT replay one shared backoff sequence and
   retry in lockstep (the thundering herd a fixed seed caused).  Tests
   that need a reproducible schedule pass an explicit [seed]. *)
let ident_counter = Atomic.make 0

let derive_ident addr =
  let tag =
    match addr with
    | Unix_path p -> "unix:" ^ p
    | Tcp_port p -> "tcp:" ^ string_of_int p
  in
  Hashtbl.hash (Unix.getpid (), Atomic.fetch_and_add ident_counter 1, tag)

let open_addr = function
  | Unix_path path -> Unix.open_connection (Unix.ADDR_UNIX path)
  | Tcp_port port ->
    Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let apply_timeout ic timeout_s =
  match timeout_s with
  | None -> ()
  | Some s ->
    Unix.setsockopt_float (Unix.descr_of_in_channel ic) Unix.SO_RCVTIMEO s

let make ?timeout_s addr =
  let ic, oc = open_addr addr in
  apply_timeout ic timeout_s;
  { ic; oc; state = `Live; hung_up = false; addr; timeout_s;
    ident = derive_ident addr; waits = 0 }

let connect_unix ?timeout_s path = make ?timeout_s (Unix_path path)
let connect_tcp ?timeout_s port = make ?timeout_s (Tcp_port port)

let teardown t =
  (try Unix.shutdown_connection t.ic
   with Unix.Unix_error _ | Sys_error _ -> ());
  close_in_noerr t.ic

let mark_broken t =
  if t.state = `Live then begin
    t.state <- `Broken;
    teardown t
  end

(* A response line that fails to parse is either a line torn mid-write
   (crash or injected truncation — the connection is at or about to hit
   EOF) or a healthy peer speaking garbage.  Distinguish by probing: if
   the socket turns readable shortly, the next read tells us; a quiet
   open connection means the line itself was the problem. *)
let connection_ended t =
  match Unix.select [ Unix.descr_of_in_channel t.ic ] [] [] 0.25 with
  | [], _, _ -> false
  | _ -> (
    match input_line t.ic with
    | exception End_of_file -> true
    | exception Sys_error _ -> true
    | exception Sys_blocked_io -> false
    | _ -> false)
  | exception Unix.Unix_error _ -> true

(* A failed write (EPIPE), an EOF before the first byte of the line or
   a reset on the read all mean the peer had closed the connection
   before answering: [hung_up].  A read timeout does not. *)
let raw_request t line =
  t.hung_up <- false;
  match t.state with
  | `Closed | `Broken -> Error Closed
  | `Live -> (
    let fail ~hung_up e =
      t.hung_up <- hung_up;
      mark_broken t;
      Error (Io e)
    in
    match
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      input_line t.ic
    with
    | exception End_of_file -> fail ~hung_up:true "connection closed by server"
    | exception Sys_error e -> fail ~hung_up:true e
    | exception Sys_blocked_io -> fail ~hung_up:false "read timed out"
    | response -> Ok response)

let hung_up t = t.hung_up

let request_with t line read =
  match raw_request t line with
  | Error _ as e -> e
  | Ok response -> (
    match read response with
    | Ok v -> Ok v
    | Error e ->
      let torn = connection_ended t in
      mark_broken t;
      if torn then Error (Io (Printf.sprintf "torn response (%s)" e))
      else Error (Malformed e))

let request_line t line = request_with t line Sink.of_string

let request_once t j = request_line t (Sink.to_string j)

let reconnect t =
  t.hung_up <- false;
  match open_addr t.addr with
  | ic, oc ->
    apply_timeout ic t.timeout_s;
    t.ic <- ic;
    t.oc <- oc;
    t.state <- `Live;
    Ok ()
  | exception Unix.Unix_error (err, _, _) ->
    Error (Io (Printf.sprintf "reconnect: %s" (Unix.error_message err)))

(* Capped exponential backoff with deterministic jitter: wait [i] is
   [min max (base * 2^i)] scaled into [[1/2, 1)] by the seeded stream,
   raised to the server's [retry_after_ms] hint when it is larger.
   Pure in all of its inputs so the qcheck laws can pin it down. *)
let backoff_wait_ms ~base_delay_ms ~max_delay_ms ~seed ~wait_index ~attempt
    ~hint_ms =
  let cap = max 1 max_delay_ms in
  let base = max 1 base_delay_ms in
  let raw = if attempt >= 30 then cap else min cap (base * (1 lsl attempt)) in
  let u = Chaos.unit_float ~seed ~counter:wait_index in
  let jittered = int_of_float (float_of_int raw *. (0.5 +. (0.5 *. u))) in
  max 1 (max jittered (Option.value hint_ms ~default:0))

let backoff_ms retry t ~attempt ~hint_ms =
  let seed = match retry.seed with Some s -> s | None -> t.ident in
  let wait_index = t.waits in
  t.waits <- t.waits + 1;
  backoff_wait_ms ~base_delay_ms:retry.base_delay_ms
    ~max_delay_ms:retry.max_delay_ms ~seed ~wait_index ~attempt ~hint_ms

let sleep_ms ms = Thread.delay (float_of_int ms /. 1000.)

let request ?retry t j =
  match retry with
  | None -> request_once t j
  | Some retry ->
    let attempts = max 1 retry.attempts in
    let rec go attempt =
      let result =
        if t.state = `Broken then
          match reconnect t with
          | Ok () -> request_once t j
          | Error f -> Error f
        else request_once t j
      in
      let last = attempt >= attempts - 1 in
      let retry_with hint =
        sleep_ms (backoff_ms retry t ~attempt ~hint_ms:hint);
        go (attempt + 1)
      in
      match result with
      | Ok response
        when (not last) && Protocol.response_code response = Some "overloaded"
        ->
        retry_with (Protocol.retry_after_ms response)
      | Ok _ -> result
      | Error Closed -> result
      | Error (Io _ | Malformed _) when not last -> retry_with None
      | Error _ -> result
    in
    go 0

let close t =
  match t.state with
  | `Closed -> ()
  | `Broken -> t.state <- `Closed
  | `Live ->
    t.state <- `Closed;
    teardown t
