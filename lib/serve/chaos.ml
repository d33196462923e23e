type config = {
  seed : int;
  delay_p : float;
  delay_ms : int;
  drop_p : float;
  truncate_p : float;
  corrupt_store_p : float;
  partition_p : float;
  partition_ms : int;
  slow_p : float;
  slow_ms : int;
}

let disabled =
  {
    seed = 0;
    delay_p = 0.;
    delay_ms = 0;
    drop_p = 0.;
    truncate_p = 0.;
    corrupt_store_p = 0.;
    partition_p = 0.;
    partition_ms = 1000;
    slow_p = 0.;
    slow_ms = 1000;
  }

let is_enabled c =
  c.delay_p > 0. || c.drop_p > 0. || c.truncate_p > 0.
  || c.corrupt_store_p > 0. || c.partition_p > 0. || c.slow_p > 0.

let parse_field c key value =
  let prob name f =
    match float_of_string_opt value with
    | Some p when p >= 0. && p <= 1. -> Ok (f p)
    | _ -> Error (Printf.sprintf "%s must be a probability in [0,1], got %S" name value)
  in
  let int name f =
    match int_of_string_opt value with
    | Some n -> Ok (f n)
    | None -> Error (Printf.sprintf "%s must be an integer, got %S" name value)
  in
  match key with
  | "seed" -> int "seed" (fun seed -> { c with seed })
  | "delay_p" -> prob "delay_p" (fun delay_p -> { c with delay_p })
  | "delay_ms" -> (
    match int_of_string_opt value with
    | Some n when n >= 0 -> Ok { c with delay_ms = n }
    | _ -> Error (Printf.sprintf "delay_ms must be a non-negative integer, got %S" value))
  | "drop_p" -> prob "drop_p" (fun drop_p -> { c with drop_p })
  | "truncate_p" -> prob "truncate_p" (fun truncate_p -> { c with truncate_p })
  | "corrupt_store_p" ->
    prob "corrupt_store_p" (fun corrupt_store_p -> { c with corrupt_store_p })
  | "partition_p" -> prob "partition_p" (fun partition_p -> { c with partition_p })
  | "partition_ms" -> (
    match int_of_string_opt value with
    | Some n when n >= 0 -> Ok { c with partition_ms = n }
    | _ ->
      Error
        (Printf.sprintf "partition_ms must be a non-negative integer, got %S"
           value))
  | "slow_p" -> prob "slow_p" (fun slow_p -> { c with slow_p })
  | "slow_ms" -> (
    match int_of_string_opt value with
    | Some n when n >= 0 -> Ok { c with slow_ms = n }
    | _ ->
      Error
        (Printf.sprintf "slow_ms must be a non-negative integer, got %S" value))
  | _ -> Error (Printf.sprintf "unknown chaos key %S" key)

let parse spec =
  let spec = String.trim spec in
  if spec = "" then Ok disabled
  else
    String.split_on_char ',' spec
    |> List.fold_left
         (fun acc pair ->
           Result.bind acc (fun c ->
               match String.index_opt pair '=' with
               | None ->
                 Error (Printf.sprintf "chaos spec entry %S is not key=value" pair)
               | Some i ->
                 let key = String.trim (String.sub pair 0 i) in
                 let value =
                   String.trim
                     (String.sub pair (i + 1) (String.length pair - i - 1))
                 in
                 parse_field c key value))
         (Ok disabled)

let of_env () =
  match Sys.getenv_opt "BI_CHAOS" with
  | None | Some "" -> Ok disabled
  | Some spec -> parse spec

(* --- deterministic decisions ------------------------------------------ *)

(* splitmix64 over (seed, decision counter): stateless apart from the
   counter, so concurrent server threads draw from one reproducible
   stream regardless of interleaving. *)
let splitmix64 x =
  let x = Int64.add x 0x9E3779B97F4A7C15L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let unit_float ~seed ~counter =
  let bits = splitmix64 (Int64.add (Int64.of_int seed) (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int counter))) in
  (* 53 uniform mantissa bits -> [0, 1). *)
  Int64.to_float (Int64.shift_right_logical bits 11) *. (1. /. 9007199254740992.)

type t = {
  cfg : config;
  counter : int Atomic.t;
  (* Partition window: once opened, every request line in the next
     [partition_ms] is hung up on — a whole-node network event, not an
     independent per-request coin flip.  An {!Bi_engine.Clock} reading,
     so a wall-clock step can neither stretch nor cancel a window;
     [min_int] (below every reading) while none has opened.  Guarded by
     [window_lock]. *)
  window_lock : Mutex.t;
  mutable partition_until : int;
}

let config t = t.cfg

let draw t =
  if not (is_enabled t.cfg) then 1.0
  else unit_float ~seed:t.cfg.seed ~counter:(Atomic.fetch_and_add t.counter 1)

type action = {
  delay_ms : int;
  transport : [ `Deliver | `Truncate | `Drop ];
}

let deliver = { delay_ms = 0; transport = `Deliver }
let faulty a = a <> deliver

let response_action t =
  if not (is_enabled t.cfg) then deliver
  else
    let delay_ms =
      if draw t < t.cfg.delay_p then t.cfg.delay_ms else 0
    in
    let transport =
      if draw t < t.cfg.drop_p then `Drop
      else if draw t < t.cfg.truncate_p then `Truncate
      else `Deliver
    in
    { delay_ms; transport }

(* Per-line decision, taken before a request line is handled, so a
   long-lived connection meets a partition exactly as a fresh one does.
   [`Hang_up] closes the connection without answering — to the client
   it is exactly a partitioned or dead peer: fast connection loss, no
   response, so the router classifies it as a transport failure and
   fails over.  A positive [partition_p] draw opens a [partition_ms]
   window during which *every* line is hung up on.  [`Stall n] holds
   the line for [n] ms before handling it — the slow-peer fault that
   exercises client read timeouts. *)
let peer_action t =
  if not (is_enabled t.cfg) then `Proceed
  else begin
    let now = Bi_engine.Clock.now_ns () in
    let partitioned =
      t.cfg.partition_p > 0.
      && begin
           Mutex.lock t.window_lock;
           let inside = now < t.partition_until in
           let inside =
             if inside then true
             else if draw t < t.cfg.partition_p then begin
               t.partition_until <-
                 Bi_engine.Clock.after_ms t.cfg.partition_ms;
               true
             end
             else false
           in
           Mutex.unlock t.window_lock;
           inside
         end
    in
    if partitioned then `Hang_up
    else if t.cfg.slow_p > 0. && draw t < t.cfg.slow_p then `Stall t.cfg.slow_ms
    else `Proceed
  end

(* Store corruption: overwrite a byte mid-line so the entry fails its
   checksum (or JSON parse) on replay — exactly the damage a torn or
   bit-flipped write leaves behind. *)
let corrupt_line t line =
  if String.length line = 0 || draw t >= t.cfg.corrupt_store_p then line
  else begin
    let b = Bytes.of_string line in
    let i = Bytes.length b / 2 in
    Bytes.set b i '#';
    Bytes.to_string b
  end

let create cfg =
  let t =
    {
      cfg;
      counter = Atomic.make 0;
      window_lock = Mutex.create ();
      partition_until = min_int;
    }
  in
  if cfg.corrupt_store_p > 0. then
    Bi_cache.Store.set_write_fault (Some (corrupt_line t));
  t
