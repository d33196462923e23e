(* Host-speed calibration.  The same host runs the same work up to half
   again slower or faster from one minute to the next (other guests
   share its cores, and the hypervisor takes vCPU time away), and that
   drift moves every timed number of a run together.  A fixed reference
   service, written here so that no change to the program moves it, is
   timed between the measured blocks; each block's timed numbers are
   then rescaled to the speed that reference has on the reference host,
   so what remains is the program's own cost. *)

(* The kernel has the shape of the program's request path: render a
   JSON-like game description, scan it back into integers, reduce its
   fractions, index them in a hash table, md5 the text and re-encode
   it.  Allocation, string scanning, hashing and integer division, like
   parse / game build / fingerprint / encode. *)
let kernel () =
  let x = ref 0x2545F491 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let b = Buffer.create 16384 in
  Buffer.add_string b "{\"edges\":[";
  for i = 0 to 399 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b "[%d,%d,\"%d/%d\"]" i (next () mod 400) ((next () mod 1000) + 1)
      ((next () mod 97) + 1)
  done;
  Buffer.add_string b "]}";
  let s = Buffer.contents b in
  let n = String.length s in
  let digits = ref [] and i = ref 0 in
  while !i < n do
    if s.[!i] >= '0' && s.[!i] <= '9' then begin
      let j = ref !i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      digits := int_of_string (String.sub s !i (!j - !i)) :: !digits;
      i := !j
    end
    else incr i
  done;
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let h = Hashtbl.create 512 in
  let rec group = function
    | src :: dst :: p :: q :: rest ->
      let g = gcd p q in
      Hashtbl.replace h (src, dst) (p / g, q / g);
      group rest
    | _ -> ()
  in
  group (List.rev !digits);
  let out = Buffer.create 16384 in
  Hashtbl.iter (fun (src, dst) (p, q) -> Printf.bprintf out "%d %d %d/%d;" src dst p q) h;
  Digest.string (Digest.string s ^ Buffer.contents out)

(* Kernel calls per request, requests per trial, requests in flight (as
   many as the load process's connections), and trials per calibration
   (~0.2 s). *)
let kernels = 2
let calls = 20
let in_flight = 2
let trials = 5

(* A calibration: the median wall time of a trial, the median wall time
   of one request from send to answer, and the service's median CPU time
   of a trial.  A steal or a preemption lengthens a trial, like a block
   of requests, but leaves the median request alone. *)
type t = { wall_ms : float; rtt_ms : float; cpu_ms : float }

(* The same on the reference host: a calibration that reads these is a
   factor of 1. *)
let reference = { wall_ms = 40.; rtt_ms = 4.; cpu_ms = 40. }

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The reference service is a child process shaped like the program
   under test: the load process keeps [in_flight] lines outstanding on a
   Unix socket, and the service answers each, in order, after running
   the kernel, with its own CPU seconds so far.  So, like a shard under
   the load process, it always has the next request waiting, and a
   request's time is its wait behind the other plus its own work. *)
type service = { pid : int; ic : in_channel; oc : out_channel }

let serve fd =
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  try
    while true do
      ignore (input_line ic);
      for _ = 1 to kernels do
        ignore (Sys.opaque_identity (kernel ()))
      done;
      Printf.fprintf oc "%.17g\n%!" (cpu ())
    done
  with End_of_file -> ()

(* Forks the reference service; call it while the heap is still small,
   since the child starts with a copy of it. *)
let start () =
  let mine, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close mine;
    (try serve theirs with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close theirs;
    { pid; ic = Unix.in_channel_of_descr mine; oc = Unix.out_channel_of_descr mine }

(* Closing the socket ends the service; it is reaped before returning. *)
let stop s =
  close_out_noerr s.oc;
  let rec reap () =
    match Unix.waitpid [] s.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let send s =
  output_string s.oc "k\n";
  flush s.oc

let answer s = float_of_string (input_line s.ic)

(* A calibration, right now. *)
let measure s =
  let walls = Array.make trials 0. and cpus = Array.make trials 0. in
  let rtts = Array.make (trials * calls) 0. and sent_at = Array.make calls 0. in
  let issue i =
    sent_at.(i) <- Unix.gettimeofday ();
    send s
  in
  send s;
  let last = ref (answer s) in
  for t = 0 to trials - 1 do
    let w0 = Unix.gettimeofday () and c0 = !last in
    for i = 0 to in_flight - 1 do
      issue i
    done;
    for i = 0 to calls - 1 do
      last := answer s;
      rtts.((t * calls) + i) <- (Unix.gettimeofday () -. sent_at.(i)) *. 1e3;
      if i + in_flight < calls then issue (i + in_flight)
    done;
    walls.(t) <- (Unix.gettimeofday () -. w0) *. 1e3;
    cpus.(t) <- (!last -. c0) *. 1e3
  done;
  { wall_ms = Stats.median walls; rtt_ms = Stats.median rtts; cpu_ms = Stats.median cpus }

(* How much slower than the reference host the host ran over a span
   calibrated at its start [a] and end [b]: divide a time measured in
   the span by this (multiply a rate) to get the reference host's.  A
   total or a tail takes the [wall_factor], a median the [rtt_factor],
   a CPU time the [cpu_factor]. *)
let factor f a b = (f a +. f b) /. 2. /. f reference
let wall_factor = factor (fun c -> c.wall_ms)
let rtt_factor = factor (fun c -> c.rtt_ms)
let cpu_factor = factor (fun c -> c.cpu_ms)
