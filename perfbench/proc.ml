(* Program processes: spawn in a run directory, wait for the readiness
   banner, read CPU time and peak RSS from /proc, stop and reap. *)

type t = { pid : int; name : string; out : Unix.file_descr }

(* Settings that would change the program's behaviour or parallelism
   are not passed on: every flag and knob stays at its default. *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"BI_" kv
           || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
           || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
  |> Array.of_list

(* [spawn ~dir ~exe ~name args] runs [exe args] with [dir] as working
   directory (so relative socket and store paths, and the metrics dump
   the program writes on exit, stay in the run directory), stdout on a
   pipe for the banner and stderr in [dir/name.err]. *)
let spawn ~dir ~exe ~name args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile
      (Filename.concat dir (name ^ ".err"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let env = child_env () in
  match Unix.fork () with
  | 0 -> (
    try
      Unix.chdir dir;
      let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      Unix.dup2 ~cloexec:false null Unix.stdin;
      Unix.dup2 ~cloexec:false w Unix.stdout;
      Unix.dup2 ~cloexec:false err Unix.stderr;
      Unix.execve exe (Array.of_list (exe :: args)) env
    with _ -> Unix._exit 127)
  | pid ->
    Unix.close w;
    Unix.close err;
    { pid; name; out = r }

(* The first stdout line, which [bi serve] / [bi router] print only once
   their socket accepts connections. *)
let banner ?(timeout_s = 60.) p =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Error (p.name ^ ": no banner within the timeout")
    else
      match Unix.select [ p.out ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read p.out byte 0 1 with
        | 0 -> Error (p.name ^ ": exited before printing its banner")
        | _ ->
          if Bytes.get byte 0 = '\n' then Ok (Buffer.contents buf)
          else begin
            Buffer.add_char buf (Bytes.get byte 0);
            go ()
          end)
  in
  go ()

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* User + system CPU seconds of the process (all its threads). *)
let cpu_seconds p =
  match read_file (Printf.sprintf "/proc/%d/stat" p.pid) with
  | None -> nan
  | Some s -> (
    (* Fields after the parenthesised command name: state is the first,
       utime the 12th, stime the 13th; both in USER_HZ = 100 ticks. *)
    let close = String.rindex s ')' in
    let rest = String.sub s (close + 2) (String.length s - close - 2) in
    match String.split_on_char ' ' rest with
    | _ :: fields -> (
      match List.filteri (fun i _ -> i = 10 || i = 11) fields with
      | [ u; st ] -> (float_of_string u +. float_of_string st) /. 100.
      | _ -> nan)
    | [] -> nan)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb p =
  match read_file (Printf.sprintf "/proc/%d/status" p.pid) with
  | None -> nan
  | Some s ->
    List.fold_left
      (fun acc l ->
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else acc)
      nan
      (String.split_on_char '\n' s)

let alive p = Sys.file_exists (Printf.sprintf "/proc/%d" p.pid)

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s

(* SIGTERM (a graceful shutdown for both programs), SIGKILL after
   [grace_s]; always reaped.  [Ok status] once the process is gone,
   [Error] when it outlived both signals. *)
let stop ?(grace_s = 5.) p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
      if Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.005;
        wait ()
      end
      else begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        "killed after the grace period, then " ^ describe (snd (Unix.waitpid [] p.pid))
      end
    | _, status -> describe status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> "already reaped"
  in
  let status = wait () in
  (try Unix.close p.out with Unix.Unix_error _ -> ());
  if alive p then Error (p.name ^ " still running after stop") else Ok status
