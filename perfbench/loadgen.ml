(* The closed-loop load process: [conns] connections to one socket, each
   sending its next request only once the previous answer has fully
   arrived, driven from one thread by select(2) so the load process
   itself never contends for a lock. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pending : int;  (* request index in flight, or -1 *)
}

type result = {
  send_at : float array;  (* wall clock at send, per request *)
  latency_s : float array;  (* send to the end of the response line *)
  ok : bool array;  (* the answer passed its check *)
  elapsed_s : float;  (* first send to last answer *)
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Sends every line of [lines] in order over [conns] connections to the
   Unix socket [path]; [answer i line] checks the response to request
   [i] and says whether it is correct, and [before_send i] runs just
   before request [i] goes out.  A request [i] with [barrier i] waits
   until every earlier one is answered, then [at_barrier i] runs with
   nothing in flight.  A connection that breaks or a response that does
   not arrive within [timeout_s] fails the run. *)
let run ?(timeout_s = 120.) ?(before_send = fun _ -> ()) ?(barrier = fun _ -> false)
    ?(at_barrier = fun _ -> ()) ~conns ~path lines answer =
  let n = Array.length lines in
  let send_at = Array.make n 0. and latency_s = Array.make n nan in
  let ok = Array.make n false in
  let cs =
    Array.init (min conns (max 1 n)) (fun _ ->
        { fd = connect path; buf = Buffer.create 4096; pending = -1 })
  in
  let chunk = Bytes.create 65536 in
  let next = ref 0 and answered = ref 0 and crossed = ref (-1) in
  (* Gives an idle connection the next request, unless that request is
     a barrier with others still in flight. *)
  let send c =
    if !next < n then begin
      let i = !next in
      let held = barrier i && !crossed < i in
      if held && !answered = i then begin
        at_barrier i;
        crossed := i
      end;
      if (not held) || !crossed = i then begin
        incr next;
        c.pending <- i;
        before_send i;
        send_at.(i) <- Unix.gettimeofday ();
        write_all c.fd (lines.(i) ^ "\n")
      end
    end
  in
  let finish () = Array.iter (fun c -> try Unix.close c.fd with _ -> ()) cs in
  Fun.protect ~finally:finish (fun () ->
      let t0 = Unix.gettimeofday () in
      Array.iter send cs;
      while !answered < n do
        let waiting =
          Array.to_list cs
          |> List.filter_map (fun c -> if c.pending >= 0 then Some c.fd else None)
        in
        match Unix.select waiting [] [] timeout_s with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> failwith "no response within the timeout"
        | ready, _, _ ->
          (* Timestamp every answer that arrived, hand each connection its
             next request, and only then run the checks, so checking
             overlaps the program's work instead of delaying it. *)
          let arrived =
            List.filter_map
              (fun fd ->
                let c =
                  match Array.find_opt (fun c -> c.fd = fd) cs with
                  | Some c -> c
                  | None -> assert false
                in
                let got = Unix.read c.fd chunk 0 (Bytes.length chunk) in
                let now = Unix.gettimeofday () in
                if got = 0 then failwith "the program closed a connection";
                Buffer.add_subbytes c.buf chunk 0 got;
                if Bytes.get chunk (got - 1) <> '\n' then None
                else begin
                  let i = c.pending in
                  c.pending <- -1;
                  let line = Buffer.sub c.buf 0 (Buffer.length c.buf - 1) in
                  Buffer.clear c.buf;
                  latency_s.(i) <- now -. send_at.(i);
                  Some (c, i, line)
                end)
              ready
          in
          answered := !answered + List.length arrived;
          Array.iter (fun c -> if c.pending < 0 then send c) cs;
          List.iter (fun (_, i, line) -> ok.(i) <- answer i line) arrived
      done;
      { send_at; latency_s; ok; elapsed_s = Unix.gettimeofday () -. t0 })

(* One request on a fresh connection, outside any measured phase. *)
let exchange ~path line =
  let r = ref "" in
  ignore (run ~conns:1 ~path [| line |] (fun _ l -> r := l; true));
  !r
