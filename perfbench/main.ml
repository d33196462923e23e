(* perfbench: run one workload of the benchmark against freshly spawned
   [bi serve] / [bi router] processes and print its metrics, each with
   its unit and sample count.  The last stdout line is the JSON result;
   the exit code is 0 only when every answer was correct. *)

module Sink = Bi_engine.Sink
open Perfbench

exception Interrupted

let root = ".perfbench"
let results = Filename.concat root "results"

let json_of_result (o : Session.outcome) metrics =
  Sink.Obj
    [
      ("correct", Sink.Bool (o.failed = 0));
      ("attempted", Sink.Int o.attempted);
      ("failed", Sink.Int o.failed);
      ( "metrics",
        Sink.Obj
          (List.map
             (fun (name, value, unit_) ->
               (name, Sink.Obj [ ("value", Sink.Float value); ("unit", Sink.Str unit_) ]))
             metrics) );
    ]

let float_member path j =
  let rec go j = function
    | [] -> ( match j with Sink.Float f -> Some f | Sink.Int i -> Some (float_of_int i) | _ -> None)
    | k :: rest -> Option.bind (Sink.member k j) (fun v -> go v rest)
  in
  go j path

(* Tracing overhead: this traced run's end-to-end numbers against the
   medians of the untraced runs of the same workload and size kept in
   the results directory. *)
let overhead ~workload ~seconds (o : Session.outcome) =
  let untraced =
    (try Array.to_list (Sys.readdir results) with Sys_error _ -> [])
    |> List.filter (fun f ->
           String.starts_with ~prefix:(workload ^ "-") f
           && Filename.check_suffix f ".json"
           && not (Filename.check_suffix f ".trace.json"))
    |> List.filter_map (fun f ->
           match
             Sink.of_string (In_channel.with_open_bin (Filename.concat results f) In_channel.input_all)
           with
           | Ok j
             when float_member [ "notes"; "seconds" ] j = Some (float_of_int seconds)
                  && Sink.member "trace" (Option.value (Sink.member "notes" j) ~default:Sink.Null)
                     = Some (Sink.Bool false) ->
             Some j
           | _ -> None)
  in
  List.filter_map
    (fun (e : Session.e2e) ->
      let past =
        List.filter_map (fun j -> float_member [ "result"; "metrics"; e.name; "value" ] j) untraced
      in
      if past = [] then None
      else
        let med = Stats.median (Array.of_list past) in
        Some (e.name, e.value, med, List.length past))
    o.e2e

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME shard-hot | shard-cold | cluster-mixed");
      ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
      ("--seconds", Arg.Set_int seconds, "S measured work: S x the workload's nominal rate");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--smoke", Arg.Set smoke, " a tiny run (self-test only)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match Workload.of_name !workload with
    | Some k when !seconds >= 1 && (!trace = 0 || !trace = 1) -> k
    | _ ->
      prerr_endline usage;
      exit 2
  in
  (* The program under test is the sibling build of this executable. *)
  let bi =
    let b = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/bi.exe" in
    if Filename.is_relative b then Filename.concat (Sys.getcwd ()) b else b
  in
  if not (Sys.file_exists bi) then begin
    prerr_endline ("perfbench: program not built: " ^ bi);
    exit 2
  end;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Interrupted)))
    [ Sys.sigint; Sys.sigterm ];
  Session.mkdir_p results;
  let o =
    {
      Session.kind;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      smoke = !smoke;
      bi;
      root;
    }
  in
  let outcome, replay, res =
    try Session.run o with
    | Interrupted ->
      prerr_endline "perfbench: interrupted; every program process stopped";
      exit 130
    | Failure e | Sys_error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 1
    | Unix.Unix_error (e, f, a) ->
      Printf.eprintf "perfbench: %s %s: %s\n" f a (Unix.error_message e);
      exit 1
  in
  let name = Workload.name kind in
  Printf.printf "perfbench %s seed %d seconds %d trace %d: attempted %d, succeeded %d, failed %d\n"
    name !seed !seconds !trace outcome.attempted (outcome.attempted - outcome.failed)
    outcome.failed;
  List.iter
    (fun (e : Session.e2e) ->
      Printf.printf "  %-22s %14.4f %-6s n=%d\n" e.name e.value e.unit_ e.samples)
    outcome.e2e;
  List.iter
    (fun (k, v) -> Printf.printf "  note %s: %s\n" k (Sink.to_string v))
    outcome.notes;
  let stem =
    Filename.concat results
      (Printf.sprintf "%s-seed%d-%s-%d-%d" name !seed
         (if o.trace then "trace" else "e2e")
         (int_of_float (Unix.time ()))
         (Unix.getpid ()))
  in
  let metrics =
    if o.trace then begin
      List.iter
        (fun (k, v, u) -> Printf.printf "  %-34s %14.4f %s\n" k v u)
        outcome.per_layer;
      let ov = overhead ~workload:name ~seconds:!seconds outcome in
      List.iter
        (fun (k, traced, med, runs) ->
          Printf.printf "  tracing overhead %-18s traced %.4f vs untraced median %.4f (%d runs): %+.1f %%\n"
            k traced med runs ((traced /. med -. 1.) *. 100.))
        ov;
      if not o.smoke then
        Option.iter
          (fun t ->
            Replay.write_spans t ~path:(stem ^ ".spans.jsonl")
              ~root_send:res.Loadgen.send_at ~root_latency_s:res.Loadgen.latency_s)
          replay;
      outcome.per_layer
    end
    else List.map (fun (e : Session.e2e) -> (e.name, e.value, e.unit_)) outcome.e2e
  in
  List.iter (fun f -> prerr_endline ("perfbench: " ^ f)) outcome.failures;
  let result = json_of_result outcome metrics in
  let record =
    Sink.Obj
      [
        ("result", result);
        ( "samples",
          Sink.Obj (List.map (fun (e : Session.e2e) -> (e.name, Sink.Int e.samples)) outcome.e2e) );
        ("notes", Sink.Obj outcome.notes);
        ("failures", Sink.List (List.map (fun s -> Sink.Str s) outcome.failures));
      ]
  in
  if not o.smoke then
    Out_channel.with_open_bin
      (stem ^ if o.trace then ".trace.json" else ".json")
      (fun oc ->
        output_string oc (Sink.to_string record);
        output_char oc '\n');
  print_endline (Sink.to_string result);
  exit (if outcome.failed = 0 then 0 else 1)
