(* Certified-tier benchmark: the six ignorance quantities at k = 20..50
   via potential descent, branch-and-bound and smoothness brackets,
   cross-checked value-identical against the exhaustive solver on the
   full overlap window (k <= 7, every family the exhaustive tier can
   finish).  Every certificate is machine-checked before a row is
   printed.

   Structured rows go to their own sink, BENCH_certified.json, so
   downstream tooling never has to filter the exhaustive results file.
   A crosscheck mismatch or a rejected certificate exits nonzero — CI
   runs this section as a gate. *)

open Bayesian_ignorance
open Num
module Bncs = Ncs.Bayesian_ncs
module Measures = Bayes.Measures
module Solve = Certify.Solve
module Sink = Engine.Sink

let out_file = "BENCH_certified.json"

let build name k =
  match Constructions.Registry.build name k with
  | Ok g -> g
  | Error e -> failwith ("certified bench: " ^ e)

let ext_str v =
  match Extended.to_rat_opt v with
  | Some r -> Rat.to_string r
  | None -> "inf"

let bracket_cell (b : Solve.bracket) =
  if Extended.equal b.Solve.lo b.Solve.hi then ext_str b.Solve.lo
  else Printf.sprintf "[%s, %s]" (ext_str b.Solve.lo) (ext_str b.Solve.hi)

let certify_checked ~pool name k game =
  let cert = Solve.certify ~pool game in
  (match Solve.check game cert with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "certified bench: %s k=%d: certificate rejected: %s\n" name
      k e;
    exit 1);
  cert

(* The overlap window: every (family, k) point the exhaustive solver
   finishes in seconds.  Anshelevich's G_k stays tractable to k = 7; the
   two G_worst windows blow past 10^6 valid profiles at k = 6. *)
let crosscheck_points =
  List.map (fun k -> ("anshelevich", k)) [ 2; 3; 4; 5; 6; 7 ]
  @ List.concat_map
      (fun k -> [ ("gworst-curse", k); ("gworst-bliss", k) ])
      [ 2; 3; 4; 5 ]

let same_opt = Option.equal Extended.equal

let crosscheck ~pool ~sink =
  print_endline "=== Certified vs exhaustive: the overlap window (k <= 7) ===";
  print_endline "";
  let all_ok = ref true in
  let rows =
    List.map
      (fun (name, k) ->
        let game = build name k in
        let exact = (Bncs.analyze ~pool game).Bncs.report in
        let cert = certify_checked ~pool name k game in
        let c = Solve.report cert in
        let ok =
          Extended.equal exact.Measures.opt_p c.Measures.opt_p
          && same_opt exact.Measures.best_eq_p c.Measures.best_eq_p
          && same_opt exact.Measures.worst_eq_p c.Measures.worst_eq_p
          && Extended.equal exact.Measures.opt_c c.Measures.opt_c
          && same_opt exact.Measures.best_eq_c c.Measures.best_eq_c
          && same_opt exact.Measures.worst_eq_c c.Measures.worst_eq_c
        in
        if not ok then begin
          all_ok := false;
          Printf.eprintf
            "certified bench: %s k=%d: certified values differ from \
             exhaustive\n"
            name k
        end;
        [
          name;
          string_of_int k;
          Report.ext_cell c.Measures.opt_p;
          Report.ext_opt_cell c.Measures.best_eq_p;
          Report.ext_opt_cell c.Measures.worst_eq_p;
          Report.ext_cell c.Measures.opt_c;
          Report.ext_opt_cell c.Measures.best_eq_c;
          Report.ext_opt_cell c.Measures.worst_eq_c;
          Verdict.cell ok;
        ])
      crosscheck_points
  in
  let header =
    [
      "family"; "k"; "optP"; "best-eqP"; "worst-eqP"; "optC"; "best-eqC";
      "worst-eqC"; "matches";
    ]
  in
  print_endline (Report.table ~header rows);
  Sink.table sink ~section:"certified-crosscheck" ~header rows;
  print_endline "";
  !all_ok

let beyond ~pool ~sink =
  print_endline
    "=== Beyond enumeration: certified brackets at k = 20..50 ===";
  print_endline "";
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun name ->
            let game = build name k in
            let cert, span =
              Engine.Timer.timed (fun () ->
                  certify_checked ~pool name k game)
            in
            let opt : Certify.Bnb.outcome = cert.Solve.opt_p in
            [
              name;
              string_of_int k;
              bracket_cell cert.Solve.opt_p_bracket;
              bracket_cell cert.Solve.best_eq_p;
              bracket_cell cert.Solve.worst_eq_p;
              bracket_cell cert.Solve.opt_c;
              bracket_cell cert.Solve.best_eq_c;
              bracket_cell cert.Solve.worst_eq_c;
              Printf.sprintf "%d nodes%s" opt.Certify.Bnb.nodes
                (match opt.Certify.Bnb.certificate with
                | Some _ -> ""
                | None -> " (open)");
              Format.asprintf "%a" Engine.Timer.pp_seconds
                span.Engine.Timer.seconds;
            ])
          [ "anshelevich"; "gworst-curse"; "gworst-bliss" ])
      [ 20; 30; 40; 50 ]
  in
  let header =
    [
      "family"; "k"; "optP"; "best-eqP"; "worst-eqP"; "optC"; "best-eqC";
      "worst-eqC"; "bnb"; "time";
    ]
  in
  print_endline (Report.table ~header rows);
  Sink.table sink ~section:"certified-table1" ~header rows;
  print_endline "";
  print_endline
    "Every row carries a machine-checked certificate: descent margins for";
  print_endline
    "each equilibrium, a closed branch-and-bound ledger for each optimum,";
  print_endline
    "and (lambda, mu)-smoothness for the analytic bracket ends."

let run ~pool ~sink:_ ~cache:_ =
  let sink = Sink.create out_file in
  let ok =
    Fun.protect
      ~finally:(fun () -> Sink.close sink)
      (fun () ->
        let ok = crosscheck ~pool ~sink in
        beyond ~pool ~sink;
        ok)
  in
  Printf.printf "\n(structured certified rows -> %s)\n" out_file;
  if not ok then begin
    Printf.eprintf
      "certified bench: crosscheck failed — certified values must equal \
       exhaustive on the overlap window\n";
    exit 1
  end
