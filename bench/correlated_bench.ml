(* Correlated-play benchmark: the six correlated quantities (best/worst
   over the CCE and Comm polytopes, plus the deviation-free
   public-randomness pair) by exact-rational LP, cross-checked against
   the exhaustive solver on the overlap window (k <= 7): every pure
   Bayesian equilibrium must be a feasible point of both polytopes and
   the values must interleave exactly as the polytope inclusions
   dictate — pub-best <= best-cce <= best-comm <= best-eqP <= worst-eqP
   <= worst-comm <= worst-cce <= pub-worst — with pub-best = optC
   (Lemma 4.1).  Every LP answer carries dual certificates that are
   machine-checked before a row is printed.

   Beyond the window, a k-series quantifies how much shared randomness
   buys: the CCE values keep growing with k while the public-randomness
   optimum stays pinned at optC, and the certified tier supplies
   worst-eqP brackets to measure the gap against.

   Structured rows go to their own sink, BENCH_correlated.json.  A
   violated inclusion, a failed Lemma-4.1 identity or a rejected
   certificate exits nonzero — CI runs this section as a gate. *)

open Bayesian_ignorance
open Num
module Bncs = Ncs.Bayesian_ncs
module Measures = Bayes.Measures
module Solve = Certify.Solve
module Concept = Correlated.Concept
module Corr = Correlated.Correlated
module Sink = Engine.Sink

let out_file = "BENCH_correlated.json"

let build name k =
  match Constructions.Registry.build name k with
  | Ok g -> g
  | Error e -> failwith ("correlated bench: " ^ e)

let analyze_checked name k concept game =
  let report = Corr.analyze ~concept game in
  (match Corr.check game report with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf
      "correlated bench: %s k=%d %s: certificate rejected: %s\n" name k
      (Concept.to_string concept) e;
    exit 1);
  report

(* The same overlap window as the certified crosscheck: every
   (family, k) point the exhaustive equilibrium enumeration finishes in
   seconds. *)
let crosscheck_points =
  List.map (fun k -> ("anshelevich", k)) [ 2; 3; 4; 5; 6; 7 ]
  @ List.concat_map
      (fun k -> [ ("gworst-curse", k); ("gworst-bliss", k) ])
      [ 2; 3; 4; 5 ]

let rat_str = Rat.to_string

let crosscheck ~pool ~sink =
  print_endline
    "=== Correlated vs exhaustive: the overlap window (k <= 7) ===";
  print_endline "";
  let all_ok = ref true in
  let fail name k msg =
    all_ok := false;
    Printf.eprintf "correlated bench: %s k=%d: %s\n" name k msg
  in
  let rows =
    List.map
      (fun (name, k) ->
        let game = build name k in
        let exact = (Bncs.analyze ~pool game).Bncs.report in
        let cce = analyze_checked name k Concept.Cce game in
        let comm = analyze_checked name k Concept.Comm game in
        let best_eq, worst_eq =
          match (exact.Measures.best_eq_p, exact.Measures.worst_eq_p) with
          | Some b, Some w -> (Extended.to_rat_exn b, Extended.to_rat_exn w)
          | _ -> failwith "correlated bench: NCS game without a pure BNE"
        in
        let opt_c = Extended.to_rat_exn exact.Measures.opt_c in
        (* Every enumerated pure Bayesian equilibrium must be feasible
           in both polytopes. *)
        let t = Corr.make game in
        let members_ok =
          Seq.for_all
            (fun s ->
              List.for_all
                (fun concept -> Corr.equilibrium_member t ~concept s = Ok ())
                [ Concept.Cce; Concept.Comm ])
            (Bncs.bayesian_equilibria game)
        in
        if not members_ok then
          fail name k "a pure Bayesian equilibrium is outside a polytope";
        (* The full inclusion chain, exactly. *)
        let chain =
          [
            ("pub-best <= best-cce", cce.Corr.pub_best.Corr.value,
             cce.Corr.best.Corr.value);
            ("best-cce <= best-comm", cce.Corr.best.Corr.value,
             comm.Corr.best.Corr.value);
            ("best-comm <= best-eqP", comm.Corr.best.Corr.value, best_eq);
            ("best-eqP <= worst-eqP", best_eq, worst_eq);
            ("worst-eqP <= worst-comm", worst_eq, comm.Corr.worst.Corr.value);
            ("worst-comm <= worst-cce", comm.Corr.worst.Corr.value,
             cce.Corr.worst.Corr.value);
            ("worst-cce <= pub-worst", cce.Corr.worst.Corr.value,
             cce.Corr.pub_worst.Corr.value);
          ]
        in
        let chain_ok =
          List.for_all
            (fun (label, lo, hi) ->
              let ok = Rat.( <= ) lo hi in
              if not ok then
                fail name k
                  (Printf.sprintf "%s violated (%s > %s)" label (rat_str lo)
                     (rat_str hi));
              ok)
            chain
        in
        (* Lemma 4.1: the deviation-free optimum is optC. *)
        let lemma_ok = Rat.equal cce.Corr.pub_best.Corr.value opt_c in
        if not lemma_ok then
          fail name k
            (Printf.sprintf "pub-best %s differs from optC %s"
               (rat_str cce.Corr.pub_best.Corr.value) (rat_str opt_c));
        [
          name;
          string_of_int k;
          rat_str cce.Corr.best.Corr.value;
          rat_str comm.Corr.best.Corr.value;
          rat_str best_eq;
          rat_str worst_eq;
          rat_str comm.Corr.worst.Corr.value;
          rat_str cce.Corr.worst.Corr.value;
          rat_str cce.Corr.pub_best.Corr.value;
          rat_str cce.Corr.pub_worst.Corr.value;
          Verdict.cell (members_ok && chain_ok && lemma_ok);
        ])
      crosscheck_points
  in
  let header =
    [
      "family"; "k"; "best-cce"; "best-comm"; "best-eqP"; "worst-eqP";
      "worst-comm"; "worst-cce"; "pub-best"; "pub-worst"; "holds";
    ]
  in
  print_endline (Report.table ~header rows);
  Sink.table sink ~section:"correlated-crosscheck" ~header rows;
  print_endline "";
  !all_ok

(* The LP column count grows with the valid-profile space: anshelevich
   k = 10 solves, and checks, four LPs over ~1.5k columns in about a
   tenth of a second (the float guide proposes each basis, the exact
   loop only proves it), and the G_worst windows multiply columns by ~4
   per k.  The points stay those of the exact-only solver, so every
   row but its time is comparable across versions. *)
let beyond_points =
  List.map (fun k -> ("anshelevich", k)) [ 8; 9; 10 ]
  @ List.concat_map
      (fun k -> [ ("gworst-curse", k); ("gworst-bliss", k) ])
      [ 6; 7 ]

let ext_str v =
  match Extended.to_rat_opt v with
  | Some r -> Rat.to_string r
  | None -> "inf"

let bracket_cell (b : Solve.bracket) =
  if Extended.equal b.Solve.lo b.Solve.hi then ext_str b.Solve.lo
  else Printf.sprintf "[%s, %s]" (ext_str b.Solve.lo) (ext_str b.Solve.hi)

(* worst-eqP / pub-best: the factor shared randomness buys over the
   worst equilibrium.  The numerator arrives as a certified bracket, so
   the ratio is one too; it collapses to a point when the bracket does. *)
let gain_cell (b : Solve.bracket) pub_best =
  let ratio v =
    match Extended.to_rat_opt v with
    | Some r -> Rat.to_string (Rat.div r pub_best)
    | None -> "inf"
  in
  if Extended.equal b.Solve.lo b.Solve.hi then ratio b.Solve.lo
  else Printf.sprintf "[%s, %s]" (ratio b.Solve.lo) (ratio b.Solve.hi)

let beyond ~pool ~sink =
  print_endline
    "=== Beyond enumeration: what shared randomness buys (k-series) ===";
  print_endline "";
  let rows =
    List.map
      (fun (name, k) ->
        let game = build name k in
        let (cce, cert), span =
          Engine.Timer.timed (fun () ->
              let cce = analyze_checked name k Concept.Cce game in
              let cert = Solve.certify ~pool game in
              (match Solve.check game cert with
              | Ok () -> ()
              | Error e ->
                Printf.eprintf
                  "correlated bench: %s k=%d: certified bracket rejected: %s\n"
                  name k e;
                exit 1);
              (cce, cert))
        in
        [
          name;
          string_of_int k;
          rat_str cce.Corr.best.Corr.value;
          rat_str cce.Corr.worst.Corr.value;
          rat_str cce.Corr.pub_best.Corr.value;
          rat_str cce.Corr.pub_worst.Corr.value;
          bracket_cell cert.Solve.worst_eq_p;
          gain_cell cert.Solve.worst_eq_p cce.Corr.pub_best.Corr.value;
          Format.asprintf "%a" Engine.Timer.pp_seconds
            span.Engine.Timer.seconds;
        ])
      beyond_points
  in
  let header =
    [
      "family"; "k"; "best-cce"; "worst-cce"; "pub-best"; "pub-worst";
      "worst-eqP"; "worst-eqP/pub-best"; "time";
    ]
  in
  print_endline (Report.table ~header rows);
  Sink.table sink ~section:"correlated-series" ~header rows;
  print_endline "";
  print_endline
    "pub-best stays pinned at optC for every k (Lemma 4.1): with shared";
  print_endline
    "random bits the players coordinate on the optimum, while the worst";
  print_endline
    "equilibrium drifts away by the factor in the last ratio column."

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
  Printf.printf "\n(structured correlated rows -> %s)\n" out_file;
  if not ok then begin
    Printf.eprintf
      "correlated bench: crosscheck failed — inclusion, interleaving and \
       Lemma 4.1 must hold exactly on the overlap window\n";
    exit 1
  end
