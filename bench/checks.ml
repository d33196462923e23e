(* Universal-law checks over random corpora: Observation 2.2's chain,
   Lemma 3.1 (worst-eqP <= k optC) and Lemma 3.8
   (best-eqP <= H(k) optP), on both orientations. *)

open Bayesian_ignorance
module Bncs = Ncs.Bayesian_ncs
module Measures = Bayes.Measures

let check ~pool ~label games =
  let total = List.length games in
  let obs22 = ref 0 and l31 = ref 0 and l38 = ref 0 in
  List.iter
    (fun g ->
      let m = Bncs.measures_exhaustive ~pool g in
      if Measures.observation_2_2_holds m then incr obs22;
      if Bncs.lemma_3_1_bound_holds ~pool g then incr l31;
      if Bncs.lemma_3_8_bound_holds ~pool g then incr l38)
    games;
  [
    [
      Printf.sprintf "Observation 2.2 (%s)" label;
      "optC <= optP <= best-eqP <= worst-eqP";
      Printf.sprintf "%d/%d games" !obs22 total;
      Verdict.cell (!obs22 = total);
    ];
    [
      Printf.sprintf "Lemma 3.1 (%s)" label;
      "worst-eqP <= k optC";
      Printf.sprintf "%d/%d games" !l31 total;
      Verdict.cell (!l31 = total);
    ];
    [
      Printf.sprintf "Lemma 3.8 (%s)" label;
      "best-eqP <= H(k) optP";
      Printf.sprintf "%d/%d games" !l38 total;
      Verdict.cell (!l38 = total);
    ];
  ]

let run ~pool ~sink ~cache:_ =
  print_endline "=== Universal laws on random Bayesian NCS corpora ===";
  print_endline "";
  let rows =
    check ~pool ~label:"directed" (Corpus.games ~pool ~directed:true ~count:25 ())
    @ check ~pool ~label:"undirected" (Corpus.games ~pool ~directed:false ~count:25 ())
  in
  print_endline
    (Report.table ~header:[ "law"; "statement"; "holds on"; "verdict" ] rows);
  Engine.Sink.table sink ~section:"checks"
    ~header:[ "law"; "statement"; "holds on"; "verdict" ]
    rows;
  print_endline ""
