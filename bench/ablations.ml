(* Ablation benches for the design choices DESIGN.md calls out:

   1. visibility interpolation — how much of the ignorance gap each
      globally-informed agent closes (the local-vs-global dial);
   2. branch-and-bound vs exhaustive optP — the solver trade-off that
      lets exact optima reach larger games;
   3. weighted vs fair cost sharing — footnote 5's variant. *)

open Bayesian_ignorance
open Num
module Bncs = Ncs.Bayesian_ncs
module Visibility = Bayes.Visibility
module Weighted = Ncs.Weighted
module Graph = Graphs.Graph

let visibility () =
  print_endline "--- Ablation: partial global views (benevolent agents) ---";
  print_endline "";
  let rows =
    List.concat_map
      (fun (name, game) ->
        let bayes = Bncs.game game in
        List.map
          (fun (m, v) ->
            [ name; string_of_int m; Report.ext_cell v ])
          (Visibility.gap_closure bayes))
      [
        ("gworst-bliss k=3", Constructions.Gworst_game.bliss_game 3);
        ("anshelevich k=4", Constructions.Anshelevich_game.game 4);
        ("diamond level 1", snd (Constructions.Diamond_game.game 1));
      ]
  in
  print_endline
    (Report.table ~header:[ "game"; "#informed agents"; "optimum" ] rows);
  print_endline "";
  print_endline
    "Endpoints are optP (0 informed) and optC (all informed); the dial";
  print_endline "shows which agent's view actually carries the gap.";
  print_endline ""

let branch_and_bound ~pool ~sink =
  print_endline "--- Ablation: exhaustive vs branch-and-bound optP ---";
  print_endline "";
  let time f =
    let t0 = Sys.time () in
    let v = f () in
    (v, Sys.time () -. t0)
  in
  let rows =
    List.map
      (fun (name, game) ->
        let (ex, _), t_ex = time (fun () -> Bncs.opt_p_exhaustive ~pool game) in
        let bb, t_bb = time (fun () -> Certify.Bnb.optimum game) in
        let certified =
          match bb.Certify.Bnb.certificate with
          | Some c -> Certify.Bnb.check game c = Ok ()
          | None -> false
        in
        [
          name;
          Report.ext_cell ex;
          Printf.sprintf "%.3fs" t_ex;
          Report.ext_cell bb.Certify.Bnb.value;
          Printf.sprintf "%.3fs" t_bb;
          Verdict.cell (certified && Extended.equal ex bb.Certify.Bnb.value);
        ])
      [
        ("anshelevich k=7", Constructions.Anshelevich_game.game 7);
        ("gworst-curse k=6", Constructions.Gworst_game.curse_game 6);
        ("affine m=2", Constructions.Affine_game.game 2);
        ("diamond level 1", snd (Constructions.Diamond_game.game 1));
      ]
  in
  print_endline
    (Report.table
       ~header:[ "game"; "exhaustive"; "time"; "B&B"; "time"; "agree" ]
       rows);
  Engine.Sink.table sink ~section:"ablations"
    ~header:[ "game"; "exhaustive"; "exhaustive time"; "bb"; "bb time"; "agree" ]
    rows;
  print_endline ""

let weighted ~sink =
  print_endline "--- Ablation: fair vs proportional (weighted) sharing ---";
  print_endline "";
  let graph = Graph.make Undirected ~n:2 [ (0, 1, Rat.one); (0, 1, Rat.of_int 2) ] in
  let pairs = [| (0, 1); (0, 1) |] in
  let rows =
    List.map
      (fun (label, weights) ->
        let g = Weighted.to_strategic (Weighted.make graph ~pairs ~weights) in
        let cell = function Some r -> Report.rat_cell r | None -> "n/a" in
        [
          label;
          cell (Games.Anarchy.price_of_stability g);
          cell (Games.Anarchy.price_of_anarchy g);
        ])
      [
        ("weights 1:1 (fair)", [| Rat.one; Rat.one |]);
        ("weights 2:1", [| Rat.of_int 2; Rat.one |]);
        ("weights 5:1", [| Rat.of_int 5; Rat.one |]);
        ("weights 10:1", [| Rat.of_int 10; Rat.one |]);
      ]
  in
  print_endline (Report.table ~header:[ "instance"; "PoS"; "PoA" ] rows);
  Engine.Sink.table sink ~section:"ablations" ~kind:"weighted"
    ~header:[ "instance"; "PoS"; "PoA" ] rows;
  print_endline "";
  print_endline
    "Heavier asymmetry shrinks the heavy agent's incentive to share:";
  print_endline "the weighted variant (footnote 5) changes the equilibrium set.";
  print_endline ""

let run ~pool ~sink ~cache:_ =
  print_endline "=== Ablations ===";
  print_endline "";
  visibility ();
  branch_and_bound ~pool ~sink;
  weighted ~sink
