(* Section 4: public random bits replace the common prior.

   For several 4-tuples phi one certified LP gives R~(phi), the
   public-randomness mixture q (primal) and a worst prior p* (dual).
   The verdict requires Section4.check to accept, which pins
   q's worst-prior guarantee = R~ = p*'s optP/optC ratio: that proves
   R(phi) = R~(phi) exactly (Proposition 4.2) and that q meets it
   against every prior (Lemma 4.1). *)

open Bayesian_ignorance
open Num
module S4 = Minimax.Section4
module Bncs = Ncs.Bayesian_ncs

let row ~name phi =
  let sol = S4.solve phi in
  let q_guarantee = S4.randomized_guarantee phi sol.S4.mixture in
  let p_ratio = S4.ratio_under_prior phi sol.S4.prior in
  [
    name;
    Printf.sprintf "%dx%d" (S4.n_strategies phi) (S4.n_type_profiles phi);
    Report.rat_cell sol.S4.value;
    Report.rat_cell q_guarantee;
    Report.rat_cell p_ratio;
    Verdict.cell (S4.check phi sol = Ok ());
  ]

let two_commuters () =
  let graph =
    Graphs.Graph.make Undirected ~n:2 [ (0, 1, Rat.one); (0, 1, Rat.of_ints 3 2) ]
  in
  S4.of_bayesian_ncs
    (Bncs.make graph
       ~prior:(Prob.Dist.uniform [ [| (0, 1); (0, 1) |]; [| (0, 1); (0, 0) |] ]))

let guess_the_type () =
  S4.make [| [| Rat.of_int 1; Rat.of_int 2 |]; [| Rat.of_int 2; Rat.of_int 1 |] |]

let triangle_commuters () =
  (* Three vertices, two agents with uncertain destinations. *)
  let graph =
    Graphs.Graph.make Undirected ~n:3
      [ (0, 1, Rat.of_int 2); (1, 2, Rat.of_int 2); (0, 2, Rat.of_int 3) ]
  in
  S4.of_bayesian_ncs
    (Bncs.make graph
       ~prior:
         (Prob.Dist.uniform
            [ [| (0, 1); (0, 2) |]; [| (0, 2); (0, 2) |]; [| (0, 1); (0, 1) |] ]))

let run ~pool:_ ~sink ~cache:_ =
  print_endline "=== Section 4: public random bits vs the common prior ===";
  print_endline "";
  let rows =
    [
      row ~name:"guess-the-type" (guess_the_type ());
      row ~name:"two commuters" (two_commuters ());
      row ~name:"triangle commuters" (triangle_commuters ());
    ]
  in
  print_endline
    (Report.table
       ~header:
         [ "phi"; "|S|x|T|"; "R~ = R"; "q guarantee"; "p* ratio"; "verdict" ]
       rows);
  Engine.Sink.table sink ~section:"sec4"
    ~header:[ "phi"; "size"; "r"; "q guarantee"; "p* ratio"; "verdict" ]
    rows;
  print_endline "";
  print_endline
    "Proposition 4.2: the public mixture q guarantees exactly the ratio the";
  print_endline
    "worst prior p* forces, so R = R~ on every phi (certified LP);";
  print_endline
    "Lemma 4.1: q (public coins only) meets it against every prior.";
  print_endline ""
