(* Public random bits replace the common prior (Section 4, Lemma 4.1).

   Benevolent agents who cannot see the common prior can commit to a
   randomized strategy profile q (shared random bits) and still match
   the worst-prior optP/optC ratio R(phi).  This example solves the
   certified Section 4 LP on the two-commuter game and on a "guess the
   type" game: q's worst-prior guarantee equals the ratio a worst prior
   p* forces, so R(phi) = R~(phi) exactly.

   Run with: dune exec examples/public_randomness.exe *)

open Bayesian_ignorance
open Num
module S4 = Minimax.Section4

let weights prefix w =
  String.concat ", "
    (List.filter_map
       (fun (i, x) ->
         if Rat.is_zero x then None
         else Some (Printf.sprintf "%s%d:%s" prefix i (Rat.to_string x)))
       (List.mapi (fun i x -> (i, x)) (Array.to_list w)))

let show_phi name phi =
  Format.printf "== %s ==@." name;
  Format.printf "strategy profiles: %d, type profiles: %d@." (S4.n_strategies phi)
    (S4.n_type_profiles phi);
  let sol = S4.solve phi in
  Format.printf "R~(phi) = R(phi) = %s@." (Rat.to_string sol.S4.value);
  Format.printf "public-randomness mixture q: %s@." (weights "s" sol.S4.mixture);
  Format.printf "worst-prior guarantee of q: %s@."
    (Rat.to_string (S4.randomized_guarantee phi sol.S4.mixture));
  Format.printf "worst prior p*: %s, optP/optC under it: %s@."
    (weights "t" sol.S4.prior)
    (Rat.to_string (S4.ratio_under_prior phi sol.S4.prior));
  Format.printf "certificate (Prop 4.2: R = R~): %s@.@."
    (match S4.check phi sol with Ok () -> "checked" | Error e -> "REJECTED: " ^ e)

let () =
  (* Guess-the-type: one agent must match an unseen binary type, paying
     1 when right and 2 when wrong.  Rows are her two pure strategies,
     columns the two types; v(t) = 1, so R(phi) = 3/2 via the uniform
     mixture. *)
  let guess =
    S4.make
      [|
        [| Rat.of_int 1; Rat.of_int 2 |];
        [| Rat.of_int 2; Rat.of_int 1 |];
      |]
  in
  show_phi "guess the type" guess;
  let graph =
    Graphs.Graph.make Undirected ~n:2
      [ (0, 1, Rat.one); (0, 1, Rat.of_ints 3 2) ]
  in
  let game =
    Ncs.Bayesian_ncs.make graph
      ~prior:
        (Prob.Dist.uniform [ [| (0, 1); (0, 1) |]; [| (0, 1); (0, 0) |] ])
  in
  show_phi "two-commuter NCS game" (S4.of_bayesian_ncs game);
  Format.printf
    "In both cases a single mixture q achieves the optimal ratio against@.";
  Format.printf
    "every prior simultaneously: knowing p is unnecessary for benevolent@.";
  Format.printf "agents once public coins are available (Lemma 4.1).@."
