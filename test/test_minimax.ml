(* Tests for Section 4: the normalized zero-sum game solved as one
   certified LP, R(phi) = R~(phi) exactly, and the public-randomness
   mixture. *)

open Bi_num
module S4 = Bi_minimax.Section4
module Simplex = Bi_lp.Simplex
module Dist = Bi_prob.Dist
module Bncs = Bi_ncs.Bayesian_ncs

let rat = Alcotest.testable Rat.pp Rat.equal
let rats = Alcotest.array rat

let r = Rat.of_int
let rr = Rat.of_ints

let phi rows = S4.make (Array.of_list (List.map Array.of_list rows))

let accepted phi sol =
  match S4.check phi sol with
  | Ok () -> ()
  | Error e -> Alcotest.failf "certificate rejected: %s" e

(* --- matrix games (the normalized game N = K / v) --- *)

let test_pure_saddle () =
  (* Row 1 is optimal under every type profile: v = (2, 3) and the
     normalized matrix is [[2; 5/3]; [1; 1]], whose pure saddle sits on
     row 1 with value 1 — a normalized game's column minima are all 1,
     so a pure saddle always has value 1. *)
  let g = phi [ [ r 4; r 5 ]; [ r 2; r 3 ] ] in
  let sol = S4.solve g in
  Alcotest.check rat "value" Rat.one sol.S4.value;
  Alcotest.check rats "pure mixture" [| Rat.zero; Rat.one |] sol.S4.mixture;
  Alcotest.check rat "value = saddle entry" (S4.normalized g).(1).(0) sol.S4.value;
  accepted g sol

let test_matching_pennies_value () =
  (* Positive matching pennies: 1 on a match, 3 otherwise.  No pure
     saddle; value 2 at the uniform mixture against the uniform
     prior. *)
  let g = phi [ [ r 1; r 3 ]; [ r 3; r 1 ] ] in
  let sol = S4.solve g in
  Alcotest.check rat "value" (r 2) sol.S4.value;
  Alcotest.check rats "uniform q" [| rr 1 2; rr 1 2 |] sol.S4.mixture;
  Alcotest.check rats "uniform p*" [| rr 1 2; rr 1 2 |] sol.S4.prior;
  accepted g sol

let test_guarantees_are_certified () =
  (* Three strategies against two types with unequal optima, so p* is
     the column mixture reweighted by 1/v(t). *)
  let g = phi [ [ r 1; r 6 ]; [ r 4; r 2 ]; [ r 3; r 4 ] ] in
  let sol = S4.solve g in
  Alcotest.check rat "q guarantee = value"
    (S4.randomized_guarantee g sol.S4.mixture) sol.S4.value;
  Alcotest.check rat "p* ratio = value"
    (S4.ratio_under_prior g sol.S4.prior) sol.S4.value;
  (* v = (1, 2); N = [[1; 3]; [4; 1]; [3; 2]]; rows 0 and 1 mixed
     3/5 : 2/5 against columns mixed 2/5 : 3/5 give 11/5, and
     p* is proportional to (2/5 / 1, 3/5 / 2). *)
  Alcotest.check rat "value" (rr 11 5) sol.S4.value;
  Alcotest.check rats "q" [| rr 3 5; rr 2 5; Rat.zero |] sol.S4.mixture;
  Alcotest.check rats "p*" [| rr 4 7; rr 3 7 |] sol.S4.prior;
  accepted g sol

let test_mixture_validation () =
  let g = phi [ [ r 1; r 3 ]; [ r 3; r 1 ] ] in
  Alcotest.check_raises "bad sum" (Invalid_argument "Section4: mixture does not sum to one")
    (fun () -> ignore (S4.randomized_guarantee g [| rr 1 2; rr 1 3 |]));
  Alcotest.check_raises "length" (Invalid_argument "Section4: mixture length mismatch")
    (fun () -> ignore (S4.randomized_guarantee g [| Rat.one |]));
  Alcotest.check_raises "negative prior" (Invalid_argument "Section4: negative prior weight")
    (fun () -> ignore (S4.ratio_under_prior g [| rr 3 2; rr (-1) 2 |]))

(* --- Section 4 --- *)

(* The guess-the-type structure as a cost matrix: strategies = the two
   actions of the guessing agent; type profiles = the two types.
   K(s,t) = 1 if the guess matches, 2 otherwise; v(t) = 1.  Value of the
   normalized game = 3/2, achieved by the uniform mixture. *)
let guess_phi () = S4.make [| [| r 1; r 2 |]; [| r 2; r 1 |] |]

let test_section4_guess_game () =
  let phi = guess_phi () in
  Alcotest.check rat "v(t)" Rat.one (S4.opt_of_type phi 0);
  Alcotest.check rat "R~ = 3/2" (rr 3 2) (S4.solve phi).S4.value;
  (* The uniform mixture guarantees exactly 3/2 against every prior. *)
  let q = [| rr 1 2; rr 1 2 |] in
  Alcotest.check rat "uniform q guarantee" (rr 3 2) (S4.randomized_guarantee phi q);
  (* Point priors achieve ratio 2 deterministically... for pure
     strategies; the prior-ratio (best strategy per prior) is 3/2 at the
     uniform prior and 1 at point priors. *)
  Alcotest.check rat "point prior ratio" Rat.one
    (S4.ratio_under_prior phi [| Rat.one; Rat.zero |]);
  Alcotest.check rat "uniform prior ratio" (rr 3 2)
    (S4.ratio_under_prior phi [| rr 1 2; rr 1 2 |])

let test_proposition_4_2 () =
  (* R(phi) = max_p ratio(p) and R~(phi) = min_q guarantee(q) meet at
     3/2: the certificate exhibits q and p* attaining it. *)
  let phi = guess_phi () in
  let sol = S4.solve phi in
  accepted phi sol;
  Alcotest.check rat "R~" (rr 3 2) sol.S4.value;
  Alcotest.check rat "R = ratio at p*" (rr 3 2) (S4.ratio_under_prior phi sol.S4.prior);
  Alcotest.check rats "p* uniform" [| rr 1 2; rr 1 2 |] sol.S4.prior

let test_positive_costs_required () =
  Alcotest.check_raises "zero cost"
    (Invalid_argument "Section4.make: costs must be positive") (fun () ->
      ignore (S4.make [| [| Rat.zero |] |]))

let test_of_bayesian_ncs () =
  (* Two parallel edges, unknown partner (as in test_ncs). *)
  let graph =
    Bi_graph.Graph.make Undirected ~n:2 [ (0, 1, r 1); (0, 1, rr 3 2) ]
  in
  let g =
    Bncs.make graph
      ~prior:(Dist.uniform [ [| (0, 1); (0, 1) |]; [| (0, 1); (0, 0) |] ])
  in
  let phi = S4.of_bayesian_ncs g in
  Alcotest.(check int) "type profiles = support" 2 (S4.n_type_profiles phi);
  Alcotest.(check bool) "several strategy profiles" true (S4.n_strategies phi > 4);
  (* Both type profiles have optimum 1 (edge e0). *)
  Alcotest.check rat "v(t0)" Rat.one (S4.opt_of_type phi 0);
  Alcotest.check rat "v(t1)" Rat.one (S4.opt_of_type phi 1);
  (* There is a single strategy profile optimal for every type profile
     simultaneously (everyone on e0), so R(phi) = 1. *)
  let sol = S4.solve phi in
  Alcotest.check rat "R~ = 1 exactly" Rat.one sol.S4.value;
  accepted phi sol

(* Random positive cost matrices up to 8x6. *)
let random_phi rng =
  let rows = 1 + Random.State.int rng 8 in
  let cols = 1 + Random.State.int rng 6 in
  S4.make
    (Array.init rows (fun _ ->
         Array.init cols (fun _ -> Rat.of_int (1 + Random.State.int rng 9))))

let prop_lp_certifies_minimax =
  QCheck2.Test.make ~name:"Section4 LP: certified, value = q guarantee = p* ratio"
    ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let phi = random_phi (Random.State.make [| seed |]) in
      let sol = S4.solve phi in
      Simplex.check (S4.problem phi) sol.S4.certificate = Ok ()
      && Rat.equal sol.S4.value (S4.randomized_guarantee phi sol.S4.mixture)
      && Rat.equal sol.S4.value (S4.ratio_under_prior phi sol.S4.prior)
      && S4.check phi sol = Ok ())

let prop_check_rejects_perturbations =
  QCheck2.Test.make ~name:"Section4.check rejects a perturbed value, q or p*"
    ~count:60
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 7))
    (fun (seed, d) ->
      let rng = Random.State.make [| seed |] in
      let phi = random_phi rng in
      let sol = S4.solve phi in
      let delta = if Random.State.bool rng then rr d 5 else rr (-d) 7 in
      let nudge w =
        let w = Array.copy w in
        let i = Random.State.int rng (Array.length w) in
        w.(i) <- Rat.add w.(i) delta;
        w
      in
      let rejected s = S4.check phi s <> Ok () in
      rejected { sol with S4.value = Rat.add sol.S4.value delta }
      && rejected { sol with S4.mixture = nudge sol.S4.mixture }
      && rejected { sol with S4.prior = nudge sol.S4.prior })

let prop_randomized_guarantee_beats_best_pure_sometimes =
  (* Structural sanity: the optimal mixture's guarantee is never worse
     than the best single strategy profile's worst-case ratio. *)
  QCheck2.Test.make ~name:"mixture guarantee <= best pure worst-case" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 2 + Random.State.int rng 3 in
      let cols = 2 + Random.State.int rng 3 in
      let mat =
        Array.init rows (fun _ ->
            Array.init cols (fun _ -> Rat.of_int (1 + Random.State.int rng 8)))
      in
      let phi = S4.make mat in
      let sol = S4.solve phi in
      let normalized = S4.normalized phi in
      let pure_worst i = Array.fold_left Rat.max Rat.zero normalized.(i) in
      let best_pure = ref (pure_worst 0) in
      for i = 1 to rows - 1 do
        best_pure := Rat.min !best_pure (pure_worst i)
      done;
      Rat.( <= ) (S4.randomized_guarantee phi sol.S4.mixture) !best_pure)

(* The K matrix of a constructed game: sized against the limit before
   anything is built, and priced like the generic game prices it. *)
let affine k =
  match Bi_constructions.Registry.build "affine" k with
  | Ok g -> g
  | Error e -> Alcotest.fail e

let contains msg part =
  let n = String.length part and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = part || go (i + 1)) in
  go 0

let limit_phrase = Printf.sprintf "limit of %d" S4.max_entries

let test_size_guard () =
  (match S4.of_bayesian_ncs (affine 3) with
  | _ -> Alcotest.fail "affine k=3 was built"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the size" true (contains msg "72 type profiles");
    Alcotest.(check bool) "names the limit" true (contains msg limit_phrase));
  let g = affine 2 in
  let phi = S4.of_bayesian_ncs g in
  Alcotest.(check (pair int int)) "affine k=2 is 6561 x 12" (6561, 12)
    (S4.n_strategies phi, S4.n_type_profiles phi);
  let game = Bncs.game g in
  let support = Array.of_list (Dist.support (Bi_bayes.Bayesian.prior game)) in
  Seq.iteri
    (fun i s ->
      Array.iteri
        (fun j t ->
          Alcotest.check rat "K(s,t) = generic social cost"
            (Extended.to_rat_exn (Bi_bayes.Bayesian.social_cost_at game s t))
            (S4.cost phi i j))
        support)
    (Bncs.valid_strategy_profiles g);
  let sol = S4.solve phi in
  accepted phi sol;
  Alcotest.check rat "R~ = R" (rr 7 3) sol.S4.value

(* The CLI turns the guard into exit 2 with the message on stderr. *)
let test_cli_size_guard () =
  let bi =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/bi.exe"
  in
  let err = Filename.temp_file "sec4" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s sec4 affine -k 3 > /dev/null 2> %s" (Filename.quote bi)
         (Filename.quote err))
  in
  let msg = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "message names the limit" true
    (contains msg "error:" && contains msg limit_phrase)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lp_certifies_minimax; prop_check_rejects_perturbations;
      prop_randomized_guarantee_beats_best_pure_sometimes;
    ]

let () =
  Alcotest.run "bi_minimax"
    [
      ( "matrix_game",
        [
          Alcotest.test_case "pure saddle" `Quick test_pure_saddle;
          Alcotest.test_case "matching pennies" `Quick test_matching_pennies_value;
          Alcotest.test_case "certified guarantees" `Quick test_guarantees_are_certified;
          Alcotest.test_case "mixture validation" `Quick test_mixture_validation;
        ] );
      ( "section4",
        [
          Alcotest.test_case "guess game" `Quick test_section4_guess_game;
          Alcotest.test_case "proposition 4.2" `Quick test_proposition_4_2;
          Alcotest.test_case "positive costs" `Quick test_positive_costs_required;
          Alcotest.test_case "from Bayesian NCS" `Quick test_of_bayesian_ncs;
          Alcotest.test_case "cost matrix size guard" `Quick test_size_guard;
          Alcotest.test_case "bi sec4 exits 2 past the guard" `Quick test_cli_size_guard;
        ] );
      ("properties", qtests);
    ]
