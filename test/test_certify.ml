(* The certified solver tier: potential descent, branch and bound and
   smoothness brackets.

   Laws under test: the Bayesian potential strictly decreases along
   best-response steps; descent fixpoints are exactly the pure Bayesian
   equilibria the exhaustive predicate accepts; branch-and-bound optima
   equal the exhaustive minimum; every emitted certificate survives its
   independent checker, and any tampering — a margin slack, the claimed
   value, a ledger bound, a bracket end — is rejected. *)

open Bayesian_ignorance
open Num
module Bncs = Ncs.Bayesian_ncs
module Dist = Prob.Dist
module Gen = Graphs.Gen
module Descent = Certify.Descent
module Bnb = Certify.Bnb
module Smooth = Certify.Smooth
module Solve = Certify.Solve
module Mode = Certify.Mode

let construction name k =
  match Constructions.Registry.build name k with
  | Ok g -> g
  | Error e -> Alcotest.fail e

(* Same family of small random games as test_ncs: 3-4 vertices, two
   agents, support of one or two states — small enough to exhaust. *)
let random_bayesian_ncs seed =
  let rng = Random.State.make [| seed |] in
  let n = 3 + Random.State.int rng 2 in
  let graph = Gen.random_connected_graph rng ~n ~p:0.35 ~max_cost:5 in
  let k = 2 in
  let profile () =
    Array.init k (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  let support = List.init (1 + Random.State.int rng 2) (fun _ -> profile ()) in
  Bncs.make graph
    ~prior:
      (Dist.make
         (List.map
            (fun t -> (t, Rat.of_int (1 + Random.State.int rng 2)))
            support))

let apply_move s (i, ti, a) =
  let s' = Array.map Array.copy s in
  s'.(i).(ti) <- a;
  s'

(* --- descent --- *)

let prop_potential_strictly_decreases =
  QCheck2.Test.make ~name:"potential strictly decreases along BR steps"
    ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let rec go s steps =
        steps > 400
        ||
        match Descent.step g s with
        | None -> true
        | Some move ->
          let s' = apply_move s move in
          Rat.( < ) (Bncs.bayesian_potential g s')
            (Bncs.bayesian_potential g s)
          && go s' (steps + 1)
      in
      List.for_all (fun s -> go s 0) (Descent.starts ~seeds:2 g))

let prop_fixpoints_are_equilibria =
  QCheck2.Test.make
    ~name:"descent fixpoints satisfy the exhaustive equilibrium predicate"
    ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let game = Bncs.game g in
      List.for_all
        (fun s ->
          match Descent.descend g s with
          | None -> false
          | Some fp -> Bayes.Bayesian.is_bayesian_equilibrium game fp)
        (Descent.starts ~seeds:2 g))

let prop_descent_certificates_check =
  QCheck2.Test.make ~name:"every descent certificate survives its checker"
    ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let certs, _starts = Descent.equilibria ~seeds:2 g in
      certs <> []
      && List.for_all
           (fun c -> Descent.check g c = Ok ())
           certs)

(* --- branch and bound --- *)

let exhaustive_opt g =
  Seq.fold_left
    (fun acc s -> Extended.min acc (Bncs.social_cost g s))
    (Extended.of_rat (Rat.of_int max_int))
    (Bncs.valid_strategy_profiles g)

let prop_bnb_matches_exhaustive_opt =
  QCheck2.Test.make ~name:"branch-and-bound optimum = exhaustive minimum"
    ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let o = Bnb.optimum g in
      o.Bnb.certificate <> None
      && Extended.equal o.Bnb.value (exhaustive_opt g)
      && (match o.Bnb.certificate with
         | Some c -> Bnb.check g c = Ok ()
         | None -> false))

(* --- cross-tier law --- *)

module Kernel = Ncs.Kernel
module Graph = Graphs.Graph

let within (b : Solve.bracket) v = Extended.(b.Solve.lo <= v && v <= b.Solve.hi)

let brackets_contain_exhaustive g =
  let exact = (Bncs.analyze g).Bncs.report in
  let cert = Solve.certify g in
  let inside b = function Some v -> within b v | None -> false in
  Solve.check g cert = Ok ()
  && within cert.Solve.opt_p_bracket exact.Bayes.Measures.opt_p
  && inside cert.Solve.best_eq_p exact.Bayes.Measures.best_eq_p
  && inside cert.Solve.worst_eq_p exact.Bayes.Measures.worst_eq_p
  && within cert.Solve.opt_c exact.Bayes.Measures.opt_c
  && inside cert.Solve.best_eq_c exact.Bayes.Measures.best_eq_c
  && inside cert.Solve.worst_eq_c exact.Bayes.Measures.worst_eq_c

(* Each game runs once on the int instance and once, with every cost
   scaled past 2^62, on the Rat instance. *)
let prop_certified_brackets_contain_exhaustive =
  QCheck2.Test.make
    ~name:"certified brackets contain the exhaustive values, on either kernel instance"
    ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let d = Random_games.description seed in
      let g = Random_games.game d in
      let huge = Random_games.game ~scale:Random_games.past_word d in
      Bncs.valid_profile_count g > 3000.
      || Kernel.instance (Bncs.kernel g) = "int"
         && (Random_games.free d || Kernel.instance (Bncs.kernel huge) = "rat")
         && brackets_contain_exhaustive g
         && brackets_contain_exhaustive huge)

(* The search meets its incumbent in the kernel's ring by an exact
   ceiling: with incumbents that are infinite, a hair above the optimum,
   off the scaled grid, or just below the optimum, the int instance and
   the Rat instance (the same game with every cost times 2^62) expand
   the same tree and find the same value. *)
let test_bnb_incumbents_agree_across_instances () =
  List.iter
    (fun (name, k) ->
      let g = construction name k in
      let graph = Bncs.graph g in
      let huge =
        Bncs.make
          (Graph.make (Graph.kind graph) ~n:(Graph.n_vertices graph)
             (List.map
                (fun (e : Graph.edge) -> (e.src, e.dst, Rat.mul Random_games.past_word e.cost))
                (Graph.edges graph)))
          ~prior:(Bncs.prior g)
      in
      Alcotest.(check (pair string string)) "instances" ("int", "rat")
        (Kernel.instance (Bncs.kernel g), Kernel.instance (Bncs.kernel huge));
      let base = Bnb.optimum g in
      let scale v = Extended.mul_rat Random_games.past_word v in
      List.iter
        (fun v ->
          let o = Bnb.optimum ~incumbent:(v, base.Bnb.profile) g in
          let o' = Bnb.optimum ~incumbent:(scale v, base.Bnb.profile) huge in
          Alcotest.(check int) "nodes" o.Bnb.nodes o'.Bnb.nodes;
          Alcotest.(check bool) "value scales" true
            (Extended.equal (scale o.Bnb.value) o'.Bnb.value);
          Alcotest.(check bool) "both certified" true
            (o.Bnb.certificate <> None && o'.Bnb.certificate <> None))
        [ Extended.Inf;
          Extended.add base.Bnb.value
            (Extended.of_rat (Rat.make Bigint.one (Bigint.pow (Bigint.of_int 10) 30)));
          Extended.add base.Bnb.value (Extended.of_rat (Rat.of_ints 1 7));
          Extended.mul_rat (Rat.of_ints 3 2) base.Bnb.value;
          Extended.add base.Bnb.value (Extended.of_rat (Rat.of_ints (-1) 1000)) ])
    [ ("gworst-curse", 3); ("anshelevich", 5) ]

(* Every solver loop the certified tier runs on the kernel polls the
   budget it is given. *)
let test_certified_loops_poll () =
  let g = construction "gworst-curse" 3 in
  let polled f =
    let b = Bi_engine.Budget.of_timeout_ms 600_000 in
    f b;
    Bi_engine.Budget.polls b > 0
  in
  let start = List.hd (Descent.starts g) in
  Alcotest.(check bool) "descent polls" true
    (polled (fun budget -> ignore (Descent.descend ~budget g start)));
  Alcotest.(check bool) "benevolent start polls" true
    (polled (fun budget -> ignore (Descent.starts ~budget g)));
  Alcotest.(check bool) "branch and bound polls" true
    (polled (fun budget ->
         ignore
           (Bnb.optimum ~budget ~incumbent:(Bncs.social_cost g start, start) g)))

(* --- tamper rejection --- *)

let rejected = function Ok () -> false | Error _ -> true

let test_descent_tamper () =
  let g = construction "gworst-curse" 3 in
  let certs, _ = Descent.equilibria g in
  let cert = List.hd certs in
  Alcotest.(check bool) "genuine certificate accepted" true
    (Descent.check g cert = Ok ());
  Alcotest.(check bool) "margins are non-trivial" true (cert.margins <> []);
  let bumped =
    {
      cert with
      Descent.margins =
        (match cert.Descent.margins with
        | m :: rest -> { m with Descent.slack = Rat.add m.Descent.slack Rat.one } :: rest
        | [] -> []);
    }
  in
  Alcotest.(check bool) "tampered slack rejected" true
    (rejected (Descent.check g bumped));
  let inflated =
    { cert with Descent.value = Extended.add cert.Descent.value (Extended.of_rat Rat.one) }
  in
  Alcotest.(check bool) "tampered value rejected" true
    (rejected (Descent.check g inflated))

let test_bnb_tamper () =
  let g = construction "gworst-curse" 3 in
  let o = Bnb.optimum g in
  match o.Bnb.certificate with
  | None -> Alcotest.fail "expected a closed search on gworst-curse k=3"
  | Some c ->
    Alcotest.(check bool) "genuine certificate accepted" true
      (Bnb.check g c = Ok ());
    let lowered =
      { c with Bnb.value = Extended.mul_rat (Rat.of_ints 1 2) c.Bnb.value }
    in
    Alcotest.(check bool) "lowered value rejected" true
      (rejected (Bnb.check g lowered));
    (match c.Bnb.ledger with
    | [] -> ()
    | (prefix, b) :: rest ->
      let cooked =
        { c with Bnb.ledger = (prefix, Rat.add b Rat.one) :: rest }
      in
      Alcotest.(check bool) "cooked ledger bound rejected" true
        (rejected (Bnb.check g cooked)))

let test_solve_check_and_tamper () =
  let g = construction "anshelevich" 4 in
  let cert = Solve.certify g in
  Alcotest.(check bool) "full certificate accepted" true
    (Solve.check g cert = Ok ());
  let widened =
    {
      cert with
      Solve.best_eq_p =
        {
          cert.Solve.best_eq_p with
          Solve.hi =
            Extended.add cert.Solve.best_eq_p.Solve.hi (Extended.of_rat Rat.one);
        };
    }
  in
  Alcotest.(check bool) "tampered bracket rejected" true
    (rejected (Solve.check g widened))

let test_solve_on_constructions () =
  List.iter
    (fun (name, k) ->
      let g = construction name k in
      let cert = Solve.certify g in
      match Solve.check g cert with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s k=%d: %s" name k e))
    [ ("gworst-curse", 4); ("gworst-bliss", 4); ("anshelevich", 3) ]

(* --- smoothness --- *)

let test_smoothness () =
  Alcotest.(check bool) "fair share is (k, 0)-smooth" true
    (Smooth.check (Smooth.fair_share ~players:5 ()) = Ok ());
  Alcotest.(check bool) "potential bracket holds" true
    (Smooth.check_potential (Smooth.potential ~players:5 ()) = Ok ());
  Alcotest.(check bool) "understated lambda rejected" true
    (rejected
       (Smooth.check
          { Smooth.players = 3; lambda = Rat.one; mu = Rat.zero }));
  Alcotest.(check bool) "mu = 1 rejected" true
    (rejected (Smooth.check { Smooth.players = 3; lambda = Rat.of_int 3; mu = Rat.one }));
  Alcotest.(check bool) "understated potential upper rejected" true
    (rejected
       (Smooth.check_potential { Smooth.players = 4; upper = Rat.one }))

(* --- mode --- *)

let test_mode () =
  Alcotest.(check bool) "default is exhaustive" true
    (Mode.default = Mode.Exhaustive);
  List.iter
    (fun (s, m) ->
      Alcotest.(check bool) s true (Mode.of_string s = Ok m);
      Alcotest.(check string) ("to_string " ^ s) s (Mode.to_string m))
    [
      ("exhaustive", Mode.Exhaustive);
      ("certified", Mode.Certified);
      ("auto", Mode.Auto);
    ];
  Alcotest.(check bool) "unknown tier rejected" true
    (Result.is_error (Mode.of_string "bogus"));
  Alcotest.(check string) "exhaustive tag is empty" ""
    (Mode.cache_tag Mode.Exhaustive);
  Alcotest.(check string) "certified tag" "certified"
    (Mode.cache_tag Mode.Certified);
  Alcotest.(check bool) "auto has no tag" true
    (match Mode.cache_tag Mode.Auto with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "auto resolves small games to exhaustive" true
    (Mode.resolve ~valid_profiles:100. Mode.Auto = Mode.Exhaustive);
  Alcotest.(check bool) "auto resolves large games to certified" true
    (Mode.resolve ~valid_profiles:1e9 Mode.Auto = Mode.Certified);
  Alcotest.(check bool) "concrete tiers resolve to themselves" true
    (Mode.resolve ~valid_profiles:1e9 Mode.Exhaustive = Mode.Exhaustive
    && Mode.resolve ~valid_profiles:100. Mode.Certified = Mode.Certified)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_potential_strictly_decreases;
      prop_fixpoints_are_equilibria;
      prop_descent_certificates_check;
      prop_bnb_matches_exhaustive_opt;
      prop_certified_brackets_contain_exhaustive;
    ]

let () =
  Alcotest.run "bi_certify"
    [
      ( "certificates",
        [
          Alcotest.test_case "descent tamper rejection" `Quick
            test_descent_tamper;
          Alcotest.test_case "branch-and-bound tamper rejection" `Quick
            test_bnb_tamper;
          Alcotest.test_case "solve check & bracket tamper" `Quick
            test_solve_check_and_tamper;
          Alcotest.test_case "constructions certify" `Quick
            test_solve_on_constructions;
          Alcotest.test_case "solver loops poll the budget" `Quick
            test_certified_loops_poll;
          Alcotest.test_case "branch-and-bound incumbents agree across instances"
            `Quick test_bnb_incumbents_agree_across_instances;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "smoothness & potential brackets" `Quick
            test_smoothness;
          Alcotest.test_case "mode parsing, tags and resolution" `Quick
            test_mode;
        ] );
      ("laws", qtests);
    ]
