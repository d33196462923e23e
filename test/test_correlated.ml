(* The correlated-play subsystem.

   Laws under test, on small random Bayesian NCS games and the paper's
   constructions (exhaustive window): every LP report survives its
   independent checker and any tampering is rejected; every pure
   Bayesian equilibrium is a feasible point of both the CCE and Comm
   polytopes; the values interleave exactly as the polytope inclusions
   dictate — best-cce <= best-comm <= best-eqP <= worst-eqP <=
   worst-comm <= worst-cce; and the deviation-free polytope reproduces
   Lemma 4.1: pub-best = optC.  The simplex's float guide must land:
   on the paper's families the exact loop only proves its basis. *)

open Bayesian_ignorance
open Num
module Bncs = Ncs.Bayesian_ncs
module Dist = Prob.Dist
module Gen = Graphs.Gen
module Concept = Correlated.Concept
module Corr = Correlated.Correlated

let construction name k =
  match Constructions.Registry.build name k with
  | Ok g -> g
  | Error e -> Alcotest.fail e

(* Same family of small random games as test_ncs/test_certify: 3-4
   vertices, two agents, support of one or two states. *)
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

let fin = Extended.to_rat_exn

let fin_opt name = function
  | Some v -> fin v
  | None -> Alcotest.fail (name ^ ": no pure Bayesian equilibrium")

(* --- the interleaving on a deterministic family --- *)

let test_table1_interleaving () =
  List.iter
    (fun (name, k) ->
      let g = construction name k in
      let report = Bncs.measures_exhaustive g in
      let cce = Corr.analyze ~concept:Concept.Cce g in
      let comm = Corr.analyze ~concept:Concept.Comm g in
      (match Corr.check g cce with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ " cce: " ^ e));
      (match Corr.check g comm with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ " comm: " ^ e));
      let best_eq = fin_opt name report.Bayes.Measures.best_eq_p in
      let worst_eq = fin_opt name report.Bayes.Measures.worst_eq_p in
      let chain =
        [
          ("best-cce <= best-comm", cce.Corr.best.Corr.value, comm.Corr.best.Corr.value);
          ("best-comm <= best-eqP", comm.Corr.best.Corr.value, best_eq);
          ("best-eqP <= worst-eqP", best_eq, worst_eq);
          ("worst-eqP <= worst-comm", worst_eq, comm.Corr.worst.Corr.value);
          ("worst-comm <= worst-cce", comm.Corr.worst.Corr.value, cce.Corr.worst.Corr.value);
        ]
      in
      List.iter
        (fun (label, lo, hi) ->
          if Rat.( > ) lo hi then
            Alcotest.fail
              (Printf.sprintf "%s k=%d: %s violated (%s > %s)" name k label
                 (Rat.to_string lo) (Rat.to_string hi)))
        chain;
      (* Lemma 4.1: the deviation-free polytope's optimum is optC. *)
      Alcotest.check
        (Alcotest.testable Rat.pp Rat.equal)
        (name ^ " pub-best = optC")
        (fin report.Bayes.Measures.opt_c)
        cce.Corr.pub_best.Corr.value)
    [ ("anshelevich", 2); ("anshelevich", 3); ("gworst-curse", 2); ("gworst-bliss", 2) ]

(* --- qcheck laws on random games --- *)

let prop_reports_verify =
  QCheck2.Test.make ~name:"reports survive their checker" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      List.for_all
        (fun concept -> Corr.check g (Corr.analyze ~concept g) = Ok ())
        [ Concept.Cce; Concept.Comm ])

let prop_equilibria_are_members =
  QCheck2.Test.make
    ~name:"every pure Bayesian equilibrium lies in both polytopes" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let t = Corr.make g in
      Seq.for_all
        (fun s ->
          List.for_all
            (fun concept -> Corr.equilibrium_member t ~concept s = Ok ())
            [ Concept.Cce; Concept.Comm ])
        (Bncs.bayesian_equilibria g))

let prop_pub_best_is_opt_c =
  QCheck2.Test.make ~name:"pub-best equals optC (Lemma 4.1)" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let cce = Corr.analyze ~concept:Concept.Cce g in
      let opt_c = fin (Bayes.Measures.opt_c (Bncs.game g)) in
      Rat.equal cce.Corr.pub_best.Corr.value opt_c)

let prop_ordering_on_random_games =
  QCheck2.Test.make ~name:"cce/comm/eq interleaving on random games"
    ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let report = Bncs.measures_exhaustive g in
      match (report.Bayes.Measures.best_eq_p, report.Bayes.Measures.worst_eq_p) with
      | Some be, Some we ->
        let be = fin be and we = fin we in
        let cce = Corr.analyze ~concept:Concept.Cce g in
        let comm = Corr.analyze ~concept:Concept.Comm g in
        Rat.( <= ) cce.Corr.best.Corr.value comm.Corr.best.Corr.value
        && Rat.( <= ) comm.Corr.best.Corr.value be
        && Rat.( <= ) we comm.Corr.worst.Corr.value
        && Rat.( <= ) comm.Corr.worst.Corr.value cce.Corr.worst.Corr.value
      | _ -> false (* NCS games always have a pure Bayesian equilibrium *))

let prop_tampered_reports_rejected =
  QCheck2.Test.make ~name:"tampered reports are rejected" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = random_bayesian_ncs seed in
      let rep = Corr.analyze ~concept:Concept.Cce g in
      (* Shift the best value and its certified objective together: the
         claimed pair stays internally consistent, so only the exact
         re-verification against the rebuilt LP can catch it. *)
      let bumped =
        {
          rep with
          Corr.best =
            {
              rep.Corr.best with
              Corr.value = Rat.add rep.Corr.best.Corr.value Rat.one;
              certificate =
                {
                  rep.Corr.best.Corr.certificate with
                  Lp.Simplex.objective =
                    Rat.add
                      rep.Corr.best.Corr.certificate.Lp.Simplex.objective
                      Rat.one;
                };
            };
        }
      in
      Corr.check g bumped <> Ok ()
      && (* and a wrong concept tag changes the LP, so the certificate
            no longer matches *)
      (rep.Corr.deviations = Corr.deviation_count (Corr.make g) Concept.Comm
      || Corr.check g { rep with Corr.concept = Concept.Comm } <> Ok ()))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reports_verify;
      prop_equilibria_are_members;
      prop_pub_best_is_opt_c;
      prop_ordering_on_random_games;
      prop_tampered_reports_rejected;
    ]

(* --- the simplex's float guide --- *)

(* On every cce and comm LP of the three families at k = 2..4, the exact
   loop starts from the guide's rebuilt basis and proves it optimal
   without a pivot.  A guide that silently failed would still give the
   right answers, so only this law would notice. *)
let test_guide_lands_on_family_lps () =
  let module Simplex = Lp.Simplex in
  List.iter
    (fun name ->
      List.iter
        (fun k ->
          let t = Corr.make (construction name k) in
          let lps =
            [
              ("pub_best", Corr.public_problem t ~sense:Corr.Best);
              ("pub_worst", Corr.public_problem t ~sense:Corr.Worst);
            ]
            @ List.concat_map
                (fun concept ->
                  let c = Concept.to_string concept in
                  [
                    (c ^ " best", Corr.problem t ~concept ~sense:Corr.Best);
                    (c ^ " worst", Corr.problem t ~concept ~sense:Corr.Worst);
                  ])
                [ Concept.Cce; Concept.Comm ]
          in
          List.iter
            (fun (label, p) ->
              let _, st = Simplex.solve p in
              if not (st.Simplex.guided && st.Simplex.exact_pivots = 0) then
                Alcotest.failf "%s k=%d %s: guided %b, %d exact pivots of %d"
                  name k label st.Simplex.guided st.Simplex.exact_pivots
                  st.Simplex.pivots)
            lps)
        [ 2; 3; 4 ])
    [ "anshelevich"; "gworst-bliss"; "gworst-curse" ]

(* The guide polls the budget on every pivot too, so a deadline still
   stops an LP that the guide alone would finish. *)
let test_expired_budget_raises () =
  let g = construction "anshelevich" 8 in
  let budget = Engine.Budget.of_timeout_ms 1 in
  Unix.sleepf 0.01;
  Alcotest.check_raises "expired budget" Engine.Budget.Expired (fun () ->
      ignore (Corr.analyze ~budget ~concept:Concept.Cce g))

(* Three of the largest comm LPs seen in the random family: 740, 1236
   and 964 rows. *)
let test_large_comm_lps () =
  List.iter
    (fun (seed, rows) ->
      let g = random_bayesian_ncs seed in
      let r = Corr.analyze ~concept:Concept.Comm g in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: rows" seed)
        rows (r.Corr.states + r.Corr.deviations);
      match Corr.check g r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e)
    [ (84961, 740); (6673, 1236); (69439, 964) ]

let test_nash_has_no_lp () =
  let g = construction "anshelevich" 2 in
  Alcotest.check_raises "analyze nash"
    (Invalid_argument
       "Correlated.analyze: nash has no LP — use the exhaustive or certified solvers")
    (fun () -> ignore (Corr.analyze ~concept:Concept.Nash g))

let test_concept_strings () =
  List.iter
    (fun c ->
      match Concept.of_string (Concept.to_string c) with
      | Ok c' when c' = c -> ()
      | _ -> Alcotest.fail "concept round-trip")
    [ Concept.Nash; Concept.Cce; Concept.Comm ];
  (match Concept.of_string "sunspot" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad concept accepted");
  Alcotest.(check string) "nash tag" "" (Concept.cache_tag Concept.Nash);
  Alcotest.(check string) "cce tag" "cce" (Concept.cache_tag Concept.Cce);
  Alcotest.(check string) "comm tag" "comm" (Concept.cache_tag Concept.Comm)

let () =
  Alcotest.run "bi_correlated"
    [
      ( "deterministic",
        [
          Alcotest.test_case "Table-1 interleaving + Lemma 4.1" `Quick
            test_table1_interleaving;
          Alcotest.test_case "nash has no LP" `Quick test_nash_has_no_lp;
          Alcotest.test_case "concept strings" `Quick test_concept_strings;
        ] );
      ( "guide",
        [
          Alcotest.test_case "lands on every family LP at k 2-4" `Quick
            test_guide_lands_on_family_lps;
          Alcotest.test_case "expired budget raises" `Quick
            test_expired_budget_raises;
          Alcotest.test_case "three largest comm LPs" `Slow test_large_comm_lps;
        ] );
      ("properties", qtests);
    ]
