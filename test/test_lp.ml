(* The exact-rational simplex solver.

   Laws under test: on random feasible programs every outcome carries a
   certificate its independent checker accepts — in particular the
   duality gap of an optimum is exactly zero; Bland's rule terminates on
   the classic cycling instance and on randomly degenerate systems;
   infeasibility and unboundedness round-trip through their Farkas/ray
   certificates; tampering with any certificate coordinate is
   rejected; the crash basis reaches the optimum an all-artificial
   start reaches; and data that doubles cannot tell apart still yields
   the exact optimum, because the float guide only proposes a basis. *)

open Bayesian_ignorance
open Num
module Simplex = Lp.Simplex

let rat = Alcotest.testable Rat.pp Rat.equal

let mat rows = Array.map (Array.map (fun (n, d) -> Rat.of_ints n d)) rows
let vec xs = Array.map (fun (n, d) -> Rat.of_ints n d) xs

let solve_exn p =
  let outcome, _ = Simplex.solve p in
  outcome

let optimal_exn p =
  match solve_exn p with
  | Simplex.Optimal cert -> cert
  | Simplex.Infeasible _ -> Alcotest.fail "unexpected Infeasible"
  | Simplex.Unbounded _ -> Alcotest.fail "unexpected Unbounded"

let check_ok p cert =
  match Simplex.check p cert with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("certificate rejected: " ^ e)

(* --- crafted instances --- *)

(* min x1 + x2 s.t. x1 + 2 x2 = 3: optimum 3/2 at (0, 3/2). *)
let tiny =
  { Simplex.a = mat [| [| (1, 1); (2, 1) |] |];
    b = vec [| (3, 1) |];
    c = vec [| (1, 1); (1, 1) |] }

let test_tiny_optimum () =
  let cert = optimal_exn tiny in
  Alcotest.check rat "objective" (Rat.of_ints 3 2) cert.Simplex.objective;
  check_ok tiny cert

(* A duplicated (redundant) row exercises the inert-artificial path:
   phase 1 cannot drive the second artificial out, and phase 2 must
   still optimize around the dead row. *)
let test_redundant_row () =
  let p =
    { Simplex.a = mat [| [| (1, 1); (1, 1) |]; [| (1, 1); (1, 1) |] |];
      b = vec [| (1, 1); (1, 1) |];
      c = vec [| (1, 1); (0, 1) |] }
  in
  let cert = optimal_exn p in
  Alcotest.check rat "objective" Rat.zero cert.Simplex.objective;
  check_ok p cert

(* Beale's classic cycling example (standard form): Dantzig pricing
   cycles forever on it; Bland's rule must terminate at the optimum
   -1/20. *)
let beale =
  {
    Simplex.a =
      mat
        [|
          [| (1, 1); (0, 1); (0, 1); (1, 4); (-60, 1); (-1, 25); (9, 1) |];
          [| (0, 1); (1, 1); (0, 1); (1, 2); (-90, 1); (-1, 50); (3, 1) |];
          [| (0, 1); (0, 1); (1, 1); (0, 1); (0, 1); (1, 1); (0, 1) |];
        |];
    b = vec [| (0, 1); (0, 1); (1, 1) |];
    c =
      vec
        [| (0, 1); (0, 1); (0, 1); (-3, 4); (150, 1); (-1, 50); (6, 1) |];
  }

let test_beale_terminates () =
  let cert = optimal_exn beale in
  Alcotest.check rat "objective" (Rat.of_ints (-1) 20) cert.Simplex.objective;
  check_ok beale cert

(* x1 + x2 = -1, x >= 0: infeasible; y = -1 is a Farkas certificate. *)
let test_infeasible_round_trip () =
  let p =
    { Simplex.a = mat [| [| (1, 1); (1, 1) |] |];
      b = vec [| (-1, 1) |];
      c = vec [| (0, 1); (0, 1) |] }
  in
  match solve_exn p with
  | Simplex.Infeasible { farkas } -> (
    (match Simplex.check_infeasible p farkas with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("Farkas certificate rejected: " ^ e));
    match Simplex.check_infeasible p (vec [| (1, 1) |]) with
    | Ok () -> Alcotest.fail "tampered Farkas certificate accepted"
    | Error _ -> ())
  | _ -> Alcotest.fail "expected Infeasible"

(* min -x1 s.t. x1 - x2 = 0: unbounded along (1, 1). *)
let test_unbounded_round_trip () =
  let p =
    { Simplex.a = mat [| [| (1, 1); (-1, 1) |] |];
      b = vec [| (0, 1) |];
      c = vec [| (-1, 1); (0, 1) |] }
  in
  match solve_exn p with
  | Simplex.Unbounded { witness; ray } -> (
    (match Simplex.check_unbounded p ~witness ~ray with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("ray certificate rejected: " ^ e));
    match Simplex.check_unbounded p ~witness ~ray:(vec [| (1, 1); (0, 1) |]) with
    | Ok () -> Alcotest.fail "tampered ray accepted"
    | Error _ -> ())
  | _ -> Alcotest.fail "expected Unbounded"

(* Empty constraint system: optimal at the origin for c >= 0, unbounded
   along any negative-cost coordinate otherwise. *)
let test_no_constraints () =
  let p0 = { Simplex.a = [||]; b = [||]; c = vec [| (1, 1); (2, 1) |] } in
  let cert = optimal_exn p0 in
  Alcotest.check rat "objective" Rat.zero cert.Simplex.objective;
  check_ok p0 cert;
  let p1 = { p0 with Simplex.c = vec [| (1, 1); (-1, 1) |] } in
  match solve_exn p1 with
  | Simplex.Unbounded { witness; ray } -> (
    match Simplex.check_unbounded p1 ~witness ~ray with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("ray certificate rejected: " ^ e))
  | _ -> Alcotest.fail "expected Unbounded"

let test_tampered_certificates () =
  let cert = optimal_exn tiny in
  let reject name cert' =
    match Simplex.check tiny cert' with
    | Ok () -> Alcotest.fail (name ^ ": tampered certificate accepted")
    | Error _ -> ()
  in
  reject "objective"
    { cert with Simplex.objective = Rat.add cert.Simplex.objective Rat.one };
  let x' = Array.copy cert.Simplex.x in
  x'.(0) <- Rat.add x'.(0) Rat.one;
  reject "primal" { cert with Simplex.x = x' };
  let y' = Array.copy cert.Simplex.y in
  y'.(0) <- Rat.add y'.(0) Rat.one;
  reject "dual" { cert with Simplex.y = y' };
  let y'' = Array.copy cert.Simplex.y in
  y''.(0) <- Rat.neg y''.(0);
  reject "dual sign" { cert with Simplex.y = y'' }

let test_pivot_rejects_zero () =
  let binv = [| [| Rat.one |] |] in
  let xb = [| Rat.one |] in
  Alcotest.check_raises "zero pivot"
    (Invalid_argument "Simplex.pivot: zero pivot element") (fun () ->
      Simplex.pivot ~binv ~xb ~column:[| Rat.zero |] ~row:0)

(* --- the float guide --- *)

(* 1 + 10^-30: a double rounds it to 1. *)
let one_plus_tiny =
  let e30 = Bigint.pow (Bigint.of_int 10) 30 in
  Rat.make (Bigint.add e30 Bigint.one) e30

(* min (1 + 10^-30) x1 + x2 s.t. x1 + x2 = 1.  The guide stops on the
   crash basis {x1}, whose reduced cost for x2 is 0 in doubles; only the
   exact pricing pass sees -10^-30 and pivots to the optimum 1 at x2. *)
let test_guide_costs_tied_in_doubles () =
  let p =
    { Simplex.a = mat [| [| (1, 1); (1, 1) |] |];
      b = vec [| (1, 1) |];
      c = [| one_plus_tiny; Rat.one |] }
  in
  let outcome, stats = Simplex.solve p in
  match outcome with
  | Simplex.Optimal cert ->
    Alcotest.check rat "objective" Rat.one cert.Simplex.objective;
    check_ok p cert;
    Alcotest.(check bool) "the exact loop repaired the guide's basis" true
      (stats.Simplex.guided && stats.Simplex.exact_pivots > 0)
  | _ -> Alcotest.fail "expected Optimal"

(* min -x1 s.t. x1 + s_a = 1 + 10^-30, x1 + s_b = 1.  In doubles both
   rows tie in the ratio test and Bland's rule lets s_a leave; exactly,
   that basis puts s_b at -10^-30, so the exact loop starts from the
   crash basis and lets s_b leave: optimum -1 at x1 = 1. *)
let test_guide_rhs_tied_in_doubles () =
  let p =
    { Simplex.a = mat [| [| (1, 1); (1, 1); (0, 1) |]; [| (1, 1); (0, 1); (1, 1) |] |];
      b = [| one_plus_tiny; Rat.one |];
      c = vec [| (-1, 1); (0, 1); (0, 1) |] }
  in
  let outcome, stats = Simplex.solve p in
  match outcome with
  | Simplex.Optimal cert ->
    Alcotest.check rat "objective" (Rat.of_int (-1)) cert.Simplex.objective;
    check_ok p cert;
    Alcotest.(check bool) "the guide's basis was rejected" false
      stats.Simplex.guided
  | _ -> Alcotest.fail "expected Optimal"

(* --- random programs --- *)

(* A feasible system by construction: draw x0 >= 0, set b = A x0.
   Degeneracy is deliberate — x0 is sparse, so many basic values are
   zero and the ratio tests tie constantly. *)
let random_feasible ?(nonneg_cost = false) seed =
  let rng = Random.State.make [| seed |] in
  let m = 1 + Random.State.int rng 3 in
  let n = m + 1 + Random.State.int rng 5 in
  let entry () = Rat.of_int (Random.State.int rng 7 - 3) in
  let a = Array.init m (fun _ -> Array.init n (fun _ -> entry ())) in
  let x0 =
    Array.init n (fun _ ->
        if Random.State.bool rng then Rat.zero
        else Rat.of_int (Random.State.int rng 4))
  in
  let acc = Rat.Acc.create () in
  let b =
    Array.map
      (fun row ->
        Rat.Acc.clear acc;
        Array.iteri (fun j aj -> Rat.Acc.add_mul acc aj x0.(j)) row;
        Rat.Acc.to_rat acc)
      a
  in
  let c =
    Array.init n (fun _ ->
        if nonneg_cost then Rat.of_int (Random.State.int rng 6)
        else Rat.of_int (Random.State.int rng 11 - 5))
  in
  { Simplex.a; b; c }

let prop_zero_duality_gap =
  QCheck2.Test.make ~name:"zero duality gap on random feasible programs"
    ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      (* Nonnegative costs bound the program below, so the outcome must
         be Optimal; [check] verifies c.x = b.y = objective exactly. *)
      let p = random_feasible ~nonneg_cost:true seed in
      match solve_exn p with
      | Simplex.Optimal cert -> Simplex.check p cert = Ok ()
      | _ -> false)

let prop_outcomes_verify =
  QCheck2.Test.make
    ~name:"every outcome on degenerate random programs verifies" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_feasible seed in
      match solve_exn p with
      | Simplex.Optimal cert -> Simplex.check p cert = Ok ()
      | Simplex.Unbounded { witness; ray } ->
        Simplex.check_unbounded p ~witness ~ray = Ok ()
      | Simplex.Infeasible _ -> false (* feasible by construction *))

let prop_infeasible_round_trip =
  QCheck2.Test.make
    ~name:"contradictory rows yield verified Farkas certificates" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_feasible seed in
      (* Duplicate row 0 with a shifted right-hand side: no x satisfies
         both copies, whatever else the system says. *)
      let p' =
        {
          p with
          Simplex.a = Array.append p.Simplex.a [| Array.copy p.Simplex.a.(0) |];
          b = Array.append p.Simplex.b [| Rat.add p.Simplex.b.(0) Rat.one |];
        }
      in
      match solve_exn p' with
      | Simplex.Infeasible { farkas } ->
        Simplex.check_infeasible p' farkas = Ok ()
      | _ -> false)

let prop_tampered_objective_rejected =
  QCheck2.Test.make ~name:"tampered objective is always rejected" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_feasible ~nonneg_cost:true seed in
      match solve_exn p with
      | Simplex.Optimal cert ->
        Simplex.check p
          { cert with
            Simplex.objective = Rat.add cert.Simplex.objective Rat.one }
        <> Ok ()
      | _ -> false)

(* The crash basis starts a row on its slack instead of its artificial.
   Scaling every slack column by 2 keeps the feasible set (up to the
   slack values) but leaves no slack for the crash to use, so the two
   programs reach the same optimum from different starting bases. *)
let prop_crash_agrees =
  QCheck2.Test.make ~name:"crash basis agrees with the artificial start"
    ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_feasible ~nonneg_cost:true seed in
      let m = Array.length p.Simplex.b in
      let with_slacks scale =
        {
          p with
          Simplex.a =
            Array.mapi
              (fun i row ->
                Array.append row
                  (Array.init m (fun k -> if k = i then scale else Rat.zero)))
              p.Simplex.a;
          c = Array.append p.Simplex.c (Array.make m Rat.zero);
        }
      in
      let unit = with_slacks Rat.one and scaled = with_slacks Rat.two in
      match (solve_exn unit, solve_exn scaled) with
      | Simplex.Optimal u, Simplex.Optimal s ->
        Simplex.check unit u = Ok ()
        && Simplex.check scaled s = Ok ()
        && Rat.equal u.Simplex.objective s.Simplex.objective
      | _ -> false)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_zero_duality_gap;
      prop_outcomes_verify;
      prop_infeasible_round_trip;
      prop_tampered_objective_rejected;
      prop_crash_agrees;
    ]

let () =
  Alcotest.run "bi_lp"
    [
      ( "crafted",
        [
          Alcotest.test_case "two-variable optimum" `Quick test_tiny_optimum;
          Alcotest.test_case "redundant row" `Quick test_redundant_row;
          Alcotest.test_case "Beale cycling instance" `Quick
            test_beale_terminates;
          Alcotest.test_case "infeasible round-trip" `Quick
            test_infeasible_round_trip;
          Alcotest.test_case "unbounded round-trip" `Quick
            test_unbounded_round_trip;
          Alcotest.test_case "no constraints" `Quick test_no_constraints;
          Alcotest.test_case "tampered certificates" `Quick
            test_tampered_certificates;
          Alcotest.test_case "pivot rejects zero element" `Quick
            test_pivot_rejects_zero;
        ] );
      ( "guide",
        [
          Alcotest.test_case "costs tied in doubles" `Quick
            test_guide_costs_tied_in_doubles;
          Alcotest.test_case "right-hand sides tied in doubles" `Quick
            test_guide_rhs_tied_in_doubles;
        ] );
      ("properties", qtests);
    ]
