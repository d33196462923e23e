open Bi_num
module Bncs = Bi_ncs.Bayesian_ncs
module Dist = Bi_prob.Dist
module Measures = Bi_bayes.Measures
module Sink = Bi_engine.Sink

type bracket = { lo : Extended.t; hi : Extended.t }

type state_solution = {
  pairs : (int * int) array;
  weight : Rat.t;
  opt : Bnb.outcome;
  equilibria : Descent.certificate list;
}

type certified = {
  players : int;
  smoothness : Smooth.smoothness;
  potential : Smooth.potential_bracket;
  opt_p : Bnb.outcome;
  eq_p : Descent.certificate list;
  descent_starts : int;
  states : state_solution list;
  opt_p_bracket : bracket;
  best_eq_p : bracket;
  worst_eq_p : bracket;
  opt_c : bracket;
  best_eq_c : bracket;
  worst_eq_c : bracket;
}

(* ---- bracket derivation, shared verbatim by certify and check ---- *)

let opt_bracket (o : Bnb.outcome) =
  match o.certificate with
  | Some _ -> { lo = o.value; hi = o.value }
  | None -> { lo = o.lower; hi = o.value }

let best_witness = function
  | [] -> None
  | (c : Descent.certificate) :: _ -> Some c.value

let worst_witness eqs =
  match List.rev eqs with
  | [] -> None
  | (c : Descent.certificate) :: _ -> Some c.value

let eq_brackets ~opt ~eqs ~poa ~pos =
  let best_analytic = Extended.mul_rat pos opt.hi in
  let best =
    { lo = opt.lo;
      hi =
        (match best_witness eqs with
        | Some w -> Extended.min w best_analytic
        | None -> best_analytic) }
  in
  let worst =
    { lo = (match worst_witness eqs with Some w -> w | None -> opt.lo);
      hi = Extended.mul_rat poa opt.hi }
  in
  (best, worst)

let zero_bracket = { lo = Extended.zero; hi = Extended.zero }
let scale w b = { lo = Extended.mul_rat w b.lo; hi = Extended.mul_rat w b.hi }
let add a b = { lo = Extended.add a.lo b.lo; hi = Extended.add a.hi b.hi }

let derive ~smoothness ~potential ~opt_p ~eq_p ~states =
  let poa = Smooth.poa_factor smoothness in
  let pos = potential.Smooth.upper in
  let opt_pb = opt_bracket opt_p in
  let best_p, worst_p = eq_brackets ~opt:opt_pb ~eqs:eq_p ~poa ~pos in
  let opt_c, best_c, worst_c =
    List.fold_left
      (fun (o, b, w) st ->
        let ob = opt_bracket st.opt in
        let bb, wb = eq_brackets ~opt:ob ~eqs:st.equilibria ~poa ~pos in
        ( add o (scale st.weight ob),
          add b (scale st.weight bb),
          add w (scale st.weight wb) ))
      (zero_bracket, zero_bracket, zero_bracket)
      states
  in
  (opt_pb, best_p, worst_p, opt_c, best_c, worst_c)

(* ---- certify ---- *)

let by_value (a : Descent.certificate) (b : Descent.certificate) =
  Extended.compare a.value b.value

(* Descend the branch-and-bound witness too, so the equilibrium set
   sees the optimum's basin of attraction. *)
let with_opt_witness ?budget g (eqs, starts) (opt : Bnb.outcome) =
  match Descent.descend ?budget g opt.profile with
  | None -> (eqs, starts)
  | Some fixpoint -> (
    match Descent.certificate g fixpoint with
    | Error _ -> (eqs, starts + 1)
    | Ok c ->
      if
        List.exists
          (fun (e : Descent.certificate) -> e.profile = c.profile)
          eqs
      then (eqs, starts + 1)
      else (List.stable_sort by_value (c :: eqs), starts + 1))

let solve_game ?pool ?budget ?seeds ?node_budget g =
  let eqs, starts = Descent.equilibria ?pool ?budget ?seeds g in
  let incumbent =
    match eqs with
    | (c : Descent.certificate) :: _ -> Some (c.value, c.profile)
    | [] -> None
  in
  let opt = Bnb.optimum ?budget ?node_budget ?incumbent g in
  let eqs, starts = with_opt_witness ?budget g (eqs, starts) opt in
  (opt, eqs, starts)

let certify ?pool ?budget ?seeds ?node_budget g =
  let players = Bncs.players g in
  (* One hash-cons table per certification: the smoothness grid, the
     potential bracket and every per-state re-derivation intern their
     recurring rationals here, sharing one canonical H(k) chain. *)
  let hc = Rat.Hc.create () in
  let smoothness = Smooth.fair_share ~hc ~players () in
  let potential = Smooth.potential ~hc ~players () in
  let opt_p, eq_p, descent_starts =
    solve_game ?pool ?budget ?seeds ?node_budget g
  in
  let states =
    List.map
      (fun (pairs, weight) ->
        let pg = Bncs.make (Bncs.graph g) ~prior:(Dist.point pairs) in
        let opt, equilibria, _ =
          solve_game ?pool ?budget ?seeds ?node_budget pg
        in
        { pairs; weight; opt; equilibria })
      (Dist.to_list (Bncs.prior g))
  in
  let opt_p_bracket, best_eq_p, worst_eq_p, opt_c, best_eq_c, worst_eq_c =
    derive ~smoothness ~potential ~opt_p ~eq_p ~states
  in
  { players; smoothness; potential; opt_p; eq_p; descent_starts; states;
    opt_p_bracket; best_eq_p; worst_eq_p; opt_c; best_eq_c; worst_eq_c }

(* ---- check ---- *)

let ( let* ) = Result.bind

let check_outcome g label (o : Bnb.outcome) =
  let* () =
    if Extended.equal o.lower (Bnb.root_lower g) then Ok ()
    else Error (label ^ ": stored root bound differs from its recomputation")
  in
  match o.certificate with
  | Some c ->
    let* () =
      if Extended.equal c.value o.value then Ok ()
      else Error (label ^ ": certificate and outcome disagree on the value")
    in
    Result.map_error (fun e -> label ^ ": " ^ e) (Bnb.check g c)
  | None ->
    (* no optimality claim: the value must still be witnessed *)
    if Extended.equal (Bi_bayes.Bayesian.social_cost (Bncs.game g) o.profile) o.value
    then Ok ()
    else Error (label ^ ": incumbent value differs from its social cost")

let check_equilibria g label eqs =
  let rec go prev = function
    | [] -> Ok ()
    | (c : Descent.certificate) :: rest ->
      let* () = Result.map_error (fun e -> label ^ ": " ^ e) (Descent.check g c) in
      let* () =
        match prev with
        | Some v when Stdlib.(Extended.compare v c.value > 0) ->
          Error (label ^ ": equilibria are not sorted by value")
        | _ -> Ok ()
      in
      go (Some c.value) rest
  in
  go None eqs

let bracket_equal a b = Extended.equal a.lo b.lo && Extended.equal a.hi b.hi

let check g cert =
  let players = Bncs.players g in
  let* () =
    if cert.players = players then Ok ()
    else Error "player count differs from the game's"
  in
  let* () =
    if cert.smoothness.Smooth.players = players then Ok ()
    else Error "smoothness factor is for a different player count"
  in
  let* () =
    if cert.potential.Smooth.players = players then Ok ()
    else Error "potential bracket is for a different player count"
  in
  let hc = Rat.Hc.create () in
  let* () = Smooth.check ~hc cert.smoothness in
  let* () = Smooth.check_potential ~hc cert.potential in
  let* () = check_outcome g "optP" cert.opt_p in
  let* () = check_equilibria g "eqP" cert.eq_p in
  let support = Dist.to_list (Bncs.prior g) in
  let* () =
    if List.length support = List.length cert.states then Ok ()
    else Error "state decomposition does not cover the prior support"
  in
  let* () =
    List.fold_left2
      (fun acc (pairs, weight) st ->
        let* () = acc in
        let* () =
          if st.pairs = pairs && Rat.equal st.weight weight then Ok ()
          else Error "state decomposition disagrees with the prior"
        in
        let pg = Bncs.make (Bncs.graph g) ~prior:(Dist.point pairs) in
        let* () = check_outcome pg "optC state" st.opt in
        check_equilibria pg "eqC state" st.equilibria)
      (Ok ()) support cert.states
  in
  let opt_pb, best_p, worst_p, opt_c, best_c, worst_c =
    derive ~smoothness:cert.smoothness ~potential:cert.potential
      ~opt_p:cert.opt_p ~eq_p:cert.eq_p ~states:cert.states
  in
  let pairs =
    [ ("optP", opt_pb, cert.opt_p_bracket);
      ("best-eqP", best_p, cert.best_eq_p);
      ("worst-eqP", worst_p, cert.worst_eq_p);
      ("optC", opt_c, cert.opt_c);
      ("best-eqC", best_c, cert.best_eq_c);
      ("worst-eqC", worst_c, cert.worst_eq_c) ]
  in
  List.fold_left
    (fun acc (name, derived, stored) ->
      let* () = acc in
      if bracket_equal derived stored then Ok ()
      else Error (name ^ " bracket differs from its re-derivation"))
    (Ok ()) pairs

(* ---- point estimates, JSON ---- *)

let attained witness analytic =
  match witness with Some v -> Some v | None -> Some analytic

let report cert =
  let sum_states f =
    List.fold_left
      (fun acc st -> Extended.add acc (Extended.mul_rat st.weight (f st)))
      Extended.zero cert.states
  in
  { Measures.opt_p = cert.opt_p_bracket.hi;
    best_eq_p = attained (best_witness cert.eq_p) cert.best_eq_p.hi;
    worst_eq_p = attained (worst_witness cert.eq_p) cert.worst_eq_p.hi;
    opt_c = cert.opt_c.hi;
    best_eq_c =
      Some
        (sum_states (fun st ->
             match best_witness st.equilibria with
             | Some v -> v
             | None -> Extended.mul_rat cert.potential.Smooth.upper
                         (opt_bracket st.opt).hi));
    worst_eq_c =
      Some
        (sum_states (fun st ->
             match worst_witness st.equilibria with
             | Some v -> v
             | None ->
               Extended.mul_rat (Smooth.poa_factor cert.smoothness)
                 (opt_bracket st.opt).hi)) }

let ext_json v =
  match Extended.to_rat_opt v with
  | Some r -> Sink.Str (Rat.to_string r)
  | None -> Sink.Str "inf"

let rat_json r = Sink.Str (Rat.to_string r)
let bracket_json b = Sink.Obj [ ("lo", ext_json b.lo); ("hi", ext_json b.hi) ]

let to_json cert =
  Sink.Obj
    [ ("players", Sink.Int cert.players);
      ("opt_p", bracket_json cert.opt_p_bracket);
      ("best_eq_p", bracket_json cert.best_eq_p);
      ("worst_eq_p", bracket_json cert.worst_eq_p);
      ("opt_c", bracket_json cert.opt_c);
      ("best_eq_c", bracket_json cert.best_eq_c);
      ("worst_eq_c", bracket_json cert.worst_eq_c);
      ("equilibria", Sink.Int (List.length cert.eq_p));
      ("descent_starts", Sink.Int cert.descent_starts);
      ("bnb_nodes", Sink.Int cert.opt_p.nodes);
      ("bnb_certified", Sink.Bool (cert.opt_p.certificate <> None));
      ("states", Sink.Int (List.length cert.states));
      ( "smoothness",
        Sink.Obj
          [ ("lambda", rat_json cert.smoothness.Smooth.lambda);
            ("mu", rat_json cert.smoothness.Smooth.mu) ] );
      ("potential_upper", rat_json cert.potential.Smooth.upper) ]
