open Bi_num
module Bncs = Bi_ncs.Bayesian_ncs
module Bayesian = Bi_bayes.Bayesian
module Strategic = Bi_game.Strategic
module Dist = Bi_prob.Dist
module Lp = Bi_lp.Simplex
module Sink = Bi_engine.Sink
module Budget = Bi_engine.Budget

type t = {
  game : Bncs.t;
  states_ : int array array;  (* support type profiles, in prior order *)
  weights : Rat.t array;  (* p(t) per state, exact and positive *)
  cols : (int * int array) array;  (* column -> (state, action profile) *)
  costs : Rat.t array;  (* K_t(a) per column; finite by validity *)
  deltas : Rat.t array array array;
      (* column -> player i -> k: C_i,t(a) - C_i,t(alt, a_-i) for the
         k-th valid alternative of i's type at the column's state *)
  offset : int array;  (* length S+1: column range of each state *)
}

(* Costs of valid profiles are finite by construction (validity is
   exactly the finite-cost condition in NCS games), so [to_rat_exn]
   cannot raise here. *)
let fin = Extended.to_rat_exn

(* Assemble the column blocks, pricing each column (its social cost and
   every player's unilateral-deviation deltas) with [price]. *)
let build game ~price =
  let entries = Dist.to_list (Bayesian.prior (Bncs.game game)) in
  let states_ = Array.of_list (List.map fst entries) in
  let weights = Array.of_list (List.map snd entries) in
  let s = Array.length states_ in
  let offset = Array.make (s + 1) 0 in
  let blocks = ref [] in
  for st = 0 to s - 1 do
    let block =
      List.of_seq
        (Seq.map (fun a -> (st, a)) (Bncs.state_action_profiles game states_.(st)))
    in
    offset.(st + 1) <- offset.(st) + List.length block;
    blocks := block :: !blocks
  done;
  let cols = Array.of_list (List.concat (List.rev !blocks)) in
  let priced = Array.map (fun (st, a) -> price st a) cols in
  { game; states_; weights; cols; costs = Array.map fst priced;
    deltas = Array.map snd priced; offset }

(* The solver's pricing: one kernel load vector per column. *)
let make game =
  match Bncs.kernel game with
  | Bi_ncs.Kernel.Packed ((module K), kg) ->
    let load = Array.make (Bi_graph.Graph.n_edges (Bncs.graph game)) 0 in
    build game ~price:(fun st a ->
        let union, deltas = K.column kg load st a in
        (K.state_rat kg union, Array.map (Array.map (K.state_rat kg)) deltas))

(* The checker's pricing: the generic per-state strategic games. *)
let make_generic game =
  let bayes = Bncs.game game in
  let support = Array.of_list (Dist.support (Bayesian.prior bayes)) in
  let games = Array.map (Bayesian.underlying_game bayes) support in
  build game ~price:(fun st a ->
      let cost a i = fin (Strategic.cost games.(st) a i) in
      let deltas =
        Array.mapi
          (fun i _ ->
            Array.of_list
              (List.map
                 (fun alt ->
                   let d = Array.copy a in
                   d.(i) <- alt;
                   Rat.sub (cost a i) (cost d i))
                 (Bncs.valid_actions game i support.(st).(i))))
          a
      in
      (fin (Strategic.social_cost games.(st) a), deltas))

let states t = Array.length t.states_
let columns t = Array.length t.cols

(* The support types of player [i], ascending. *)
let support_types t i =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun tprof -> if not (Hashtbl.mem seen tprof.(i)) then Hashtbl.add seen tprof.(i) ())
    t.states_;
  List.sort compare (Hashtbl.fold (fun ti () l -> ti :: l) seen [])

(* ---- deviation rows ----

   One dense row per (player, type, deviation) — [Cce] — or per
   (player, type, recommendation, deviation) — [Comm].  Rows that are
   identically zero (e.g. a type with a single valid action deviating
   to itself) are dropped: they constrain nothing and would only pad
   the basis.  Enumeration order is deterministic (players, then types,
   then actions ascending), so rebuilt problems are identical — which
   is what lets [check] re-derive the exact system a certificate was
   issued for. *)

let deviation_rows t concept =
  let n = Array.length t.cols in
  let players = Bncs.players t.game in
  let rows = ref [] in
  let push row nonzero = if nonzero then rows := row :: !rows in
  (* The row of deviation [k] of (i, ti), over the columns [keep]
     selects among those at states realizing ti. *)
  let row_of i ti k keep =
    let row = Array.make n Rat.zero in
    let nonzero = ref false in
    Array.iteri
      (fun j (st, a) ->
        if t.states_.(st).(i) = ti && keep a then begin
          let delta = t.deltas.(j).(i).(k) in
          if not (Rat.is_zero delta) then begin
            row.(j) <- delta;
            nonzero := true
          end
        end)
      t.cols;
    push row !nonzero
  in
  for i = 0 to players - 1 do
    List.iter
      (fun ti ->
        let valid = Bncs.valid_actions t.game i ti in
        match concept with
        | Concept.Nash -> invalid_arg "Correlated.deviation_rows: Nash"
        | Concept.Cce -> List.iteri (fun k _ -> row_of i ti k (fun _ -> true)) valid
        | Concept.Comm ->
          List.iter
            (fun rec_ ->
              List.iteri
                (fun k alt ->
                  if alt <> rec_ then row_of i ti k (fun a -> a.(i) = rec_))
                valid)
            valid)
      (support_types t i)
  done;
  Array.of_list (List.rev !rows)

let deviation_count t concept = Array.length (deviation_rows t concept)

type sense = Best | Worst

(* Standard form: S prior-consistency equality rows, then one row per
   deviation with a unit slack column; minimize the (possibly negated)
   expected social cost.  [assemble t dev] builds [A] and [b] once and
   shares them between the two senses, which differ only in [c]. *)
let assemble t dev =
  let s = Array.length t.states_ in
  let n = Array.length t.cols in
  let d = Array.length dev in
  let a = Array.make_matrix (s + d) (n + d) Rat.zero in
  Array.iteri (fun j (st, _) -> a.(st).(j) <- Rat.one) t.cols;
  Array.iteri
    (fun r row ->
      Array.blit row 0 a.(s + r) 0 n;
      a.(s + r).(n + r) <- Rat.one)
    dev;
  let b = Array.append t.weights (Array.make d Rat.zero) in
  fun ~sense ->
    let c = Array.make (n + d) Rat.zero in
    Array.iteri
      (fun j cost ->
        c.(j) <- (match sense with Best -> cost | Worst -> Rat.neg cost))
      t.costs;
    { Lp.a; b; c }

let problem t ~concept ~sense = assemble t (deviation_rows t concept) ~sense
let public_problem t ~sense = assemble t [||] ~sense

type quantity = { value : Rat.t; certificate : Lp.certificate; pivots : int }

type report = {
  concept : Concept.t;
  states : int;
  columns : int;
  deviations : int;
  best : quantity;
  worst : quantity;
  pub_best : quantity;
  pub_worst : quantity;
}

let solve_quantity ?budget prob ~sense =
  let on_pivot = Option.map (fun b () -> Budget.check b) budget in
  match Lp.solve ?on_pivot prob with
  | Lp.Optimal cert, { Lp.pivots; _ } ->
    let value =
      match sense with
      | Best -> cert.Lp.objective
      | Worst -> Rat.neg cert.Lp.objective
    in
    { value; certificate = cert; pivots }
  | (Lp.Infeasible _ | Lp.Unbounded _), _ ->
    (* The polytopes are nonempty (a pure Bayesian equilibrium always
       exists for NCS games, and prior consistency alone is satisfiable
       outright) and bounded (subsets of a scaled simplex with finite
       costs), so exact arithmetic cannot land here. *)
    failwith "Correlated: polytope LP reported infeasible or unbounded"

let analyze ?budget ~concept game =
  (match concept with
  | Concept.Nash ->
    invalid_arg
      "Correlated.analyze: nash has no LP — use the exhaustive or certified solvers"
  | Concept.Cce | Concept.Comm -> ());
  let t = make game in
  let dev = deviation_rows t concept in
  let polytope = assemble t dev and public = assemble t [||] in
  let solve lp ~sense = solve_quantity ?budget (lp ~sense) ~sense in
  {
    concept;
    states = states t;
    columns = columns t;
    deviations = Array.length dev;
    best = solve polytope ~sense:Best;
    worst = solve polytope ~sense:Worst;
    pub_best = solve public ~sense:Best;
    pub_worst = solve public ~sense:Worst;
  }

let check game report =
  match report.concept with
  | Concept.Nash -> Error "nash reports carry no LP certificates"
  | Concept.Cce | Concept.Comm ->
    let t = make_generic game in
    if report.states <> states t then Error "state count mismatch"
    else if report.columns <> columns t then Error "column count mismatch"
    else begin
      let dev = deviation_rows t report.concept in
      if report.deviations <> Array.length dev then
        Error "deviation row count mismatch"
      else begin
        let check_quantity name ~dev ~sense q =
          let expected =
            match sense with
            | Best -> q.value
            | Worst -> Rat.neg q.value
          in
          if not (Rat.equal q.certificate.Lp.objective expected) then
            Error
              (name ^ ": claimed value differs from the certified objective")
          else
            match Lp.check (assemble t dev ~sense) q.certificate with
            | Ok () -> Ok ()
            | Error e -> Error (name ^ ": " ^ e)
        in
        let ( let* ) = Result.bind in
        let* () = check_quantity "best" ~dev ~sense:Best report.best in
        let* () = check_quantity "worst" ~dev ~sense:Worst report.worst in
        let* () = check_quantity "pub_best" ~dev:[||] ~sense:Best report.pub_best in
        let* () =
          check_quantity "pub_worst" ~dev:[||] ~sense:Worst report.pub_worst
        in
        (* Polytope inclusions: the concept polytope sits inside the
           deviation-free one, and best <= worst over the same set. *)
        if Rat.( > ) report.best.value report.worst.value then
          Error "best exceeds worst"
        else if Rat.( > ) report.pub_best.value report.best.value then
          Error "pub_best exceeds best: inclusion violated"
        else if Rat.( > ) report.worst.value report.pub_worst.value then
          Error "worst exceeds pub_worst: inclusion violated"
        else Ok ()
      end
    end

(* ---- serve/cache payload ---- *)

let json_of_certificate (c : Lp.certificate) =
  let sparse =
    Array.to_list c.Lp.x
    |> List.mapi (fun j v -> (j, v))
    |> List.filter (fun (_, v) -> not (Rat.is_zero v))
    |> List.map (fun (j, v) -> Sink.List [ Sink.Int j; Sink.Str (Rat.to_string v) ])
  in
  Sink.Obj
    [
      ("objective", Sink.Str (Rat.to_string c.Lp.objective));
      ("x", Sink.List sparse);
      ( "y",
        Sink.List
          (Array.to_list (Array.map (fun v -> Sink.Str (Rat.to_string v)) c.Lp.y))
      );
    ]

let to_json report =
  Sink.Obj
    [
      ("concept", Sink.Str (Concept.to_string report.concept));
      ("states", Sink.Int report.states);
      ("columns", Sink.Int report.columns);
      ("deviations", Sink.Int report.deviations);
      ("best", Sink.Str (Rat.to_string report.best.value));
      ("worst", Sink.Str (Rat.to_string report.worst.value));
      ("pub_best", Sink.Str (Rat.to_string report.pub_best.value));
      ("pub_worst", Sink.Str (Rat.to_string report.pub_worst.value));
      ( "pivots",
        Sink.Obj
          [
            ("best", Sink.Int report.best.pivots);
            ("worst", Sink.Int report.worst.pivots);
            ("pub_best", Sink.Int report.pub_best.pivots);
            ("pub_worst", Sink.Int report.pub_worst.pivots);
          ] );
      ( "certificates",
        Sink.Obj
          [
            ("best", json_of_certificate report.best.certificate);
            ("worst", json_of_certificate report.worst.certificate);
            ("pub_best", json_of_certificate report.pub_best.certificate);
            ("pub_worst", json_of_certificate report.pub_worst.certificate);
          ] );
    ]

(* ---- equilibrium inclusion ---- *)

let equilibrium_member t ~concept s =
  let n = Array.length t.cols in
  let q = Array.make n Rat.zero in
  let missing = ref (-1) in
  Array.iteri
    (fun st tprof ->
      if !missing < 0 then begin
        let a = Bayesian.played_actions s tprof in
        let col = ref (-1) in
        for j = t.offset.(st) to t.offset.(st + 1) - 1 do
          if !col < 0 && snd t.cols.(j) = a then col := j
        done;
        match !col with
        | -1 -> missing := st
        | j -> q.(j) <- t.weights.(st)
      end)
    t.states_;
  if !missing >= 0 then
    Error
      (Printf.sprintf "profile plays an invalid action at support state %d"
         !missing)
  else begin
    let dev = deviation_rows t concept in
    let acc = Rat.Acc.create () in
    let slacks =
      Array.map
        (fun row ->
          Rat.Acc.clear acc;
          Array.iteri
            (fun j r -> if not (Rat.is_zero r) then Rat.Acc.add_mul acc r q.(j))
            row;
          Rat.neg (Rat.Acc.to_rat acc))
        dev
    in
    Lp.feasible (assemble t dev ~sense:Best) (Array.append q slacks)
  end
