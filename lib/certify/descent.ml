open Bi_num
module Bayesian = Bi_bayes.Bayesian
module Bncs = Bi_ncs.Bayesian_ncs
module Kernel = Bi_ncs.Kernel
module Budget = Bi_engine.Budget
module Pool = Bi_engine.Pool

type margin = {
  player : int;
  typ : int;
  action : int;
  alternative : int;
  slack : Rat.t;
}

type certificate = {
  profile : Bayesian.strategy_profile;
  value : Extended.t;
  margins : margin list;
}

let copy_profile = Array.map Array.copy

let shape_error g s =
  let bg = Bncs.game g in
  let players = Bayesian.players bg in
  if Array.length s <> players then
    Some
      (Printf.sprintf "profile has %d players, game has %d" (Array.length s)
         players)
  else begin
    let err = ref None in
    for i = 0 to players - 1 do
      if !err = None then
        if Array.length s.(i) <> Bayesian.n_types bg i then
          err :=
            Some
              (Printf.sprintf "player %d: %d strategies for %d types" i
                 (Array.length s.(i)) (Bayesian.n_types bg i))
        else
          Array.iteri
            (fun ti ai ->
              if !err = None && (ai < 0 || ai >= Bayesian.n_actions bg i) then
                err :=
                  Some
                    (Printf.sprintf "player %d type %d: action %d out of range"
                       i ti ai))
            s.(i)
    done;
    !err
  end

exception Bad of string

(* Interim cost of playing [ai] at (i, ti) against the rest of [s],
   through the generic lowered game; [s] is mutated and restored, so
   every caller works on a private copy. *)
let interim_at bg s i ti ai =
  let saved = s.(i).(ti) in
  s.(i).(ti) <- ai;
  let c = Bayesian.interim_cost bg s i ti in
  s.(i).(ti) <- saved;
  c

let infinite_interim i ti =
  Printf.sprintf "player %d type %d: infinite interim cost" i ti

(* The checker's canonical margin list of [s], re-derived through the
   generic lowered game: (player, type, alternative) in index order,
   valid alternatives only, slacks of either sign.  Raises [Bad] when an
   interim cost that must be finite is not. *)
let margins_exn g s =
  let bg = Bncs.game g in
  let out = ref [] in
  for i = 0 to Bayesian.players bg - 1 do
    for ti = 0 to Bayesian.n_types bg i - 1 do
      match Bayesian.interim_cost bg s i ti with
      | None -> () (* zero marginal: no equilibrium constraint *)
      | Some current ->
        let current =
          match Extended.to_rat_opt current with
          | Some c -> c
          | None -> raise (Bad (infinite_interim i ti))
        in
        List.iter
          (fun alt ->
            if alt <> s.(i).(ti) then
              match interim_at bg s i ti alt with
              | Some c' -> (
                match Extended.to_rat_opt c' with
                | Some c' ->
                  out :=
                    { player = i; typ = ti; action = s.(i).(ti);
                      alternative = alt; slack = Rat.sub c' current }
                    :: !out
                | None ->
                  raise
                    (Bad
                       (Printf.sprintf
                          "player %d type %d: valid alternative %d has \
                           infinite interim cost"
                          i ti alt)))
              | None -> raise (Bad "inconsistent type marginals"))
          (Bncs.valid_actions g i ti)
    done
  done;
  List.rev !out

let negative_slack margins =
  List.find_opt (fun m -> Stdlib.(Rat.sign m.slack < 0)) margins

(* The producer side prices every margin and the value in the kernel. *)
let certificate g s =
  match shape_error g s with
  | Some e -> Error e
  | None -> (
    let s = copy_profile s in
    match Bncs.kernel g with
    | Kernel.Packed ((module K), kg) -> (
      let sc = K.scratch kg in
      ignore (K.fill kg sc s);
      match K.margins kg sc s with
      | Error (i, ti) -> Error (infinite_interim i ti)
      | Ok ms -> (
        let margins =
          List.map
            (fun (player, typ, action, alternative, slack) ->
              { player; typ; action; alternative; slack })
            ms
        in
        match negative_slack margins with
        | Some m ->
          Error
            (Printf.sprintf
               "not an equilibrium: player %d type %d improves by switching \
                action %d -> %d"
               m.player m.typ m.action m.alternative)
        | None ->
          let value = Extended.of_rat (K.social_rat kg (K.social_cost kg sc)) in
          Ok { profile = s; value; margins })))

let check g cert =
  match shape_error g cert.profile with
  | Some e -> Error e
  | None ->
    let s = copy_profile cert.profile in
    if not (Extended.equal (Bayesian.social_cost (Bncs.game g) s) cert.value) then
      Error "certificate value differs from the recomputed social cost"
    else (
      match margins_exn g s with
      | exception Bad e -> Error e
      | expect ->
        let same a b =
          a.player = b.player && a.typ = b.typ && a.action = b.action
          && a.alternative = b.alternative
          && Rat.equal a.slack b.slack
        in
        if
          List.length expect <> List.length cert.margins
          || not (List.for_all2 same expect cert.margins)
        then Error "margin list differs from the canonical recomputation"
        else (
          match negative_slack expect with
          | Some m ->
            Error
              (Printf.sprintf "negative slack at player %d type %d" m.player
                 m.typ)
          | None -> Ok ()))

let step g s =
  match Bncs.kernel g with
  | Kernel.Packed ((module K), kg) ->
    let sc = K.scratch kg in
    ignore (K.fill kg sc s);
    K.step kg sc s

(* The loads follow each move, so a step re-prices deviations against
   them instead of refilling the profile. *)
let descend ?(budget = Budget.unlimited) ?(max_steps = 200_000) g start =
  match Bncs.kernel g with
  | Kernel.Packed ((module K), kg) ->
    let s = copy_profile start in
    let sc = K.scratch kg in
    ignore (K.fill kg sc s);
    let rec go steps =
      if steps > max_steps then None
      else begin
        Budget.check budget;
        match K.step kg sc s with
        | None -> Some s
        | Some m ->
          K.move kg sc s m;
          go (steps + 1)
      end
    in
    go 0

let starts ?budget ?(seeds = 4) g =
  let bg = Bncs.game g in
  let players = Bayesian.players bg in
  let profile_of f =
    Array.init players (fun i ->
        Array.init (Bayesian.n_types bg i) (fun ti -> f i ti))
  in
  let max_valid = ref 1 in
  for i = 0 to players - 1 do
    for ti = 0 to Bayesian.n_types bg i - 1 do
      max_valid :=
        Stdlib.max !max_valid (List.length (Bncs.valid_actions g i ti))
    done
  done;
  let nth_valid j i ti =
    let vs = Bncs.valid_actions g i ti in
    List.nth vs (Stdlib.min j (List.length vs - 1))
  in
  let uniform = List.init !max_valid (fun j -> profile_of (nth_valid j)) in
  let sp = Bncs.shortest_path_profile g in
  let benevolent =
    match Bncs.kernel g with
    | Kernel.Packed ((module K), kg) -> K.benevolent ?budget kg sp
  in
  (* Fixed-stream pseudo-random valid profiles (an LCG on the native
     int), so the seed set is identical across runs and pool sizes. *)
  let random seed =
    let state = ref ((seed + 1) * 0x9E3779B9) in
    profile_of (fun i ti ->
        let vs = Array.of_list (Bncs.valid_actions g i ti) in
        state := (!state * 25214903917) + 11;
        let r = (!state lsr 17) land 0x3FFFFFFF in
        vs.(r mod Array.length vs))
  in
  let rand = List.init seeds random in
  let dedup acc s = if List.exists (( = ) s) acc then acc else s :: acc in
  List.rev (List.fold_left dedup [] ((sp :: benevolent :: uniform) @ rand))

let equilibria ?pool ?budget ?seeds ?(extra = []) g =
  let ss = Array.of_list (starts ?budget ?seeds g @ List.map copy_profile extra) in
  let run s = descend ?budget g s in
  let fixpoints =
    match pool with
    | Some p -> Pool.map_array p run ss
    | None -> Array.map run ss
  in
  let distinct =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some s -> if List.exists (( = ) s) acc then acc else s :: acc)
      [] fixpoints
    |> List.rev
  in
  let certs =
    List.filter_map
      (fun s -> match certificate g s with Ok c -> Some c | Error _ -> None)
      distinct
  in
  let sorted =
    List.stable_sort (fun a b -> Extended.compare a.value b.value) certs
  in
  (sorted, Array.length ss)
