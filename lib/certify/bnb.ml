open Bi_num
module Bayesian = Bi_bayes.Bayesian
module Bncs = Bi_ncs.Bayesian_ncs
module Kernel = Bi_ncs.Kernel
module Budget = Bi_engine.Budget

type certificate = {
  profile : Bayesian.strategy_profile;
  value : Extended.t;
  variables : (int * int) array;
  ledger : (int array * Rat.t) list;
  nodes : int;
}

type outcome = {
  value : Extended.t;
  profile : Bayesian.strategy_profile;
  certificate : certificate option;
  lower : Extended.t;
  nodes : int;
}

(* The branching order: positive-marginal (player, type) variables in
   decreasing-marginal order, shared verbatim by the search and the
   replay. *)
let variables g =
  let bg = Bncs.game g in
  let all = ref [] in
  for i = Bayesian.players bg - 1 downto 0 do
    let marg = Bayesian.type_marginal bg i in
    for ti = Array.length marg - 1 downto 0 do
      if Stdlib.(Rat.sign marg.(ti) > 0) then all := ((i, ti), marg.(ti)) :: !all
    done
  done;
  let arr = Array.of_list !all in
  Array.stable_sort (fun (_, a) (_, b) -> Rat.compare b a) arr;
  Array.map fst arr

let profile_of g vars choice =
  let sh = Bncs.shape g in
  let p =
    Array.init (Bncs.players g) (fun i ->
        Array.init (Array.length (Bncs.types g i)) (fun ti -> (Kernel.valid sh i ti).(0)))
  in
  Array.iteri (fun v (i, ti) -> p.(i).(ti) <- choice.(v)) vars;
  p

let default_incumbent ?budget g =
  match Bncs.kernel g with
  | Kernel.Packed ((module K), kg) ->
    let s = K.benevolent ?budget kg (Bncs.shortest_path_profile g) in
    (Bncs.social_cost g s, s)

(* The search prices nodes in the game's kernel instance; values cross
   to rationals only where they leave it: the ledger, the outcome and an
   improving leaf. *)
let optimum ?(budget = Budget.unlimited) ?(node_budget = 5_000_000) ?incumbent
    g =
  let sh = Bncs.shape g in
  let vars = variables g in
  let inc_value, inc_profile =
    match incumbent with Some vp -> vp | None -> default_incumbent ~budget g
  in
  match Bncs.kernel g with
  | Kernel.Packed ((module K), kg) ->
    let nd = K.node kg in
    let best_val = ref inc_value
    and best_num =
      ref (Option.bind (Extended.to_rat_opt inc_value) (K.ceil_social kg))
    and best_profile = ref inc_profile
    and ledger = ref []
    and nodes = ref 0
    and exhausted = ref true in
    let below b = match !best_num with None -> true | Some v -> K.compare b v < 0 in
    let nvars = Array.length vars in
    let choice = Array.make (Stdlib.max nvars 1) (-1) in
    let lower = K.bound kg nd vars 0 in
    let rec go depth =
      if depth = nvars then begin
        let v = K.leaf kg nd in
        if below v then begin
          best_num := Some v;
          best_val := Extended.of_rat (K.social_rat kg v);
          best_profile := profile_of g vars choice
        end
      end
      else begin
        let i, ti = vars.(depth) in
        Array.iter
          (fun a ->
            if !exhausted then begin
              Budget.check budget;
              incr nodes;
              if !nodes > node_budget then exhausted := false
              else begin
                K.commit kg nd i ti a;
                choice.(depth) <- a;
                let b = K.bound kg nd vars (depth + 1) in
                if below b then go (depth + 1)
                else
                  ledger :=
                    (Array.sub choice 0 (depth + 1), K.social_rat kg b) :: !ledger;
                K.uncommit kg nd i ti a
              end
            end)
          (Kernel.valid sh i ti)
      end
    in
    go 0;
    let value = !best_val and profile = !best_profile in
    let certificate =
      if !exhausted then
        Some
          { profile; value; variables = vars; ledger = List.rev !ledger;
            nodes = !nodes }
      else None
    in
    { value; profile; certificate;
      lower = Extended.of_rat (K.social_rat kg lower); nodes = !nodes }

(* The checker's side prices on the unscaled Rat lowering, whose values
   are the rationals themselves. *)
let root_lower g =
  let qg = Kernel.lower_rat (Bncs.shape g) in
  Extended.of_rat (Kernel.Q.bound qg (Kernel.Q.node qg) (variables g) 0)

(* Ledger prefixes share their leading choices, and the polymorphic
   hash only inspects a bounded prefix of a key — hashing them as lists
   collapses a deep replay's ledger into a handful of buckets and turns
   every lookup into a linear scan.  Fold the whole prefix instead. *)
module Prefix = struct
  type t = int array

  let equal = Stdlib.( = )

  let hash p =
    let h = ref (Array.length p) in
    Array.iter (fun a -> h := (!h * 31) + a + 1) p;
    !h land max_int
end

module Ptbl = Hashtbl.Make (Prefix)

exception Fail of string

let shape_check g profile =
  let bg = Bncs.game g in
  if Array.length profile <> Bayesian.players bg then
    raise (Fail "witness has the wrong number of players");
  Array.iteri
    (fun i row ->
      if Array.length row <> Bayesian.n_types bg i then
        raise (Fail (Printf.sprintf "witness player %d: wrong type count" i));
      Array.iter
        (fun ai ->
          if ai < 0 || ai >= Bayesian.n_actions bg i then
            raise
              (Fail (Printf.sprintf "witness player %d: action out of range" i)))
        row)
    profile

let check g cert =
  let module Q = Kernel.Q in
  let sh = Bncs.shape g in
  let qg = Kernel.lower_rat sh in
  let nd = Q.node qg in
  let vars = variables g in
  try
    if vars <> cert.variables then
      raise (Fail "branching order differs from the game's");
    shape_check g cert.profile;
    if
      not
        (Extended.equal
           (Bayesian.social_cost (Bncs.game g) cert.profile)
           cert.value)
    then raise (Fail "certified value differs from the witness's social cost");
    let value_rat =
      match Extended.to_rat_opt cert.value with
      | Some v -> v
      | None -> raise (Fail "certified value must be finite")
    in
    let tbl = Ptbl.create (List.length cert.ledger) in
    List.iter
      (fun (p, b) ->
        if Ptbl.mem tbl p then raise (Fail "duplicate ledger prefix");
        Ptbl.add tbl p b)
      cert.ledger;
    let cap = (cert.nodes * 10) + 1000 in
    let visited = ref 0 in
    let nvars = Array.length vars in
    let choice = Array.make (Stdlib.max nvars 1) (-1) in
    let rec go depth =
      if depth = nvars then begin
        if Rat.(Q.leaf qg nd < value_rat) then
          raise (Fail "a leaf beats the certified value")
      end
      else begin
        let i, ti = vars.(depth) in
        Array.iter
          (fun a ->
            incr visited;
            if !visited > cap then raise (Fail "replay exceeded the node cap");
            Q.commit qg nd i ti a;
            choice.(depth) <- a;
            (match Ptbl.find_opt tbl (Array.sub choice 0 (depth + 1)) with
            | Some b ->
              if not (Rat.equal b (Q.bound qg nd vars (depth + 1))) then
                raise (Fail "a ledger bound differs from its recomputation");
              if Rat.(b < value_rat) then
                raise (Fail "a ledger bound fails to dominate the value")
            | None -> go (depth + 1));
            Q.uncommit qg nd i ti a)
          (Kernel.valid sh i ti)
      end
    in
    go 0;
    Ok ()
  with Fail e -> Error e
