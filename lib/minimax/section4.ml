open Bi_num

type t = {
  k : Rat.t array array; (* strategies x type profiles *)
  v : Rat.t array; (* per type profile: min_s K(s,t) *)
}

let make k =
  let rows = Array.length k in
  if rows = 0 then invalid_arg "Section4.make: no strategy profiles";
  let cols = Array.length k.(0) in
  if cols = 0 then invalid_arg "Section4.make: no type profiles";
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg "Section4.make: ragged matrix";
      Array.iter
        (fun c ->
          if Stdlib.( <= ) (Rat.sign c) 0 then
            invalid_arg "Section4.make: costs must be positive")
        row)
    k;
  let v =
    Array.init cols (fun j ->
        let best = ref k.(0).(j) in
        for i = 1 to rows - 1 do
          best := Rat.min !best k.(i).(j)
        done;
        !best)
  in
  { k = Array.map Array.copy k; v }

let max_entries = 1_000_000

(* K(s, t) is the kernel's union cost of state t under profile s: one
   fill per strategy profile prices every type profile. *)
let of_bayesian_ncs g =
  let module Bncs = Bi_ncs.Bayesian_ncs in
  let types = Array.length (Bi_ncs.Kernel.states (Bncs.shape g)) in
  let entries = Bncs.valid_profile_count g *. float_of_int types in
  if entries > float_of_int max_entries then
    invalid_arg
      (Printf.sprintf
         "Section4.of_bayesian_ncs: the cost matrix would hold %.0f entries \
          (%.0f strategy profiles x %d type profiles), over the limit of %d"
         entries (Bncs.valid_profile_count g) types max_entries);
  match Bncs.kernel g with
  | Bi_ncs.Kernel.Packed ((module K), kg) ->
    let sc = K.scratch kg in
    let k =
      Array.of_seq
        (Seq.map
           (fun s ->
             (* Valid profiles connect every agent, so every fill hits. *)
             if not (K.fill kg sc s) then assert false;
             Array.init types (fun st ->
                 let c = K.state_rat kg (K.union_at kg sc st) in
                 if Rat.is_zero c then
                   invalid_arg
                     "Section4.of_bayesian_ncs: type profile with zero optimal cost"
                 else c))
           (Bncs.valid_strategy_profiles g))
    in
    make k

let n_strategies t = Array.length t.k
let n_type_profiles t = Array.length t.v
let cost t i j = t.k.(i).(j)
let opt_of_type t j = t.v.(j)

let normalized t =
  Array.map (fun row -> Array.mapi (fun j c -> Rat.div c t.v.(j)) row) t.k

(* [w] must be a distribution over [n] outcomes. *)
let check_distribution what n w =
  if Array.length w <> n then invalid_arg ("Section4: " ^ what ^ " length mismatch");
  Array.iter
    (fun x ->
      if Stdlib.( < ) (Rat.sign x) 0 then
        invalid_arg ("Section4: negative " ^ what ^ " weight"))
    w;
  if not (Rat.equal Rat.one (Rat.sum (Array.to_list w))) then
    invalid_arg ("Section4: " ^ what ^ " does not sum to one")

let ratio_under_prior t p =
  check_distribution "prior" (Array.length t.v) p;
  let dot row =
    let acc = ref Rat.zero in
    Array.iteri (fun j w -> if not (Rat.is_zero w) then acc := Rat.add !acc (Rat.mul w row.(j))) p;
    !acc
  in
  let denom = dot t.v in
  if Rat.is_zero denom then invalid_arg "Section4.ratio_under_prior: zero denominator";
  let best = ref None in
  Array.iter
    (fun row ->
      let num = dot row in
      match !best with
      | None -> best := Some num
      | Some b -> if Rat.( < ) num b then best := Some num)
    t.k;
  match !best with
  | Some num -> Rat.div num denom
  | None -> assert false

let randomized_guarantee t q =
  check_distribution "mixture" (Array.length t.k) q;
  let worst = ref Rat.zero in
  for j = 0 to Array.length t.v - 1 do
    let acc = ref Rat.zero in
    Array.iteri
      (fun i w ->
        if not (Rat.is_zero w) then
          acc := Rat.add !acc (Rat.mul w (Rat.div t.k.(i).(j) t.v.(j))))
      q;
    if Rat.( > ) !acc !worst then worst := !acc
  done;
  !worst

(* Columns: q_0 .. q_(S-1), then z, then one slack per type profile.
   Rows: one per type profile, then the mixture's normalization. *)
let problem t =
  let s = n_strategies t and m = n_type_profiles t in
  let n = normalized t in
  let cols = s + 1 + m in
  let a =
    Array.init (m + 1) (fun j ->
        Array.init cols (fun c ->
            if j = m then if c < s then Rat.one else Rat.zero
            else if c < s then n.(c).(j)
            else if c = s then Rat.neg Rat.one
            else if c = s + 1 + j then Rat.one
            else Rat.zero))
  in
  let b = Array.init (m + 1) (fun j -> if j = m then Rat.one else Rat.zero) in
  let c = Array.init cols (fun c -> if c = s then Rat.one else Rat.zero) in
  { Bi_lp.Simplex.a; b; c }

type solution = {
  value : Rat.t;
  mixture : Rat.t array;
  prior : Rat.t array;
  certificate : Bi_lp.Simplex.certificate;
  pivots : int;
}

(* The dual row of type profile [t] carries [-p'_t], the adversary's
   weight in the normalized game; the prior that weight stands for
   over the unnormalized costs is [p'_t / v(t)], rescaled to sum to
   one. *)
let prior_of_dual t (cert : Bi_lp.Simplex.certificate) =
  let w = Array.mapi (fun j vj -> Rat.div (Rat.neg cert.y.(j)) vj) t.v in
  let total = Rat.sum (Array.to_list w) in
  Array.map (fun x -> Rat.div x total) w

let solve t =
  match Bi_lp.Simplex.solve (problem t) with
  | Bi_lp.Simplex.Optimal certificate, { Bi_lp.Simplex.pivots; _ } ->
    {
      value = certificate.objective;
      mixture = Array.sub certificate.x 0 (n_strategies t);
      prior = prior_of_dual t certificate;
      certificate;
      pivots;
    }
  | (Bi_lp.Simplex.Infeasible _ | Bi_lp.Simplex.Unbounded _), _ ->
    (* Any distribution q with z = its worst normalized cost is
       feasible, and z >= 0 on the feasible set. *)
    assert false

let check t sol =
  let equal_arrays u w =
    Array.length u = Array.length w && Array.for_all2 Rat.equal u w
  in
  let cert = sol.certificate in
  match Bi_lp.Simplex.check (problem t) cert with
  | Error e -> Error ("LP certificate: " ^ e)
  | Ok () ->
    if not (Rat.equal sol.value cert.objective) then
      Error "value differs from the certified objective"
    else if not (equal_arrays sol.mixture (Array.sub cert.x 0 (n_strategies t)))
    then Error "mixture differs from the certified primal"
    else if not (equal_arrays sol.prior (prior_of_dual t cert)) then
      Error "prior differs from the certified dual"
    else if not (Rat.equal (randomized_guarantee t sol.mixture) sol.value) then
      Error "the mixture's worst-prior guarantee differs from the value"
    else if not (Rat.equal (ratio_under_prior t sol.prior) sol.value) then
      Error "the prior's optP/optC ratio differs from the value"
    else Ok ()
