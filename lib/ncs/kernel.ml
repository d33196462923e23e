open Bi_num
module Budget = Bi_engine.Budget

type shape = {
  players : int;
  n_edges : int;
  cost : Rat.t array;
  paths : int array array array; (* player -> action -> edge ids *)
  valid : int array array array; (* player -> type -> valid actions *)
  valid_tbl : bool array array array; (* player -> type -> action *)
  states : int array array; (* support state -> type profile *)
  weights : Rat.t array;
  by_type : int array array array; (* player -> type -> realizing states *)
  edges : int array; (* 0 .. n_edges - 1: the union sums' index set *)
}

let shape ~n_edges ~cost ~paths ~valid ~states ~weights =
  let players = Array.length paths in
  let valid_tbl =
    Array.mapi
      (fun i per_type ->
        Array.map
          (fun vs ->
            let row = Array.make (Array.length paths.(i)) false in
            List.iter (fun a -> row.(a) <- true) vs;
            row)
          per_type)
      valid
  in
  let by_type =
    Array.init players (fun i ->
        Array.init (Array.length valid.(i)) (fun ti ->
            let idxs = ref [] in
            Array.iteri (fun st t -> if t.(i) = ti then idxs := st :: !idxs) states;
            Array.of_list (List.rev !idxs)))
  in
  { players; n_edges; cost; paths;
    valid = Array.map (Array.map Array.of_list) valid;
    valid_tbl; states; weights; by_type;
    edges = Array.init n_edges Fun.id }

let states sh = sh.states
let valid sh i ti = sh.valid.(i).(ti)

(* ---- the 62-bit proof ---- *)

let lcm a b =
  if Bigint.is_zero a || Bigint.is_zero b then Bigint.zero
  else Bigint.div (Bigint.abs (Bigint.mul a b)) (Bigint.gcd a b)

let common_den xs = Array.fold_left (fun acc x -> lcm acc (Rat.den x)) Bigint.one xs

let lcm_upto k =
  let acc = ref Bigint.one in
  for l = 2 to k do
    acc := lcm !acc (Bigint.of_int l)
  done;
  !acc

(* The integer scaling: costs by D·L, weights by W. *)
let scales sh =
  ( Bigint.mul (common_den sh.cost) (lcm_upto sh.players),
    common_den sh.weights )

(* W·max(1, D·L·sum_e c(e)): the max covers the weight sums of a game
   whose edges are all free. *)
let bound sh =
  let cost_scale, weight_scale = scales sh in
  let total = Array.fold_left Rat.add Rat.zero sh.cost in
  let costs = Rat.num (Rat.mul total (Rat.of_bigint cost_scale)) in
  Bigint.mul weight_scale (Bigint.max Bigint.one costs)

(* ---- the ring ---- *)

module type RING = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div_int : t -> int -> t
  val compare : t -> t -> int
  val of_rat : Rat.t -> t
  val to_rat : t -> Rat.t
  val ceil_of_rat : Rat.t -> t option
  val sum_at : t array -> int -> int array -> int -> int array -> t
  val sum_loaded : t array -> int -> int array -> int array -> t
end

type move = int * int * int

module type S = sig
  type num
  type game

  val name : string
  val compare : num -> num -> int
  val social_rat : game -> num -> Rat.t
  val state_rat : game -> num -> Rat.t

  type scratch

  val scratch : game -> scratch
  val fill : game -> scratch -> int array array -> bool
  val move : game -> scratch -> int array array -> move -> unit

  val interim_rat : game -> int -> int -> num -> Rat.t

  val best_deviation :
    game -> scratch -> int array array -> int -> int -> (int * num) option

  val is_equilibrium : game -> scratch -> int array array -> bool
  val social_cost : game -> scratch -> num
  val union_at : game -> scratch -> int -> num
  val step : game -> scratch -> int array array -> move option

  val benevolent : ?budget:Budget.t -> game -> int array array -> int array array

  val margins :
    game ->
    scratch ->
    int array array ->
    ((int * int * int * int * Rat.t) list, int * int) result

  type node

  val node : game -> node
  val commit : game -> node -> int -> int -> int -> unit
  val uncommit : game -> node -> int -> int -> int -> unit
  val bound : game -> node -> (int * int) array -> int -> num
  val leaf : game -> node -> num
  val ceil_social : game -> Rat.t -> num option
  val column : game -> int array -> int -> int array -> num * num array array
end

module Make (R : RING) (N : sig val name : string end) = struct
  type num = R.t

  type game = {
    sh : shape;
    stride : int; (* players + 1 *)
    share : R.t array; (* e * stride + l -> scaled c(e) / l; 0 at l = 0 *)
    full : R.t array array; (* player -> action -> scaled path cost *)
    w : R.t array; (* state -> scaled weight *)
    cost_scale : Rat.t; (* per-state values are scaled by it *)
    scale_up : Rat.t; (* weighted values are scaled by it *)
    interim_scale : Rat.t array array; (* player -> type: price -> interim cost *)
  }

  let name = N.name

  let lower sh ~cost_scale ~weight_scale =
    let stride = sh.players + 1 in
    let c = Array.map (fun x -> R.of_rat (Rat.mul x cost_scale)) sh.cost in
    let share = Array.make (sh.n_edges * stride) R.zero in
    Array.iteri
      (fun e ce ->
        for l = 1 to sh.players do
          share.((e * stride) + l) <- R.div_int ce l
        done)
      c;
    let w = Array.map (fun x -> R.of_rat (Rat.mul x weight_scale)) sh.weights in
    let full =
      Array.map
        (Array.map (fun es -> Array.fold_left (fun acc e -> R.add acc c.(e)) R.zero es))
        sh.paths
    in
    (* An interim cost is its price over the scaled marginal weight of
       its type, in scaled cost units. *)
    let interim_scale =
      Array.map
        (Array.map (fun sts ->
             let mw = Array.fold_left (fun acc st -> R.add acc w.(st)) R.zero sts in
             if Array.length sts = 0 then Rat.zero
             else Rat.inv (Rat.mul cost_scale (R.to_rat mw))))
        sh.by_type
    in
    { sh; stride; share; full; w; cost_scale;
      scale_up = Rat.mul cost_scale weight_scale; interim_scale }

  let compare = R.compare
  let social_rat g x = Rat.div (R.to_rat x) g.scale_up
  let state_rat g x = Rat.div (R.to_rat x) g.cost_scale

  (* ---- strategy profiles ---- *)

  type scratch = { loads : int array array }

  let scratch g =
    { loads = Array.make_matrix (Array.length g.sh.states) g.sh.n_edges 0 }

  let add_path load es =
    for k = 0 to Array.length es - 1 do
      let e = es.(k) in
      load.(e) <- load.(e) + 1
    done

  let remove_path load es =
    for k = 0 to Array.length es - 1 do
      let e = es.(k) in
      load.(e) <- load.(e) - 1
    done

  let fill g sc s =
    let ok = ref true in
    for st = 0 to Array.length g.sh.states - 1 do
      let t = g.sh.states.(st) and load = sc.loads.(st) in
      Array.fill load 0 (Array.length load) 0;
      for i = 0 to g.sh.players - 1 do
        let ti = t.(i) in
        let a = s.(i).(ti) in
        if not g.sh.valid_tbl.(i).(ti).(a) then ok := false;
        add_path load g.sh.paths.(i).(a)
      done
    done;
    !ok

  let remove_from sc sts es =
    for k = 0 to Array.length sts - 1 do
      remove_path sc.loads.(sts.(k)) es
    done

  let add_to sc sts es =
    for k = 0 to Array.length sts - 1 do
      add_path sc.loads.(sts.(k)) es
    done

  let move g sc s (i, ti, a) =
    let sts = g.sh.by_type.(i).(ti) in
    remove_from sc sts g.sh.paths.(i).(s.(i).(ti));
    add_to sc sts g.sh.paths.(i).(a);
    s.(i).(ti) <- a

  (* The deviator's unnormalized interim price of path [es] once her own
     path has left the loads: she joins every edge at load + 1.
     Conditioning on her type divides every price of (player, type) by
     the same marginal, so comparisons run on these sums. *)
  let price g sc sts es =
    let acc = ref R.zero in
    for k = 0 to Array.length sts - 1 do
      let st = sts.(k) in
      acc := R.add !acc (R.mul g.w.(st) (R.sum_at g.share g.stride sc.loads.(st) 1 es))
    done;
    !acc

  let best_deviation g sc s i ti =
    let sts = g.sh.by_type.(i).(ti) in
    if Array.length sts = 0 then None
    else begin
      let cur = s.(i).(ti) in
      let paths = g.sh.paths.(i) and valid = g.sh.valid_tbl.(i).(ti) in
      remove_from sc sts paths.(cur);
      let current = if valid.(cur) then Some (price g sc sts paths.(cur)) else None in
      let best = ref None in
      for a = 0 to Array.length paths - 1 do
        if a <> cur && valid.(a) then begin
          let c = price g sc sts paths.(a) in
          let improves =
            match (!best, current) with
            | Some (_, cb), _ -> R.compare c cb < 0
            | None, Some cur -> R.compare c cur < 0
            | None, None -> true
          in
          if improves then best := Some (a, c)
        end
      done;
      add_to sc sts paths.(cur);
      !best
    end

  (* [best_deviation <> None], stopping at the first improving action. *)
  let improvable g sc s i ti =
    let sts = g.sh.by_type.(i).(ti) in
    if Array.length sts = 0 then false
    else begin
      let cur = s.(i).(ti) in
      let paths = g.sh.paths.(i) and valid = g.sh.valid_tbl.(i).(ti) in
      remove_from sc sts paths.(cur);
      let improving =
        if not valid.(cur) then Array.exists Fun.id valid
        else begin
          let current = price g sc sts paths.(cur) in
          let found = ref false and a = ref 0 in
          while (not !found) && !a < Array.length paths do
            if !a <> cur && valid.(!a) then
              found := R.compare (price g sc sts paths.(!a)) current < 0;
            incr a
          done;
          !found
        end
      in
      add_to sc sts paths.(cur);
      improving
    end

  let interim_rat g i ti x = Rat.mul (R.to_rat x) g.interim_scale.(i).(ti)

  let is_equilibrium g sc s =
    let rec go i ti =
      if i >= g.sh.players then true
      else if ti >= Array.length g.sh.by_type.(i) then go (i + 1) 0
      else if improvable g sc s i ti then false
      else go i (ti + 1)
    in
    go 0 0

  let union_at g sc st = R.sum_loaded g.share g.stride sc.loads.(st) g.sh.edges

  let social_cost g sc =
    let acc = ref R.zero in
    for st = 0 to Array.length g.sh.states - 1 do
      acc := R.add !acc (R.mul g.w.(st) (union_at g sc st))
    done;
    !acc

  let step g sc s =
    let rec go i ti =
      if i >= g.sh.players then None
      else if ti >= Array.length g.sh.by_type.(i) then go (i + 1) 0
      else
        match best_deviation g sc s i ti with
        | Some (a, _) -> Some (i, ti, a)
        | None -> go i (ti + 1)
    in
    go 0 0

  (* Weighted cost of the edges of [es] that no path in the loads of
     [sts] covers: what adding [es] adds to those states' unions. *)
  let fresh_cost g sc sts full es =
    let acc = ref R.zero in
    for k = 0 to Array.length sts - 1 do
      let st = sts.(k) in
      let covered = R.sum_loaded g.share g.stride sc.loads.(st) es in
      acc := R.add !acc (R.mul g.w.(st) (R.sub full covered))
    done;
    !acc

  (* Social cost after each single change, as [K - removed + added]:
     leaving (i, ti)'s path drops the edges only it covered in the
     states realizing ti, and the candidate adds the edges it alone
     would cover. *)
  let benevolent_step g sc s =
    let k = social_cost g sc in
    let best = ref None in
    for i = 0 to g.sh.players - 1 do
      let paths = g.sh.paths.(i) and full = g.full.(i) in
      for ti = 0 to Array.length g.sh.by_type.(i) - 1 do
        let sts = g.sh.by_type.(i).(ti) in
        if Array.length sts > 0 then begin
          let cur = s.(i).(ti) and valid = g.sh.valid_tbl.(i).(ti) in
          remove_from sc sts paths.(cur);
          let base = R.sub k (fresh_cost g sc sts full.(cur) paths.(cur)) in
          for a = 0 to Array.length paths - 1 do
            if a <> cur && valid.(a) then begin
              let v = R.add base (fresh_cost g sc sts full.(a) paths.(a)) in
              let improves =
                match !best with
                | None -> R.compare v k < 0
                | Some (_, vb) -> R.compare v vb < 0
              in
              if improves then best := Some ((i, ti, a), v)
            end
          done;
          add_to sc sts paths.(cur)
        end
      done
    done;
    Option.map fst !best

  let benevolent_steps = 100_000

  let benevolent ?(budget = Budget.unlimited) g start =
    let s = Array.map Array.copy start in
    let sc = scratch g in
    if not (fill g sc s) then invalid_arg "Kernel.benevolent: invalid profile";
    let rec go steps =
      if steps > benevolent_steps then s
      else begin
        Budget.check budget;
        match benevolent_step g sc s with
        | Some m ->
          move g sc s m;
          go (steps + 1)
        | None -> s
      end
    in
    go 0

  let margins g sc s =
    let out = ref [] in
    let rec go i ti =
      if i >= g.sh.players then Ok (List.rev !out)
      else if ti >= Array.length g.sh.by_type.(i) then go (i + 1) 0
      else begin
        let sts = g.sh.by_type.(i).(ti) in
        if Array.length sts = 0 then go i (ti + 1)
        else begin
          let cur = s.(i).(ti) and paths = g.sh.paths.(i) in
          if not g.sh.valid_tbl.(i).(ti).(cur) then Error (i, ti)
          else begin
            remove_from sc sts paths.(cur);
            let current = price g sc sts paths.(cur) in
            Array.iter
              (fun alt ->
                if alt <> cur then begin
                  let d = R.sub (price g sc sts paths.(alt)) current in
                  let slack = interim_rat g i ti d in
                  out := (i, ti, cur, alt, slack) :: !out
                end)
              g.sh.valid.(i).(ti);
            add_to sc sts paths.(cur);
            go i (ti + 1)
          end
        end
      end
    in
    go 0 0

  (* ---- branch and bound ---- *)

  type node = {
    count : int array array; (* state -> edge -> committed load *)
    m : int array; (* per-edge remaining-agent multiplicity *)
    stamp : int array; (* agent-dedup marks for [m] *)
    mutable tok : int;
  }

  let node g =
    { count = Array.make_matrix (Array.length g.sh.states) g.sh.n_edges 0;
      m = Array.make g.sh.n_edges 0;
      stamp = Array.make g.sh.n_edges (-1);
      tok = 0 }

  let commit g nd i ti a =
    Array.iter (fun st -> add_path nd.count.(st) g.sh.paths.(i).(a)) g.sh.by_type.(i).(ti)

  let uncommit g nd i ti a =
    Array.iter
      (fun st -> remove_path nd.count.(st) g.sh.paths.(i).(a))
      g.sh.by_type.(i).(ti)

  let max_num a b = if R.compare a b >= 0 then a else b

  (* [m(e)] counts, per state, the remaining realized variables with a
     valid path through the uncommitted edge [e] — so an edge of such a
     path is uncommitted exactly when its [m] is positive, and prices at
     its full cost ([sum_loaded]) or at the 1/m share ([sum_at]). *)
  let bound g nd vars depth =
    let nvars = Array.length vars in
    let total = ref R.zero in
    for st = 0 to Array.length g.sh.states - 1 do
      let t = g.sh.states.(st) and count = nd.count.(st) in
      Array.fill nd.m 0 g.sh.n_edges 0;
      for v = depth to nvars - 1 do
        let i, ti = vars.(v) in
        if t.(i) = ti then begin
          nd.tok <- nd.tok + 1;
          Array.iter
            (fun a ->
              Array.iter
                (fun e ->
                  if count.(e) = 0 && nd.stamp.(e) <> nd.tok then begin
                    nd.stamp.(e) <- nd.tok;
                    nd.m.(e) <- nd.m.(e) + 1
                  end)
                g.sh.paths.(i).(a))
            g.sh.valid.(i).(ti)
        end
      done;
      let single = ref R.zero and share = ref R.zero in
      for v = depth to nvars - 1 do
        let i, ti = vars.(v) in
        if t.(i) = ti then begin
          let cheapest f =
            let best = ref None in
            Array.iter
              (fun a ->
                let x = f g.sh.paths.(i).(a) in
                match !best with
                | Some b when R.compare b x <= 0 -> ()
                | _ -> best := Some x)
              g.sh.valid.(i).(ti);
            match !best with Some b -> b | None -> R.zero
          in
          single :=
            max_num !single (cheapest (R.sum_loaded g.share g.stride nd.m));
          share := R.add !share (cheapest (fun es -> R.sum_at g.share g.stride nd.m 0 es))
        end
      done;
      let committed = R.sum_loaded g.share g.stride count g.sh.edges in
      total :=
        R.add !total (R.mul g.w.(st) (R.add committed (max_num !single !share)))
    done;
    !total

  let leaf g nd =
    let acc = ref R.zero in
    for st = 0 to Array.length g.sh.states - 1 do
      acc :=
        R.add !acc
          (R.mul g.w.(st) (R.sum_loaded g.share g.stride nd.count.(st) g.sh.edges))
    done;
    !acc

  (* Every kernel value is an integer of the ring's scale, so [b < x]
     iff [b < ceil x]; a ceiling past the ring's range exceeds every
     value, which [None] stands for. *)
  let ceil_social g x = R.ceil_of_rat (Rat.mul x g.scale_up)

  (* ---- per-state action profiles ---- *)

  let column g load st a =
    Array.fill load 0 (Array.length load) 0;
    let paths = g.sh.paths in
    Array.iteri (fun i ai -> add_path load paths.(i).(ai)) a;
    let union = R.sum_loaded g.share g.stride load g.sh.edges in
    let t = g.sh.states.(st) in
    let deltas =
      Array.mapi
        (fun i ai ->
          let mine = paths.(i).(ai) in
          let current = R.sum_at g.share g.stride load 0 mine in
          remove_path load mine;
          let d =
            Array.map
              (fun alt ->
                R.sub current (R.sum_at g.share g.stride load 1 paths.(i).(alt)))
              g.sh.valid.(i).(t.(i))
          in
          add_path load mine;
          d)
        a
    in
    (union, deltas)
end

module Int =
  Make
    (struct
      type t = int

      let zero = 0
      let add = ( + )
      let sub = ( - )
      let mul = ( * )
      let div_int = ( / )
      let compare = Int.compare

      let of_rat x =
        match Bigint.to_int_opt (Rat.num x) with
        | Some n when Bigint.equal (Rat.den x) Bigint.one -> n
        | _ -> invalid_arg "Kernel.Int.of_rat: not a machine integer"

      let to_rat = Rat.of_int

      let ceil_of_rat x =
        let q, r = Bigint.divmod (Rat.num x) (Rat.den x) in
        Bigint.to_int_opt (if Bigint.sign r > 0 then Bigint.add q Bigint.one else q)

      let sum_at (table : int array) stride idx d es =
        let acc = ref 0 in
        for k = 0 to Array.length es - 1 do
          let e = es.(k) in
          acc := !acc + table.((e * stride) + idx.(e) + d)
        done;
        !acc

      let sum_loaded (table : int array) stride idx es =
        let acc = ref 0 in
        for k = 0 to Array.length es - 1 do
          let e = es.(k) in
          if idx.(e) > 0 then acc := !acc + table.((e * stride) + 1)
        done;
        !acc
    end)
    (struct
      let name = "int"
    end)

module Q =
  Make
    (struct
      type t = Rat.t

      let zero = Rat.zero
      let add = Rat.add
      let sub = Rat.sub
      let mul = Rat.mul
      let div_int = Rat.div_int
      let compare = Rat.compare
      let of_rat x = x
      let to_rat x = x
      let ceil_of_rat x = Some x

      let sum_at table stride idx d es =
        let acc = ref Rat.zero in
        for k = 0 to Array.length es - 1 do
          let e = es.(k) in
          acc := Rat.add !acc table.((e * stride) + idx.(e) + d)
        done;
        !acc

      let sum_loaded table stride idx es =
        let acc = ref Rat.zero in
        for k = 0 to Array.length es - 1 do
          let e = es.(k) in
          if idx.(e) > 0 then acc := Rat.add !acc table.((e * stride) + 1)
        done;
        !acc
    end)
    (struct
      let name = "rat"
    end)

type packed = Packed : (module S with type game = 'g) * 'g -> packed

let max_int_big = Bigint.of_int max_int

let lower_int sh =
  if Bigint.compare (bound sh) max_int_big > 0 then None
  else begin
    let cost_scale, weight_scale = scales sh in
    Some
      (Int.lower sh ~cost_scale:(Rat.of_bigint cost_scale)
         ~weight_scale:(Rat.of_bigint weight_scale))
  end

let lower_rat sh = Q.lower sh ~cost_scale:Rat.one ~weight_scale:Rat.one

let lower sh =
  match lower_int sh with
  | Some g -> Packed ((module Int), g)
  | None -> Packed ((module Q), lower_rat sh)

let instance (Packed ((module K), _)) = K.name
