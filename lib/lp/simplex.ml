open Bi_num

type problem = {
  a : Rat.t array array;
  b : Rat.t array;
  c : Rat.t array;
}

type certificate = { x : Rat.t array; y : Rat.t array; objective : Rat.t }

type outcome =
  | Optimal of certificate
  | Infeasible of { farkas : Rat.t array }
  | Unbounded of { witness : Rat.t array; ray : Rat.t array }

type stats = { pivots : int }

let validate p =
  let m = Array.length p.a and n = Array.length p.c in
  if Array.length p.b <> m then
    invalid_arg "Simplex: b length differs from the row count of a";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Simplex: ragged constraint matrix")
    p.a

(* ---- exact dot products ----

   Every inner product below runs through one reused [Rat.Acc]: terms
   land as fused multiply-adds on a common-denominator fraction and the
   single canonicalization is deferred to the snapshot.  Accumulators
   are single-owner scratch, which is fine — the solver is sequential
   (parallelism in this codebase lives a level up, across solves). *)

let dot acc u v =
  Rat.Acc.clear acc;
  Array.iteri
    (fun i ui -> if not (Rat.is_zero ui) then Rat.Acc.add_mul acc ui v.(i))
    u;
  Rat.Acc.to_rat acc

(* ---- the pivot kernel ---- *)

let pivot ~binv ~xb ~column ~row =
  let m = Array.length binv in
  let piv = column.(row) in
  if Rat.is_zero piv then invalid_arg "Simplex.pivot: zero pivot element";
  let inv = Rat.inv piv in
  let brow = binv.(row) in
  for k = 0 to m - 1 do
    brow.(k) <- Rat.mul brow.(k) inv
  done;
  xb.(row) <- Rat.mul xb.(row) inv;
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = column.(i) in
      if not (Rat.is_zero f) then begin
        let bi = binv.(i) in
        for k = 0 to m - 1 do
          bi.(k) <- Rat.sub_mul bi.(k) f brow.(k)
        done;
        xb.(i) <- Rat.sub_mul xb.(i) f xb.(row)
      end
    end
  done

(* ---- the solver ---- *)

let solve ?(on_pivot = fun () -> ()) p =
  validate p;
  let m = Array.length p.b and n = Array.length p.c in
  (* Sign-normalize so the starting basis below is feasible; duals are
     mapped back through the same flips before they leave this
     function, so certificates always refer to the caller's rows. *)
  let flip = Array.map (fun bi -> Stdlib.( < ) (Rat.sign bi) 0) p.b in
  let a =
    Array.mapi
      (fun i row -> if flip.(i) then Array.map Rat.neg row else row)
      p.a
  in
  let b = Array.mapi (fun i bi -> if flip.(i) then Rat.neg bi else bi) p.b in
  let unflip y = Array.mapi (fun i yi -> if flip.(i) then Rat.neg yi else yi) y in
  let binv =
    Array.init m (fun i ->
        Array.init m (fun j -> if i = j then Rat.one else Rat.zero))
  in
  (* Crash basis: a column that is [+1] in row [i] and zero elsewhere
     (after the flips) is the unit vector [e_i], so it starts basic in
     row [i] in place of that row's artificial — [B] stays the identity
     and [x_B = b >= 0] stays feasible.  Slack rows (every deviation
     row of the correlated polytopes) then cost phase 1 no pivot at
     all.  The lowest-index unit column claims a row.  [unit_row.(j)]
     is [-2] while column [j] is all zero so far, [-1] once it is not a
     unit column, and its row otherwise. *)
  let unit_row = Array.make n (-2) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j aij ->
          if not (Rat.is_zero aij) then
            unit_row.(j) <-
              (if unit_row.(j) = -2 && Rat.equal aij Rat.one then i else -1))
        row)
    a;
  let basis = Array.init m (fun i -> n + i) in
  Array.iteri
    (fun j i ->
      if Stdlib.( >= ) i 0 && Stdlib.( >= ) basis.(i) n then basis.(i) <- j)
    unit_row;
  let in_basis = Array.make (n + m) false in
  Array.iter (fun v -> in_basis.(v) <- true) basis;
  let xb = Array.copy b in
  let pivots = ref 0 in
  let acc = Rat.Acc.create () in
  (* y = c_B B^-1, for the current phase's cost on basic variables. *)
  let price cost =
    Array.init m (fun k ->
        Rat.Acc.clear acc;
        for r = 0 to m - 1 do
          let cb = cost basis.(r) in
          if not (Rat.is_zero cb) then Rat.Acc.add_mul acc cb binv.(r).(k)
        done;
        Rat.Acc.to_rat acc)
  in
  (* Bland pricing: the lowest-index nonbasic original column with a
     negative reduced cost.  Artificials never re-enter. *)
  let entering cost y =
    let yneg = Array.map Rat.neg y in
    let found = ref (-1) in
    let j = ref 0 in
    while Stdlib.( < ) !found 0 && Stdlib.( < ) !j n do
      if not in_basis.(!j) then begin
        Rat.Acc.clear acc;
        Rat.Acc.add acc (cost !j);
        for k = 0 to m - 1 do
          let akj = a.(k).(!j) in
          if not (Rat.is_zero akj) then Rat.Acc.add_mul acc yneg.(k) akj
        done;
        if Stdlib.( < ) (Rat.sign (Rat.Acc.to_rat acc)) 0 then found := !j
      end;
      incr j
    done;
    !found
  in
  let ftran j =
    Array.init m (fun r ->
        Rat.Acc.clear acc;
        for k = 0 to m - 1 do
          let akj = a.(k).(j) in
          if not (Rat.is_zero akj) then Rat.Acc.add_mul acc binv.(r).(k) akj
        done;
        Rat.Acc.to_rat acc)
  in
  (* Minimum-ratio test; ties broken by the smallest leaving basis
     index — the second half of Bland's anti-cycling rule. *)
  let ratio_test w =
    let best = ref (-1) in
    let best_ratio = ref Rat.zero in
    for r = 0 to m - 1 do
      if Stdlib.( > ) (Rat.sign w.(r)) 0 then begin
        let rho = Rat.div xb.(r) w.(r) in
        if
          Stdlib.( < ) !best 0
          || Rat.( < ) rho !best_ratio
          || (Rat.equal rho !best_ratio
             && Stdlib.( < ) basis.(r) basis.(!best))
        then begin
          best := r;
          best_ratio := rho
        end
      end
    done;
    !best
  in
  let enter_basis ~row j w =
    incr pivots;
    pivot ~binv ~xb ~column:w ~row;
    in_basis.(basis.(row)) <- false;
    basis.(row) <- j;
    in_basis.(j) <- true
  in
  let rec optimize cost =
    on_pivot ();
    let y = price cost in
    match entering cost y with
    | -1 -> `Optimal y
    | j -> (
      let w = ftran j in
      match ratio_test w with
      | -1 -> `Unbounded (j, w)
      | r ->
        enter_basis ~row:r j w;
        optimize cost)
  in
  let objective cost =
    Rat.Acc.clear acc;
    for r = 0 to m - 1 do
      Rat.Acc.add_mul acc (cost basis.(r)) xb.(r)
    done;
    Rat.Acc.to_rat acc
  in
  let extract_x () =
    let x = Array.make n Rat.zero in
    for r = 0 to m - 1 do
      if Stdlib.( < ) basis.(r) n then x.(basis.(r)) <- xb.(r)
    done;
    x
  in
  (* Phase 1: minimize the artificial mass. *)
  let phase1_cost v = if Stdlib.( >= ) v n then Rat.one else Rat.zero in
  (match optimize phase1_cost with
  | `Unbounded _ ->
    (* The phase-1 objective is bounded below by zero; unboundedness
       here would contradict exactness. *)
    assert false
  | `Optimal _ -> ());
  if Stdlib.( > ) (Rat.sign (objective phase1_cost)) 0 then
    (Infeasible { farkas = unflip (price phase1_cost) }, { pivots = !pivots })
  else begin
    (* Drive basic artificials out on any nonzero tableau entry; a row
       with none is a redundant constraint — its artificial stays basic
       at zero and the whole [B^-1 A] row is zero, so phase 2 can never
       move it. *)
    for r = 0 to m - 1 do
      if Stdlib.( >= ) basis.(r) n then begin
        let found = ref (-1) in
        let j = ref 0 in
        while Stdlib.( < ) !found 0 && Stdlib.( < ) !j n do
          if not in_basis.(!j) then begin
            Rat.Acc.clear acc;
            for k = 0 to m - 1 do
              let akj = a.(k).(!j) in
              if not (Rat.is_zero akj) then
                Rat.Acc.add_mul acc binv.(r).(k) akj
            done;
            if not (Rat.is_zero (Rat.Acc.to_rat acc)) then found := !j
          end;
          incr j
        done;
        match !found with
        | -1 -> ()
        | j ->
          let w = ftran j in
          enter_basis ~row:r j w
      end
    done;
    (* Phase 2: the caller's objective; inert artificials cost zero. *)
    let phase2_cost v = if Stdlib.( < ) v n then p.c.(v) else Rat.zero in
    match optimize phase2_cost with
    | `Optimal y ->
      ( Optimal
          {
            x = extract_x ();
            y = unflip y;
            objective = objective phase2_cost;
          },
        { pivots = !pivots } )
    | `Unbounded (j, w) ->
      let ray = Array.make n Rat.zero in
      ray.(j) <- Rat.one;
      for r = 0 to m - 1 do
        if Stdlib.( < ) basis.(r) n && not (Rat.is_zero w.(r)) then
          ray.(basis.(r)) <- Rat.neg w.(r)
      done;
      (Unbounded { witness = extract_x (); ray }, { pivots = !pivots })
  end

(* ---- certificate checking ----

   Checks rebuild every claimed identity from the problem data alone;
   they share no state with the solver, so a certificate that has been
   tampered with in any coordinate fails on the first violated
   condition. *)

let objective_value p x =
  if Array.length x <> Array.length p.c then
    invalid_arg "Simplex.objective_value: length mismatch";
  dot (Rat.Acc.create ()) p.c x

let feasible p x =
  let m = Array.length p.b and n = Array.length p.c in
  if Array.length x <> n then Error "primal vector has the wrong length"
  else begin
    let acc = Rat.Acc.create () in
    let bad_sign = ref (-1) and bad_row = ref (-1) in
    Array.iteri
      (fun j xj ->
        if Stdlib.( < ) (Rat.sign xj) 0 && Stdlib.( < ) !bad_sign 0 then
          bad_sign := j)
      x;
    for i = 0 to m - 1 do
      if Stdlib.( < ) !bad_row 0 && not (Rat.equal (dot acc p.a.(i) x) p.b.(i))
      then bad_row := i
    done;
    if Stdlib.( >= ) !bad_sign 0 then
      Error (Printf.sprintf "x_%d is negative" !bad_sign)
    else if Stdlib.( >= ) !bad_row 0 then
      Error (Printf.sprintf "row %d of A x = b is violated" !bad_row)
    else Ok ()
  end

(* Reduced costs [c - A' y], exactly. *)
let reduced_costs p y =
  let m = Array.length p.b in
  let acc = Rat.Acc.create () in
  Array.mapi
    (fun j cj ->
      Rat.Acc.clear acc;
      Rat.Acc.add acc cj;
      for i = 0 to m - 1 do
        let aij = p.a.(i).(j) in
        if not (Rat.is_zero aij) then
          Rat.Acc.add_mul acc (Rat.neg y.(i)) aij
      done;
      Rat.Acc.to_rat acc)
    p.c

let check p cert =
  let m = Array.length p.b and n = Array.length p.c in
  if Array.length cert.x <> n then Error "primal vector has the wrong length"
  else if Array.length cert.y <> m then
    Error "dual vector has the wrong length"
  else
    match feasible p cert.x with
    | Error e -> Error ("primal infeasible: " ^ e)
    | Ok () -> (
      let d = reduced_costs p cert.y in
      let bad_dual = ref (-1) and bad_slack = ref (-1) in
      for j = n - 1 downto 0 do
        if Stdlib.( < ) (Rat.sign d.(j)) 0 then bad_dual := j;
        if
          Stdlib.( > ) (Rat.sign cert.x.(j)) 0
          && not (Rat.is_zero d.(j))
        then bad_slack := j
      done;
      if Stdlib.( >= ) !bad_dual 0 then
        Error
          (Printf.sprintf "dual infeasible: reduced cost of column %d is negative"
             !bad_dual)
      else if Stdlib.( >= ) !bad_slack 0 then
        Error
          (Printf.sprintf
             "complementary slackness fails at column %d: x_j > 0 with a slack dual constraint"
             !bad_slack)
      else
        let acc = Rat.Acc.create () in
        let cx = dot acc p.c cert.x in
        let by = dot acc p.b cert.y in
        if not (Rat.equal cx cert.objective) then
          Error "objective mismatch: c.x differs from the claimed value"
        else if not (Rat.equal by cert.objective) then
          Error "duality gap: b.y differs from the claimed value"
        else Ok ())

let check_infeasible p y =
  let m = Array.length p.b and n = Array.length p.c in
  if Array.length y <> m then Error "Farkas vector has the wrong length"
  else begin
    let acc = Rat.Acc.create () in
    let bad = ref (-1) in
    for j = n - 1 downto 0 do
      Rat.Acc.clear acc;
      for i = 0 to m - 1 do
        let aij = p.a.(i).(j) in
        if not (Rat.is_zero aij) then Rat.Acc.add_mul acc y.(i) aij
      done;
      if Stdlib.( > ) (Rat.sign (Rat.Acc.to_rat acc)) 0 then bad := j
    done;
    if Stdlib.( >= ) !bad 0 then
      Error (Printf.sprintf "A' y has a positive entry at column %d" !bad)
    else if Stdlib.( <= ) (Rat.sign (dot acc p.b y)) 0 then
      Error "b.y is not positive"
    else Ok ()
  end

let check_unbounded p ~witness ~ray =
  let m = Array.length p.b and n = Array.length p.c in
  match feasible p witness with
  | Error e -> Error ("witness: " ^ e)
  | Ok () ->
    if Array.length ray <> n then Error "ray has the wrong length"
    else begin
      let acc = Rat.Acc.create () in
      let bad_sign = ref (-1) and bad_row = ref (-1) in
      Array.iteri
        (fun j dj ->
          if Stdlib.( < ) (Rat.sign dj) 0 && Stdlib.( < ) !bad_sign 0 then
            bad_sign := j)
        ray;
      for i = 0 to m - 1 do
        if
          Stdlib.( < ) !bad_row 0
          && not (Rat.is_zero (dot acc p.a.(i) ray))
        then bad_row := i
      done;
      if Stdlib.( >= ) !bad_sign 0 then
        Error (Printf.sprintf "ray component %d is negative" !bad_sign)
      else if Stdlib.( >= ) !bad_row 0 then
        Error (Printf.sprintf "A d is nonzero at row %d" !bad_row)
      else if Stdlib.( >= ) (Rat.sign (dot acc p.c ray)) 0 then
        Error "c.d is not negative: the ray does not improve the objective"
      else Ok ()
    end
