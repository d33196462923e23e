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

type stats = { pivots : int; exact_pivots : int; guided : bool }

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

(* ---- the float guide ----

   The guide runs the solver's own algorithm in doubles: the same crash
   basis, phases, drive-out and Bland rules, with tolerances where the
   exact loop tests signs and ties.  It only proposes a basis.  [solve]
   rebuilds that basis in exact arithmetic and hands it to the exact
   loop, whose pricing pass proves it optimal (or pivots on from it),
   so no double ever reaches an outcome or a certificate.  Its
   decisions are a pure function of the problem. *)

(* Word-sized fractions convert with one division; only a Bigint
   numerator or denominator pays [Rat.to_float]'s scaled division. *)
let float_of_rat x =
  match (Bigint.to_int_opt (Rat.num x), Bigint.to_int_opt (Rat.den x)) with
  | Some n, Some d -> float_of_int n /. float_of_int d
  | _ -> Rat.to_float x

(* The guide's one tolerance: an entry or pivot element counts as
   nonzero above it, a reduced cost as negative below [-tol] times the
   cost scale, and ratios within [tol * (1 + theta)] of the minimum
   ratio [theta] tie. *)
let tol = 1e-9

exception Guide_failed

(* The guide's final basis and its pivot count, or [None] when it hits
   its pivot cap or refactors a numerically singular basis. *)
let guide ~on_pivot ~a ~b ~c ~crash =
  let m = Array.length b and n = Array.length c in
  (* [A] by columns, nonzeros only. *)
  let nnz = Array.make n 0 in
  Array.iter
    (Array.iteri (fun j aij ->
         if not (Rat.is_zero aij) then nnz.(j) <- nnz.(j) + 1))
    a;
  let col_row = Array.map (fun k -> Array.make k 0) nnz in
  let col_val = Array.map (fun k -> Array.make k 0.) nnz in
  Array.fill nnz 0 n 0;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j aij ->
          if not (Rat.is_zero aij) then begin
            col_row.(j).(nnz.(j)) <- i;
            col_val.(j).(nnz.(j)) <- float_of_rat aij;
            nnz.(j) <- nnz.(j) + 1
          end)
        row)
    a;
  let bf = Array.map float_of_rat b and cf = Array.map float_of_rat c in
  let scale v = Array.fold_left (fun s x -> Float.max s (Float.abs x)) 1. v in
  let identity () =
    Array.init m (fun i -> Array.init m (fun k -> if i = k then 1. else 0.))
  in
  let basis = Array.copy crash in
  let in_basis = Array.make (n + m) false in
  Array.iter (fun v -> in_basis.(v) <- true) basis;
  let binv = identity () and xb = Array.copy bf in
  let y = Array.make m 0. and w = Array.make m 0. in
  let pivots = ref 0 and since_refactor = ref 0 and priced = ref false in
  let cap = 4 * (m + n) and refactor_every = max 32 m in
  (* [B^-1] afresh from the basis columns by Gauss-Jordan elimination
     with partial pivoting, then [x_B = B^-1 b]: the drift of the
     product-form updates never spans more than [refactor_every]
     pivots. *)
  let refactor () =
    since_refactor := 0;
    priced := false;
    let bm = Array.make_matrix m m 0. in
    Array.iteri
      (fun r v ->
        if v >= n then bm.(v - n).(r) <- 1.
        else Array.iteri (fun q i -> bm.(i).(r) <- col_val.(v).(q)) col_row.(v))
      basis;
    let inv = identity () in
    for col = 0 to m - 1 do
      let p = ref col in
      for i = col + 1 to m - 1 do
        if Float.abs bm.(i).(col) > Float.abs bm.(!p).(col) then p := i
      done;
      let piv = bm.(!p).(col) in
      if Float.abs piv <= tol then raise Guide_failed;
      let swap t = let row = t.(col) in t.(col) <- t.(!p); t.(!p) <- row in
      swap bm;
      swap inv;
      let brow = bm.(col) and irow = inv.(col) in
      for k = 0 to m - 1 do
        brow.(k) <- brow.(k) /. piv;
        irow.(k) <- irow.(k) /. piv
      done;
      for i = 0 to m - 1 do
        let f = bm.(i).(col) in
        if i <> col && f <> 0. then begin
          let bi = bm.(i) and ii = inv.(i) in
          for k = 0 to m - 1 do
            bi.(k) <- bi.(k) -. (f *. brow.(k));
            ii.(k) <- ii.(k) -. (f *. irow.(k))
          done
        end
      done
    done;
    Array.blit inv 0 binv 0 m;
    Array.iteri
      (fun r row ->
        let s = ref 0. in
        Array.iteri (fun k bk -> s := !s +. (row.(k) *. bk)) bf;
        xb.(r) <- !s)
      binv
  in
  (* [y = c_B B^-1] is priced afresh at the start of each phase and
     after each refactor; a pivot in between updates it in O(m). *)
  let price cost =
    priced := true;
    Array.fill y 0 m 0.;
    Array.iteri
      (fun r v ->
        let cb = cost v in
        if cb <> 0. then begin
          let br = binv.(r) in
          for k = 0 to m - 1 do
            y.(k) <- y.(k) +. (cb *. br.(k))
          done
        end)
      basis
  in
  let reduced cost j =
    let rows = col_row.(j) and vals = col_val.(j) in
    let d = ref (cost j) in
    for q = 0 to Array.length rows - 1 do
      d := !d -. (y.(rows.(q)) *. vals.(q))
    done;
    !d
  in
  let entering cost threshold =
    let j = ref 0 in
    while !j < n && (in_basis.(!j) || reduced cost !j >= threshold) do
      incr j
    done;
    if !j < n then !j else -1
  in
  (* [w = B^-1 A_j], or row [r] of [B^-1 A] at column [j] alone. *)
  let entry r j =
    let br = binv.(r) and rows = col_row.(j) and vals = col_val.(j) in
    let s = ref 0. in
    for q = 0 to Array.length rows - 1 do
      s := !s +. (br.(rows.(q)) *. vals.(q))
    done;
    !s
  in
  let ftran j =
    for r = 0 to m - 1 do
      w.(r) <- entry r j
    done
  in
  (* Bland's leaving rule with a tie band: the smallest ratio [theta]
     first, then the lowest basis index among the rows within the band
     above it. *)
  let ratio r = Float.max xb.(r) 0. /. w.(r) in
  let ratio_test () =
    let theta = ref infinity in
    for r = 0 to m - 1 do
      if w.(r) > tol then theta := Float.min !theta (ratio r)
    done;
    let band = !theta +. (tol *. (1. +. !theta)) in
    let best = ref (-1) in
    for r = 0 to m - 1 do
      if
        w.(r) > tol
        && ratio r <= band
        && (!best < 0 || basis.(r) < basis.(!best))
      then best := r
    done;
    !best
  in
  (* [d] is the entering column's reduced cost: the new duals are
     [y + (d / w_r)] times row [r] of the old [B^-1]. *)
  let enter ~d ~row j =
    if !pivots >= cap then raise Guide_failed;
    incr pivots;
    let piv = w.(row) and brow = binv.(row) in
    let step = d /. piv in
    if step <> 0. then
      for k = 0 to m - 1 do
        y.(k) <- y.(k) +. (step *. brow.(k))
      done;
    for k = 0 to m - 1 do
      brow.(k) <- brow.(k) /. piv
    done;
    xb.(row) <- xb.(row) /. piv;
    for i = 0 to m - 1 do
      let f = w.(i) in
      if i <> row && f <> 0. then begin
        let bi = binv.(i) in
        for k = 0 to m - 1 do
          bi.(k) <- bi.(k) -. (f *. brow.(k))
        done;
        xb.(i) <- xb.(i) -. (f *. xb.(row))
      end
    done;
    in_basis.(basis.(row)) <- false;
    basis.(row) <- j;
    in_basis.(j) <- true;
    incr since_refactor;
    if !since_refactor >= refactor_every then refactor ()
  in
  let rec iterate cost threshold =
    on_pivot ();
    if not !priced then price cost;
    match entering cost threshold with
    | -1 -> ()
    | j -> (
      ftran j;
      match ratio_test () with
      | -1 -> ()
      | r ->
        enter ~d:(reduced cost j) ~row:r j;
        iterate cost threshold)
  in
  let optimize cost threshold =
    priced := false;
    iterate cost threshold
  in
  try
    optimize (fun v -> if v >= n then 1. else 0.) (-.tol);
    let infeasibility = ref 0. in
    Array.iteri
      (fun r v -> if v >= n then infeasibility := !infeasibility +. xb.(r))
      basis;
    if !infeasibility <= tol *. scale bf then begin
      for r = 0 to m - 1 do
        if basis.(r) >= n then begin
          let j = ref 0 in
          while
            !j < n && (in_basis.(!j) || Float.abs (entry r !j) <= tol)
          do
            incr j
          done;
          if !j < n then begin
            ftran !j;
            enter ~d:0. ~row:r !j
          end
        end
      done;
      optimize (fun v -> if v < n then cf.(v) else 0.) (-.tol *. scale cf)
    end;
    Some (basis, !pivots)
  with Guide_failed -> None

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
  let crash = Array.init m (fun i -> n + i) in
  Array.iteri
    (fun j i ->
      if Stdlib.( >= ) i 0 && Stdlib.( >= ) crash.(i) n then crash.(i) <- j)
    unit_row;
  let binv = Array.make_matrix m m Rat.zero in
  let xb = Array.copy b in
  let basis = Array.copy crash in
  let in_basis = Array.make (n + m) false in
  (* The crash basis: [B = I], [x_B = b]. *)
  let reset () =
    Array.iteri
      (fun i row ->
        Array.fill row 0 m Rat.zero;
        row.(i) <- Rat.one)
      binv;
    Array.blit b 0 xb 0 m;
    Array.blit crash 0 basis 0 m;
    Array.fill in_basis 0 (n + m) false;
    Array.iter (fun v -> in_basis.(v) <- true) basis
  in
  reset ();
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
  let swap_in ~row j w =
    pivot ~binv ~xb ~column:w ~row;
    in_basis.(basis.(row)) <- false;
    basis.(row) <- j;
    in_basis.(j) <- true
  in
  let enter_basis ~row j w =
    incr pivots;
    swap_in ~row j w
  in
  (* The guide's basis, rebuilt exactly: each of its structural columns
     outside the crash basis enters a row whose basic column the guide's
     basis does not hold.  (An artificial only ever sits in its own row
     and never re-enters, so the guide's artificials are still in
     place.)  No such row means the columns are dependent in exact
     arithmetic, and a negative basic value means the basis is not
     primal-feasible; either way the exact loop starts from the crash
     basis instead. *)
  let rebuild target =
    let held = Array.make (n + m) false in
    Array.iter (fun v -> held.(v) <- true) target;
    let rebuilt =
      Array.for_all
        (fun j ->
          Stdlib.( >= ) j n || in_basis.(j)
          ||
          let w = ftran j in
          let r = ref 0 in
          while
            Stdlib.( < ) !r m && (held.(basis.(!r)) || Rat.is_zero w.(!r))
          do
            incr r
          done;
          Stdlib.( < ) !r m
          && begin
               swap_in ~row:!r j w;
               true
             end)
        target
      && Array.for_all (fun v -> Stdlib.( >= ) (Rat.sign v) 0) xb
    in
    if not rebuilt then reset ();
    rebuilt
  in
  let guided =
    match guide ~on_pivot ~a ~b ~c:p.c ~crash with
    | Some (target, guide_pivots) when rebuild target ->
      pivots := guide_pivots;
      true
    | Some _ | None -> false
  in
  let exact_from = !pivots in
  let stats () =
    { pivots = !pivots; exact_pivots = !pivots - exact_from; guided }
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
    (Infeasible { farkas = unflip (price phase1_cost) }, stats ())
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
        stats () )
    | `Unbounded (j, w) ->
      let ray = Array.make n Rat.zero in
      ray.(j) <- Rat.one;
      for r = 0 to m - 1 do
        if Stdlib.( < ) basis.(r) n && not (Rat.is_zero w.(r)) then
          ray.(basis.(r)) <- Rat.neg w.(r)
      done;
      (Unbounded { witness = extract_x (); ray }, stats ())
  end

(* ---- certificate checking ----

   Checks rebuild every claimed identity from the problem data alone;
   they share no state with the solver, so a certificate that has been
   tampered with in any coordinate fails on the first violated
   condition. *)

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
