module B = Bigint

type t = { num : B.t; den : B.t }

let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then { num = B.zero; den = B.one }
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    { num = B.div num g; den = B.div den g }
  end

let zero = { num = B.zero; den = B.one }
let one = { num = B.one; den = B.one }
let two = { num = B.two; den = B.one }
let of_bigint n = { num = n; den = B.one }
let of_int n = of_bigint (B.of_int n)
let of_ints n d = make (B.of_int n) (B.of_int d)
let num x = x.num
let den x = x.den

(* Addition via gcd of the denominators (Knuth 4.5.1): for reduced
   operands with [g = gcd(b, d)], the candidate numerator [a*(d/g) +
   c*(b/g)] shares factors with the denominator only inside [g], so one
   small gcd re-reduces the sum instead of a gcd over the full products.
   When the denominators are coprime the sum is already reduced. *)
let add x y =
  if B.is_zero x.num then y
  else if B.is_zero y.num then x
  else begin
    let g = B.gcd x.den y.den in
    if B.equal g B.one then begin
      let num = B.add (B.mul x.num y.den) (B.mul y.num x.den) in
      if B.is_zero num then zero else { num; den = B.mul x.den y.den }
    end
    else begin
      let xd = B.div x.den g and yd = B.div y.den g in
      let num = B.add (B.mul x.num yd) (B.mul y.num xd) in
      if B.is_zero num then zero
      else begin
        let g2 = B.gcd num g in
        if B.equal g2 B.one then { num; den = B.mul xd y.den }
        else { num = B.div num g2; den = B.mul xd (B.div y.den g2) }
      end
    end
  end

let neg x = { x with num = B.neg x.num }
let abs x = { x with num = B.abs x.num }
let sub x y = add x (neg y)

(* Cross-gcd multiplication: cancel gcd(num, other den) on both
   diagonals first; the product of the reduced parts is reduced. *)
let mul x y =
  if B.is_zero x.num || B.is_zero y.num then zero
  else begin
    let g1 = B.gcd x.num y.den in
    let g2 = B.gcd y.num x.den in
    {
      num = B.mul (B.div x.num g1) (B.div y.num g2);
      den = B.mul (B.div x.den g2) (B.div y.den g1);
    }
  end

(* Fused [x - y*z] with a single canonicalization: cross-cancel the
   product like [mul] (the product of the reduced parts is already
   reduced), then combine with [x] over the product denominator and
   reduce once through [make].  Folding [sub x (mul y z)] instead would
   canonicalize twice; this is the inner step of every simplex pivot
   row update, where it runs n^2 times per basis change. *)
let sub_mul x y z =
  if B.is_zero y.num || B.is_zero z.num then x
  else begin
    let g1 = B.gcd y.num z.den in
    let g2 = B.gcd z.num y.den in
    let pnum = B.mul (B.div y.num g1) (B.div z.num g2) in
    let pden = B.mul (B.div y.den g2) (B.div z.den g1) in
    if B.is_zero x.num then { num = B.neg pnum; den = pden }
    else make (B.sub (B.mul x.num pden) (B.mul pnum x.den)) (B.mul x.den pden)
  end

let inv x =
  if B.is_zero x.num then raise Division_by_zero
  else if Stdlib.( < ) (B.sign x.num) 0 then { num = B.neg x.den; den = B.neg x.num }
  else { num = x.den; den = x.num }

let div x y = mul x (inv y)
let mul_int x n = mul x (of_int n)
let div_int x n = div x (of_int n)

(* Denominators are positive, so one fused Bigint call compares the
   fractions (equal-denominator and machine-word cross-product shortcuts
   live on the other side of the module boundary).  Physically equal
   values — pervasive once hash-consing shares the harmonic chain and
   grid rationals — skip the arithmetic entirely. *)
let compare x y =
  if x == y then 0 else B.compare_fractions x.num x.den y.num y.den
let equal x y = compare x y = 0
let ( < ) x y = compare x y < 0
let ( <= ) x y = compare x y <= 0
let ( > ) x y = compare x y > 0
let ( >= ) x y = compare x y >= 0
let min x y = if Stdlib.( <= ) (compare x y) 0 then x else y
let max x y = if Stdlib.( >= ) (compare x y) 0 then x else y
let sign x = B.sign x.num
let is_zero x = B.is_zero x.num

let sum xs = List.fold_left add zero xs

let average xs =
  match xs with
  | [] -> invalid_arg "Rat.average: empty list"
  | _ -> div_int (sum xs) (List.length xs)

(* Harmonic numbers are memoized as an immutable prefix table
   [H(0) .. H(n)] behind an [Atomic]: readers snapshot the whole array,
   a miss installs a grown copy.  Entries are never mutated in place, so
   a racing writer can only replace the table with one holding the same
   prefix — the loser's work is wasted, never wrong.  Domain-safe
   without locks, which matters because the solvers call [harmonic]
   from pool workers. *)
let harmonic_table = Atomic.make [| zero |]

let harmonic n =
  if Stdlib.(n < 0) then invalid_arg "Rat.harmonic: negative argument";
  let table = Atomic.get harmonic_table in
  let len = Array.length table in
  if Stdlib.(n < len) then table.(n)
  else begin
    let grown = Array.make (n + 1) zero in
    Array.blit table 0 grown 0 len;
    for i = len to n do
      grown.(i) <- add grown.(i - 1) (of_ints 1 i)
    done;
    Atomic.set harmonic_table grown;
    grown.(n)
  end

let pow x n =
  if Stdlib.(n >= 0) then make (B.pow x.num n) (B.pow x.den n)
  else inv (make (B.pow x.num (-n)) (B.pow x.den (-n)))

(* Dividing the bigints first keeps the conversion exact to ~15 digits
   and avoids overflowing both operands to infinity (num and den can
   exceed the float range even when their quotient is small). *)
let to_float x =
  let scale = B.pow (B.of_int 10) 17 in
  let q = B.div (B.mul x.num scale) x.den in
  B.to_float q /. 1e17

let to_string x =
  if B.equal x.den B.one then B.to_string x.num
  else B.to_string x.num ^ "/" ^ B.to_string x.den

let pp fmt x = Format.pp_print_string fmt (to_string x)

(* ---- in-place accumulator ----

   A sum of rationals folded through [add] canonicalizes (gcd + two
   divisions) at every step.  [Acc] instead keeps one running fraction
   over a common denominator: each term either lands directly on the
   current denominator (the overwhelmingly common case once the
   denominator has absorbed lcm-like factors) via a fused multiply-add
   on a {!Bigint.Acc}, or — rarely — rescales the accumulator once.
   Reduction is deferred wholesale to [to_rat], which canonicalizes
   through [make], so the snapshot is the exact same canonical rational
   the fold would have produced. *)

module Acc = struct
  type rat = t
  type t = { nacc : B.Acc.t; mutable den : B.t }

  let create () = { nacc = B.Acc.create (); den = B.one }

  let clear a =
    B.Acc.clear a.nacc;
    a.den <- B.one

  (* Multiply the accumulated numerator by [f] (rare: only when a term's
     denominator brings a new factor). *)
  let rescale a f =
    let n = B.Acc.to_t a.nacc in
    B.Acc.clear a.nacc;
    B.Acc.add a.nacc (B.mul n f)

  (* Add [num/den] (den > 0, not necessarily reduced against the
     accumulator) into the running fraction. *)
  let add_frac a num den =
    if B.equal den a.den then B.Acc.add a.nacc num
    else begin
      let g = B.gcd a.den den in
      let missing = B.div den g in
      if not (B.equal missing B.one) then begin
        rescale a missing;
        a.den <- B.mul a.den missing
      end;
      (* [den] now divides [a.den]. *)
      B.Acc.add_mul a.nacc num (B.div a.den den)
    end

  let add a (r : rat) = if not (B.is_zero r.num) then add_frac a r.num r.den
  let sub a (r : rat) = if not (B.is_zero r.num) then add_frac a (B.neg r.num) r.den

  (* Fused [a += x*y]: cross-cancel like [mul] but feed the (reduced)
     fraction straight into the running sum without building the
     intermediate rational. *)
  let add_mul a (x : rat) (y : rat) =
    if not (B.is_zero x.num || B.is_zero y.num) then begin
      let g1 = B.gcd x.num y.den in
      let g2 = B.gcd y.num x.den in
      add_frac a
        (B.mul (B.div x.num g1) (B.div y.num g2))
        (B.mul (B.div x.den g2) (B.div y.den g1))
    end

  let to_rat a =
    let n = B.Acc.to_t a.nacc in
    if B.is_zero n then zero else make n a.den
end

(* ---- opt-in hash-consing ----

   The certified pipeline evaluates the same small set of rationals —
   harmonic numbers [H(k)], grid values [j/k], per-edge costs — millions
   of times.  An [Hc.t] maps each canonical rational to one retained
   representative so repeat producers return physically equal values,
   which [compare] short-circuits on.  Canonical representation makes
   structural hashing/equality sound as the table key.  Tables are
   created per solver call and threaded explicitly (opt-in: nothing
   global); a mutex makes [intern] safe from pool workers, which is
   where descent restarts run. *)

module Hc = struct
  type rat = t

  type t = {
    tbl : (rat, rat) Hashtbl.t;
    lock : Mutex.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(size = 256) () =
    { tbl = Hashtbl.create size; lock = Mutex.create (); hits = 0; misses = 0 }

  let intern h r =
    Mutex.lock h.lock;
    let canon =
      match Hashtbl.find_opt h.tbl r with
      | Some c ->
        h.hits <- Stdlib.( + ) h.hits 1;
        c
      | None ->
        h.misses <- Stdlib.( + ) h.misses 1;
        Hashtbl.add h.tbl r r;
        r
    in
    Mutex.unlock h.lock;
    canon

  let of_ints h n d = intern h (of_ints n d)
  let harmonic h n = intern h (harmonic n)

  let stats h =
    Mutex.lock h.lock;
    let s = (h.hits, h.misses, Hashtbl.length h.tbl) in
    Mutex.unlock h.lock;
    s
end
