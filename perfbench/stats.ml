(* Order statistics used by every reported number. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] percent of the samples at or below it. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   computes them (the default "exclusive" method, with its clamping),
   so the spread printed here is the spread a Python reader computes
   from the same values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 and n = 4 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta))
      /. float_of_int n)
    [ 1; 2; 3 ]

(* Inter-quartile distance as a share of the median: the spread the
   benchmark's steadiness is judged by. *)
let spread a =
  match quartiles a with
  | [ q1; _; q3 ] -> (q3 -. q1) /. median a
  | _ -> assert false
