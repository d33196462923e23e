open Bi_num

type 'a monoid = { empty : 'a; combine : 'a -> 'a -> 'a }

let fold m xs = Array.fold_left m.combine m.empty xs

let map_reduce pool ?chunk ~monoid f xs =
  fold monoid (Pool.map_array pool ?chunk f xs)

let rat_sum = { empty = Rat.zero; combine = Rat.add }
let int_sum = { empty = 0; combine = ( + ) }

let both ma mb =
  {
    empty = (ma.empty, mb.empty);
    combine = (fun (a1, b1) (a2, b2) -> (ma.combine a1 a2, mb.combine b1 b2));
  }

let first_by better =
  {
    empty = None;
    combine =
      (fun a b ->
        match (a, b) with
        | None, x | x, None -> x
        | Some (_, va), Some (_, vb) -> if better vb va then b else a);
  }

let first_min ~cmp = first_by (fun vb va -> Stdlib.( < ) (cmp vb va) 0)
let first_max ~cmp = first_by (fun vb va -> Stdlib.( > ) (cmp vb va) 0)
