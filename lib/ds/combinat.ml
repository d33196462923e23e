let rec product = function
  | [] -> Seq.return []
  | xs :: rest ->
    let tails = product rest in
    Seq.concat_map (fun x -> Seq.map (fun tl -> x :: tl) tails) (List.to_seq xs)

let product_arrays arrays =
  let lists = Array.to_list (Array.map Array.to_list arrays) in
  Seq.map Array.of_list (product lists)

let functions ~dom codom =
  product_arrays (Array.make dom codom)

let subsets xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  if n > 30 then invalid_arg "Combinat.subsets: set too large";
  let pick mask =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then acc := xs.(i) :: !acc
    done;
    !acc
  in
  Seq.map pick (Seq.init (1 lsl n) Fun.id)

let rec combinations xs k =
  if k = 0 then Seq.return []
  else
    match xs with
    | [] -> Seq.empty
    | x :: rest ->
      Seq.append
        (Seq.map (fun tl -> x :: tl) (combinations rest (k - 1)))
        (fun () -> combinations rest k ())

let permutations xs =
  (* Recurse on positions rather than values so that duplicate elements
     are handled correctly. *)
  let arr = Array.of_list xs in
  let rec go remaining =
    match remaining with
    | [] -> Seq.return []
    | _ ->
      Seq.concat_map
        (fun i ->
          let rest = List.filter (fun j -> j <> i) remaining in
          Seq.map (fun tl -> arr.(i) :: tl) (go rest))
        (List.to_seq remaining)
  in
  go (List.init (Array.length arr) Fun.id)

let argbest better f ~cmp seq =
  Seq.fold_left
    (fun best x ->
      let v = f x in
      match best with
      | None -> Some (x, v)
      | Some (_, bv) -> if better (cmp v bv) then Some (x, v) else best)
    None seq

let argmin f ~cmp seq = argbest (fun c -> c < 0) f ~cmp seq
let argmax f ~cmp seq = argbest (fun c -> c > 0) f ~cmp seq

let range n = List.init n Fun.id
