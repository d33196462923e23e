open Bi_num

let float_cell f = Printf.sprintf "%.4f" f

let rat_cell r = Printf.sprintf "%s (~%.4f)" (Rat.to_string r) (Rat.to_float r)

let ext_cell = function
  | Extended.Fin r -> rat_cell r
  | Extended.Inf -> "inf"

let ext_opt_cell = function
  | Some c -> ext_cell c
  | None -> "n/a"

let ratio_cell = function
  | Some r -> rat_cell r
  | None -> "undefined"

let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> Stdlib.max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c w ->
           let cell = match List.nth_opt row c with Some s -> s | None -> "" in
           cell ^ String.make (w - String.length cell) ' ')
         widths)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)

let measures_rows (r : Bi_bayes.Measures.report) =
  [
    [ "optP"; ext_cell r.Bi_bayes.Measures.opt_p ];
    [ "best-eqP"; ext_opt_cell r.Bi_bayes.Measures.best_eq_p ];
    [ "worst-eqP"; ext_opt_cell r.Bi_bayes.Measures.worst_eq_p ];
    [ "optC"; ext_cell r.Bi_bayes.Measures.opt_c ];
    [ "best-eqC"; ext_opt_cell r.Bi_bayes.Measures.best_eq_c ];
    [ "worst-eqC"; ext_opt_cell r.Bi_bayes.Measures.worst_eq_c ];
  ]

let verdict ok = if ok then "PASS" else "FAIL"
