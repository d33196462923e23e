let names = [ "anshelevich"; "gworst-bliss"; "gworst-curse"; "affine"; "diamond" ]
let max_k = 32

let describe =
  "anshelevich (K = k), gworst-bliss, gworst-curse (K = k), affine (K = prime \
   order), diamond (K = level)"

let build name k =
  match
    match name with
    | "anshelevich" -> Some (fun () -> Anshelevich_game.game k)
    | "gworst-bliss" -> Some (fun () -> Gworst_game.bliss_game k)
    | "gworst-curse" -> Some (fun () -> Gworst_game.curse_game k)
    | "affine" -> Some (fun () -> Affine_game.game k)
    | "diamond" -> Some (fun () -> snd (Diamond_game.game k))
    | _ -> None
  with
  | None ->
    Error
      (Printf.sprintf "unknown construction %S (try: %s)" name
         (String.concat ", " names))
  | Some builder -> (
    match builder () with
    | game -> Ok game
    | exception Invalid_argument msg -> Error msg)
