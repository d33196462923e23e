(* Answer checks applied to every response the program sends back. *)

module Sink = Bi_engine.Sink
module Rat = Bi_num.Rat

let fresh_marker = {|"cached":false|}
let hit_marker = {|"cached":true|}

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go 0

(* A hit must be byte-identical to the fill answer apart from the flag:
   [expected_hit fill] is the fill line with its one [cached:false]
   turned into [cached:true]. *)
let expected_hit fill =
  match find_sub fill fresh_marker with
  | None -> None
  | Some i ->
    let k = String.length fresh_marker in
    Some
      (String.sub fill 0 i ^ hit_marker
      ^ String.sub fill (i + k) (String.length fill - i - k))

let is_fresh_ok line =
  match Sink.of_string line with
  | Ok j ->
    Sink.member "ok" j = Some (Sink.Bool true)
    && Sink.member "cached" j = Some (Sink.Bool false)
  | Error _ -> false

(* --- cost scaling --------------------------------------------------- *)

(* Multiplying every edge cost by m multiplies every cost-valued field
   of an answer by m and leaves the combinatorial fields alone.  Fields
   are classified by their path inside the tier's payload member.  LP
   pivot counts and the primal/dual certificate vectors depend on the
   pivot path, which moves with m, so they are work, not answer. *)
type field = Cost | Same | Skip

let classify tier path =
  match (tier, path) with
  | Games.Exhaustive, "report" :: _ -> Cost
  | Games.Certified, [ _; ("lo" | "hi") ] -> Cost
  | Games.Correlated, [ ("best" | "worst" | "pub_best" | "pub_worst") ] -> Cost
  | Games.Correlated, [ "certificates"; _; "objective" ] -> Cost
  | Games.Correlated, "pivots" :: _ -> Skip
  | Games.Correlated, "certificates" :: _ :: ("x" | "y") :: _ -> Skip
  | _ -> Same

let payload_member = function
  | Games.Exhaustive -> "analysis"
  | Games.Certified -> "certified"
  | Games.Correlated -> "correlated"

(* The (path, leaf) pairs that make up the answer, cost fields scaled. *)
let leaves tier ~m json =
  let scale = function
    | Sink.Str "inf" as v -> Ok v
    | Sink.Str s -> (
      match Bi_cache.Codec.rat_of_string s with
      | Ok r -> Ok (Sink.Str (Rat.to_string (Rat.mul (Rat.of_int m) r)))
      | Error e -> Error e)
    | v -> Error ("non-rational cost field " ^ Sink.to_string v)
  in
  let acc = ref [] and bad = ref None in
  let rec walk rev_path = function
    | Sink.Obj fields ->
      List.iter (fun (k, v) -> walk (k :: rev_path) v) fields
    | Sink.List items ->
      List.iteri (fun i v -> walk (string_of_int i :: rev_path) v) items
    | leaf -> (
      let path = List.rev rev_path in
      match classify tier path with
      | Skip -> ()
      | Same -> acc := (path, leaf) :: !acc
      | Cost -> (
        match scale leaf with
        | Ok v -> acc := (path, v) :: !acc
        | Error e -> bad := Some (String.concat "." path ^ ": " ^ e)))
  in
  walk [] json;
  match !bad with Some e -> Error e | None -> Ok (List.rev !acc)

let payload tier line =
  match Sink.of_string line with
  | Error e -> Error ("malformed response: " ^ e)
  | Ok j -> (
    match Sink.member (payload_member tier) j with
    | Some p -> Ok (j, p)
    | None -> Error ("no " ^ payload_member tier ^ " member"))

(* [scaled tier ~base ~m line]: [line] answers the game whose answer
   payload is [base] with every cost multiplied by [m]. *)
let scaled tier ~base ~m line =
  match payload tier line with
  | Error e -> Error e
  | Ok (j, p) -> (
    if Sink.member "cached" j <> Some (Sink.Bool false) then
      Error "a never-seen game answered from cache"
    else
      match (leaves tier ~m base, leaves tier ~m:1 p) with
      | Error e, _ | _, Error e -> Error e
      | Ok want, Ok got ->
        if want = got then Ok ()
        else
          let rec first = function
            | (path, w) :: ws, (_, g) :: gs ->
              if w = g then first (ws, gs)
              else
                Error
                  (Printf.sprintf "%s: want %s, got %s" (String.concat "." path)
                     (Sink.to_string w) (Sink.to_string g))
            | _ -> Error "answer shape differs"
          in
          first (want, got))
