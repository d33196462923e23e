open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist
module Registry = Bi_constructions.Registry

(* The canonical bytes are written in place into one growable buffer:
   digits go straight to their final position, and {!game} hashes the
   bytes without first copying them into a string. *)
type out = { mutable bytes : Bytes.t; mutable len : int }

let reserve o k =
  if o.len + k > Bytes.length o.bytes then begin
    let bytes = Bytes.create (max (2 * Bytes.length o.bytes) (o.len + k)) in
    Bytes.blit o.bytes 0 bytes 0 o.len;
    o.bytes <- bytes
  end

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

let add_string o s =
  let k = String.length s in
  reserve o k;
  Bytes.unsafe_blit_string s 0 o.bytes o.len k;
  o.len <- o.len + k

(* Writes the bytes of [string_of_int i] at [pos] of [b], which has
   room for them (at most 20), and returns the position after them.
   The digits of [-|i|] (never overflows, so [min_int] needs no special
   case) are counted, then written last to first. *)
let put_int b pos i =
  let v = if i < 0 then i else -i in
  let rec count v k = if v > -10 then k else count (v / 10) (k + 1) in
  let digits = count v 1 in
  let pos =
    if i < 0 then begin
      Bytes.unsafe_set b pos '-';
      pos + 1
    end
    else pos
  in
  let v = ref v in
  for p = pos + digits - 1 downto pos do
    Bytes.unsafe_set b p (Char.unsafe_chr (48 - (!v mod 10)));
    v := !v / 10
  done;
  pos + digits

let add_int o i =
  reserve o 20;
  o.len <- put_int o.bytes o.len i

let add_bigint o b =
  match Bigint.to_int_opt b with
  | Some i -> add_int o i
  | None -> add_string o (Bigint.to_string b)

(* The bytes of [Rat.to_string r]. *)
let add_rat o r =
  add_bigint o (Rat.num r);
  if not (Bigint.equal (Rat.den r) Bigint.one) then begin
    add_char o '/';
    add_bigint o (Rat.den r)
  end

(* Costs [num.(a)/den.(a)] and [num.(b)/den.(b)], reduced and
   non-negative, ordered as [Rat.compare] orders them: by the
   cross-products when all four parts are below 2^31, so neither
   product overflows, and as rationals otherwise. *)
let compare_int_costs num den a b =
  let p = num.(a) and q = den.(a) and r = num.(b) and s = den.(b) in
  if q = s then Int.compare p r
  else if p lor q lor r lor s < 1 lsl 31 then Int.compare (p * s) (r * q)
  else Rat.compare (Rat.of_ints p q) (Rat.of_ints r s)

(* The ids of [from] stably sorted by [key.(id)], a value below [1 lsl
   bits]: an LSD radix sort, [width] bits (at most 8: 256 buckets in
   [start], a minor-heap array) per counting pass, that moves the ids
   between [from] and [into] (of the same length) and returns whichever
   of the two holds the result.  Small games take one pass with as few
   buckets as they have vertices; the cost never follows the size of
   the vertex count itself. *)
let rec radix_sort key ~bits ~width ~shift start from into =
  if shift >= bits then from
  else begin
    let mask = (1 lsl width) - 1 in
    Array.fill start 0 (mask + 1) 0;
    for i = 0 to Array.length from - 1 do
      let d = (key.(from.(i)) lsr shift) land mask in
      start.(d) <- start.(d) + 1
    done;
    let total = ref 0 in
    for d = 0 to mask do
      let count = start.(d) in
      start.(d) <- !total;
      total := !total + count
    done;
    for i = 0 to Array.length from - 1 do
      let id = from.(i) in
      let d = (key.(id) lsr shift) land mask in
      into.(start.(d)) <- id;
      start.(d) <- start.(d) + 1
    done;
    radix_sort key ~bits ~width ~shift:(shift + width) start into from
  end

(* Canonicalization invariants, in order of appearance:
   - the header pins the description-format version and the graph kind;
   - undirected edge endpoints are written smaller-first (an undirected
     edge is an unordered pair);
   - edges are sorted by (src, dst, cost), so insertion order and the
     dense edge ids it induces vanish; duplicate triples are kept — the
     multigraph multiplicity is semantic;
   - rationals print in the canonical reduced num/den form [Rat] already
     maintains, so unreduced inputs normalize to the same bytes;
   - prior support entries are sorted by their rendered pair profiles
     ([Dist.make] has already merged duplicates and normalized weights
     to sum to one, erasing both insertion order and weight scaling).
   Everything is read from the graph's edge store, so fingerprinting
   never derives its edge records, adjacency or (from machine-integer
   costs) rationals; costs are compared only between parallel edges. *)
let render graph ~prior =
  let int_costs = Graph.int_costs graph in
  let compare_costs =
    match int_costs with
    | Some (num, den) -> compare_int_costs num den
    | None -> fun a b -> Rat.compare (Graph.cost graph a) (Graph.cost graph b)
  in
  let directed = Graph.is_directed graph in
  let n = Graph.n_vertices graph and m = Graph.n_edges graph in
  let o = { bytes = Bytes.create (64 + (24 * m)); len = 0 } in
  add_string o (if directed then "bi-ncs-v1 directed " else "bi-ncs-v1 undirected ");
  add_int o n;
  add_char o '\n';
  let src = Array.make m 0 and dst = Array.make m 0 in
  for id = 0 to m - 1 do
    let s = Graph.edge_src graph id and d = Graph.edge_dst graph id in
    let swap = (not directed) && s > d in
    src.(id) <- (if swap then d else s);
    dst.(id) <- (if swap then s else d)
  done;
  (* A radix sort on the integer key [src * n + dst] (sorted by [dst],
     then stably by [src], so the key is never formed and cannot
     overflow); then each run of parallel edges is ordered by cost. *)
  let rec bit_length v = if v = 0 then 0 else 1 + bit_length (v lsr 1) in
  let bits = max 1 (bit_length (max 0 (n - 1))) in
  let width = min 8 bits in
  let start = Array.make (1 lsl width) 0 in
  let ids = Array.make m 0 and spare = Array.make m 0 in
  for id = 0 to m - 1 do
    ids.(id) <- id
  done;
  let by_dst = radix_sort dst ~bits ~width ~shift:0 start ids spare in
  let order =
    radix_sort src ~bits ~width ~shift:0 start by_dst
      (if by_dst == ids then spare else ids)
  in
  let i = ref 0 in
  while !i < m do
    let a = order.(!i) in
    let j = ref (!i + 1) in
    while !j < m && src.(order.(!j)) = src.(a) && dst.(order.(!j)) = dst.(a) do
      incr j
    done;
    if !j - !i > 1 then begin
      let run = Array.sub order !i (!j - !i) in
      Array.stable_sort compare_costs run;
      Array.blit run 0 order !i (!j - !i)
    end;
    i := !j
  done;
  for i = 0 to m - 1 do
    let id = order.(i) in
    (* "e <src> <dst> <num>/<den>\n": one reservation for a line of
       four machine integers of at most 20 bytes each (a [Rat] cost
       reserves its own room) *)
    reserve o 88;
    let b = o.bytes in
    Bytes.unsafe_set b o.len 'e';
    Bytes.unsafe_set b (o.len + 1) ' ';
    let p = put_int b (o.len + 2) src.(id) in
    Bytes.unsafe_set b p ' ';
    let p = put_int b (p + 1) dst.(id) in
    Bytes.unsafe_set b p ' ';
    match int_costs with
    | Some (num, den) ->
      let p = put_int b (p + 1) num.(id) in
      let p =
        if den.(id) = 1 then p
        else begin
          Bytes.unsafe_set b p '/';
          put_int b (p + 1) den.(id)
        end
      in
      Bytes.unsafe_set b p '\n';
      o.len <- p + 1
    | None ->
      o.len <- p + 1;
      add_rat o (Graph.cost graph id);
      add_char o '\n'
  done;
  let profile = { bytes = Bytes.create 32; len = 0 } in
  let entries =
    List.map
      (fun (pairs, w) ->
        profile.len <- 0;
        Array.iteri
          (fun i (x, y) ->
            if i > 0 then add_char profile ' ';
            add_int profile x;
            add_char profile ':';
            add_int profile y)
          pairs;
        (Bytes.sub_string profile.bytes 0 profile.len, w))
      (Dist.to_list prior)
  in
  let entries = List.sort (fun (p1, _) (p2, _) -> String.compare p1 p2) entries in
  List.iter
    (fun (profile, w) ->
      add_string o "t ";
      add_string o profile;
      add_string o " w ";
      add_rat o w;
      add_char o '\n')
    entries;
  o

let description graph ~prior =
  let o = render graph ~prior in
  Bytes.sub_string o.bytes 0 o.len

let digest_hex s = Digest.to_hex (Digest.string s)

let game graph ~prior =
  let o = render graph ~prior in
  Digest.to_hex (Digest.subbytes o.bytes 0 o.len)

let of_game g =
  game (Bi_ncs.Bayesian_ncs.graph g) ~prior:(Bi_ncs.Bayesian_ncs.prior g)

(* The paper's constructions are pure functions of [(name, k)], so each
   one's fingerprint — or the builder's refusal — is computed once per
   process and a cache hit never builds the game.  One slot per
   registered name and wire-valid [k]; other arguments are answered
   without memoising, so the table never grows.  A race only computes
   the same immutable answer twice. *)
let construction_slots =
  Array.init
    (List.length Registry.names * Registry.max_k)
    (fun _ -> Atomic.make None)

let of_construction name k =
  let compute () = Result.map of_game (Registry.build name k) in
  match List.find_index (String.equal name) Registry.names with
  | Some i when k >= 1 && k <= Registry.max_k -> (
    let slot = construction_slots.((i * Registry.max_k) + k - 1) in
    match Atomic.get slot with
    | Some r -> r
    | None ->
      let r = compute () in
      Atomic.set slot (Some r);
      r)
  | _ -> compute ()

let with_mode fp ~mode =
  if mode = "" || mode = "exhaustive" then fp else fp ^ "+" ^ mode

let with_concept fp ~concept =
  if concept = "" || concept = "nash" then fp else fp ^ "+" ^ concept
