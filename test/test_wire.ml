(* Wire-format pins for the read path.

   - Golden fingerprints: the MD5 hex of the canonical [bi-ncs-v1]
     description is also the on-disk store key, so a renderer change
     that moved a single byte would silently re-key every store.  The
     values below were produced by the string/Printf renderer the
     current one replaced; they must never change.  That renderer is
     kept below too, as the oracle of a differential on random games.
   - Parser differential: [Sink.of_string] against the reference
     parser it replaced (kept verbatim below), on random JSON values,
     their byte mutations and truncations, and hand-picked edge cases —
     same [Ok] value or the same [Error] string, byte for byte.
   - [Codec.rat_of_string] against its Bigint-only reference.
   - Invalid inline games: the wire errors pinned byte for byte, and
     the parser's edge decoding against [Graph.make] on any edge list. *)

open Bi_num
module Sink = Bi_engine.Sink
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist
module Registry = Bi_constructions.Registry
module Fingerprint = Bi_cache.Fingerprint
module Codec = Bi_cache.Codec

(* --- golden fingerprints ---------------------------------------------- *)

(* Every construction that builds at k = 2..4. *)
let golden_constructions =
  [
    ("anshelevich", 2, "47feed0829f41cb14d9f5fb7087bba97");
    ("anshelevich", 3, "f571b1173778aa34bd03406849dff854");
    ("anshelevich", 4, "4edd5d3559893a6e5ecc8fecec825f49");
    ("gworst-bliss", 2, "bc50b2156f47a22522bf2bda2b36d25c");
    ("gworst-bliss", 3, "16e6f055051dd3909b0bd015293bd665");
    ("gworst-bliss", 4, "d2047391012dc243204dec80c0c4c9a6");
    ("gworst-curse", 2, "d5bc03b8b12c553d0cbf89282e2f917c");
    ("gworst-curse", 3, "7d7e13a2160376a48dfc21fb6d3a92b6");
    ("gworst-curse", 4, "12e45d8ce00820337042ec564e3a71ff");
    ("affine", 2, "8c998463cb4310ccbaa638e602af9956");
    ("affine", 3, "09f708895ced4299b7284843106d1c2b");
    ("diamond", 2, "62950182871c7ba886044d04723f2cbe");
  ]

(* A self-contained 48-bit LCG, so the pinned games never depend on the
   stdlib's [Random] implementation. *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    (!s lsr 17) mod bound

(* Seeded inline games: directed (even seeds) and undirected, fractional
   and unreduced costs, zero costs, two parallel copies of the first
   edge (one reversed, one dearer), 1-3 players and 1-3 prior entries
   with fractional weights. *)
let inline_game seed =
  let next = lcg seed in
  let kind = if seed mod 2 = 0 then Graph.Directed else Graph.Undirected in
  let n = 2 + next 6 in
  let edge () =
    let s = next n in
    (s, (s + 1 + next (n - 1)) mod n, Rat.of_ints (next 12) (1 + next 4))
  in
  let edges = List.init (1 + next 9) (fun _ -> edge ()) in
  let s0, d0, c0 = List.hd edges in
  let edges = edges @ [ (d0, s0, c0); (s0, d0, Rat.add c0 Rat.one) ] in
  let players = 1 + next 3 in
  let entry () =
    ( Array.init players (fun _ -> (next n, next n)),
      Rat.of_ints (1 + next 5) (1 + next 3) )
  in
  (Graph.make kind ~n edges, Dist.make (List.init (1 + next 3) (fun _ -> entry ())))

let golden_inline =
  [
    (1, "f84d57a8235d845ae8529c6f15d2d844");
    (2, "3229353d7b634e4ad9208464ed51137d");
    (3, "eb7ed89bc66efb7d10a4a8693295961f");
    (4, "9a840e104c2b569eaf7ab23690e0e438");
    (5, "0034fe5df6640273f3e2d05da7bf4931");
    (6, "3ab508d2be89769ab5ad41642c5f500f");
    (7, "c85daa028635fc75e968015ad84593e8");
    (8, "c0e28f4ea2b1e340543c9a403e61a051");
    (9, "7fba9aa0adbca884b7269576b0a60312");
    (10, "52ac27c42faedc934fbc45da87b3b28e");
    (11, "d81527e2b10f1b73f1b17f35a2dd8e46");
    (12, "47bd7a4f7fe89b1a3bc22049455d8ae0");
    (13, "e05f38fb479512bc6c3f8db7e7c976b7");
    (14, "b3b599d809774c5bf46f1f76e02a6f96");
    (15, "c16d0e75a58d70fb358c146e1912219d");
    (16, "fa6d55de2f2b2c504f77efb99394f177");
    (17, "008cd2e8e109a1eeeed5018706d06746");
    (18, "c0bea81ac5f1443720f1c536cebcd90f");
    (19, "223b9544873d4d539e8d8fb02e4780dd");
    (20, "a6678421e3eb86f9d5955d9f6c069c13");
    (21, "b7505589c24d2532baf18f345ab2f6d9");
    (22, "fdc431acfc21ce0cde48bb86b3941497");
    (23, "b2c2591c1f0e6397662740b1344e5aff");
    (24, "9ad7a396e4c62f81b32b5d18b5846ad4");
  ]

(* One small game pinned in full: reversed undirected endpoints, three
   parallel 0-1 edges, an unreduced fraction, a zero cost (one a
   negative zero on a self-loop), costs past the machine-word tier
   (an integer and a fraction), a negative type vertex, and a
   duplicated prior outcome that [Dist.make] merges. *)
let small_game () =
  let big =
    Rat.make (Bigint.of_string "1000000000000000000000000000000") (Bigint.of_int 7)
  in
  ( Graph.make Graph.Undirected ~n:4
      [
        (2, 0, Rat.of_ints 6 4); (0, 1, Rat.one); (1, 0, Rat.of_ints 1 2);
        (1, 2, Rat.zero); (3, 2, big); (0, 1, Rat.one);
        (3, 3, Rat.of_bigint (Bigint.of_string "-0"));
        (2, 3, Rat.of_bigint (Bigint.of_string "99999999999999999999"));
      ],
    Dist.make
      [
        ([| (0, 2); (1, 3) |], Rat.of_int 3);
        ([| (3, 1); (-1, 10) |], Rat.one);
        ([| (0, 2); (1, 3) |], Rat.of_ints 1 2);
      ] )

let small_game_description =
  "bi-ncs-v1 undirected 4\n\
   e 0 1 1/2\n\
   e 0 1 1\n\
   e 0 1 1\n\
   e 0 2 3/2\n\
   e 1 2 0\n\
   e 2 3 99999999999999999999\n\
   e 2 3 1000000000000000000000000000000/7\n\
   e 3 3 0\n\
   t 0:2 1:3 w 7/9\n\
   t 3:1 -1:10 w 2/9\n"

let test_golden_constructions () =
  let built =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun k ->
            match Registry.build name k with
            | Ok g -> Some (name, k, Fingerprint.of_game g)
            | Error _ -> None)
          [ 2; 3; 4 ])
      Registry.names
  in
  Alcotest.(check (list (triple string int string)))
    "construction fingerprints" golden_constructions built

let test_golden_inline () =
  List.iter
    (fun (seed, expected) ->
      let graph, prior = inline_game seed in
      Alcotest.(check string)
        (Printf.sprintf "inline game %d" seed)
        expected
        (Fingerprint.game graph ~prior))
    golden_inline

let test_golden_description () =
  let graph, prior = small_game () in
  Alcotest.(check string) "bi-ncs-v1 text" small_game_description
    (Fingerprint.description graph ~prior);
  Alcotest.(check string) "fingerprint is the md5 of the text"
    (Digest.to_hex (Digest.string small_game_description))
    (Fingerprint.game graph ~prior);
  (* The degenerate ends of the vertex range: no vertices at all, and a
     vertex count far beyond the edges' endpoints. *)
  let prior = Dist.make [ ([| (0, 0) |], Rat.one) ] in
  Alcotest.(check string) "empty graph" "bi-ncs-v1 directed 0\nt 0:0 w 1\n"
    (Fingerprint.description (Graph.make Graph.Directed ~n:0 []) ~prior);
  Alcotest.(check string) "sparse graph"
    "bi-ncs-v1 undirected 100000\ne 7 99999 2\ne 300 70000 1\nt 0:0 w 1\n"
    (Fingerprint.description
       (Graph.make Graph.Undirected ~n:100_000
          [ (70_000, 300, Rat.one); (99_999, 7, Rat.two) ])
       ~prior)

(* The tuple-sorting, Printf-rendering description the current renderer
   replaced, kept verbatim as the oracle for random games the golden
   list cannot cover (vertex counts that need several radix passes,
   long runs of parallel edges, costs on both arithmetic tiers). *)
let reference_description graph ~prior =
  let buf = Buffer.create 256 in
  let directed = Graph.is_directed graph in
  Buffer.add_string buf "bi-ncs-v1 ";
  Buffer.add_string buf (if directed then "directed " else "undirected ");
  Buffer.add_string buf (string_of_int (Graph.n_vertices graph));
  Buffer.add_char buf '\n';
  let edges =
    List.map
      (fun e ->
        if directed || e.Graph.src <= e.Graph.dst then
          (e.Graph.src, e.Graph.dst, e.Graph.cost)
        else (e.Graph.dst, e.Graph.src, e.Graph.cost))
      (Graph.edges graph)
  in
  let edges =
    List.sort
      (fun (s1, d1, c1) (s2, d2, c2) ->
        match Int.compare s1 s2 with
        | 0 -> ( match Int.compare d1 d2 with 0 -> Rat.compare c1 c2 | c -> c)
        | c -> c)
      edges
  in
  List.iter
    (fun (s, d, c) ->
      Buffer.add_string buf (Printf.sprintf "e %d %d %s\n" s d (Rat.to_string c)))
    edges;
  let entries =
    List.map
      (fun (pairs, w) ->
        let profile =
          String.concat " "
            (List.map
               (fun (x, y) -> Printf.sprintf "%d:%d" x y)
               (Array.to_list pairs))
        in
        (profile, w))
      (Dist.to_list prior)
  in
  let entries = List.sort (fun (p1, _) (p2, _) -> String.compare p1 p2) entries in
  List.iter
    (fun (profile, w) ->
      Buffer.add_string buf
        (Printf.sprintf "t %s w %s\n" profile (Rat.to_string w)))
    entries;
  Buffer.contents buf

let gen_cost =
  QCheck2.Gen.(
    oneof
      [
        map2 Rat.of_ints (int_range 0 20) (int_range 1 6);
        map (fun e -> Rat.pow (Rat.of_ints 7 3) e) (int_range 0 60);
        pure Rat.zero;
      ])

let gen_game =
  QCheck2.Gen.(
    let* n = oneof [ int_range 1 8; int_range 200 300; int_range 60_000 70_000 ] in
    let* directed = bool in
    let vertex = int_range 0 (n - 1) in
    let* edges = list_size (int_range 0 40) (triple vertex vertex gen_cost) in
    (* Up to eight more edges between the first edge's endpoints (some
       reversed): long runs of parallel edges. *)
    let* copies = list_size (int_range 0 8) (pair (int_bound 3) gen_cost) in
    let edges =
      match edges with
      | (s, d, _) :: _ ->
        edges
        @ List.map (fun (i, c) -> if i = 0 then (d, s, c) else (s, d, c)) copies
      | [] -> edges
    in
    let* entries =
      list_size (int_range 1 3)
        (pair
           (array_size (int_range 1 3) (pair (int_range (-2) (n - 1)) vertex))
           (map Rat.of_int (int_range 1 5)))
    in
    let kind = if directed then Graph.Directed else Graph.Undirected in
    return (Graph.make kind ~n edges, Dist.make entries))

let renderer_law =
  QCheck2.Test.make ~name:"renderer = reference on random games" ~count:500
    ~print:(fun (graph, prior) -> reference_description graph ~prior)
    gen_game
    (fun (graph, prior) ->
      String.equal (Fingerprint.description graph ~prior)
        (reference_description graph ~prior))

(* --- reference parser ---------------------------------------------------

   The option-per-character recursive-descent parser [Sink.of_string]
   replaced, kept verbatim as the oracle: the scanner must accept the
   same language and return the same values and error strings. *)

module Reference = struct
  open Sink

  exception Parse_error of string

  let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt
  let max_depth = 512

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> parse_error "expected %C at offset %d, got %C" c !pos c'
      | None -> parse_error "expected %C, got end of input" c
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else parse_error "invalid literal at offset %d" !pos
    in
    let utf8_of_code buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then parse_error "truncated \\u escape at offset %d" !pos;
      let v =
        match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
        | Some v -> v
        | None -> parse_error "invalid \\u escape at offset %d" !pos
      in
      pos := !pos + 4;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then parse_error "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (match peek () with
          | None -> parse_error "unterminated escape"
          | Some e -> (
            advance ();
            match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' -> utf8_of_code buf (hex4 ())
            | e -> parse_error "unknown escape \\%c" e));
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numeric = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> numeric c | None -> false) do
        advance ()
      done;
      if !pos = start then parse_error "unexpected character at offset %d" start;
      let tok = String.sub s start (!pos - start) in
      let fractional = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
      match (if fractional then None else int_of_string_opt tok) with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> parse_error "invalid number %S at offset %d" tok start)
    in
    let rec parse_value depth =
      if depth > max_depth then
        parse_error "nesting deeper than %d at offset %d" max_depth !pos;
      skip_ws ();
      match peek () with
      | None -> parse_error "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List (List.rev (v :: acc))
            | _ -> parse_error "expected ',' or ']' at offset %d" !pos
          in
          items []
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields (kv :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev (kv :: acc))
            | _ -> parse_error "expected ',' or '}' at offset %d" !pos
          in
          fields []
        end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then parse_error "trailing bytes at offset %d" !pos;
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg
end

(* Same verdict: equal values (polymorphic [compare], so float payloads
   compare by value) or byte-identical error strings. *)
let same_verdict s =
  match (Sink.of_string s, Reference.of_string s) with
  | Ok a, Ok b -> compare a b = 0
  | Error a, Error b -> String.equal a b
  | _ -> false

let show_verdict = function
  | Ok j -> "Ok " ^ Sink.to_string j
  | Error e -> "Error " ^ e

let check_same s =
  if not (same_verdict s) then
    Alcotest.failf "parser mismatch on %S: scanner %s, reference %s" s
      (show_verdict (Sink.of_string s))
      (show_verdict (Reference.of_string s))

(* --- generators -------------------------------------------------------- *)

(* Bytes that steer the scanner into every branch: structure, escapes,
   literal prefixes, number alphabet, whitespace, hex digits and
   underscores (which [int_of_string] accepts inside \u escapes). *)
let interesting = "{}[],:\"\\/ntrfbu0123456789-+.eE \t\r\nxX_aF\000\127\255"

let gen_interesting_char =
  QCheck2.Gen.(
    frequency
      [ (4, map (String.get interesting) (int_bound (String.length interesting - 1)));
        (1, char) ])

let gen_key = QCheck2.Gen.(string_size ~gen:gen_interesting_char (int_bound 6))

let gen_int =
  QCheck2.Gen.(
    oneof
      [ small_signed_int; int; pure max_int; pure min_int; pure 0;
        map (fun i -> i * 1_000_000_007) small_signed_int ])

let gen_float =
  QCheck2.Gen.(
    oneof [ float; map float_of_int small_signed_int; pure 0.5; pure (-1e-300) ])

let gen_json =
  QCheck2.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 pure Sink.Null; map (fun b -> Sink.Bool b) bool;
                 map (fun i -> Sink.Int i) gen_int;
                 map (fun f -> Sink.Float f) gen_float;
                 map (fun s -> Sink.Str s)
                   (string_size ~gen:gen_interesting_char (int_bound 12));
                 map (fun s -> Sink.Str s) (string_size ~gen:printable (int_bound 12));
               ]
           in
           if depth <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun l -> Sink.List l) (list_size (int_bound 4) (self (depth - 1))));
                 ( 1,
                   map
                     (fun l -> Sink.Obj l)
                     (list_size (int_bound 4) (pair gen_key (self (depth - 1)))) );
               ]))

(* Renders a value with random whitespace between tokens, so the
   scanner's whitespace skipping is exercised, not just compact text. *)
let gen_spaced_text =
  QCheck2.Gen.(
    map2
      (fun j seed ->
        let next = lcg seed in
        let compact = Sink.to_string j in
        let buf = Buffer.create (String.length compact * 2) in
        let in_string = ref false and escaped = ref false in
        String.iter
          (fun c ->
            if (not !in_string) && next 4 = 0 then
              Buffer.add_char buf (String.get " \t\r\n" (next 4));
            Buffer.add_char buf c;
            if !in_string then begin
              if !escaped then escaped := false
              else if c = '\\' then escaped := true
              else if c = '"' then in_string := false
            end
            else if c = '"' then in_string := true)
          compact;
        Buffer.contents buf)
      gen_json nat)

type edit = Replace of int * char | Insert of int * char | Delete of int | Truncate of int

let apply_edit s = function
  | _ when s = "" -> s
  | Replace (i, c) ->
    let b = Bytes.of_string s in
    Bytes.set b (i mod String.length s) c;
    Bytes.to_string b
  | Insert (i, c) ->
    let i = i mod (String.length s + 1) in
    String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)
  | Delete i ->
    let i = i mod String.length s in
    String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
  | Truncate i -> String.sub s 0 (i mod String.length s)

let gen_edit =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun i c -> Replace (i, c)) nat gen_interesting_char;
        map2 (fun i c -> Insert (i, c)) nat gen_interesting_char;
        map (fun i -> Delete i) nat;
        map (fun i -> Truncate i) nat;
      ])

let gen_mutated =
  QCheck2.Gen.(
    map2 (List.fold_left apply_edit) gen_spaced_text (list_size (1 -- 3) gen_edit))

let gen_garbage = QCheck2.Gen.(string_size ~gen:gen_interesting_char (int_bound 24))

let parser_law name count gen =
  QCheck2.Test.make ~name ~count ~print:(Printf.sprintf "%S") gen same_verdict

let parser_laws =
  [
    parser_law "scanner = reference on rendered values" 1500 gen_spaced_text;
    parser_law "scanner = reference on mutations and truncations" 3000 gen_mutated;
    parser_law "scanner = reference on garbage" 3000 gen_garbage;
  ]

let test_parser_edge_cases () =
  let nest d = String.make d '[' ^ String.make d ']' in
  List.iter check_same
    [
      (* depth cap: 512 nested levels parse, 513 do not *)
      nest 512; nest 513; nest 600; "[" ^ nest 512 ^ "]";
      String.make 10_000 '['; "{\"a\":" ^ nest 512 ^ "}";
      (* \u escapes, including what int_of_string tolerates *)
      {|"\u1_23"|}; {|"\u_123"|}; {|"\u12_"|}; {|"é€"|}; {|"\u12"|};
      {|"\u12G4"|}; {|"\u-123"|}; {|"\u+123"|}; {|"\u0x12"|}; {|"\u"|}; {|"\|};
      {|"\q"|}; {|"abc|}; {|"a\"b\\c\/d\b\f\n\r\t"|};
      (* numbers: integers past max_int fall back to Float *)
      "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
      "-4611686018427387905"; "99999999999999999999"; "-99999999999999999999";
      "+5"; "0012"; "-0"; "-"; "+"; "--1"; "+-1"; "1-2"; "1e5"; "1E+2"; ".5";
      "5."; "1.2.3"; "1e"; "0x10"; "1_000"; "00"; "-012";
      (* literals, structure, trailing bytes *)
      "null"; "nul"; "true"; "tru"; "false"; "fals"; "nullx"; "1 2"; "{} x";
      "[1,]"; "[,1]"; "[1 2]"; "{\"a\" 1}"; "{\"a\":1,}"; "{a:1}"; "{\"a\":}";
      "{\"a\":1 \"b\":2}"; "[]"; "{}"; " [ ] "; ""; "   "; "]"; "}"; ":";
      "{\"k\":1,\"k\":2}"; "\"\000\n\"";
    ]

let test_parser_pinned_values () =
  let ok s expected =
    match Sink.of_string s with
    | Ok j -> Alcotest.(check string) s expected (Sink.to_string j)
    | Error e -> Alcotest.failf "%S: unexpected error %s" s e
  in
  ok "+5" "5";
  ok "0012" "12";
  ok {|"\u1_23"|} "\"\xc4\xa3\"";
  ok "-4611686018427387904" "-4611686018427387904";
  ok "4611686018427387904" "4.61168601843e+18";
  let err s expected =
    match Sink.of_string s with
    | Ok j -> Alcotest.failf "%S: unexpected value %s" s (Sink.to_string j)
    | Error e -> Alcotest.(check string) s expected e
  in
  err "-" {|invalid number "-" at offset 0|};
  err "1 2" "trailing bytes at offset 2";
  err (String.make 600 '[') "nesting deeper than 512 at offset 513"

(* --- Codec.rat_of_string ------------------------------------------------ *)

let reference_rat_of_string s =
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match String.index_opt s '/' with
  | None -> (
    match Bigint.of_string s with
    | n -> Ok (Rat.of_bigint n)
    | exception Invalid_argument _ -> error "invalid rational %S" s)
  | Some i -> (
    let num = String.sub s 0 i in
    let den = String.sub s (i + 1) (String.length s - i - 1) in
    match (Bigint.of_string num, Bigint.of_string den) with
    | n, d when not (Bigint.is_zero d) -> Ok (Rat.make n d)
    | _ -> error "invalid rational %S (zero denominator)" s
    | exception Invalid_argument _ -> error "invalid rational %S" s)

let same_rat s =
  match (Codec.rat_of_string s, reference_rat_of_string s) with
  | Ok a, Ok b -> Rat.equal a b && Rat.to_string a = Rat.to_string b && a = b
  | Error a, Error b -> String.equal a b
  | _ -> false

let gen_rat_text =
  QCheck2.Gen.(
    oneof
      [
        map string_of_int gen_int;
        map2 (fun a b -> string_of_int a ^ "/" ^ string_of_int b) gen_int gen_int;
        map2
          (fun a b -> Printf.sprintf "%d/%d" a b)
          small_signed_int small_signed_int;
        string_size ~gen:(oneofl [ '0'; '1'; '9'; '-'; '/'; '+'; ' '; 'x' ]) (int_bound 22);
        map (fun n -> String.make n '9') (int_bound 40);
      ])

let rat_law =
  QCheck2.Test.make ~name:"rat_of_string = Bigint reference" ~count:3000
    ~print:(Printf.sprintf "%S") gen_rat_text same_rat

(* --- invalid inline games ------------------------------------------------

   The edges of an inline game are decoded straight into the graph's
   store and checked once the whole description has decoded.  The wire
   error of an invalid game must not move by a byte: a malformed field
   anywhere still wins over an invalid edge, [Dist.make] still wins over
   [Graph.make], and among invalid edges the first one wins. *)

module Protocol = Bi_serve.Protocol

let wire_response line =
  match Protocol.parse_request line with
  | Ok _ -> "ok"
  | Error e -> Sink.to_string (Protocol.error e)

let analyze_line ?(kind = "directed") ?(n = "3")
    ?(prior = {|[{"types":[[0,1]],"weight":"1"}]|}) edges =
  Printf.sprintf
    {|{"op":"analyze","game":{"kind":"%s","n":%s,"edges":[%s],"prior":%s}}|}
    kind n edges prior

let wire_error msg = Printf.sprintf {|{"ok":false,"code":"error","error":"analyze: %s"}|} msg
let graph_error msg = wire_error ("invalid game description: Graph.make: " ^ msg)

let test_invalid_game_errors () =
  List.iter
    (fun (label, line, expected) ->
      Alcotest.(check string) label expected (wire_response line))
    [
      ( "out-of-range vertex", analyze_line {|[0,5,"1"]|}, graph_error "vertex out of range" );
      ( "negative vertex",
        analyze_line ~kind:"undirected" {|[-1,0,"1"]|},
        graph_error "vertex out of range" );
      ("negative cost", analyze_line {|[0,1,"-1/2"]|}, graph_error "negative edge cost");
      ("negative n", analyze_line ~n:"-1" "", graph_error "negative vertex count");
      ( "negative n before any edge",
        analyze_line ~n:"-1" {|[0,5,"-1"]|},
        graph_error "negative vertex count" );
      ( "bad edge after a good one",
        analyze_line {|[0,1,"1"],[1,7,"2"],[0,1,"-1"]|},
        graph_error "vertex out of range" );
      ( "first bad edge wins",
        analyze_line {|[0,1,"1"],[0,1,"-1"],[1,7,"2"]|},
        graph_error "negative edge cost" );
      ( "malformed edge wins over an invalid one",
        analyze_line {|[0,9,"1"],[0,1]|},
        wire_error "edge must be [src, dst, cost], got [0,1]" );
      ( "malformed prior wins over an invalid edge",
        analyze_line ~prior:{|[{"types":[[0]],"weight":"1"}]|} {|[0,9,"1"]|},
        wire_error "type must be [source, destination], got [0]" );
      ( "invalid prior wins over an invalid edge",
        analyze_line ~prior:{|[{"types":[[0,1]],"weight":"-1"}]|} {|[0,9,"1"]|},
        wire_error "invalid game description: Dist.make: negative weight" );
      ( "zero denominator",
        analyze_line {|[0,1,"1/0"]|},
        wire_error {|invalid rational \"1/0\" (zero denominator)|} );
      ( "bad rational after a good edge",
        analyze_line {|[0,1,"1"],[0,9,"x"]|},
        wire_error {|invalid rational \"x\"|} );
    ]

(* Any edge list, valid or not: the store-decoding parser answers
   exactly as [Graph.make] on the same edges — the same fingerprint, or
   the same error. *)
let gen_edge_list =
  QCheck2.Gen.(
    pair (int_range (-1) 5)
      (list_size (int_range 0 8)
         (triple (int_range (-1) 5) (int_range (-1) 5) (int_range (-2) 9))))

let codec_law =
  QCheck2.Test.make ~name:"store decode = Graph.make on any edge list" ~count:1000
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; " (List.map (fun (s, d, c) -> Printf.sprintf "%d,%d,%d" s d c) edges)))
    gen_edge_list
    (fun (n, edges) ->
      let line =
        analyze_line ~n:(string_of_int n) ~prior:{|[{"types":[[0,0]],"weight":"1"}]|}
          (String.concat ","
             (List.map (fun (s, d, c) -> Printf.sprintf {|[%d,%d,"%d"]|} s d c) edges))
      in
      let prior = Dist.make [ ([| (0, 0) |], Rat.one) ] in
      let expected =
        match
          Graph.make Graph.Directed ~n (List.map (fun (s, d, c) -> (s, d, Rat.of_int c)) edges)
        with
        | graph -> Ok (Fingerprint.game graph ~prior)
        | exception Invalid_argument msg -> Error ("analyze: invalid game description: " ^ msg)
      in
      let actual =
        Result.map
          (function
            | { Protocol.query = Protocol.Analyze { graph; prior; _ }; _ } ->
              Fingerprint.game graph ~prior
            | _ -> "not an analyze query")
          (Protocol.parse_request line)
      in
      expected = actual)

(* --- the byte path ----------------------------------------------------

   Answers, store lines and replication puts are spliced from stored
   bytes; inline games and shard answers are read without building a
   tree.  Each is held to the tree rendering or the tree reading it
   replaced. *)

module Tier = Bi_serve.Tier
module Service = Bi_cache.Service
module Store = Bi_cache.Store
module Concept = Bi_correlated.Concept

(* The tree answer each tier rendered before answers were spliced. *)
let tree_response tier ~fingerprint ~cached value =
  match (tier, value) with
  | Tier.Exhaustive, Service.Analysis a -> Protocol.ok_analysis ~fingerprint ~cached a
  | Tier.Certified, Service.Payload p -> Protocol.ok_certified ~fingerprint ~cached p
  | Tier.Correlated concept, Service.Payload p ->
    Protocol.ok_correlated ~fingerprint ~cached ~concept p
  | _ -> invalid_arg "tree_response"

let tree_body = function
  | Service.Analysis a -> Codec.analysis_to_json a
  | Service.Payload p -> p

let tree_store_line ~key ~kind body =
  Sink.to_string
    (Sink.Obj
       [
         ("record", Sink.Str "entry"); ("key", Sink.Str key); ("kind", Sink.Str kind);
         ("check", Sink.Str (Fingerprint.digest_hex (Sink.to_string body)));
         ("body", body);
       ])

(* Analyses and certified brackets of the paper's families, solved once;
   every payload tier also takes random JSON (escapes, nesting), since
   splicing never looks inside a body. *)
let solved =
  lazy
    (List.concat_map
       (fun (name, k) ->
         let game = Result.get_ok (Bi_constructions.Registry.build name k) in
         List.map
           (fun tier -> (tier, Result.get_ok (Tier.solve ~verify:false tier game)))
           [ Tier.Exhaustive; Tier.Certified ])
       [ ("gworst-bliss", 2); ("gworst-curse", 3); ("anshelevich", 3); ("affine", 2) ])

let splice_law =
  QCheck2.Test.make ~name:"spliced answers, store lines and puts = tree renderings"
    ~count:200
    ~print:(fun (key, _, payload) ->
      Printf.sprintf "key %S, payload %s" key (Sink.to_string payload))
    QCheck2.Gen.(triple gen_key bool gen_json)
    (fun (key, cached, payload) ->
      List.for_all
        (fun (tier, value) ->
          let service = Service.create () in
          let entry = Service.add service key value in
          let body = tree_body value in
          String.equal
            (Tier.response tier ~fingerprint:key ~cached entry.Store.body)
            (Sink.to_string (tree_response tier ~fingerprint:key ~cached value))
          && String.equal (Store.entry_to_line entry)
               (tree_store_line ~key ~kind:(Tier.kind tier) body)
          && String.equal
               (Protocol.put_line ~kind:(Tier.kind tier) ~fingerprint:key entry.Store.body)
               (Sink.to_string
                  (Protocol.put_request ~kind:(Tier.kind tier) ~fingerprint:key body))
          && Option.map tree_body (Service.find service key)
             = Result.to_option (Sink.of_string (Sink.to_string body)))
        (Lazy.force solved
        @ List.map
            (fun tier -> (tier, Service.Payload payload))
            [ Tier.Certified; Tier.Correlated Concept.Cce; Tier.Correlated Concept.Comm ]))

(* Inline games perturbed as trees: members dropped, duplicated with
   another value, reordered or added, and any value replaced by one of
   another shape, at a rate drawn per line (zero keeps the game valid);
   then rendered with random whitespace and, for some lines, byte
   edits. *)
let perturb ~rate next =
  let other () =
    match next 9 with
    | 0 -> Sink.Null
    | 1 -> Sink.Bool true
    | 2 -> Sink.Int (next 12 - 4)
    | 3 -> Sink.Float 1.5
    | 4 -> Sink.Str "x"
    | 5 -> Sink.Str (Printf.sprintf "%d/%d" (next 5 - 1) (next 3))
    | 6 -> Sink.List [ Sink.Int (next 4); Sink.Int (next 4) ]
    | 7 -> Sink.List []
    | _ -> Sink.Obj [ ("types", Sink.List []) ]
  in
  let hit () = rate > 0 && next rate = 0 in
  let rec go j =
    if hit () then other ()
    else
      match j with
      | Sink.Obj fields ->
        let fields = List.map (fun (k, v) -> (k, go v)) fields in
        Sink.Obj
          (if not (hit ()) then fields
           else
             match (next 4, fields) with
             | 0, _ :: rest -> rest
             | 1, (k, _) :: _ -> fields @ [ (k, other ()) ]
             | 2, _ -> List.rev fields
             | _ -> ("extra", other ()) :: fields)
      | Sink.List items ->
        let items = List.map go items in
        Sink.List
          (if not (hit ()) then items
           else match items with _ :: rest when next 2 = 0 -> rest | _ -> items @ [ other () ])
      | v -> v
  in
  go

let gen_analyze_line =
  QCheck2.Gen.(
    map
      (fun (seed, rate, spaced, edits) ->
        let d = Random_games.description seed in
        let graph = Graph.make d.Random_games.kind ~n:d.Random_games.n d.Random_games.edges in
        let game = Codec.game_to_json graph ~prior:d.Random_games.prior in
        let next = lcg seed in
        let game = perturb ~rate next game in
        let line = Sink.to_string (Protocol.analyze_game_request game) in
        let line =
          if not spaced then line
          else
            (* The same random whitespace as the parser laws. *)
            String.concat ""
              (List.map
                 (fun c -> if c = ',' && next 3 = 0 then ",\n\t " else String.make 1 c)
                 (List.init (String.length line) (String.get line)))
        in
        List.fold_left apply_edit line edits)
      (quad (int_bound 100_000) (oneofl [ 0; 0; 40; 12; 4 ]) bool
         (frequency [ (3, pure []); (1, list_size (1 -- 2) gen_edit) ])))

(* The line read whole by [Sink.of_string] and its game by the oracle
   tree walk; [None] when a byte edit left something other than a plain
   [analyze] line. *)
let oracle_request line =
  match Sink.of_string line with
  | Error e -> Some (Error ("invalid JSON: " ^ e))
  | Ok j -> (
    let plain =
      match j with
      | Sink.Obj fields ->
        Sink.member "op" j = Some (Sink.Str "analyze")
        && List.for_all (fun (k, _) -> k = "op" || k = "game") fields
      | _ -> false
    in
    if not plain then None
    else
      match Sink.member "game" j with
      | None -> Some (Error "analyze: missing \"game\"")
      | Some g -> Some (Result.map_error (( ^ ) "analyze: ") (Game_oracle.game_of_json g)))

(* The decoded game [g2] also renders as the tree-sorting reference
   renders it, so a fault shared by both graphs' stores still shows. *)
let same_game (g1, p1) (g2, p2) =
  Graph.kind g1 = Graph.kind g2
  && Graph.n_vertices g1 = Graph.n_vertices g2
  && List.equal
       (fun (a : Graph.edge) (b : Graph.edge) ->
         a.Graph.src = b.Graph.src && a.Graph.dst = b.Graph.dst
         && Rat.equal a.Graph.cost b.Graph.cost)
       (Graph.edges g1) (Graph.edges g2)
  && Fingerprint.game g1 ~prior:p1 = Fingerprint.game g2 ~prior:p2
  && String.equal (Fingerprint.description g2 ~prior:p2) (reference_description g2 ~prior:p2)

(* The decoder's reading of a plain [analyze] line against the
   oracle's: the same game or the same error string. *)
let agrees_with_oracle expected line =
  match (expected, Protocol.parse_request line) with
  | Error a, Error b -> String.equal a b
  | Ok g, Ok { Protocol.query = Protocol.Analyze { graph; prior; _ }; _ } ->
    same_game g (graph, prior)
  | expected, actual ->
    QCheck2.Test.fail_reportf "oracle %s, decoder %s"
      (match expected with Ok _ -> "Ok" | Error e -> "Error " ^ e)
      (match actual with Ok _ -> "Ok" | Error e -> "Error " ^ e)

let decoder_law =
  QCheck2.Test.make ~name:"inline-game decoder = tree-walk oracle" ~count:3000
    ~print:(Printf.sprintf "%S") gen_analyze_line (fun line ->
      match oracle_request line with
      | None -> true
      | Some expected -> agrees_with_oracle expected line)

(* Edge costs on both sides of the machine word: 17-20-digit parts (the
   in-place reader takes at most 18 digits, and 19 may or may not fit
   63 bits), unreduced fractions, the spellings [rat_of_string] reads
   in its own way, an escaped digit, and now and then a zero
   denominator or a negative cost.  Games have 2-4 vertices, so most
   edges have parallel copies, whose costs' cross-products overflow. *)
let gen_wide_cost =
  QCheck2.Gen.(
    let digits k =
      map
        (fun ds -> String.concat "" (List.mapi (fun i d -> string_of_int (if i = 0 then 1 + (d mod 9) else d)) ds))
        (list_repeat k (int_bound 9))
    in
    let long = int_range 17 20 >>= digits in
    let small = map string_of_int (int_range 0 40) in
    let fraction a b = map2 (fun a b -> a ^ "/" ^ b) a b in
    frequency
      [
        (4, long);
        (6, fraction long long);
        (2, fraction small long);
        (2, fraction long small);
        ( 3,
          map2
            (fun k (p, q) -> Printf.sprintf "%d/%d" (k * p) (k * q))
            (int_range 1 1000)
            (pair (int_range 0 50) (int_range 1 50)) );
        (2, small);
        ( 2,
          oneofl [ "-0"; "+3"; "007"; "0/5"; "-0/7"; "6/4"; "3/2"; "-6/-4"; "0012/0008"; {|\u0033/2|} ] );
        ( 1,
          oneofl
            [ "3/-4"; "1/0"; "0/0"; "-5/-0"; "12345678901234567890/0"; "7/000" ] );
      ])

let gen_wide_line =
  QCheck2.Gen.(
    map
      (fun (directed, n, edges, (spaced, seed)) ->
        let edge (s, d, cost) = Printf.sprintf {|[%d,%d,"%s"]|} (s mod n) (d mod n) cost in
        let line =
          Printf.sprintf
            {|{"op":"analyze","game":{"kind":"%s","n":%d,"edges":[%s],"prior":[{"types":[[0,1]],"weight":"1"}]}}|}
            (if directed then "directed" else "undirected")
            n
            (String.concat "," (List.map edge edges))
        in
        if not spaced then line
        else
          let next = lcg seed in
          String.concat ""
            (List.map
               (fun c -> if c = ',' && next 3 = 0 then ", " else String.make 1 c)
               (List.init (String.length line) (String.get line))))
      (quad bool (int_range 2 4)
         (list_size (int_range 1 12) (triple (int_bound 3) (int_bound 3) gen_wide_cost))
         (pair bool nat)))

let wide_decoder_law =
  QCheck2.Test.make ~name:"costs past 63 bits: decoder = tree-walk oracle"
    ~count:2000 ~print:(Printf.sprintf "%S") gen_wide_line (fun line ->
      match oracle_request line with
      | None -> QCheck2.Test.fail_report "not a plain analyze line"
      | Some expected -> agrees_with_oracle expected line)

(* Answer-shaped objects: the members the router reads, under duplicate
   keys, in any order, with values of any shape; random whitespace;
   some truncated or edited. *)
let gen_answer_line =
  QCheck2.Gen.(
    let member =
      oneof
        [
          map (fun b -> ("ok", Sink.Bool b)) bool;
          map (fun c -> ("code", Sink.Str c))
            (oneofl [ "ok"; "overloaded"; "error"; "deadline_exceeded"; "" ]);
          map (fun b -> ("cached", Sink.Bool b)) bool;
          map (fun j -> ("analysis", j)) gen_json;
          map (fun j -> ("error", j)) gen_json;
          map (fun j -> (List.nth [ "ok"; "code"; "cached"; "fingerprint" ] (abs (Hashtbl.hash j) mod 4), j)) gen_json;
          pair gen_key gen_json;
        ]
    in
    map
      (fun (members, seed, top, edits) ->
        let j = if top = 0 then Sink.Obj members else if top = 1 then Sink.List [] else Sink.Str "x" in
        let next = lcg seed in
        let compact = Sink.to_string j in
        let buf = Buffer.create (String.length compact * 2) in
        let in_string = ref false and escaped = ref false in
        String.iter
          (fun c ->
            if (not !in_string) && next 5 = 0 then Buffer.add_char buf ' ';
            Buffer.add_char buf c;
            if !in_string then begin
              if !escaped then escaped := false
              else if c = '\\' then escaped := true
              else if c = '"' then in_string := false
            end
            else if c = '"' then in_string := true)
          compact;
        List.fold_left apply_edit (Buffer.contents buf) edits)
      (quad (list_size (0 -- 7) member) nat (frequency [ (8, pure 0); (1, pure 1); (1, pure 2) ])
         (frequency [ (3, pure []); (1, list_size (1 -- 2) gen_edit) ])))

let scan_law =
  QCheck2.Test.make ~name:"answer scan = Sink.member on the tree" ~count:3000
    ~print:(Printf.sprintf "%S") gen_answer_line (fun line ->
      match (Protocol.scan_answer line, Sink.of_string line) with
      | Error a, Error b -> String.equal a b
      | Ok a, Ok j ->
        String.equal a.Protocol.line line
        && a.Protocol.code = Protocol.response_code j
        && a.Protocol.cached
           = (match Sink.member "cached" j with Some (Sink.Bool b) -> Some b | _ -> None)
        && compare
             (Option.map
                (fun (start, stop) -> Sink.of_string (String.sub line start (stop - start)))
                a.Protocol.analysis)
             (Option.map Result.ok (Sink.member "analysis" j))
           = 0
        && Option.fold ~none:true
             ~some:(fun (start, stop) ->
               (* The span is the value's own bytes, no surrounding space. *)
               stop > start && line.[start] <> ' ' && line.[stop - 1] <> ' ')
             a.Protocol.analysis
      | _ -> false)

let () =
  Alcotest.run "bi_wire"
    [
      ( "golden-fingerprints",
        [
          Alcotest.test_case "constructions at k 2-4" `Quick test_golden_constructions;
          Alcotest.test_case "seeded inline games" `Quick test_golden_inline;
          Alcotest.test_case "full bi-ncs-v1 text" `Quick test_golden_description;
          QCheck_alcotest.to_alcotest renderer_law;
        ] );
      ( "parser-differential",
        Alcotest.test_case "edge cases" `Quick test_parser_edge_cases
        :: Alcotest.test_case "pinned values and errors" `Quick
             test_parser_pinned_values
        :: List.map QCheck_alcotest.to_alcotest parser_laws );
      ("rat-codec", [ QCheck_alcotest.to_alcotest rat_law ]);
      ( "invalid-games",
        [
          Alcotest.test_case "wire errors pinned" `Quick test_invalid_game_errors;
          QCheck_alcotest.to_alcotest codec_law;
        ] );
      ( "byte-path",
        List.map QCheck_alcotest.to_alcotest
          [ splice_law; decoder_law; wide_decoder_law; scan_law ] );
    ]
