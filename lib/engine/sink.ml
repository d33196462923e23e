type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most strings on the wire need no escape (keys, fingerprints,
   rationals): they come back as they are, with no buffer. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let quote s = "\"" ^ escape s ^ "\""

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (Str k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* --- parsing --- *)

(* The parser recurses once per nesting level, so untrusted input (the
   server feeds request lines straight in here) must be depth-capped or
   a line of ten thousand '[' turns into a stack overflow instead of a
   structured error. *)
let max_depth = 512

(* One lexer over a string: a position, no option or closure per
   character.  The tree parser ([value]), the validating skip ([skip])
   and the typed readers built on [first_item]/[next_item] and
   [first_member]/[next_member] all step through the same primitives in
   the same order, so they accept the same language and fail with the
   same message at the same offset.  test/test_wire.ml holds that
   language, its values and its error strings to a plain
   recursive-descent reference parser. *)
module Lex = struct
  exception Error of string
  exception Mismatch

  type t = {
    s : string;
    n : int;
    mutable pos : int;
    (* The last string token: its raw span when it held no escape, else
       its decoded text. *)
    mutable tok_start : int;
    mutable tok_stop : int;
    mutable tok_text : string option;
    mutable num : int;  (* the last integer token's value *)
  }

  let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

  let make s =
    { s; n = String.length s; pos = 0; tok_start = 0; tok_stop = 0;
      tok_text = None; num = 0 }

  let pos c = c.pos
  let seek c p = c.pos <- p

  let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

  (* The hot loops keep the position in a local and read the string
     unchecked below [c.n]; a compact line has no whitespace to skip,
     so the test before the loop is the whole cost there. *)
  let skip_ws_loop c =
    let s = c.s and n = c.n in
    let p = ref c.pos in
    while !p < n && is_ws (String.unsafe_get s !p) do
      incr p
    done;
    c.pos <- !p

  let skip_ws c =
    if c.pos < c.n && is_ws (String.unsafe_get c.s c.pos) then skip_ws_loop c

  let at c ch = c.pos < c.n && c.s.[c.pos] = ch

  let expect c ch =
    if c.pos >= c.n then error "expected %C, got end of input" ch
    else if c.s.[c.pos] <> ch then
      error "expected %C at offset %d, got %C" ch c.pos c.s.[c.pos]
    else c.pos <- c.pos + 1

  let literal c word =
    let l = String.length word and p = c.pos in
    let rec matches i = i = l || (c.s.[p + i] = word.[i] && matches (i + 1)) in
    if p + l <= c.n && matches 0 then c.pos <- p + l
    else error "invalid literal at offset %d" p

  (* BMP code points only: our encoder never emits surrogate pairs. *)
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

  (* [int_of_string] defines the escape's digits: it also takes '_'
     separators, which the wire has always accepted. *)
  let hex4 c =
    if c.pos + 4 > c.n then error "truncated \\u escape at offset %d" c.pos;
    let v =
      match int_of_string_opt ("0x" ^ String.sub c.s c.pos 4) with
      | Some v -> v
      | None -> error "invalid \\u escape at offset %d" c.pos
    in
    c.pos <- c.pos + 4;
    v

  (* Decodes from [c.pos] (inside the quotes) through a buffer that
     already holds the string's clean prefix. *)
  let rec unescape c buf =
    if c.pos >= c.n then error "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    if ch = '"' then Buffer.contents buf
    else begin
      if ch <> '\\' then Buffer.add_char buf ch
      else begin
        if c.pos >= c.n then error "unterminated escape";
        let e = c.s.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' -> utf8_of_code buf (hex4 c)
        | e -> error "unknown escape \\%c" e
      end;
      unescape c buf
    end

  (* An escape-free string is only a span; only escapes build text. *)
  let string_token c =
    expect c '"';
    let s = c.s and n = c.n in
    let start = c.pos in
    let stop = ref start in
    while
      !stop < n
      &&
      let ch = String.unsafe_get s !stop in
      ch <> '"' && ch <> '\\'
    do
      incr stop
    done;
    if !stop < n && String.unsafe_get s !stop = '"' then begin
      c.pos <- !stop + 1;
      c.tok_start <- start;
      c.tok_stop <- !stop;
      c.tok_text <- None
    end
    else begin
      let buf = Buffer.create (!stop - start + 16) in
      Buffer.add_substring buf c.s start (!stop - start);
      c.pos <- !stop;
      c.tok_text <- Some (unescape c buf)
    end

  let token c =
    match c.tok_text with
    | Some text -> text
    | None -> String.sub c.s c.tok_start (c.tok_stop - c.tok_start)

  let token_is c lit =
    match c.tok_text with
    | Some text -> String.equal text lit
    | None ->
      let l = String.length lit in
      let rec same i = i = l || (c.s.[c.tok_start + i] = lit.[i] && same (i + 1)) in
      c.tok_stop - c.tok_start = l && same 0

  (* One number token.  [None]: an integer, left in [c.num]; [Some f]: a
     float.  The token is the longest run of [0-9+-.eE]; an optional
     sign and at most 18 digits cannot overflow and read as
     [int_of_string] reads them, and is decoded in the same pass.
     Everything rarer (fractions, exponents, long integers) takes the
     general route. *)
  let number_token c =
    let s = c.s and n = c.n in
    let start = c.pos in
    let negative = start < n && String.unsafe_get s start = '-' in
    let p = ref start in
    if negative || (start < n && String.unsafe_get s start = '+') then incr p;
    let first = !p in
    let acc = ref 0 and plain = ref true in
    while
      !p < n
      &&
      match String.unsafe_get s !p with
      | '0' .. '9' as ch ->
        acc := (!acc * 10) + Char.code ch - 48;
        true
      | '-' | '+' | '.' | 'e' | 'E' ->
        plain := false;
        true
      | _ -> false
    do
      incr p
    done;
    let stop = !p in
    c.pos <- stop;
    if stop = start then error "unexpected character at offset %d" start;
    if !plain && first < stop && stop - first <= 18 then begin
      c.num <- (if negative then - !acc else !acc);
      None
    end
    else
      let tok = String.sub s start (stop - start) in
      let fractional =
        String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') tok
      in
      match if fractional then None else int_of_string_opt tok with
      | Some i ->
        c.num <- i;
        None
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Some f
        | None -> error "invalid number %S at offset %d" tok start)

  let peek c ~depth =
    if depth > max_depth then
      error "nesting deeper than %d at offset %d" max_depth c.pos;
    skip_ws c;
    if c.pos >= c.n then error "unexpected end of input";
    c.s.[c.pos]

  let first_item c =
    c.pos <- c.pos + 1;
    skip_ws c;
    if at c ']' then begin
      c.pos <- c.pos + 1;
      false
    end
    else true

  let next_item c =
    skip_ws c;
    if at c ',' then begin
      c.pos <- c.pos + 1;
      true
    end
    else if at c ']' then begin
      c.pos <- c.pos + 1;
      false
    end
    else error "expected ',' or ']' at offset %d" c.pos

  let member_key c =
    skip_ws c;
    string_token c;
    skip_ws c;
    expect c ':'

  let first_member c =
    c.pos <- c.pos + 1;
    skip_ws c;
    if at c '}' then begin
      c.pos <- c.pos + 1;
      false
    end
    else begin
      member_key c;
      true
    end

  let next_member c =
    skip_ws c;
    if at c ',' then begin
      c.pos <- c.pos + 1;
      member_key c;
      true
    end
    else if at c '}' then begin
      c.pos <- c.pos + 1;
      false
    end
    else error "expected ',' or '}' at offset %d" c.pos

  let key = token
  let key_is = token_is

  let rec value c ~depth =
    match peek c ~depth with
    | 'n' ->
      literal c "null";
      Null
    | 't' ->
      literal c "true";
      Bool true
    | 'f' ->
      literal c "false";
      Bool false
    | '"' ->
      string_token c;
      Str (token c)
    | '[' ->
      let items = ref [] in
      if first_item c then begin
        items := [ value c ~depth:(depth + 1) ];
        while next_item c do
          items := value c ~depth:(depth + 1) :: !items
        done
      end;
      List (List.rev !items)
    | '{' ->
      let fields = ref [] in
      if first_member c then begin
        let more = ref true in
        while !more do
          let k = key c in
          fields := (k, value c ~depth:(depth + 1)) :: !fields;
          more := next_member c
        done
      end;
      Obj (List.rev !fields)
    | _ -> ( match number_token c with None -> Int c.num | Some f -> Float f)

  let rec skip c ~depth =
    match peek c ~depth with
    | 'n' -> literal c "null"
    | 't' -> literal c "true"
    | 'f' -> literal c "false"
    | '"' -> string_token c
    | '[' ->
      if first_item c then begin
        skip c ~depth:(depth + 1);
        while next_item c do
          skip c ~depth:(depth + 1)
        done
      end
    | '{' ->
      if first_member c then begin
        skip c ~depth:(depth + 1);
        while next_member c do
          skip c ~depth:(depth + 1)
        done
      end
    | _ -> ignore (number_token c)

  let members c ~depth read =
    if peek c ~depth <> '{' then skip c ~depth
    else if first_member c then begin
      read ();
      while next_member c do
        read ()
      done
    end

  let int c ~depth =
    match peek c ~depth with
    | 'n' | 't' | 'f' | '"' | '[' | '{' -> raise_notrace Mismatch
    | _ -> (
      match number_token c with
      | None -> c.num
      | Some _ -> raise_notrace Mismatch)

  let string c ~depth =
    if peek c ~depth <> '"' then raise_notrace Mismatch;
    string_token c;
    token c

  (* An optional '-' and 1-18 digits at [c.s.[p..stop)], up to the
     first other byte: the value goes to [c.num] and the position after
     the digits is returned, or -1 when there are none or more than 18
     (which could overflow). *)
  let small_int_at c p stop =
    let s = c.s in
    let negative = p < stop && String.unsafe_get s p = '-' in
    let first = if negative then p + 1 else p in
    let q = ref first and acc = ref 0 in
    while
      !q < stop
      &&
      match String.unsafe_get s !q with
      | '0' .. '9' as ch ->
        acc := (!acc * 10) + Char.code ch - 48;
        true
      | _ -> false
    do
      incr q
    done;
    let digits = !q - first in
    if digits = 0 || digits > 18 then -1
    else begin
      c.num <- (if negative then - !acc else !acc);
      !q
    end

  (* One pass over the compact form the encoder writes, without the
     general readers' depth, whitespace and type checks per token: an
     item is taken only if every byte is where the general readers
     would take it, so they accept and reject exactly the same items. *)
  let small_edge c ~depth into at =
    let s = c.s and n = c.n and p = c.pos in
    depth < max_depth
    && p < n
    && String.unsafe_get s p = '['
    &&
    let p = small_int_at c (p + 1) n in
    p >= 0 && p < n && String.unsafe_get s p = ','
    &&
    let src = c.num in
    let p = small_int_at c (p + 1) n in
    p >= 0
    && p + 1 < n
    && String.unsafe_get s p = ','
    && String.unsafe_get s (p + 1) = '"'
    &&
    let dst = c.num in
    let p = small_int_at c (p + 2) n in
    p >= 0 && p < n
    &&
    let num = c.num in
    let p =
      if String.unsafe_get s p <> '/' then begin
        c.num <- 1;
        p
      end
      else small_int_at c (p + 1) n
    in
    p >= 0 && c.num <> 0 && p + 1 < n
    && String.unsafe_get s p = '"'
    && String.unsafe_get s (p + 1) = ']'
    && begin
      into.(at) <- src;
      into.(at + 1) <- dst;
      into.(at + 2) <- num;
      into.(at + 3) <- c.num;
      c.pos <- p + 2;
      true
    end

  let finish c =
    skip_ws c;
    if c.pos <> c.n then error "trailing bytes at offset %d" c.pos
end

let of_string s =
  let c = Lex.make s in
  match
    let v = Lex.value c ~depth:0 in
    Lex.finish c;
    v
  with
  | v -> Ok v
  | exception Lex.Error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

type t = {
  path : string;
  channel : out_channel;
  lock : Mutex.t;
  mutable open_ : bool;
}

let create path =
  { path; channel = open_out path; lock = Mutex.create (); open_ = true }

let path sink = sink.path

(* One line per record under the sink's mutex, so concurrent [emit]s from
   worker domains (or server threads) never interleave bytes. *)
let emit sink fields =
  let line = to_string (Obj fields) in
  Mutex.lock sink.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.lock)
    (fun () ->
      if not sink.open_ then invalid_arg "Sink.emit: sink is closed";
      output_string sink.channel line;
      output_char sink.channel '\n')

(* "paper bound" -> "paper_bound": JSON keys that double as column ids. *)
let slug s =
  String.map
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> c
      | _ -> '_')
    s

let table sink ~section ?(kind = "row") ~header rows =
  let keys = List.map slug header in
  List.iter
    (fun row ->
      let rec pair ks cs =
        match (ks, cs) with
        | k :: ks, c :: cs -> (k, Str c) :: pair ks cs
        | _ -> []
      in
      emit sink (("record", Str kind) :: ("section", Str section) :: pair keys row))
    rows

let close sink =
  Mutex.lock sink.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.lock)
    (fun () ->
      if sink.open_ then begin
        sink.open_ <- false;
        close_out sink.channel
      end)
