type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let escape s =
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

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* The parser recurses once per nesting level, so untrusted input (the
   server feeds request lines straight in here) must be depth-capped or
   a line of ten thousand '[' turns into a stack overflow instead of a
   structured error. *)
let max_depth = 512

(* A scanner over the string: one position, no option or closure per
   character.  Escape-free strings are one [String.sub] and short
   decimal integers are decoded in place; everything rarer (escapes,
   fractions, exponents, long integers) takes the general route.
   test/test_wire.ml holds the accepted language, the values and the
   error strings to a plain recursive-descent reference parser. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let at c = !pos < n && s.[!pos] = c in
  let expect c =
    if !pos >= n then parse_error "expected %C, got end of input" c
    else if s.[!pos] <> c then
      parse_error "expected %C at offset %d, got %C" c !pos s.[!pos]
    else incr pos
  in
  let literal word value =
    let l = String.length word and p = !pos in
    let rec matches i = i = l || (s.[p + i] = word.[i] && matches (i + 1)) in
    if p + l <= n && matches 0 then begin
      pos := p + l;
      value
    end
    else parse_error "invalid literal at offset %d" p
  in
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
  in
  (* [int_of_string] defines the escape's digits: it also takes '_'
     separators, which the wire has always accepted. *)
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
  (* Decodes from [!pos] (inside the quotes) through a buffer that
     already holds the string's clean prefix. *)
  let rec unescape buf =
    if !pos >= n then parse_error "unterminated string";
    let c = s.[!pos] in
    incr pos;
    if c = '"' then Buffer.contents buf
    else begin
      if c <> '\\' then Buffer.add_char buf c
      else begin
        if !pos >= n then parse_error "unterminated escape";
        let e = s.[!pos] in
        incr pos;
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
        | e -> parse_error "unknown escape \\%c" e
      end;
      unescape buf
    end
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = ref start in
    while !stop < n && s.[!stop] <> '"' && s.[!stop] <> '\\' do
      incr stop
    done;
    if !stop < n && s.[!stop] = '"' then begin
      pos := !stop + 1;
      String.sub s start (!stop - start)
    end
    else begin
      let buf = Buffer.create (!stop - start + 16) in
      Buffer.add_substring buf s start (!stop - start);
      pos := !stop;
      unescape buf
    end
  in
  let general_number start stop =
    let tok = String.sub s start (stop - start) in
    let fractional = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    match if fractional then None else int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> parse_error "invalid number %S at offset %d" tok start)
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    let stop = !pos in
    if stop = start then parse_error "unexpected character at offset %d" start;
    (* Fast path: an optional sign and at most 18 digits, which cannot
       overflow and which [int_of_string] reads the same way. *)
    let negative = s.[start] = '-' in
    let first = if negative || s.[start] = '+' then start + 1 else start in
    let plain = ref (first < stop && stop - first <= 18) in
    let acc = ref 0 and i = ref first in
    while !plain && !i < stop do
      (match s.[!i] with
      | '0' .. '9' as c -> acc := (!acc * 10) + Char.code c - 48
      | _ -> plain := false);
      incr i
    done;
    if !plain then Int (if negative then - !acc else !acc)
    else general_number start stop
  in
  let rec parse_value depth =
    if depth > max_depth then
      parse_error "nesting deeper than %d at offset %d" max_depth !pos;
    skip_ws ();
    if !pos >= n then parse_error "unexpected end of input";
    match s.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (parse_string ())
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else items depth []
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else fields depth []
    | _ -> parse_number ()
  and items depth acc =
    let v = parse_value (depth + 1) in
    skip_ws ();
    if at ',' then begin
      incr pos;
      items depth (v :: acc)
    end
    else if at ']' then begin
      incr pos;
      List (List.rev (v :: acc))
    end
    else parse_error "expected ',' or ']' at offset %d" !pos
  and fields depth acc =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    let v = parse_value (depth + 1) in
    skip_ws ();
    if at ',' then begin
      incr pos;
      fields depth ((k, v) :: acc)
    end
    else if at '}' then begin
      incr pos;
      Obj (List.rev ((k, v) :: acc))
    end
    else parse_error "expected ',' or '}' at offset %d" !pos
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then parse_error "trailing bytes at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

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
