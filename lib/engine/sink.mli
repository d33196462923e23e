(** Structured result sink: line-oriented JSON records.

    Bench sections emit one JSON object per line (JSON Lines) alongside
    their human-readable tables, so downstream tooling can diff runs,
    track timings, and plot series without scraping aligned text.  The
    encoder is hand-rolled — no dependency beyond the standard library —
    and always produces valid JSON: strings are escaped per RFC 8259 and
    non-finite floats map to [null]. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val escape : string -> string
(** Escapes the bytes of a string for inclusion inside JSON quotes:
    ["\""], ["\\"] and ASCII control characters are escaped (short forms
    for [\n], [\r], [\t], [\b], [\f]; [\u00XX] otherwise); all other
    bytes pass through untouched, so UTF-8 payloads survive verbatim. *)

val quote : string -> string
(** [quote s] is [s] as a JSON string literal: {!escape}d, in quotes —
    the bytes {!to_string} writes for [Str s]. *)

val to_string : json -> string
(** Compact single-line rendering. *)

val of_string : string -> (json, string) result
(** Parses one JSON value (the whole string must be consumed, modulo
    surrounding whitespace).  Numbers without a fraction or exponent that
    fit a native [int] parse as [Int], everything else numeric as
    [Float]; [\uXXXX] escapes decode to UTF-8 (BMP code points — the
    encoder never emits surrogate pairs).  Inverse of {!to_string} up to
    float formatting: records made of [Null]/[Bool]/[Int]/[Str]/[List]/
    [Obj] round-trip byte-identically.  Total on untrusted input:
    nesting deeper than 512 levels is a parse error, never a stack
    overflow. *)

(** The lexer {!of_string} runs on, for readers that take a line apart
    without building its whole tree: the router's scan of a shard
    answer, the request decoder that reads an inline game straight into
    arrays.  Every reader steps through the same primitives in the same
    order as {!of_string}, so it accepts exactly the lines {!of_string}
    accepts and rejects the others with the same message.

    A value is read at a nesting [depth] (the top-level value at 0, an
    object's members and an array's items one deeper).  A syntax error
    raises {!Error}. *)
module Lex : sig
  exception Error of string
  (** The message {!of_string} returns in its [Error]. *)

  exception Mismatch
  (** Raised by a typed reader ({!int}) when the value at the cursor is
      well formed but of another type.  The cursor is then somewhere
      inside that value: {!seek} back to re-read it. *)

  type t

  val make : string -> t
  val pos : t -> int
  val seek : t -> int -> unit

  val peek : t -> depth:int -> char
  (** Skips whitespace and returns the first byte of the next value,
      without consuming it. *)

  val value : t -> depth:int -> json
  (** Reads one value as a tree. *)

  val skip : t -> depth:int -> unit
  (** Reads one value and drops it, building nothing for escape-free
      strings and plain integers. *)

  val int : t -> depth:int -> int
  (** Reads one value that must be an integer.
      @raise Mismatch on any other well-formed value. *)

  val string : t -> depth:int -> string
  (** Reads one value that must be a string.
      @raise Mismatch on any other well-formed value. *)

  val small_edge : t -> depth:int -> int array -> int -> bool
  (** [small_edge c ~depth into at] reads the value at the cursor in one
      pass when it is written as {!to_string} writes an edge of an
      inline game: ['\['], two integers and a string holding an integer
      or a fraction [n/d] with [d <> 0], separated by commas, with no
      whitespace, every integer an optional ['-'] and 1-18 digits.  The
      string's digits are read in place, as an integer token's are.
      Then [into.(at)] to [into.(at + 3)] receive the two integers, the
      numerator and the denominator as written (neither reduced nor
      sign-normalised), and the result is [true].  Otherwise the result
      is [false] and the cursor has not moved, for the general readers
      to read the value as if this had not been tried. *)

  val first_item : t -> bool
  (** At a ['\['] returned by {!peek}: enters the array; [true] when it
      has a first item, then at the cursor. *)

  val next_item : t -> bool
  (** After an item: [true] when another one follows, [false] past the
      closing bracket. *)

  val members : t -> depth:int -> (unit -> unit) -> unit
  (** [members c ~depth read] calls [read] on each member of the object
      at the cursor, with its key ({!key}) entered and its value at the
      cursor, for [read] to consume; a value that is not an object is
      only checked ({!skip}). *)

  val key : t -> string
  (** The key of the member just entered.  Valid until the cursor reads
      another string. *)

  val key_is : t -> string -> bool
  (** [key_is c k] is [key c = k], without building the key. *)

  val finish : t -> unit
  (** Only whitespace may follow the value just read. *)
end

val member : string -> json -> json option
(** [member key j] is the field [key] of an [Obj] ([None] when absent or
    [j] is not an object). *)

type t

val create : string -> t
(** [create path] opens (and truncates) [path] for writing. *)

val path : t -> string

val emit : t -> (string * json) list -> unit
(** Writes one object as a single line.  Safe under concurrent calls
    from multiple domains or threads: each sink carries a mutex, so
    records never interleave — every line in the file is one complete
    JSON object. *)

val table : t -> section:string -> ?kind:string -> header:string list -> string list list -> unit
(** [table sink ~section ~header rows] emits one record per row, keyed by
    the slugified header cells, tagged with [{"record": kind;
    "section": section}] ([kind] defaults to ["row"]). *)

val close : t -> unit
(** Flushes and closes.  Idempotent. *)
