(** Minimal JSON value type, parser and printer.

    The repo deliberately carries no third-party JSON dependency; every
    producer (engine traces, bench emitters, span reports) hand-rolls its
    output. This module is the matching {e consumer}: a small
    recursive-descent parser plus a printer, enough for the regression
    comparator ([bench/regress.exe]) and the schema-checking tests to read
    back what the repo writes.

    Numbers are represented as [float] (like every mainstream OCaml JSON
    AST); integer-valued numbers print without a decimal point, other
    floats print with ["%.17g"] so [parse (to_string v) = v] for finite
    values. Non-finite numbers (nan, infinities) have no JSON
    representation and print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} / {!parse_file} with a message containing the
    0-based byte offset of the offending input. *)

val parse : string -> t
(** Parse one JSON value (trailing whitespace allowed, trailing garbage
    rejected). The standard backslash escapes and [\uXXXX] are decoded to
    UTF-8; a [\uXXXX\uXXXX] surrogate pair decodes to the astral scalar
    it encodes, and a lone surrogate ([\uD800]–[\uDFFF] not forming a
    pair) is a {!Parse_error}. *)

val parse_file : string -> t
(** [parse] on a whole file. Raises [Sys_error] on IO failure. *)

val to_string : t -> string
(** Compact single-line rendering. [Num nan] and [Num infinity] render
    as [null]. *)

(** {1 Accessors} — total lookups returning [option]. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_float : t -> float option
val to_int : t -> int option
(** [Num] with an integral value only. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_assoc : t -> (string * t) list option

(** {1 Ndjson} — newline-delimited JSON, one value per line.

    The serve protocol (and any future wire format) frames values as
    single lines: {!to_line} is the emitter, {!Ndjson} the incremental
    consumer. {!to_string} already never emits a raw newline (control
    characters are escaped), so every value round-trips through one
    line. *)

val to_line : t -> string
(** [to_string v ^ "\n"] — one compact, newline-terminated line. *)

module Ndjson : sig
  type reader
  (** Incremental line-splitting reader: feed arbitrary byte chunks
      (network reads, pipe reads, whole files), pull one line — or its
      parsed value — per complete input line. Blank (whitespace-only)
      lines are skipped; each byte is scanned for a newline once. *)

  val reader : ?max_line:int -> unit -> reader
  (** [max_line] (default unbounded) caps a line's length in bytes. A
      longer line is reported once as {!Too_long} as soon as its
      buffered part passes the cap, then discarded up to its newline,
      so the reader holds at most [max_line] bytes of a line plus the
      last chunk fed. *)

  val feed : reader -> ?pos:int -> ?len:int -> string -> unit
  (** Append a chunk (default the whole string) to the reader's
      buffer. Raises [Invalid_argument] on an out-of-bounds
      [pos]/[len]. *)

  type item = Line of string | Too_long

  val next_line : reader -> item option
  (** The next complete line (newline excluded), or [None] when no
      complete line is buffered. At end of input, feed ["\n"] to
      complete a non-empty {!pending} tail. *)

  val next : reader -> t option
  (** {!next_line}, parsed. A malformed or {!Too_long} line raises
      {!Parse_error} — the line is consumed, so a caller may report the
      error and keep pulling. *)

  val pending : reader -> string
  (** Bytes buffered after the last complete line (the partial tail),
      e.g. to diagnose a stream that ended mid-value. *)
end

val read_ndjson : string -> t list
(** Parse a whole ndjson string (blank lines skipped). Raises
    {!Parse_error} on the first malformed line. *)
