(** CSV import/export of datasets.

    Format: one trial per line, [label,x1,x2,...,xM] where label is [A]/[B]
    (or [1]/[0]).  An optional header line starting with ["label"] is
    skipped on load and written on save.  A UTF-8 byte-order mark
    ([EF BB BF], as spreadsheet "CSV UTF-8" exports write) is skipped at
    the start of line 1 only.

    A feature is any field that [float_of_string] accepts once trimmed
    of [String.trim]'s whitespace, and whose value is finite: decimals,
    exponent forms, [_] separators and hex floats alike.  Every value is
    bit-identical to [float_of_string]'s.

    One scan per field, eight digits at a time, reads the common field
    straight into the row: [[+-]digits[.digits][(e|E)[+-]digits]] with
    at most 18 significant digits and a value w / 10^k, 0 <= k <= 22,
    that ends exactly at its comma or at the line's end (trailing
    whitespace and a CRLF's [\r] are trimmed from the line first).
    {!to_lines}' [%.17g] takes this path for zero and every magnitude
    in (1e-6, 1e17).  Any other field falls back: it is cut at its
    comma, trimmed, and read by [float_of_string].  That covers
    whitespace around a field, [_], hex, [nan]/[inf], more digits, a net
    positive exponent or one past 10^-22 (the [%.17g] of magnitudes
    up to 1e-6 or from 1e17), and values too close to a rounding tie to
    decide quickly. *)

exception Parse_error of { line : int; message : string }

val load : string -> Dataset.t
(** Streams the file line by line through {!parse_row}.
    @raise Parse_error on malformed input — including non-finite
    feature values ([nan], or magnitudes that overflow to infinity),
    reported with the 1-based line number of the offending input line;
    @raise Sys_error on I/O failure. *)

val save : string -> Dataset.t -> unit

val parse_row : int -> string -> (bool * float array) option
(** [parse_row lineno line] parses one CSV line carrying its 1-based
    line number in the original input; [None] for blank lines and the
    optional header.  Streaming consumers ([ldafp classify]) use this
    to keep the same error contract as {!load} without materialising
    the whole file.
    @raise Parse_error with [lineno] on a malformed row. *)

val of_lines : name:string -> string list -> Dataset.t
(** Parse from in-memory lines (used by tests), as {!load} does. *)

val to_lines : Dataset.t -> string list
