(** CSV import/export of datasets.

    Format: one trial per line, [label,x1,x2,...,xM] where label is [A]/[B]
    (or [1]/[0]).  An optional header line starting with ["label"] is
    skipped on load and written on save.  A UTF-8 byte-order mark
    ([EF BB BF], as spreadsheet "CSV UTF-8" exports write) is skipped at
    the start of line 1 only.

    A feature is any field that [float_of_string] accepts once trimmed
    of [String.trim]'s whitespace, and whose value is finite: decimals,
    exponent forms, [_] separators and hex floats alike.  Every value is
    bit-identical to [float_of_string]'s.  Plain decimals with at most 18
    significant digits and 22 fractional digits (what {!to_lines}
    writes) are converted exactly in one pass over the line; any field
    outside that subset, or too close to a rounding tie to decide
    quickly, goes to [float_of_string] itself. *)

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
