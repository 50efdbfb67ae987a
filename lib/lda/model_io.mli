(** Plain-text persistence of trained fixed-point classifiers.

    The format is a line-oriented key/value file carrying exactly what the
    hardware holds — format, scaling exponents, raw weight codes, raw
    threshold, polarity — so a saved model round-trips bit-exactly:

    {v ldafp-model v1
       format Q2.4
       polarity 1
       exponents 3 3 2
       weights -7 12 3
       threshold 5 v} *)

exception Parse_error of string

val to_string : Fixed_classifier.t -> string
val of_string : string -> Fixed_classifier.t
(** @raise Parse_error on malformed input, including a scaling exponent
    outside [[-1100, 1100]] (wider than any finite double needs; past
    ±2{^31} the C [ldexp] would silently truncate it). *)

val save : string -> Fixed_classifier.t -> unit
val load : string -> Fixed_classifier.t
(** @raise Parse_error / [Sys_error]. *)

val c_header_of : ?guard:string -> Fixed_classifier.t -> string
(** A self-contained C header ([lda_model_fixed.h] style, alongside the
    Verilog backend) carrying the same baked tables the hardware holds:
    feature count, Q-format, polarity, raw threshold, per-feature scale
    exponents and raw weight codes, plus [static inline]
    [ldafp_project_raw] / [ldafp_predict_raw] functions that reproduce
    the wrapping MAC datapath bit-for-bit (round half to even on the
    fractional shift, two's-complement wrap into the word length on
    every accumulate).  The header compiles standalone with [cc -c].
    [guard] overrides the include guard (default
    [LDAFP_MODEL_FIXED_H]).
    @raise Invalid_argument when the word length exceeds 31 bits — the
    generated [int64_t] products would overflow where the OCaml
    datapath wraps modulo [2^63]. *)

val save_c_header : string -> Fixed_classifier.t -> unit
