(** Scalar fixed-point values.

    A value carries its format; mixing formats in binary operations raises
    [Invalid_argument] — the LDA-FP datapath keeps every operand in the same
    [QK.F] format (paper §3), and silently mixing formats is invariably a
    modelling bug.  All operations take an [?ov] overflow policy
    (default {!Rounding.Wrap}, matching two's-complement hardware) and,
    where quantisation occurs, a [?mode] rounding mode
    (default {!Rounding.Nearest}). *)

type t = private { raw : int; fmt : Qformat.t }

val create : Qformat.t -> int -> t
(** [create fmt raw] wraps [raw] into range and builds a value. *)

val of_float :
  ?mode:Rounding.mode -> ?ov:Rounding.overflow -> Qformat.t -> float -> t
(** Quantise a real number onto the grid of [fmt]. *)

val to_float : t -> float
val raw : t -> int
val format : t -> Qformat.t

val zero : Qformat.t -> t
val one : ?ov:Rounding.overflow -> Qformat.t -> t
(** The value [1.0]; saturates/wraps per [ov] if [k = 1] cannot hold it. *)

val min_val : Qformat.t -> t

val add : ?ov:Rounding.overflow -> t -> t -> t
val sub : ?ov:Rounding.overflow -> t -> t -> t
val neg : ?ov:Rounding.overflow -> t -> t
(** Note: negating [min_val] overflows (two's complement asymmetry). *)

val abs : ?ov:Rounding.overflow -> t -> t

val mul : ?mode:Rounding.mode -> ?ov:Rounding.overflow -> t -> t -> t
(** Full-precision product, rounded back into the common format. *)

val mul_exact_raw : t -> t -> int
(** Raw product in the doubled-precision format [Q(2k).(2f)]; never rounds.
    Useful for wide-accumulator datapaths. *)

val shift_left : ?ov:Rounding.overflow -> t -> int -> t
(** Multiply by [2^n] ([n >= 0]). *)

val shift_right : ?mode:Rounding.mode -> t -> int -> t
(** Divide by [2^n] ([n >= 0]), rounding. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int

val quantization_error : Qformat.t -> float -> float
(** [quantization_error fmt x] = [to_float (of_float fmt x) -. x] under
    nearest rounding with saturation; magnitude [<= ulp/2] when [x] is in
    range. *)

val pp : Format.formatter -> t -> unit
(** Prints as e.g. ["-0.625:Q2.4"]. *)

val to_string : t -> string
