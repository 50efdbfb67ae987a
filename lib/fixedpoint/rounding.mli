(** Rounding and overflow policies for fixed-point conversion.

    A fixed-point datapath is characterised by how it quantises real values
    onto the grid ({!mode}) and what it does when a value exceeds the
    representable range ({!overflow}).  The LDA-FP paper assumes
    round-to-nearest quantisation and two's-complement {e wrapping} on
    overflow; saturation and error-raising variants are provided for
    testing and for comparing datapath choices. *)

type mode =
  | Nearest  (** round to nearest, ties to even raw code (default) *)
  | Nearest_away  (** round to nearest, ties away from zero *)
  | Toward_zero  (** truncate toward zero *)
  | Floor  (** round toward negative infinity (drop low bits) *)
  | Ceil  (** round toward positive infinity *)

type overflow =
  | Wrap  (** two's-complement wrap-around (hardware register semantics) *)
  | Saturate  (** clamp to the representable range *)
  | Error  (** raise {!Fixed_point_overflow} *)

exception Fixed_point_overflow of string
(** Raised by conversions under the {!Error} overflow policy. *)

val round_scaled : mode -> float -> int
(** [round_scaled mode s] rounds the already-scaled value [s] (in units of
    one ulp) to an integer raw code according to [mode].  Magnitudes
    beyond the [int] range saturate to [max_int]/[min_int] (where
    [int_of_float] would be unspecified) so callers can clamp them into
    format bounds; NaN raises [Invalid_argument]. *)

val shift_right_rounded : mode -> int -> int -> int
(** [shift_right_rounded mode r n] computes [round(r / 2^n)] on integers
    without going through floats; exact for any raw magnitude that fits in
    an OCaml [int].  [n >= 0]. *)

val apply_overflow : overflow -> Qformat.t -> what:string -> int -> int
(** Resolve an out-of-range raw code according to the overflow policy.
    [what] names the operation for the {!Error} message. *)
