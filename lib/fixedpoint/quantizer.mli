(** The allocation-free front-end quantiser.

    Converts a vector of raw floats into raw codes of one format,
    dividing feature [j] by [2^e_j] on the way in, and writes them
    straight into one column of a feature-major Bigarray.  The result is
    bit-for-bit the scalar specification

    {[ Fx.raw (Fx.of_float ~ov:Rounding.Saturate fmt (ldexp x_j (-e_j))) ]}

    (round to nearest, ties to even, saturate), for every float and
    every integer exponent.  It only computes it differently: one
    multiply by the baked scale [2^(f - e_j)], a clamp against the
    format's raw range and a branch-free round to nearest even, with no
    boxing.  A feature whose scale [2^(f - e_j)] is not a normal double
    (exponents beyond about ±1000) falls back to the two [ldexp]s of
    the specification, since a multiply by an overflowed or underflowed
    scale turns [inf * 0] into NaN.

    {!Fx.of_float} stays the reference: nothing here is shared with it. *)

type t

val create : Qformat.t -> exponents:int array -> t
(** Bake the per-feature scales for quantising [x_j / 2^exponents.(j)]
    into [fmt].  [exponents] is copied. *)

val into :
  t ->
  what:string ->
  float array ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array2.t ->
  col:int ->
  unit
(** [into t ~what x data ~col] quantises [x] into [data.{j, col}] for
    every feature [j].  Allocates nothing.  The shape checks run once
    per call; [what] prefixes their messages.
    @raise Invalid_argument if [x] or [data] (its rows) does not have
    one entry per exponent, if [col] is outside
    [\[0, Bigarray.Array2.dim2 data)], or if some [x.(j)] is NaN (the
    message names [j]).  On a NaN the features before [j] are already
    written. *)
