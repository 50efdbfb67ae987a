(** Grid-aligned closed intervals of fixed-point values.

    The LDA-FP branch-and-bound partitions each weight's range into boxes
    whose endpoints always lie on the [QK.F] grid, so a box is "atomic"
    exactly when it contains a single grid point.  This module provides the
    interval bookkeeping for that search. *)

type t = private {
  fmt : Qformat.t;
  lo_raw : int;  (** raw code of the lower endpoint *)
  hi_raw : int;  (** raw code of the upper endpoint; [>= lo_raw] *)
}

val of_raw : Qformat.t -> lo:int -> hi:int -> t
(** @raise Invalid_argument if [lo > hi] or either is out of raw range. *)

val of_values : Qformat.t -> lo:float -> hi:float -> t
(** Shrink [lo] up and [hi] down onto the grid (so the result is the set of
    grid points inside [[lo, hi]]), clamped to the representable range.

    @raise Invalid_argument if no grid point lies in [[lo, hi]]. *)

val full : Qformat.t -> t
(** The whole representable range, eq. (28). *)

val lo : t -> float
val hi : t -> float
val count : t -> int
(** Number of grid points contained. *)

val is_singleton : t -> bool
val singleton_value : t -> float option
val mem : t -> float -> bool
(** Membership of the {e real} interval [[lo, hi]] (not just grid points). *)

val mid : t -> float
(** Grid point nearest the midpoint. *)

val split : ?at:float -> t -> (t * t) option
(** [split iv] cuts the interval into two disjoint, non-empty grid-aligned
    halves; [None] when the interval is a singleton.  [?at] cuts at the
    grid point at or below [at], so the left half is [[lo, ⌊at⌋]] and an
    off-grid [at] lies in neither half (the cut is clamped so both halves
    remain non-empty). *)

val clamp_value : t -> float -> float
(** Nearest grid point of the interval to a real number. *)

val width : t -> float
(** [hi - lo]. *)

val values : t -> float array
(** All contained grid values, ascending.
    @raise Invalid_argument when the interval holds more than 2^20 points. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
