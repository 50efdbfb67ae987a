(** Fixed-point vectors and the classifier MAC datapath.

    All elements of a vector share one format.  The central operation is
    {!dot}, which models the on-chip multiply-accumulate loop of the LDA-FP
    classifier: each product is rounded back into [QK.F] and the running
    sum is accumulated in a [QK.F] register with two's-complement wrapping.
    Per the paper's §3 observation, intermediate wrap-around is harmless as
    long as the {e final} sum is representable — see {!dot_reference} and
    the property tests. *)

type t

val create : Qformat.t -> int -> t
(** [create fmt n] is a zero vector of length [n]. *)

val of_floats :
  ?mode:Rounding.mode -> ?ov:Rounding.overflow -> Qformat.t -> float array -> t
(** Quantise every component. *)

val of_fx : Fx.t array -> t
(** @raise Invalid_argument on an empty array or mixed formats. *)

val to_floats : t -> float array
val length : t -> int
val format : t -> Qformat.t
val get : t -> int -> Fx.t
val set : t -> int -> Fx.t -> unit
val map : (Fx.t -> Fx.t) -> t -> t

val dot : t -> t -> Fx.t
(** Hardware MAC: products rounded half to even into the common format
    and wrapped, accumulated with wrapping adds.  This is
    the datapath whose overflow behaviour the LDA-FP constraints (18) and
    (20) are designed to keep safe. *)

val dot_wide : ?mode:Rounding.mode -> t -> t -> Fx.t
(** Wide-accumulator MAC: exact raw products summed in doubled precision,
    rounded and wrapped into the common format once at the end.  A costlier
    datapath with a single rounding error; provided for ablation. *)

val dot_reference : t -> t -> float
(** Exact real-valued dot product of the quantised components (no product
    rounding, no wrapping) — the value constraints (18)/(20) reason about. *)

val add : ?ov:Rounding.overflow -> t -> t -> t
val sub : ?ov:Rounding.overflow -> t -> t -> t
val neg : ?ov:Rounding.overflow -> t -> t
val scale : ?mode:Rounding.mode -> ?ov:Rounding.overflow -> Fx.t -> t -> t

val linf_norm : t -> float
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
