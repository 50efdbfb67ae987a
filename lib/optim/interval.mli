(** Closed real intervals [[lo, hi]].

    Used for the auxiliary branch-and-bound variable [t = (μ_A−μ_B)ᵀw]
    (paper eq. 22) and as the continuous relaxation of weight boxes.  The
    bound constant of eq. (26), [sup t²] over an interval, lives here. *)

type t = private { lo : float; hi : float }

val make : lo:float -> hi:float -> t
(** @raise Invalid_argument if [lo > hi] or either bound is NaN. *)

val point : float -> t
val lo : t -> float
val hi : t -> float
val width : t -> float
val mid : t -> float
val mem : t -> float -> bool
val clamp : t -> float -> float

val sup_sq : t -> float
(** [sup { t² : t ∈ iv }] — eq. (26): the larger endpoint squared. *)

val split : ?at:float -> t -> t * t
(** Split at [at] (default the midpoint), clamped strictly inside. *)

val intersect : t -> t -> t option
val scale : float -> t -> t
val shift : float -> t -> t
val contains_zero : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Directed (outward) rounding}

    Rigorous enclosures for the dual-certificate evaluation
    ({!Socp.certify_lower_bound}): every operation widens its result by
    one representable float on each side, so the true real-arithmetic
    result is guaranteed to lie inside the returned interval whatever
    the rounding mode did.  This over-approximates slightly (correctly
    rounded +, −, × are within half an ulp, we step a full ulp) but
    needs no FPU mode switching and composes freely.  Infinite
    endpoints are preserved, never stepped inward.  An operation whose
    endpoint arithmetic produces NaN (e.g. [∞ − ∞]) raises
    [Invalid_argument] via {!make} — callers computing certificates
    treat that as a certification failure, never as a bound. *)

val wide : t -> t
(** Step both endpoints one float outward. *)

val neg : t -> t
(** Exact negation (no widening needed: negation is exact in IEEE). *)

val wide_add : t -> t -> t
val wide_sub : t -> t -> t

val wide_mul : t -> t -> t
(** Endpoint-product enclosure with the Kahan convention [0 · ±∞ = 0]:
    an exactly-zero factor contributes zero even against an unbounded
    interval (the sound closure of the limit for products over closed
    sets containing 0). *)
