(** Closed real intervals [[lo, hi]].

    Rigorous enclosures for the dual certificate
    ({!Socp.certify_lower_bound}) and the verified eigenvalue bound
    ({!Psd.verified_lambda_min}): the directed-rounding operations
    below. *)

type t = private { lo : float; hi : float }

val make : lo:float -> hi:float -> t
(** @raise Invalid_argument if [lo > hi] or either bound is NaN. *)

val point : float -> t
val lo : t -> float
val hi : t -> float

val scale : float -> t -> t
val shift : float -> t -> t

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
