(** Closed real intervals [[lo, hi]].

    Rigorous enclosures for the verified eigenvalue bound
    ({!Psd.verified_lambda_min}) and the LDA-FP box bounds: the
    directed-rounding operations below.  The dual certificate
    ({!Socp.certify_lower_bound}) takes the same steps on bare lo/hi
    endpoints, so it boxes no [t] per step. *)

type t = private { lo : float; hi : float }

val make : lo:float -> hi:float -> t
(** @raise Invalid_argument if [lo > hi] or either bound is NaN. *)

val point : float -> t
val lo : t -> float
val hi : t -> float

(** {2 Directed (outward) rounding}

    Every operation widens its result by
    one representable float on each side, so the true real-arithmetic
    result is guaranteed to lie inside the returned interval whatever
    the rounding mode did.  This over-approximates slightly (correctly
    rounded +, −, × are within half an ulp, we step a full ulp) but
    needs no FPU mode switching and composes freely.  Infinite
    endpoints are preserved, never stepped inward.  An operation whose
    endpoint arithmetic produces NaN (e.g. [∞ − ∞]) raises
    [Invalid_argument] via {!make}, never a bound. *)

val wide : t -> t
(** Step both endpoints one float outward. *)

val wide_add : t -> t -> t
val wide_sub : t -> t -> t

val wide_mul : t -> t -> t
(** Endpoint-product enclosure with the Kahan convention [0 · ±∞ = 0]:
    an exactly-zero factor contributes zero even against an unbounded
    interval (the sound closure of the limit for products over closed
    sets containing 0). *)
