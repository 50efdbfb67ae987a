(** A verified lower bound on the smallest eigenvalue of a symmetric
    matrix. *)

val verified_lambda_min : ?factor:Linalg.Mat.t -> Linalg.Mat.t -> float
(** A proved [λ̲ >= 0] with [λ̲ <= λ_min(a)] for the symmetric [a]: a
    floating-point Cholesky factorisation of [a − s·I] that runs to
    completion, judged by Rump's backward-error criterion ("Verification
    of positive definiteness", BIT 2006) in outward-rounded arithmetic
    ({!Interval}).  The shift [s] is a fraction of a Lanczos estimate of
    [λ_min], so [λ̲] lands within about 0.1% of [λ_min] on
    well-conditioned input.  [0] for an indefinite or singular [a].
    [factor], the Cholesky factor of [a] when the caller has one, saves
    the factorisation the Lanczos estimate runs on.  O(n³). *)
