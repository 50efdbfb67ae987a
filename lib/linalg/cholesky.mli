(** Cholesky factorisation of symmetric positive-definite matrices.

    Central to two parts of the system: solving the LDA normal equations
    [S_W w = μ_A - μ_B] (paper eq. 11) and factoring class covariances
    [Σ = L Lᵀ] so the SOC overflow constraints (eq. 20) can be written as
    norms [‖β Lᵀ w‖₂]. *)

exception Not_positive_definite of int
(** Raised with the index of the failing pivot. *)

val factor : Mat.t -> Mat.t
(** [factor a] returns lower-triangular [l] with [l lᵀ = a].
    Only the lower triangle of [a] is read.
    @raise Not_positive_definite if a pivot is [<= 0]. *)

val factor_into : ?jitter:float -> Mat.t -> dst:Mat.t -> unit
(** In-place {!factor}: writes the factor of [a + jitter*I] (default
    [jitter = 0]) into [dst] without allocating, zeroing [dst]'s upper
    triangle.  [dst] may alias [a] (classical in-place Cholesky), but on
    failure [dst] is left partially overwritten — aliasing callers lose
    [a] when the factorisation raises.

    Rows are factored left-looking in blocks of four by a C kernel
    ({!Kernels.factor}), one row per vector lane.  Each entry is still
    the row-by-row sum [a(i)(j) (+ jitter) − Σ_{k<j} l(i)(k)·l(j)(k)],
    from the same start, in ascending [k], so the factor is bit for bit
    the one the row-by-row loop gives, and a failing pivot (a sum
    [<= 0]; a NaN one passes) raises the same index.
    @raise Not_positive_definite if a pivot is [<= 0]. *)

val factor_jittered : Mat.t -> Mat.t * float
(** [factor_jittered a] factors [a + jitter*I], growing [jitter] from 0 by
    powers of ten starting at [1e-12 * max_abs a] until the factorisation
    succeeds; returns the factor and the jitter used.  This regularises the
    rank-deficient covariances that arise from small training sets.
    Only the lower triangle of [a] is read, the jitter scale included
    ([max_abs] over the lower triangle, computed only when the first
    attempt fails): for a symmetric [a] that is [Mat.max_abs a], and the
    strict upper triangle may hold anything, NaN included.
    @raise Not_positive_definite after 20 jittered attempts. *)

val factor_jittered_into : Mat.t -> dst:Mat.t -> float
(** In-place {!factor_jittered}: writes the factor into [dst] and returns
    the jitter used, reading only [a]'s lower triangle.  [dst] must {b not} alias [a] — failed attempts leave
    partial factors in [dst] and retry from the pristine [a].
    @raise Not_positive_definite after 20 jittered attempts. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve a b] solves [a x = b] for s.p.d. [a] via factorisation. *)

val solve_factored : Mat.t -> Vec.t -> Vec.t
(** [solve_factored l b] solves [(l lᵀ) x = b] given the factor. *)

val solve_factored_into : Mat.t -> Vec.t -> dst:Vec.t -> unit
(** In-place {!solve_factored}: writes the solution into [dst] without
    allocating.  [dst] may alias [b]. *)

val inverse : Mat.t -> Mat.t
(** Inverse of an s.p.d. matrix. *)

val log_det : Mat.t -> float
(** Log-determinant of an s.p.d. matrix via its factor. *)

val is_positive_definite : Mat.t -> bool
