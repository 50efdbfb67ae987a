(** Sample moments of a data matrix (rows are observations).

    Means follow paper eqs. (3)–(4); covariances use the biased [1/N]
    normaliser of eqs. (5)–(6). *)

val mean : Linalg.Mat.t -> Linalg.Vec.t
(** Column-wise mean. @raise Invalid_argument on an empty matrix. *)

val covariance : Linalg.Mat.t -> Linalg.Mat.t
(** Biased sample covariance [1/N Σ (x−μ)(x−μ)ᵀ]. *)

val covariance_unbiased : Linalg.Mat.t -> Linalg.Mat.t
(** [1/(N−1)] normaliser. @raise Invalid_argument when [N < 2]. *)

val variances : Linalg.Mat.t -> Linalg.Vec.t
(** Diagonal of {!covariance}. *)

val std_devs : Linalg.Mat.t -> Linalg.Vec.t
val column_min : Linalg.Mat.t -> Linalg.Vec.t
val column_max : Linalg.Mat.t -> Linalg.Vec.t
