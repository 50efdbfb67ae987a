(** Random sampling from Gaussian distributions.

    The dataset simulators model features as class-conditional multivariate
    Gaussians — exactly the statistical model (eq. 14) under which the
    LDA-FP overflow constraints are derived. *)

val std_normal : Rng.t -> float
(** One standard normal draw (Marsaglia polar method). *)

val normal : Rng.t -> mean:float -> sigma:float -> float

type mvn
(** A prepared multivariate normal sampler (mean + covariance factor). *)

val mvn : mean:Linalg.Vec.t -> cov:Linalg.Mat.t -> mvn
(** Prepare a sampler.  The covariance is symmetrised and factored with
    jitter if needed.
    @raise Invalid_argument on dimension mismatch. *)

val mvn_draws : mvn -> Rng.t -> int -> Linalg.Mat.t
(** [n] draws as rows of an [n × m] matrix. *)
