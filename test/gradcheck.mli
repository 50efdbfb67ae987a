(** Finite-difference verification of gradient/Hessian oracles.

    Every hand-derived derivative in this repository (the SOC barrier of
    {!Optim.Socp}, the logistic loss of the comparison classifier, test
    oracles) is validated against central differences — the cheapest
    insurance against the classic sign-and-factor-of-two bugs that
    silently degrade Newton methods into gradient descent. *)

type report = {
  max_grad_error : float;
      (** max over coordinates of |analytic − numeric| / (1 + |numeric|) *)
  max_hess_error : float;  (** same for Hessian entries; 0 if not checked *)
}

val check :
  ?h:float ->
  ?hessian:bool ->
  f:(Linalg.Vec.t -> float) ->
  grad:(Linalg.Vec.t -> Linalg.Vec.t) ->
  ?hess:(Linalg.Vec.t -> Linalg.Mat.t) ->
  Linalg.Vec.t ->
  report
(** Central differences with step [h] (default [1e-5], scaled by
    [1 + |x_i|] per coordinate).  [hessian] (default true when [hess]
    given) differentiates the gradient. *)

val check_oracle : ?h:float -> Optim.Newton.oracle -> Linalg.Vec.t -> report option
(** Convenience for a combined {!Optim.Newton.oracle}; [None] if the point is
    outside the oracle's domain. *)
