(** L2-regularised logistic regression — a second classifier family for
    calibrating the LDA-FP results.

    The paper compares LDA-FP only against conventional LDA.  A natural
    question is whether the fixed-point fragility is specific to LDA or
    generic to linear classifiers trained in floating point; this module
    answers it by training logistic regression (Newton/IRLS on the convex
    log-loss, reusing {!Optim.Newton}) and deploying it through the same
    fixed-point pipeline, either by plain rounding or by the
    scale-swept rounding of {!to_fixed_swept} (the quantisation-aware-lite
    treatment).  The benches show the same cliff at short word lengths —
    the failure mode is the float-train/round-later flow, not LDA. *)

type model = private {
  w : Linalg.Vec.t;
  bias : float;
  lambda : float;  (** regularisation strength used in training *)
}

val train :
  ?lambda:float ->
  ?max_iter:int ->
  Linalg.Mat.t ->
  Linalg.Mat.t ->
  model
(** [train a b] on per-class feature matrices (class A positive);
    [lambda] defaults to [1e-3] (per-sample scale-free: multiplied by the
    trial count internally). *)

val decision_value : model -> Linalg.Vec.t -> float
(** [wᵀx + bias]. *)

val predict : model -> Linalg.Vec.t -> bool
val loss : model -> Linalg.Mat.t -> Linalg.Mat.t -> float
(** Mean regularised log-loss on a dataset (for tests/monitoring). *)

val loss_oracle :
  lambda:float -> Linalg.Mat.t -> bool array -> Optim.Newton.oracle
(** The training objective over [θ = (w, bias)] — exposed so tests can
    finite-difference it (see [test/gradcheck.ml]). *)

val to_fixed :
  fmt:Fixedpoint.Qformat.t -> scaling:Scaling.t -> model -> Fixed_classifier.t
(** Conventional flow: unit-normalise [(w, bias)] by [‖w‖₂] and round. *)

val to_fixed_swept :
  fmt:Fixedpoint.Qformat.t ->
  scaling:Scaling.t ->
  validate:(Fixed_classifier.t -> float) ->
  model ->
  Fixed_classifier.t
(** Scale-swept rounding: try ~100 joint scalings of [(w, bias)], round
    each, keep the one with the lowest [validate] score (typically
    training error) — quantisation-aware deployment without retraining. *)

val train_pipeline :
  ?lambda:float ->
  fmt:Fixedpoint.Qformat.t ->
  swept:bool ->
  Datasets.Dataset.t ->
  Fixed_classifier.t
(** Shared front end (fit scaling, train on scaled floats), then
    {!to_fixed} or {!to_fixed_swept} (validated on training error). *)
