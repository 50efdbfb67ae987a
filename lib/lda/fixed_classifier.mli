(** The on-chip fixed-point classifier (inference datapath).

    Holds everything the ASIC would hold: the quantised weight vector, the
    quantised threshold, and the per-feature shift exponents of the input
    scaler.  [predict] reproduces the hardware bit-for-bit: features are
    shifted and saturated into [QK.F] (the ADC/front-end), the projection
    is a wrapping multiply-accumulate in the same format, and the class is
    the sign of the comparison against the threshold (eq. 12). *)

type t = private {
  w : Fixedpoint.Fx_vector.t;
  threshold : Fixedpoint.Fx.t;
  scaling : Scaling.t;
  polarity : bool;
      (** [true]: class A when [y >= θ] (the usual case, projected μ_A
          above μ_B); [false]: comparator inverted.  One bit of hardware. *)
}

val create :
  ?polarity:bool ->
  w:Fixedpoint.Fx_vector.t ->
  threshold:Fixedpoint.Fx.t ->
  scaling:Scaling.t ->
  unit ->
  t
(** [polarity] defaults to [true].
    @raise Invalid_argument on format or dimension mismatch. *)

val of_weights :
  ?polarity:bool ->
  fmt:Fixedpoint.Qformat.t ->
  scaling:Scaling.t ->
  weights:Linalg.Vec.t ->
  threshold:float ->
  unit ->
  t
(** Quantise float weights (wrapping — callers are responsible for having
    kept them in range) and threshold (saturating). *)

val format : t -> Fixedpoint.Qformat.t
val n_features : t -> int
val weights : t -> Linalg.Vec.t
(** The quantised weights as reals (on the grid). *)

val threshold_value : t -> float

val quantize_input : t -> Linalg.Vec.t -> Fixedpoint.Fx_vector.t
(** Scale a raw feature vector and saturate it into the classifier format
    — the front-end conversion. *)

val project : t -> Linalg.Vec.t -> Fixedpoint.Fx.t
(** The wrapped MAC output [y = wᵀx] for a raw feature vector. *)

val predict : t -> Linalg.Vec.t -> bool
(** [project x >= threshold]. *)

val margin : t -> Linalg.Vec.t -> float
(** Signed decision margin toward class A: [(y − θ)] under normal
    polarity, [(θ − y) − ulp] when inverted (so that [margin >= 0] iff
    {!predict} says class A, matching the [>=] vs [<] asymmetry of
    eq. 12).  Computed from the fixed-point datapath output — this is the
    score a threshold-sweeping ROC uses. *)

val pp : Format.formatter -> t -> unit
