(** Labelled binary-classification datasets.

    Rows of [features] are trials; [labels.(i) = true] marks class A
    (the paper's convention: class A is decided by [wᵀx − θ >= 0]). *)

type t = private {
  name : string;
  features : Linalg.Mat.t;
  labels : bool array;
}

val create : name:string -> features:Linalg.Mat.t -> labels:bool array -> t
(** @raise Invalid_argument on row/label count mismatch, empty data,
    ragged rows, or non-finite (NaN/infinite) feature values — a
    malformed trial must fail loudly at ingestion, not as a silent
    mis-quantisation at inference. *)

val n_trials : t -> int
val n_features : t -> int
val class_counts : t -> int * int
(** [(n_a, n_b)]. *)

val class_split : t -> Linalg.Mat.t * Linalg.Mat.t
(** Feature matrices of class A and class B trials, in original order.
    @raise Invalid_argument if either class is empty. *)

val of_class_matrices : name:string -> a:Linalg.Mat.t -> b:Linalg.Mat.t -> t
(** Concatenate per-class matrices into a dataset (A first). *)

val shuffle : Stats.Rng.t -> t -> t

val split : t -> train_fraction:float -> Stats.Rng.t -> t * t
(** Stratified random split: each class is divided in the given
    proportion.  @raise Invalid_argument unless [0 < train_fraction < 1]. *)

val stratified_folds : Stats.Rng.t -> k:int -> t -> (t * t) array
(** [k] cross-validation folds as [(train, test)] pairs; each class is
    permuted once and dealt round-robin so fold sizes differ by at most
    one per class (the paper's 5-fold protocol on 70 trials/class).
    @raise Invalid_argument if [k < 2] or either class has fewer than [k]
    trials. *)

val map_features : (Linalg.Vec.t -> Linalg.Vec.t) -> t -> t
val pp_summary : Format.formatter -> t -> unit
