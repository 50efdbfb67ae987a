(** Perturbation analysis of fixed-point decision boundaries — the
    quantitative form of the paper's Figure 2.

    A classifier trained for [QK.F] lives on a grid; implementation
    non-idealities (late re-rounding, datapath truncation differences,
    or simply the next design iteration's rounding mode) perturb each
    weight by about one ulp.  A robust boundary keeps its error under
    every such perturbation; LDA-FP optimises for exactly this regime.

    [sweep] enumerates all [3^M] one-ulp perturbation patterns for
    [M <= 8] and falls back to random sampling beyond. *)

type report = {
  nominal : float;  (** error of the unperturbed classifier *)
  worst : float;
  mean : float;  (** average over the evaluated perturbations *)
  evaluated : int;
  exhaustive : bool;  (** whether all 3^M patterns were enumerated *)
}

val sweep : Fixed_classifier.t -> Datasets.Dataset.t -> report
(** Up to [M = 8] every pattern is evaluated; above it 200 random ±1-ulp
    patterns are drawn (seed 0).  Perturbed weights are clamped to the
    representable range. *)

val perturbed : Fixed_classifier.t -> int array -> Fixed_classifier.t
(** Apply a pattern of per-weight ulp steps (each in {-1, 0, +1} —
    values outside are clamped); the threshold and polarity are kept. *)
