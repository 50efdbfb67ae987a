(** Batched, allocation-free inference over a trained classifier.

    An engine bakes a {!Ldafp_core.Fixed_classifier} into tables
    (weight codes, threshold code, per-feature scales [2^(f - e_j)] and
    scaling exponents) plus one scratch projection row, and serves
    predictions over {!Batch}es through two C kernels: the front-end
    quantiser and the MAC.  The batched path is bit-for-bit identical
    to the scalar [predict]: same front-end quantisation, same wrapping
    multiply-accumulate, same threshold comparison.  The MAC rounds
    each product half to even without a branch and wraps each column's
    sum into the word length once, at the end, which equals the scalar
    path's wrap after every step.

    The steady state allocates nothing: {!load}, {!load_rows},
    {!project_into} and {!predict_into} on a warm batch perform zero
    minor-heap allocations (unit-tested), so a long-lived server loop
    never pressures the GC.

    Observability (one atomic load when every sink is off):
    - [ldafp_infer_predictions_total] — predictions served;
    - [ldafp_infer_batch_seconds] — wall time of one batched call;
    - an [infer.batch] trace span per call when tracing is on. *)

type t

val of_fixed : ?capacity:int -> Ldafp_core.Fixed_classifier.t -> t
(** Bake the classifier's tables.  [capacity] (default [1024]) bounds
    the batch size served per call.
    @raise Invalid_argument if [capacity < 1]. *)

val n_features : t -> int
val capacity : t -> int

val format : t -> Fixedpoint.Qformat.t
(** The classifier's format: weights, features and accumulator share
    it. *)

val polarity : t -> bool

val make_batch : t -> Batch.t
(** A fresh batch in the engine's input format and capacity. *)

val load : t -> Batch.t -> col:int -> float array -> unit
(** Front-end conversion of one raw (unscaled) feature vector into
    column [col]: apply the model's power-of-two scaling, round to
    nearest (ties to even), saturate into the engine format — bit for
    bit [Fixed_classifier.quantize_input], through the C row body that
    {!load_rows} shares.  Does not touch the batch length.
    @raise Invalid_argument if the batch's format is not the engine's,
    if [x] or the batch has the wrong feature count, if [col] is outside
    [\[0, capacity)], or if a feature is NaN (the message names the
    feature index; the column's codes are then unspecified). *)

val load_rows : t -> Batch.t -> ?start:int -> ?n:int -> float array array -> int
(** Load rows [start .. start+n-1] into columns [0 .. n-1] (clamped to
    what fits the batch capacity and the array), set the batch length,
    return the count loaded.  One C call per batch, which prefetches
    the rows ahead of the one it quantises.  Checks as {!load}, per
    row: the first bad row in row order raises {!load}'s message for it
    (prefixed [Engine.load_rows]); the rows before it are loaded, the
    columns after it are untouched and the batch length is left as it
    was.
    @raise Invalid_argument also if [start < 0], or, when any row would
    be loaded, if the batch has the wrong feature count. *)

val project_into : t -> Batch.t -> unit
(** Run the MAC kernel over the live columns; results are readable via
    {!projection_raw}.  Allocation-free.
    @raise Invalid_argument on format or shape mismatch. *)

val projection_raw : t -> int -> int
(** Raw accumulator output of column [i] from the last
    {!project_into}. *)

val margin : t -> int -> float
(** Signed decision margin of column [i] from the last {!project_into},
    matching [Fixed_classifier.margin]. *)

val predict_into : t -> Batch.t -> Bytes.t -> unit
(** Project and threshold the live columns, writing ['\001'] (class A)
    or ['\000'] into [out.[0 .. length-1]].  Allocation-free on the
    steady state.
    @raise Invalid_argument if [out] is shorter than the batch
    length. *)
