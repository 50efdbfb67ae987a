(** Fixed-bin histograms with a terminal renderer.

    Used by the examples to visualise the projected class distributions
    (the view of the paper's Figure 1) and by tests as a cheap
    distribution check. *)

type t = private {
  lo : float;  (** left edge of the first bin *)
  hi : float;  (** right edge of the last bin *)
  counts : int array;
  underflow : int;
  overflow : int;
}

val create : lo:float -> hi:float -> bins:int -> t
(** @raise Invalid_argument if [lo >= hi] or [bins < 1]. *)

val add : t -> float -> t
val of_values : lo:float -> hi:float -> bins:int -> float array -> t

val of_counts :
  lo:float -> hi:float -> ?underflow:int -> ?overflow:int -> int array -> t
(** Wrap pre-accumulated bin counts (copied) — the bridge for mutable
    single-writer shards such as {!Obs.Metrics} per-domain latency
    buckets, which convert to [t] for {!merge}/{!quantile} aggregation.
    @raise Invalid_argument if [lo >= hi], [counts] is empty, or any
    count is negative. *)

val total : t -> int
(** Including under/overflow. *)

val merge : t -> t -> t
(** Bin-wise sum of two histograms over the {e same} layout (identical
    [lo], [hi] and bin count) — cross-domain aggregation of per-worker
    latency histograms.  @raise Invalid_argument on layout mismatch. *)

val quantile : t -> float -> float
(** [quantile t p] estimates the [p]-quantile ([0 <= p <= 1]) of the
    binned mass, interpolating linearly inside bins (uniform-in-bin
    assumption).  Mass in the underflow (overflow) tail has no position:
    quantiles landing there report [lo] ([hi]).
    @raise Invalid_argument if [p] is outside [0, 1] or [t] is empty. *)

val bin_of : t -> float -> [ `Bin of int | `Underflow | `Overflow ]
val bin_center : t -> int -> float
val mode_bin : t -> int
(** Index of the fullest bin (ties toward the left).
    @raise Invalid_argument on an empty histogram. *)

val mean_estimate : t -> float
(** Mean of the binned mass (bin centers weighted by counts; ignores
    under/overflow). @raise Invalid_argument when no in-range mass. *)

val render : ?width:int -> ?label:(float -> string) -> t -> string
(** ASCII bar chart, one line per bin. *)
