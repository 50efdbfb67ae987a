(** Named counters, gauges and log-bucketed latency histograms.

    Metrics are registered once at module-initialisation time (eagerly —
    OCaml 5 makes concurrent [Lazy.force] unsafe, and init runs before
    any domain is spawned) and are cheap enough to update from the
    solver's hot paths: counters and gauges are atomics; a histogram
    observation indexes a {e per-domain} single-writer shard, so no lock
    or CAS contention is involved.  Every recorder is a no-op unless
    metrics are enabled.  An event's metrics belong to its {!Probe};
    only metrics with no event are recorded here directly.

    Histograms are log-bucketed: geometric bucket boundaries between
    [lo] and [hi], i.e. linear bins in [log10] space — which is exactly
    {!Stats.Histogram} over [log10 x], so export aggregates the
    per-domain shards with {!Stats.Histogram.merge} and estimates
    p50/p90/p99 with {!Stats.Histogram.quantile}.

    Exports ({!to_json}, {!to_prometheus}) read shard state without
    synchronisation: only export after the recording domains have been
    joined.  Metric name glossary lives in {!page-observability}. *)

type t
(** A metric registry. *)

type counter
type gauge
type histogram

val default : t
(** The process-global registry every solver-stack metric registers
    in. *)

val create : unit -> t
(** A fresh registry (tests). *)

val set_enabled : bool -> unit
(** Sets the metrics bit of {!Sink.mask}. *)

(** {1 Registration}

    Registering a duplicate name in the same registry raises
    [Invalid_argument]. *)

val counter : ?help:string -> t -> string -> counter

val gauge :
  ?help:string -> ?labels:(string * string) list -> ?init:float ->
  t -> string -> gauge
(** [labels] are constant key/value pairs rendered on the sample
    (Prometheus-style; [ldafp_build_info] carries the build identity in
    them).  [init] (default [0.]) is the value until the first
    {!set}. *)

val histogram : ?help:string -> lo:float -> hi:float -> t -> string -> histogram
(** Geometric buckets: 24 buckets between [lo] and [hi] (both [> 0]);
    observations below [lo] (or NaN / non-positive) count as underflow,
    at/above [hi] as overflow — both included in [count] and in the
    Prometheus [+Inf] bucket.
    @raise Invalid_argument unless [0 < lo < hi]. *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record one observation on the calling domain's shard. *)

(** {1 Reading} *)

val histogram_count : histogram -> int
(** Total observations incl. under/overflow, summed across shards. *)

val histogram_quantile : histogram -> float -> float option
(** [p]-quantile estimate in {e value} space ([10 ** q] of the log-space
    {!Stats.Histogram.quantile}); [None] when empty. *)

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"schema": "ldafp-metrics/1", "metrics": {name: {...}}}] — each
    histogram entry carries [count], [sum], [p50]/[p90]/[p99] and
    cumulative [buckets] ([{le, count}], matching Prometheus
    semantics). *)

val save_json : t -> string -> unit

val to_prometheus : t -> string
(** Prometheus text exposition format v0.0.4: [# HELP]/[# TYPE] lines,
    escaped label values, histograms as cumulative [_bucket{le="..."}]
    series ending in [+Inf], plus [_sum] and [_count]. *)

val save_prometheus : t -> string -> unit

val reset : t -> unit
(** Zero every metric (tests).  Only sound while recording domains are
    quiescent. *)
