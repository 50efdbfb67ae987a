(** Generic best-first branch-and-bound for global minimisation.

    Abstracts Algorithm 1 of the paper: the caller supplies a [bound]
    oracle that, for a region, returns a certified lower bound on the cost
    over that region (or proves the region infeasible) together with an
    optional feasible incumbent candidate, and a [branch] rule that splits
    a region into sub-regions.  The driver keeps a min-heap of live regions
    keyed by lower bound, prunes regions whose bound exceeds the incumbent
    and stops on proof of optimality, a gap tolerance, or a budget.

    With [params.domains > 1] the driver runs the same search across
    that many OCaml 5 domains sharing one best-first heap (see
    {!Frontier}): each domain takes the minimum-bound region, expands
    it and pushes the children back.  The oracle must be safe to call
    concurrently from several domains on {e distinct} regions (pure
    per-node functions of the shared read-only problem qualify;
    region-local mutation is fine because each region is processed by
    exactly one domain).  The incumbent cost and feasibility are
    identical to the one-domain search on a run-to-completion; the
    explored node {e count} and ordering depend on scheduling.  With
    [domains = 1] (the default) nothing is spawned and the search is
    plain best-first order over the heap.

    {2 Fault containment}

    Every [oracle.bound] / [oracle.branch] invocation is guarded by one
    fixed rule.  An escaping exception, a non-finite (NaN / [-infinity])
    lower bound or a {!Certificate_error} is a failure: the call is
    retried once (through [faults.retry_bound] when given), then the
    region is degraded to [faults.fallback_bound], and as a recorded
    last resort dropped.  A failing [branch] is retried once, then the
    region is dropped.  Every step is counted in {!stats}, and the
    lowest key a drop lost caps the global bound
    ([stats.dropped_bound]): a drained search that dropped a region
    below its incumbent stops [Exhausted], never [Proved_optimal].
    [Out_of_memory], [Stack_overflow] and [Sys.Break] are never
    contained: they escape {!minimize}.  A worker domain always
    releases its in-flight slot in a finaliser and closes the scheduler
    before an exception escapes, so one poisoned region can neither
    hang parked siblings nor corrupt the live-work count.

    {2 Checkpointing}

    With [?checkpointing] the driver periodically (every
    [every_nodes] explored nodes, and on any budget/interrupt stop)
    serialises the live frontier, incumbent and statistics — one
    {!snapshot} — to disk via {!Checkpoint} (atomically, tmp + rename,
    digest-checked) and {!resume} restarts from such a snapshot instead
    of the root.  The contract required for parallel snapshots: [branch]
    must not mutate the region it splits (both the LDA-FP oracle and
    anything purely functional satisfy this). *)

type 'sol bound_info = {
  lower : float;
      (** certified lower bound on the cost over the region; [+infinity]
          allowed (prunes immediately) *)
  candidate : ('sol * float) option;
      (** a feasible solution found inside the region and its exact cost *)
}

type ('region, 'sol) oracle = {
  bound : 'region -> 'sol bound_info option;
      (** [None] = region proved infeasible *)
  branch : 'region -> 'region list;
      (** split a region; return [[]] when atomic (fully explored by
          [bound]) *)
}

type params = {
  max_nodes : int;
  rel_gap : float;  (** stop when (incumbent − best bound) ≤ rel_gap·|incumbent| *)
  abs_gap : float;
  time_limit : float option;
      (** wall-clock seconds, measured on the monotonic {!Obs.Clock}
          (CPU time would overshoot the budget and scale ~N× wrong
          across N domains; [Unix.gettimeofday] is NTP-steppable
          mid-search) *)
  domains : int;
      (** number of domains exploring the tree, all taking work from
          the one shared frontier heap; values below 1 count as 1 *)
}

val default_params : params
(** [max_nodes = 100_000], [rel_gap = 1e-6], [abs_gap = 1e-12],
    no time limit, [domains = 1]. *)

type ('region, 'sol) faults = {
  retry_bound : (attempt:int -> 'region -> 'sol bound_info option) option;
      (** used instead of [oracle.bound] for the retry ([attempt = 1]) —
          the hook for jittered solver parameters (loosened barrier
          tolerances, perturbed start).  [None]: the retry re-calls
          [oracle.bound] unchanged (still useful against transient /
          injected faults). *)
  fallback_bound : ('region -> float) option;
      (** cheap {e certified} conservative lower bound (e.g. interval
          arithmetic) used to keep a region alive when its real bound
          keeps failing; must return a finite value or [+infinity].
          [None]: a region whose retry fails too is dropped. *)
}
(** The caller's side of the containment rule. *)

val default_faults : ('region, 'sol) faults
(** No retry override and no fallback: failures are retried once and
    then dropped (recorded). *)

exception Certificate_error of string
(** Raised by a bound oracle when the independent dual certificate of
    an otherwise successful solve cannot be established
    ({!Socp.certify_lower_bound} returned an error): the bound is
    unverified and must not be used.  Contained like any other failure
    (a jittered retry gets a fresh certificate chance, then the region
    degrades to the fallback bound) and counted in
    {!stats}[.cert_fallbacks] when the retry fails too. *)

type stop_reason =
  | Proved_optimal
      (** frontier drained, and no dropped region's key
          ([stats.dropped_bound]) lies below the incumbent *)
  | Gap_reached
  | Node_budget
  | Time_budget
  | Interrupted  (** the [?interrupt] poll returned [true] *)
  | Exhausted
      (** frontier drained, but a dropped region could hold a point
          cheaper than the incumbent: the result's [bound] is
          [stats.dropped_bound], not the incumbent *)

val stop_reason_name : stop_reason -> string
(** Stable snake-case name (["proved_optimal"], ["gap_reached"], ...)
    used by the bench records, the run ledger and the [/healthz]
    telemetry phase. *)

type stats = {
  infeasible_regions : int;  (** regions the bound oracle proved empty *)
  bound_pruned : int;  (** regions rejected because their bound met the incumbent *)
  stale_pops : int;  (** queue entries dominated by a newer incumbent *)
  incumbent_updates : int;
  children_generated : int;
  domains_used : int;  (** worker domains: [params.domains], at least 1 *)
  idle_wakeups : int;
      (** times a worker domain found the frontier heap empty while
          siblings still held regions in flight, and parked; 0 at one
          domain, where an empty heap means the search is drained *)
  domain_first_node_seconds : float array;
      (** current-run time from search start until each worker expanded
          its first node (length [domains_used]; [-1.0] for a worker
          that never expanded one) — the time-to-first-node startup
          diagnostic.  Saved in a checkpoint, never restored. *)
  oracle_failures : int;
      (** failing oracle invocations (exceptions and non-finite bounds),
          including failing retry attempts *)
  retries : int;  (** oracle re-invocations made by the containment rule *)
  degraded_bounds : int;
      (** regions kept alive with the conservative fallback bound *)
  dropped_regions : int;
      (** regions abandoned after the containment rule ran out of
          options — each one weakens the optimality claim, which is why
          they are counted rather than silent *)
  dropped_bound : float;
      (** the lowest key of any region whose branch, or one of whose
          children's bounds, was dropped — a lower bound on every point
          the search lost, and so a cap on [result.bound] and on the gap
          test.  [neg_infinity] when the root's own bound was dropped,
          [infinity] while nothing was dropped *)
  warm_start_hits : int;
      (** bound solves started from an inherited (parent) optimum — see
          {!oracle_counters}; 0 unless the oracle reports them.  With the
          three [warm_miss_*] counters it partitions the bound solves *)
  phase1_skipped : int;
      (** main bound phase-I feasibility solves avoided because a warm
          start was strictly interior (as-is or after repair): one per
          [warm_start_hits], which it always equals *)
  warm_pull_ins : int;
      (** inherited optima repaired by the analytic-center pull-in
          ({!Socp.pull_to_interior}) before warm-starting, one per
          [socp.warm_pull] event *)
  warm_miss_no_parent : int;
      (** bound solves that went cold because the region carried no
          parent optimum (root, restored frontier, or never solved) *)
  warm_miss_not_interior : int;
      (** bound solves that went cold because the clipped parent optimum
          was not strictly interior to the child's cones *)
  warm_miss_fault_cleared : int;
      (** bound solves that went cold because a fault retry had
          deliberately discarded a tainted warm point *)
  cone_resolves : int;
      (** bound solves repeated because the first solve's optimum
          violated a constraint its program had left out (the LDA-FP
          trainer's eq. 20 cones on demand), one per [lda.cones] event;
          each repeat is one more solve in the warm-start partition *)
  cert_verified : int;
      (** bound solves whose dual certificate verified without repair —
          see {!Socp.certify_lower_bound}; 0 unless the oracle reports
          them via {!count_cert_verified} *)
  cert_repaired : int;
      (** verified certificates that needed the closed-form multiplier
          repair first (still fully certified — repair is projection
          onto the dual-feasible set, never a leap of faith) *)
  cert_fallbacks : int;
      (** bound calls whose certificate could not be established even
          after retries, so the region was degraded to the certified
          interval fallback (or dropped).  The search never pruned on
          the unverified value; this measures how often the expensive
          bound had to be distrusted. *)
  certified_sound : bool;
      (** always [true]: no search of this build prunes on an
          unverified bound (the LDA-FP trainer prunes on verified dual
          certificates or the certified fallback and has no trusting
          mode).  The field stays so that ledger records keep the key:
          [ldafp runs diff] flags a [false] in a record written by an
          older build's trusting mode. *)
  oracle_seconds : float;
      (** cumulative wall-clock time spent inside [oracle.bound] calls
          (including retries and fallbacks), summed across domains and
          across a resume chain — {e not} comparable to wall-clock when
          [domains > 1]; see [domain_oracle_seconds] *)
  domain_oracle_seconds : float array;
      (** current-run oracle wall-time attributed to each worker domain
          (length [domains_used]); each entry is bounded by the run's
          wall-clock, so per-domain utilization is
          [domain_oracle_seconds.(i) / wall].  Saved in a checkpoint,
          never restored. *)
  wall_seconds : float;
      (** wall-clock duration of the search on the monotonic
          {!Obs.Clock} — immune to NTP steps, unlike timing the call
          with [Unix.gettimeofday].  Cumulative across a resume chain
          (the pre-resume elapsed time is restored from the
          checkpoint), so [time_limit] and [wall_seconds] speak the
          same clock. *)
}
(** Search statistics — the observability the ablation benches report.
    A {!snapshot} stores the record as it stood when saved, and
    {!resume} carries every cumulative field forward.  The per-run
    fields — [domains_used] and the per-domain arrays
    ([domain_oracle_seconds], [domain_first_node_seconds]) — are saved
    but never restored: they describe the run that reports them.
    [phase1_skipped] is derived from [warm_start_hits], and
    [certified_sound] is a constant. *)

val stats_to_json : stats -> Obs.Json.t
(** Every {!stats} field as a flat JSON object (per-domain arrays as
    JSON arrays), in declaration order — the shape persisted into
    bench experiment records and {!Obs.Run_ledger} records, and the
    leaf names [ldafp runs diff] keys its regression heuristics on
    ([certified_sound], [cert_fallbacks], ...). *)

type oracle_counters
(** State shared between the driver and the bound oracle: the live
    incumbent cost, and the counters.  The driver cannot see {e how} an
    oracle solved a node, so an oracle that warm-starts reports it here;
    the driver merges the counts (plus its own oracle wall-time and
    containment counts) into {!stats} and persists them across
    checkpoints.  Everything is atomic — safe to touch from any worker
    domain. *)

val oracle_counters : unit -> oracle_counters
(** Fresh zeroed counters.  Pass the same value to [?counters] and to
    the oracle closure that increments it. *)

val count_warm_start_hit : oracle_counters -> unit
(** Record one bound solve started from an inherited optimum. *)

val count_warm_pull_in : oracle_counters -> unit
(** Record one inherited optimum repaired by the analytic-center
    pull-in before warm-starting — for any program the oracle solves,
    main bound or not, so the count matches the [socp.warm_pull]
    events. *)

val count_warm_miss_no_parent : oracle_counters -> unit
(** Record one cold bound solve on a region with no inherited optimum. *)

val count_warm_miss_not_interior : oracle_counters -> unit
(** Record one cold bound solve whose inherited optimum failed the
    strict-interior test after clipping. *)

val count_warm_miss_fault_cleared : oracle_counters -> unit
(** Record one cold bound solve whose inherited optimum had been
    discarded by a fault retry. *)

val count_cone_resolve : oracle_counters -> unit
(** Record one bound solve repeated with constraints its first solve's
    optimum violated. *)

val count_cert_verified : oracle_counters -> unit
(** Record one bound whose dual certificate verified as extracted. *)

val count_cert_repaired : oracle_counters -> unit
(** Record one bound whose certificate verified after the closed-form
    multiplier repair. *)

val incumbent_cost : oracle_counters -> float
(** The search's incumbent cost as it stands ([infinity] before there is
    one): the search's own, so it only ever falls during a search.  An
    oracle bounding a region may use it as a cap: anything in the region
    costing more is pruned anyway. *)

type 'sol result = {
  best : ('sol * float) option;  (** incumbent and its cost *)
  bound : float;  (** greatest certified global lower bound *)
  gap : float;  (** incumbent − bound; [infinity] without incumbent *)
  nodes_explored : int;
  stop_reason : stop_reason;
  stats : stats;
}

type checkpointing = {
  path : string;
  every_nodes : int;
      (** snapshot cadence in explored nodes; [0] = only on stop *)
  fingerprint : string;
      (** problem identity written into the file and verified on load *)
}
(** The driver also snapshots when it stops on [Node_budget] /
    [Time_budget] / [Interrupted], never on a completed search (a
    finished run needs no resume). *)

val checkpointing : ?every_nodes:int -> fingerprint:string -> string -> checkpointing
(** [checkpointing ~fingerprint path] with [every_nodes = 0] by
    default. *)

type ('region, 'sol) snapshot = {
  frontier : (float * 'region) array;
      (** live regions keyed by certified lower bound — every region
          that was queued or in flight at snapshot time *)
  incumbent : ('sol * float) option;
  nodes_explored : int;
  stats : stats;
      (** the search's statistics at snapshot time;
          [stats.wall_seconds] is the wall-clock consumed so far *)
}
(** The one checkpoint schema: everything {!resume} needs to continue a
    search.  The driver writes one through {!Checkpoint.save} under
    [checkpointing.fingerprint]; read it back with
    [(Checkpoint.load ~fingerprint ~path : (_, _) snapshot)].  There is
    no migration: changing this record, {!stats} (or a region/solution
    type stored in it) bumps {!Checkpoint}'s format version, so older
    files are rejected with {!Checkpoint.Corrupt}. *)

val minimize :
  ?params:params ->
  ?faults:('region, 'sol) faults ->
  ?checkpointing:checkpointing ->
  ?interrupt:(unit -> bool) ->
  ?counters:oracle_counters ->
  ?progress:Obs.Progress.t ->
  ?incumbent:'sol * float ->
  ('region, 'sol) oracle ->
  'region ->
  'sol result
(** Explore from the root region, on [params.domains] domains.
    [?incumbent] (a feasible solution and its exact cost, e.g. from a
    heuristic) is installed first, like any candidate: counted in
    [incumbent_updates] and reported to the probes.  Then the root is
    bounded on the calling domain before the other workers spawn.  Termination semantics (gap, node budget, wall-clock
    limit) are identical across domain counts.  The gap test uses the
    exact minimum bound over queued {e and} in-flight regions, read
    under the frontier lock, so it is never optimistic at any domain
    count.  The node budget may overshoot by at most [domains - 1]
    nodes already claimed when the budget trips.  [?interrupt] is
    polled between nodes by every worker, without any lock held;
    returning [true] stops the search with {!Interrupted} — the hook
    for signal handlers.  [?progress] emits a throttled search-wide
    status line (nodes/s, incumbent, certified bound, gap, per-domain
    oracle utilization) after node expansions; with
    [domains > 1] the workers share the reporter's rate limit, so the
    cadence is unchanged.

    Tracing and metrics need no per-call wiring: the driver's probes
    emit node and bound-oracle spans, incumbent and fault-containment
    instants, and latency histograms to whichever sinks are on (see
    {!page-observability}); with none on, each site costs one atomic
    load and allocates nothing. *)

val resume :
  ?params:params ->
  ?faults:('region, 'sol) faults ->
  ?checkpointing:checkpointing ->
  ?interrupt:(unit -> bool) ->
  ?counters:oracle_counters ->
  ?progress:Obs.Progress.t ->
  ('region, 'sol) oracle ->
  ('region, 'sol) snapshot ->
  'sol result
(** Continue a search from a {!snapshot}: the saved frontier
    is re-queued at its certified keys (without re-bounding), and the
    incumbent, node count, cumulative statistics and elapsed wall-clock
    time carry forward (oracle time at whole-microsecond resolution),
    so [max_nodes] and [time_limit] budget the {e whole} search across
    restarts.  A search killed at any point
    and resumed, at any domain count, reaches the same incumbent cost
    as the uninterrupted run (verified by property tests).  The caller
    loads the snapshot with {!Checkpoint.load}, whose fingerprint,
    version and digest checks stand between the file and this
    function. *)
