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

    Every [oracle.bound] / [oracle.branch] invocation is guarded: an
    escaping exception or a non-finite (NaN / [-infinity]) lower bound is
    classified (see {!Fault}) and handled by the configured policy —
    retried, degraded to the caller's cheap conservative fallback bound,
    or, as a recorded last resort, dropped.  A worker domain always
    releases its in-flight slot in a finaliser and closes the scheduler
    before an exception escapes, so one poisoned region can neither
    hang parked siblings nor corrupt the live-work count; with
    {!Fault.propagate} the pre-containment fail-fast behaviour is
    restored.

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
  log_every : int;  (** emit a [Logs] debug line every n nodes; 0 = never *)
  domains : int;
      (** number of domains exploring the tree, all taking work from
          the one shared frontier heap; values below 1 count as 1 *)
  max_frontier : int;
      (** bounded-memory frontier: when positive, the queued frontier is
          capped at this many regions, at every domain count, and the
          {e worst}-bound regions are shed on overflow.  Shedding stays {e sound}: the best bound among shed
          regions is folded into every reported [bound] and [gap] (and
          into the gap-tolerance test), so the anytime result never
          claims a tolerance it reached by discarding work — it may
          merely fail to converge below the shed residue.  [0] (default)
          = unlimited.  Shed counts surface in
          {!stats.frontier_shed}. *)
}

val default_params : params
(** [max_nodes = 100_000], [rel_gap = 1e-6], [abs_gap = 1e-12],
    no time limit, no logging, [domains = 1], unlimited frontier. *)

type ('region, 'sol) faults = {
  policy : Fault.policy;
  retry_bound : (attempt:int -> 'region -> 'sol bound_info option) option;
      (** used instead of [oracle.bound] for retry attempt [attempt >= 1]
          — the hook for jittered solver parameters (loosened barrier
          tolerances, perturbed start).  [None]: retries re-call
          [oracle.bound] unchanged (still useful against transient /
          injected faults). *)
  fallback_bound : ('region -> float) option;
      (** cheap {e certified} conservative lower bound (e.g. interval
          arithmetic) used to keep a region alive when its real bound
          keeps failing; must return a finite value or [+infinity].
          [None] disables degradation even when [policy.degrade]. *)
}

val default_faults : ('region, 'sol) faults
(** {!Fault.default_policy} with no retry override and no fallback:
    failures are retried once and then dropped (recorded). *)

type stop_reason =
  | Proved_optimal  (** queue exhausted or bound met incumbent *)
  | Gap_reached
  | Node_budget
  | Time_budget
  | Interrupted  (** the [?interrupt] poll returned [true] *)

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
          diagnostic.  Not persisted across checkpoints. *)
  oracle_failures : int;
      (** failing oracle invocations (exceptions and non-finite bounds),
          including failing retry attempts *)
  retries : int;  (** oracle re-invocations made by the fault policy *)
  degraded_bounds : int;
      (** regions kept alive with the conservative fallback bound *)
  dropped_regions : int;
      (** regions abandoned after the policy ran out of options — each
          one weakens the optimality claim, which is why they are
          counted rather than silent *)
  warm_start_hits : int;
      (** bound solves started from an inherited (parent) optimum — see
          {!oracle_counters}; 0 unless the oracle reports them *)
  phase1_skipped : int;
      (** phase-I feasibility solves avoided because a warm start was
          already strictly interior; 0 unless the oracle reports them *)
  warm_pull_ins : int;
      (** inherited optima repaired by the analytic-center pull-in
          ({!Socp.pull_to_interior}) before warm-starting — each one is
          a would-have-been [warm_miss_not_interior] *)
  warm_newton_corrections : int;
      (** inherited optima repaired by the one-step infeasible-start
          Newton correction ({!Socp.correct_to_interior}) after the
          pull-in failed *)
  warm_miss_no_parent : int;
      (** bound solves that went cold because the region carried no
          parent optimum (root, restored frontier, or never solved) *)
  warm_miss_not_interior : int;
      (** bound solves that went cold because the clipped parent optimum
          was not strictly interior to the child's cones *)
  warm_miss_fault_cleared : int;
      (** bound solves that went cold because a fault retry had
          deliberately discarded a tainted warm point *)
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
          the unverified value, so this does {e not} clear
          [certified_sound] — it measures how often the expensive bound
          had to be distrusted. *)
  certified_sound : bool;
      (** every pruning decision of the search — across the whole resume
          chain — compared the incumbent against a verified dual
          certificate or a certified interval fallback, never a raw
          primal objective.  [false] when the oracle ran with
          certification disabled ({!mark_uncertified}) in this run or
          in any earlier run of the resume chain.  Sticky once cleared;
          persisted through checkpoints. *)
  frontier_shed : int;
      (** queued regions shed by {!params.max_frontier}; their residual
          bound is already folded into [bound] and [gap] *)
  retry_budget_exhausted : int;
      (** node expansions whose {!Fault.policy.retry_budget} ran out, so
          later failures inside them skipped straight to
          degrade/drop *)
  retry_backoff_seconds : float;
      (** total wall-clock the containment policy spent sleeping between
          retries (capped exponential backoff; see
          {!Fault.backoff_delay}) *)
  oracle_seconds : float;
      (** cumulative wall-clock time spent inside [oracle.bound] calls
          (including retries and fallbacks), summed across domains and
          across a resume chain — {e not} comparable to wall-clock when
          [domains > 1]; see [domain_oracle_seconds] *)
  domain_oracle_seconds : float array;
      (** current-run oracle wall-time attributed to each worker domain
          (length [domains_used]); each entry is bounded by the run's
          wall-clock, so per-domain utilization is
          [domain_oracle_seconds.(i) / wall].  Not persisted across
          checkpoints. *)
  wall_seconds : float;
      (** wall-clock duration of the search on the monotonic
          {!Obs.Clock} — immune to NTP steps, unlike timing the call
          with [Unix.gettimeofday].  Cumulative across a resume chain
          (the pre-resume elapsed time is restored from the
          checkpoint), so [time_limit] and [wall_seconds] speak the
          same clock. *)
}
(** Search statistics — the observability the ablation benches report.
    All fields except the per-domain arrays ([domain_oracle_seconds],
    [domain_first_node_seconds]) survive a checkpoint/resume cycle,
    carried by the typed fields of {!snapshot}. *)

val stats_to_json : stats -> Obs.Json.t
(** Every {!stats} field as a flat JSON object (per-domain arrays as
    JSON arrays), in declaration order — the shape persisted into
    bench experiment records and {!Obs.Run_ledger} records, and the
    leaf names [ldafp runs diff] keys its regression heuristics on
    ([certified_sound], [cert_fallbacks], ...). *)

type oracle_counters
(** Warm-start accounting shared between the driver and the bound
    oracle.  The driver cannot see {e how} an oracle solved a node, so an
    oracle that warm-starts reports it here; the driver merges the
    counts (plus its own oracle wall-time measurement) into {!stats} and
    persists them across checkpoints.  Counters are atomic — safe to
    bump from any worker domain. *)

val oracle_counters : unit -> oracle_counters
(** Fresh zeroed counters.  Pass the same value to [?counters] and to
    the oracle closure that increments it. *)

val count_warm_start_hit : oracle_counters -> unit
(** Record one bound solve started from an inherited optimum. *)

val count_phase1_skipped : oracle_counters -> unit
(** Record one phase-I solve skipped thanks to a strictly interior warm
    start. *)

val count_warm_pull_in : oracle_counters -> unit
(** Record one inherited optimum repaired by the analytic-center
    pull-in before warm-starting. *)

val count_warm_newton_correction : oracle_counters -> unit
(** Record one inherited optimum repaired by the one-step Newton
    correction after the pull-in failed. *)

val count_warm_miss_no_parent : oracle_counters -> unit
(** Record one cold bound solve on a region with no inherited optimum. *)

val count_warm_miss_not_interior : oracle_counters -> unit
(** Record one cold bound solve whose inherited optimum failed the
    strict-interior test after clipping. *)

val count_warm_miss_fault_cleared : oracle_counters -> unit
(** Record one cold bound solve whose inherited optimum had been
    discarded by a fault retry. *)

val count_cert_verified : oracle_counters -> unit
(** Record one bound whose dual certificate verified as extracted. *)

val count_cert_repaired : oracle_counters -> unit
(** Record one bound whose certificate verified after the closed-form
    multiplier repair. *)

val mark_uncertified : oracle_counters -> unit
(** Clear the sticky [certified_sound] flag: the oracle is about to
    prune on unverified primal objectives (certification explicitly
    disabled).  There is deliberately no way to set it back. *)

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
  save_on_stop : bool;
      (** also snapshot when stopping on [Node_budget] / [Time_budget] /
          [Interrupted] (never on a completed search — a finished run
          needs no resume) *)
}

val checkpointing : ?every_nodes:int -> ?save_on_stop:bool ->
  fingerprint:string -> string -> checkpointing
(** [checkpointing ~fingerprint path] with [every_nodes = 0] and
    [save_on_stop = true] by default. *)

type ('region, 'sol) snapshot = {
  frontier : (float * 'region) array;
      (** live regions keyed by certified lower bound — every region
          that was queued or in flight at snapshot time *)
  incumbent : ('sol * float) option;
  nodes_explored : int;
  elapsed : float;  (** wall-clock seconds consumed before the snapshot *)
  infeasible_regions : int;
  bound_pruned : int;
  stale_pops : int;
  incumbent_updates : int;
  children_generated : int;
  idle_wakeups : int;
  oracle_failures : int;
  retries : int;
  degraded_bounds : int;
  dropped_regions : int;
  retry_budget_exhausted : int;
  retry_backoff_ns : int;
  warm_start_hits : int;
  phase1_skipped : int;
  warm_pull_ins : int;
  warm_newton_corrections : int;
  warm_miss_no_parent : int;
  warm_miss_not_interior : int;
  warm_miss_fault_cleared : int;
  oracle_time_us : int;
  cert_verified : int;
  cert_repaired : int;
  cert_fallbacks : int;
  certified_sound : bool;
      (** {!resume} can only clear the live flag from this, never set
          it: a chain is sound only if every run in it was *)
  frontier_shed : int;
  shed_bound : float;
      (** best bound over the shed subtrees, stored bit-exact;
          [infinity] while nothing was shed *)
}
(** The one checkpoint schema: everything {!resume} needs to continue a
    search, as typed fields.  The counters are the cumulative totals of
    the matching {!stats} fields (times in integer micro- or
    nanoseconds).  The driver writes one through {!Checkpoint.save}
    under [checkpointing.fingerprint]; read it back with
    [(Checkpoint.load ~fingerprint ~path : (_, _) snapshot)].  There is
    no migration: changing this record (or a region/solution type stored
    in it) bumps {!Checkpoint}'s format version, so older files are
    rejected with {!Checkpoint.Corrupt}. *)

val minimize :
  ?params:params ->
  ?faults:('region, 'sol) faults ->
  ?checkpointing:checkpointing ->
  ?interrupt:(unit -> bool) ->
  ?counters:oracle_counters ->
  ?progress:Obs.Progress.t ->
  ('region, 'sol) oracle ->
  'region ->
  'sol result
(** Explore from the root region, on [params.domains] domains.  The
    root is always bounded on the calling domain before the other
    workers spawn.  Termination semantics (gap, node budget, wall-clock
    limit) are identical across domain counts.  The gap test uses the
    exact minimum bound over queued {e and} in-flight regions, read
    under the frontier lock, so it is never optimistic at any domain
    count.  The node budget may overshoot by at most [domains - 1]
    nodes already claimed when the budget trips.  [?interrupt] is
    polled between nodes by every worker, without any lock held;
    returning [true] stops the search with {!Interrupted} — the hook
    for signal handlers.  [?progress] emits a throttled search-wide
    status line (nodes/s, incumbent, certified bound — shed residue
    included — gap, per-domain oracle utilization) after node
    expansions; with
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
    is re-queued at its certified keys (without re-bounding), the
    incumbent, node count, statistics and elapsed wall-clock time are
    copied back field by field, so [max_nodes] and [time_limit] budget
    the {e whole} search across restarts.  A search killed at any point
    and resumed, at any domain count, reaches the same incumbent cost
    as the uninterrupted run (verified by property tests).  The caller
    loads the snapshot with {!Checkpoint.load}, whose fingerprint,
    version and digest checks stand between the file and this
    function. *)
