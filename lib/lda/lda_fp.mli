(** The LDA-FP trainer: branch-and-bound over the QK.F weight grid
    (paper Algorithm 1).

    The search region pairs a grid-aligned box for [w] with an interval
    for the auxiliary [t = (μ_A − μ_B)ᵀ w].  Per region:

    - {e lower bound}: solve the convex SOCP relaxation (eq. 25) with the
      denominator frozen at [η = sup t²] (eq. 26); prune when infeasible
      (phase-I certificate) or when the bound beats the incumbent;
    - {e upper bound}: round the relaxation optimum onto the grid, check
      (18)/(20) exactly, optionally re-solve with [η = inf t²] (eq. 27)
      and polish by ±1-ulp coordinate descent;
    - {e branch}: split the most-relative-width dimension (one of the
      [w_m], or [t]) at the relaxation optimum, grid-aligned for weights.

    The incumbent is seeded before the search by the H1/H2 heuristics
    (see {!Ldafp_heuristics}), so even a node budget of zero reproduces a
    usable classifier. *)

type checkpoint_spec = {
  path : string;  (** checkpoint file (written atomically, tmp + rename) *)
  every_nodes : int;
      (** snapshot cadence in explored nodes; [0] = only when stopping
          on a budget or interrupt *)
  resume : bool;
      (** load [path] (fingerprint-checked against the problem) and
          continue the search instead of starting from the root; a
          missing file degrades to a fresh run *)
}

val checkpoint_spec :
  ?every_nodes:int -> ?resume:bool -> string -> checkpoint_spec
(** [every_nodes] defaults to [0], [resume] to [false]. *)

type config = {
  seed_incumbent : bool;  (** run H1+H2 before the search (default true) *)
  sweep_steps : int;  (** H1 scaling count (default 200) *)
  polish_nodes : bool;  (** H2 polish on per-node candidates *)
  polish_rounds : int;
  upper_via_socp : bool;
      (** also solve the η = inf t² problem per node, as in the paper's
          upper-bound estimation (slower; default false because H1/H2
          rounding reaches the same incumbents in practice) *)
  t_min_width : float;
      (** stop branching on [t] below this fraction of its root width *)
  t_branch_bias : float;
      (** branching preference multiplier for the [t] dimension — the
          η = sup t² bound only tightens as the t-interval shrinks, so t
          should split earlier than the weights (default 3) *)
  secant_prune : bool;
      (** per-node incumbent-pruning certificate: over [t ∈ [l, u]],
          [t² <= (l+u)t − lu], so a positive minimum of
          [wᵀS_W w − θ((l+u)t − lu)] proves no point of the region beats
          the incumbent θ.  Unlike the η bound this couples numerator and
          denominator, and it is what lets the search close regions whose
          boxes still contain w = 0 (default true) *)
  warm_start : bool;
      (** start each child's relaxation from the parent's optimum,
          clipped strictly inside the child box — when the clipped point
          is strictly interior the phase-I feasibility solve is skipped
          entirely, and the lower-bound optimum in turn warm-starts the
          [η = inf t²] re-solve.  Bounds stay certified either way (the
          barrier solve runs to the same tolerances from any interior
          start); disable to reproduce cold-start behaviour exactly
          (default true) *)
  certify : bool;
      (** derive every pruning bound from an independently verified dual
          certificate ({!Optim.Socp.certify_lower_bound}) instead of the
          solver's primal objective: approximate dual multipliers are
          extracted from the terminal barrier iterate, repaired onto the
          dual-feasible set, and the dual objective is evaluated in
          outward-rounded interval arithmetic, so the bound is true
          {e whatever} the primal solve did — a stalled or corrupted
          solve can cost nodes, never the optimum.  Applies to the main
          relaxation bound {e and} the secant prune.  Certificate
          failures flow through the fault policy (retry with jitter,
          then degrade to the certified
          {!Ldafp_problem.interval_lower_bound}) and are counted in
          {!Optim.Bnb.stats}[.cert_fallbacks].  Disabling restores the
          trusting [objective − 2·gap_bound] formula and clears the
          {!Optim.Bnb.stats}[.certified_sound] flag (default true) *)
  socp_params : Optim.Socp.params;
  bnb_params : Optim.Bnb.params;
      (** includes [domains]: set it above 1 to explore the tree on
          several OCaml 5 domains — [bound_node]/[branch_node] are pure
          per node, so the oracle is safe to call concurrently *)
  fault_policy : Optim.Fault.policy;
      (** what to do when the relaxation solver fails on a region
          (default {!Optim.Fault.default_policy}: one retry, then
          degrade).  Retries re-solve with jittered barrier parameters
          (perturbed [tau0], tolerances loosened a decade per attempt);
          degradation falls back to
          {!Ldafp_problem.interval_lower_bound} *)
  checkpoint : checkpoint_spec option;  (** periodic snapshots + resume *)
  inject_faults : Optim.Fault_inject.config option;
      (** deterministic fault injection on the oracle — test/bench
          harness, [None] in production *)
  progress : Obs.Progress.t option;
      (** throttled live progress reporter (incumbent / bound / gap /
          node rate), forwarded to {!Optim.Bnb.minimize}; [None]
          (default) emits nothing *)
}

val default_config : config

val quick_config : config
(** A low-node-budget configuration for tests and examples. *)

type diagnostics = {
  nodes : int;
  bound : float;  (** certified global lower bound on the cost *)
  gap : float;
  stop_reason : Optim.Bnb.stop_reason;
  seed_cost : float option;  (** incumbent cost after H1/H2 only *)
  train_seconds : float;
      (** wall-clock on the monotonic {!Obs.Clock} (immune to NTP
          steps), consistent with [time_limit] *)
  search : Optim.Bnb.stats;  (** pruning/incumbent statistics *)
}

type outcome = {
  w : Linalg.Vec.t;  (** optimal grid weights (scaled-feature space) *)
  cost : float;  (** eq. (21) objective at [w] *)
  diagnostics : diagnostics;
}

val solve :
  ?config:config -> ?interrupt:(unit -> bool) -> Ldafp_problem.t ->
  outcome option
(** [None] when no feasible grid point was found (pathological formats);
    in particular [w = 0] is excluded because its cost is infinite.

    [?interrupt] is polled between nodes; returning [true] stops the
    search with {!Optim.Bnb.Interrupted} (and, with checkpointing
    enabled, snapshots the frontier first) — the hook for SIGINT
    handlers.  [train_seconds] counts this run only; across a
    checkpoint/resume chain the {e cumulative} wall clock governs
    [bnb_params.time_limit].
    @raise Optim.Checkpoint.Corrupt when [config.checkpoint] requests a
    resume and the file exists but fails validation (wrong problem,
    older format version, torn write, flipped bytes, garbage). *)
