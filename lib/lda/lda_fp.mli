(** The LDA-FP trainer: branch-and-bound over the QK.F weight grid
    (paper Algorithm 1).  A search region is a grid-aligned box for [w].
    Per region:

    - {e lower bound}: the exact linear-fractional relaxation
      ({!Ldafp_problem.relaxation}), one SOCP whose optimum is the
      minimum of the cost over the relaxed region (it replaces eq. 26's
      frozen denominator [η = sup t²]).  It carries the eq. 20 cones on
      demand: the root's program has none, a node whose optimum
      violates a cone left out is solved again with those cones, and
      its children inherit them; prune when infeasible (phase-I
      certificate) or when the bound beats the incumbent.  Every pruning
      bound comes from an independently verified dual certificate
      ({!Optim.Socp.certify_lower_bound}), never the solver's primal
      objective: approximate dual multipliers are extracted from the
      terminal barrier iterate, repaired onto the dual-feasible set, and
      the dual objective is evaluated in outward-rounded interval
      arithmetic, so the bound is true {e whatever} the primal solve
      did — a stalled or corrupted solve can cost nodes, never the
      optimum;
    - {e upper bound}: round the relaxation optimum onto the grid, check
      (18)/(20) exactly and polish by ±1-ulp coordinate descent (H2);
      the paper's [η = inf t²] re-solve (eq. 27) is not implemented;
    - {e branch}: split the most-relative-width weight at the relaxation
      optimum, grid-aligned.

    The incumbent is seeded before the search by the H1/H2 heuristics
    (see {!Ldafp_heuristics}) and handed to {!Optim.Bnb.minimize} as its
    [?incumbent], so even a node budget of zero reproduces a usable
    classifier.  The node program reads the search's live incumbent cost
    ({!Optim.Bnb.incumbent_cost}) as θ, which caps the program's z.

    A relaxation that fails on a region (an exception, a non-finite
    bound, a certificate that cannot be established) is contained by
    {!Optim.Bnb}'s one rule: one retry with jittered barrier parameters
    (perturbed [tau0], tolerances loosened a decade), then the certified
    {!Ldafp_problem.interval_lower_bound}; certificate failures are
    counted in {!Optim.Bnb.stats}[.cert_fallbacks]. *)

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
  polish_rounds : int;
      (** H2 passes over the coordinates for each node candidate
          (default 2); the seed polishes with [max 4 polish_rounds] *)
  warm_start : bool;
      (** start each child's relaxation from the parent's optimum,
          clipped into the child box and pulled inside — when that point
          is strictly interior the phase-I feasibility solve is skipped
          entirely.  Bounds stay certified either way (the barrier solve
          runs to the same tolerances from any interior start); disable
          to reproduce cold-start behaviour exactly (default true) *)
  socp_params : Optim.Socp.params;
  bnb_params : Optim.Bnb.params;
      (** includes [domains]: set it above 1 to explore the tree on
          several OCaml 5 domains — [bound_node]/[branch_node] are pure
          per node, so the oracle is safe to call concurrently *)
  checkpoint : checkpoint_spec option;  (** periodic snapshots + resume *)
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

type node
(** A search region: a grid-aligned box for [w], the eq. 20 cones its
    program carries and the warm-start state its bound solve inherits.
    Abstract: only a [?wrap_oracle] handed to {!solve} sees one. *)

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?wrap_oracle:
    ((node, Linalg.Vec.t) Optim.Bnb.oracle ->
    (node, Linalg.Vec.t) Optim.Bnb.oracle) ->
  Ldafp_problem.t ->
  outcome option
(** [None] when no feasible grid point was found (pathological formats);
    in particular [w = 0] is excluded because its cost is infinite.

    [?interrupt] is polled between nodes; returning [true] stops the
    search with {!Optim.Bnb.Interrupted} (and, with checkpointing
    enabled, snapshots the frontier first) — the hook for SIGINT
    handlers.  [train_seconds] counts this run only; across a
    checkpoint/resume chain the {e cumulative} wall clock governs
    [bnb_params.time_limit].

    [?wrap_oracle] is a test hook with no behaviour of its own: it
    receives the trainer's bound/branch oracle and returns the one the
    search calls (absent, the trainer's own).  Tests inject faults
    through it and keep the injector's failure counter themselves.  The
    fault retry and the fallback bound call the trainer's bound
    directly, never the wrapped one.
    @raise Optim.Checkpoint.Corrupt when [config.checkpoint] requests a
    resume and the file exists but fails validation (wrong problem,
    older format version, torn write, flipped bytes, garbage). *)
