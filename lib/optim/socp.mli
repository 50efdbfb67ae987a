(** Convex quadratic programs with linear and second-order-cone
    constraints, solved by a log-barrier interior-point method.

    This is the engine behind the LDA-FP lower/upper bound estimation
    (paper eq. 25): each branch-and-bound box yields a problem

    {v minimize (1/2) xᵀP x + qᵀx
      s.t.  aᵢᵀx ≤ bᵢ                      (box, dᵀy ≥ 1, range of 1/t)
            ‖Lⱼx + gⱼ‖₂ ≤ cⱼᵀx + dⱼ       (projection overflow, eq. 20) v}

    with [P] positive semidefinite.  The barrier for a second-order cone is
    the standard self-concordant [−log((cᵀx+d)² − ‖Lx+g‖²)].  Each
    problem forms its cones' Grams [LᵀL] once, in its constructor, so
    the barrier Hessian costs O(n²) per cone per Newton step. *)

type lin = { a : Linalg.Vec.t; b : float }
(** The half-space [aᵀx <= b]. *)

type soc = {
  l : Linalg.Mat.t;
  g : Linalg.Vec.t;
  c : Linalg.Vec.t;
  d : float;
}
(** The cone [‖l x + g‖₂ <= cᵀx + d]. *)

type problem = private {
  n : int;  (** number of variables *)
  p : Linalg.Mat.t;  (** quadratic term; symmetric PSD, [n × n] *)
  q : Linalg.Vec.t;
  lins : lin array;
  socs : soc array;
  grams : Linalg.Mat.t array;
      (** per cone, the lower triangle of the Gram [LᵀL] of its [l] (row
          [i] holds columns [0..i], all the barrier Hessian reads),
          computed once by {!of_parts}; cones built from one physically
          shared [l] share one *)
  lin_support : int array;
      (** per half-space: the index of the first nonzero entry of its
          [a] when it has one or two, or [−1] when it has more or none.
          Such rows (the box rows) cost O(1) in the barrier oracle. *)
  lin_support2 : int array;
      (** per half-space: the index of the second nonzero entry when
          there are exactly two, else [−1].  The rows with one nonzero
          bound the coordinate box of {!certify_lower_bound}. *)
  cone_src : int array;
      (** per cone: the first cone built from the same physical [l] and
          [g], whose residual [Lx + g] it shares (itself when none) *)
  cone_off : int array;
      (** per cone: where its residual starts in the barrier oracle's
          scratch, shared cones at one offset *)
}

val problem :
  ?p:Linalg.Mat.t ->
  ?q:Linalg.Vec.t ->
  ?lins:lin list ->
  ?socs:soc list ->
  int ->
  problem
(** [problem n] with omitted pieces defaulting to zero.  Copies and
    symmetrises [P], then {!of_parts}.
    @raise Invalid_argument on any dimension mismatch. *)

val of_parts :
  p:Linalg.Mat.t ->
  q:Linalg.Vec.t ->
  lins:lin array ->
  socs:soc array ->
  int ->
  problem
(** Allocation-lean constructor for callers assembling many problems from
    shared pieces (the branch-and-bound bound oracle): checks dimensions
    and that [p] is {e exactly} symmetric, then {b shares} the given
    arrays instead of copying them.  The barrier Hessian reads only
    [p]'s lower triangle, while the gradient and the certificate's
    tangent step use [P x], so a [p] off by one ulp across the diagonal
    would give a wrong optimum and an overstated bound.  The symmetry
    test is O(n²); the one O(constraints·n) pass records
    {!field-lin_support}.  Computes one {!field-grams} entry per
    {e physically} distinct [l], each summed over the rows of [l] in
    ascending order from +0, so the barrier Hessians are bit-identical
    to the textbook [Σ_r l(r)(i)·l(r)(j)]: O(rows·n²) per distinct [l]
    (≈ n³/6 for a triangular one), n²/2 words.  Callers must not mutate the parts
    afterwards.
    @raise Invalid_argument on any dimension mismatch, a cone [l] with
    rows of unequal length, or an asymmetric [p]. *)

val objective_value : problem -> Linalg.Vec.t -> float

val max_violation : problem -> Linalg.Vec.t -> float
(** Largest constraint violation at a point ([<= 0] means feasible);
    for cones this is [‖Lx+g‖ − (cᵀx+d)]. *)

val is_feasible : ?tol:float -> problem -> Linalg.Vec.t -> bool
(** [max_violation <= tol] (default [1e-9]). *)

val min_relative_slack : problem -> Linalg.Vec.t -> float
(** The smallest relative constraint slack at a point: over half-spaces,
    [(b − aᵀx) / (1 + |b| + |aᵀx|)]; over cones, the
    [σ = (cᵀx+d) − ‖Lx+g‖] slack divided by [1 + |cᵀx+d| + ‖Lx+g‖]
    (computed roundoff-consistently with the barrier's own domain test).
    Positive iff strictly interior; the margin {!is_strictly_interior}
    compares against.  Exposed for tests and diagnostics. *)

val is_strictly_interior : ?margin:float -> problem -> Linalg.Vec.t -> bool
(** Every half-space slack and every cone slack strictly positive (the
    barrier's domain), or [false] on a dimension mismatch.  Cheap —
    O(constraints · n), no derivatives — so warm starts can be tested on
    the hot path.  [margin] (default [0.]) is {e relative}: each
    constraint must clear [margin × (1 + |b| + |aᵀx|)] (half-spaces)
    resp. [margin × (1 + |cᵀx+d| + ‖Lx+g‖)] (cones, in the
    [σ = (cᵀx+d) − ‖Lx+g‖] slack form), so the verdict is invariant
    under rescaling the constraint coefficients — an absolute tolerance
    here silently rejected valid warm starts on large-coefficient
    relaxations. *)

type params = {
  tau0 : float;  (** initial barrier weight on the objective *)
  gap_tol : float;  (** stop when [ν/τ] (suboptimality bound) is below *)
  newton : Newton.params;
}
(** The barrier weight grows by a factor 15 per outer iteration, for at
    most 60 outer iterations. *)

val default_params : params

val warm_start_params : params -> tau_final:float -> params
(** The interior-point warm-start schedule advance for a start taken
    from a solve that terminated at barrier weight [tau_final] (its
    {!solution.tau_final}): [tau0] climbs the ladder's own products
    [tau0 · 15 · 15 · …] to the last rung not above [tau_final] — the
    producing solve's terminal tau itself, to the bit, when that solve
    climbed the same ladder.  {!solve}'s mandatory centering step then
    re-centres the start once at that tau, and on the same [ν] the
    ladder stops there: the final [τ] and the certified [ν/τ] gap bound
    are unchanged, only the Newton iterations spent getting there
    differ.  The params are returned unchanged when [tau_final] is not
    finite or is below [tau0 · 15]. *)

(** {2 Warm-start interiority repair}

    A parent optimum clipped into a child's box almost always lands
    {e on} the child's new half-space boundary (the branch cut passes
    through it or just beside it, and clipping moves it there), so the
    plain interiority test rejects it and the solve pays a full
    phase-I.  These helpers repair such a start instead —
    the decision tree is {!prepare_warm_start}; taxonomy and measurement
    guide in {!page-solver}. *)

val pull_to_interior :
  ?margin:float ->
  problem ->
  target:Linalg.Vec.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t option
(** Blend [x] toward [target] by the smallest α ∈ [0, 1] such that every
    constraint clears [margin] (default [1e-8]) × its residual scale —
    certified, not searched: half-space slacks are affine in α and cone
    slacks [σ = u − ‖v‖] are concave (affine minus convex), so the chord
    bound [(1−α)σ(x) + ασ(target)] under-estimates the true slack and
    the per-constraint safe α is closed-form.  [None] when [target]
    itself does not clear that margin (it must be strictly interior with
    room to spare) or the blend fails the final rounding re-check at
    [margin / 4].  The result is within the segment [x]–[target], so
    any convex constraint set containing both contains it. *)

type warm_prep =
  | Warm_interior  (** accepted as-is: already margin-interior *)
  | Warm_pulled  (** repaired by {!pull_to_interior} *)

val prepare_warm_start :
  ?params:params ->
  tau_final:float ->
  target:Linalg.Vec.t ->
  problem ->
  Linalg.Vec.t ->
  (Linalg.Vec.t * warm_prep * params) option
(** The warm start of [x], taken from a solve that terminated at barrier
    weight [tau_final], and its ladder: the start, how it was prepared,
    and [warm_start_params params ~tau_final] (default
    {!default_params}), whose [tau0] we call τ₀ here.  The decision
    tree: [x] if it is already certifiably interior (relative margin
    [1e-8], as {!pull_to_interior}); else its pull-in toward [target] by
    the relative margin [15·ν/τ₀] — the duality measure of the rung
    below τ₀ — where [target] clears that margin, else by [1e-8]; else
    [None]: solve cold.  A point centred on that rung lies about that
    far inside its constraints, so a parent optimum on a branch cut
    pulled that far in re-centres in the one rung at τ₀, where one left
    [1e-8] inside costs many damped Newton steps.  The fallback returns
    [Some] wherever the [1e-8] tree alone does.  Pass the point to
    {!solve} as [start] with the returned params.  Emits the
    [socp.warm_pull] trace instant and bumps its metrics counter when a
    pull-in repairs a start. *)

type status = Optimal | Suboptimal
(** [Suboptimal]: an outer-iteration limit, or a last centering that
    stalled, hit Newton's iteration limit or diverged (NaN); the
    returned point is feasible but the gap bound may exceed [gap_tol]
    or the point may sit off the central path. *)

type solution = {
  x : Linalg.Vec.t;
  objective : float;
  gap_bound : float;  (** certified bound on suboptimality, [ν/τ] *)
  tau_final : float;
      (** the barrier weight the point was last centered at, so
          [gap_bound = ν / tau_final].  The dual-side warm information
          a child solve feeds to {!warm_start_params} — carrying it with the point
          is what lets checkpoint-restored nodes skip the early rungs
          too, whichever worker domain solves them. *)
  outer_iterations : int;
  newton_iterations : int;
  status : status;
}

val solve :
  ?params:params ->
  problem ->
  start:Linalg.Vec.t ->
  solution
(** Path-following from a strictly interior [start] (every slack
    positive: {!is_strictly_interior} at margin 0), with at least one
    centering step.  [start] is never mutated.
    @raise Invalid_argument if [start] is not strictly interior — a
    start on the boundary included: repair it with
    {!prepare_warm_start} or {!find_strictly_feasible} first — or the
    problem has no constraint (no barrier to follow). *)

type feasibility =
  | Strictly_feasible of Linalg.Vec.t
  | Infeasible of float  (** certified positive lower bound on violation *)
  | Unknown of Linalg.Vec.t  (** best point found; violation within noise *)

val find_strictly_feasible :
  ?params:params -> problem -> start:Linalg.Vec.t -> feasibility
(** Phase-I: minimise the auxiliary slack [s] with every constraint relaxed
    by [s], from an arbitrary [start].  Succeeds as soon as an iterate
    clears [1e-9] × each constraint's residual scale
    (the relative-slack convention of {!is_strictly_interior}). *)

(** {2 Independent dual certificates}

    A barrier solve's primal objective is {e not} a safe lower bound on
    the problem optimum: a stalled or diverged solve can return a value
    above the truth, and a branch-and-bound search pruning on it would
    silently discard the optimum.  {!certify_lower_bound} turns the
    terminal iterate into an independently verified fact: it extracts
    approximate dual multipliers from barrier stationarity, repairs
    them onto the dual-feasible set with a closed-form projection
    (clipping negative half-space multipliers, shrinking cone
    multiplier pairs onto the cone against an upward-rounded norm), and
    evaluates the resulting dual objective in outward-rounded interval
    arithmetic (the steps of {!Interval.wide_add} and friends, taken on
    bare lo/hi endpoints so no interval is boxed) with the Lagrangian
    stationarity residual absorbed over the problem's coordinate box
    (Neumaier–Shcherbina) or, on a block where the caller vouches for
    the curvature of [P], through that curvature.  Weak duality then makes the result a true
    lower bound regardless of primal solve quality — the certificate
    depends on the primal point only through the {e tightness} of the
    bound, never its {e validity}. *)

type certificate = {
  dual_value : float;
      (** verified lower bound on the problem optimum *)
  slack : float;  (** [solution.objective − dual_value]; may be negative
                      when the primal iterate overshot *)
  repaired : bool;  (** at least one multiplier needed projection *)
}

type cert_failure =
  | Cert_repair_failed of string
      (** no dual-feasible point could be built (unusable terminal
          barrier weight, non-finite iterate, …) or the interval
          evaluation did not produce a finite value (a NaN endpoint, an
          empty harvested box, or a nonzero stationarity residual on a
          coordinate the constraints leave unbounded) *)
  | Cert_gap_excessive of float
      (** a valid bound was produced but its primal-dual slack (the
          payload) exceeds [max_rel_slack × (1 + |objective|)] — the
          solve is too poor to trust either side; callers should
          re-solve or fall back *)

val describe_cert_failure : cert_failure -> string

val certify_lower_bound :
  ?max_rel_slack:float ->
  ?psd_block:int array * float ->
  problem ->
  solution ->
  (certificate, cert_failure) result
(** Requires what {!val-problem} already guarantees — [P] PSD — and
    nothing about the solution: the primal point need not be feasible,
    only finite.  The stationarity residual [ρ] is charged over the
    coordinate box the half-spaces give — the single-nonzero rows, then
    the two-nonzero rows through them (the box charge) — and, with
    [~psd_block:(block, λ̲)], through [P]'s curvature on [block]
    (about [−½ρ_BᵀP_BB⁻¹ρ_B]) and the box on the rest (the curvature
    charge); the larger is the bound.  The curvature charge is valid
    only if [δᵀPδ >= λ̲·‖δ_B‖²] for every [δ] — the caller's claim, not
    checked here; it keeps the bound finite on coordinates no box row
    bounds.  A [λ̲] that is not finite and positive is a
    {!Cert_repair_failed}.  At a centered iterate the certified slack
    is about [ν/τ], typically {e tighter} than the heuristic
    [objective − 2·gap_bound].  [max_rel_slack] (default [0.1])
    triggers {!Cert_gap_excessive}, relative to [1 + |objective|].
    Emits the [socp.cert*] probes ([socp.cert] a span over the whole
    call, whatever its outcome) and observes the slack histogram.
    Cost: O(n² + constraints·n) in interval arithmetic, plus one
    Cholesky factorisation of [P_BB] with [~psd_block].  On a
    43-variable LDA-FP node program one call allocates about 4k minor
    words, 12k with [~psd_block] (the copy and factor of [P_BB]). *)

(**/**)

val centering_for_tests : problem -> float -> Newton.oracle_into
(** The split centering oracle of [τ·f + barrier] that every barrier
    solve runs, in the per-domain scratch.  Not part of the stable
    API.  [value]: O(n²) for [P x], O(rows·n) per distinct cone
    residual [Lx+g], O(1) per single-nonzero half-space, O(n) per other
    half-space.  [derivs]: the gradient and the Hessian's lower
    triangle, O(n²) per cone (reading the cone's Gram; [Lᵀv] is
    O(rows·n) per distinct residual), O(1) per single-nonzero
    half-space, O(n²) per other half-space.  [ray]: O(n²) for [P d],
    O(rows·n) per distinct residual for [Ld], O(1) or O(n) per
    half-space as [value]; each trial is then O(constraints), [Δ(t)]
    formed from per-constraint ratios ([log1p] of the relative change
    of each slack), accurate to a few ulps of its largest term. *)

val outward_for_tests : float -> float * float
(** The certificate's one-float outward steps of [x], down and up: the
    [(Float.pred x, Float.succ x)] of every [x] but [+∞] (kept up) and
    [−∞] (kept down). *)

val phase1_problem_for_tests : problem -> problem
(** The phase-I augmented problem {!find_strictly_feasible} solves:
    variable [n] is the slack [s], every half-space becomes
    [aᵀx − s <= b], every cone [‖Lx+g‖ <= cᵀx + d + s], minimise [s].
    Each Gram is the original's lower triangle, its rows shared, with a
    zero row for [s]. *)
