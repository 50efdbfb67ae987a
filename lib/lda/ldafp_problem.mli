(** The LDA-FP mixed-integer program (paper eq. 21).

    Built from the class statistics of (scaled, quantised) training data
    and a target fixed-point format [QK.F]:

    {v minimize  wᵀ S_W w / ((μ_A − μ_B)ᵀ w)²
       s.t.      w_m μ_{·,m} ± β|w_m| σ_{·,m} within QK.F range   (18)
                 μ_·ᵀw ± β √(wᵀ Σ_· w)      within QK.F range   (20)
                 w_m on the QK.F grid                             (13) v}

    with [β = Φ⁻¹(0.5 + 0.5 ρ)].  The per-element constraints (18) are
    piecewise linear in [w_m] and reduce to one closed interval per element
    (computed here in closed form); the projection constraints (20) are
    four second-order cones, which a node's relaxation carries only where
    its mask asks for them. *)

type t = private {
  fmt : Fixedpoint.Qformat.t;
  rho : float;  (** confidence level *)
  beta : float;  (** Φ⁻¹(0.5 + 0.5ρ), eq. 16 *)
  scatter : Stats.Scatter.t;
  sw : Linalg.Mat.t;  (** within-class scatter (symmetrised) *)
  d : Linalg.Vec.t;  (** μ_A − μ_B *)
  elem_box : Fixedpoint.Fx_interval.t array;
      (** per-element grid interval: (13) ∩ (18) ∩ (28) *)
  cones : Optim.Socp.soc array;
      (** the four cones of (20), class A's lower and upper side then
          class B's, with a slack compensating the Cholesky jitter so
          the relaxation never cuts off an exactly-feasible grid point;
          each class's pair shares one [l], so a node's program forms
          at most two Grams, not four *)
  p_base : Linalg.Mat.t;  (** [2 S_W], the quadratic term of every node *)
  lambda_min : float;
      (** verified [λ̲ <= λ_min(2 S_W)] ({!Optim.Psd.verified_lambda_min}),
          [0] when none is proved (a singular [S_W]) *)
  lambda_grid : float;
      (** [lambda_min] over the distinct coordinates, without exactly
          duplicated or constant features; it caps [z] ({!z_cap}) *)
  norm : float;
      (** [1/(√c*·t_hi)] at the root, [c* = 1/(dᵀS_W⁻¹d)]: the root
          program's optimum is near 1 *)
  m_diag : Linalg.Vec.t option;
      (** the diagonal of [M = S_W⁻¹ − S_W⁻¹ddᵀS_W⁻¹/(dᵀS_W⁻¹d)], the
          inverse Hessian of [yᵀS_W y] on [dᵀy = 1], up to a uniform
          factor: moving [y_j] by [δ] there raises the objective by
          about [δ²/M_jj], the branching score's estimate.  Formed from
          the factor of [2 S_W]; [None] when that factor does not exist
          (every node then branches on width). *)
}

exception No_feasible_box of string
(** Raised by {!build} when some element admits no grid point (can only
    happen with degenerate formats). *)

val build : ?rho:float -> fmt:Fixedpoint.Qformat.t -> Stats.Scatter.t -> t
(** [rho] defaults to 0.99.  Verifies [lambda_min] once. *)

val dim : t -> int

val elem_interval : t -> int -> Fixedpoint.Fx_interval.t

val cost : t -> Linalg.Vec.t -> float
(** Objective of eq. (21); [infinity] when [dᵀw = 0]. *)

val on_grid : t -> Linalg.Vec.t -> bool
(** Every component on the QK.F grid. *)

val constraint_violation : t -> Linalg.Vec.t -> float
(** Largest violation of (18) and (20), evaluated exactly (square roots of
    the true quadratic forms, no jitter). [<= 0] means feasible. *)

val feasible : ?tol:float -> t -> Linalg.Vec.t -> bool
(** Grid membership, element intervals, and [constraint_violation <= tol]
    (default [1e-9]). *)

val all_cones : int
(** The cone mask of every cone of (20): bit [i] stands for
    [cones.(i)], so [0] is the cone-free program. *)

val violated_cones : t -> Linalg.Vec.t -> int
(** The mask of the cones of (20) that [w] violates by more than the
    [1e-9] {!feasible} allows, under the exact test of
    {!constraint_violation}: [0] iff its (20) part is [<= 1e-9]. *)

val t_of : t -> Linalg.Vec.t -> float
(** [t = (μ_A − μ_B)ᵀ w], eq. (22). *)

val trange_of_box : t -> Fixedpoint.Fx_interval.t array -> Optim.Interval.t
(** Range of [t = dᵀw] over a box, eq. (29), in outward-rounded
    interval arithmetic: every point of the box has [dᵀw] inside. *)

val z_cap : t -> theta:float -> float
(** The largest [z = 1/t] of a grid point with [t > 0] and cost
    [<= theta]: merged over its distinct coordinates it is a nonzero
    grid point, of norm [>= ulp], so [t >= ulp·√(λ̲/(2θ))] with
    [λ̲ = lambda_grid].  Rounded up; [infinity] when [theta] is infinite
    or [lambda_grid] is [0].  An incumbent only falls, so a cap from an
    older one stays valid. *)

type relaxation = private {
  socp : Optim.Socp.problem;  (** over the free [y], then [z] *)
  free : int array;  (** reduced index → coordinate *)
  pinned : Linalg.Vec.t;  (** the singleton coordinates' values, else 0 *)
  kappa : float;  (** [κ = norm·t_hi], [t_hi] from {!trange_of_box} *)
}
(** The exact linear-fractional relaxation of one box (Charnes & Cooper,
    1962).  With [y = κw/t] and [z = κ/t] the cost over the box's relaxed
    region becomes the convex program

    {v minimize  yᵀ S_W y
       s.t.      lo·z <= y <= hi·z,   dᵀy >= κ,
                 β‖Lᵀy‖ <= ±μᵀy + R·z   (the masked cones of (20)),
                 κ/t_hi <= z <= κ·z_cap v}

    whose optimum is κ² times the minimum cost over the region's points
    with [t >= 1/z_cap] that meet the masked cones ([dᵀy >= κ] is
    heuristic H3).  Dropping a cone only enlarges that set, so the
    program with any mask lower-bounds the cost over the box's feasible
    points.  A pinned
    coordinate [y_j = v_j·z] folds into [z]'s column, so the program has
    [free + 1] variables, no constant term and no cone offsets; its
    quadratic term is [Mᵀ(2S_W)M] for the orthogonal columns
    [M = [the free unit vectors | v]], so [lambda_min] bounds its
    curvature on the [y] block at every node ({!psd_block}). *)

val relaxation :
  t ->
  wbox:Fixedpoint.Fx_interval.t array ->
  z_cap:float ->
  cones:int ->
  relaxation option
(** The program of a box with a free coordinate and the cones of
    [cones] (a mask as {!all_cones}), its pins folded into [z]'s column,
    its Grams formed by {!Optim.Socp.of_parts}.  [None]
    when no point of the box has [t >= 1/z_cap > 0]; [z_cap = infinity]
    drops [z]'s upper row.
    @raise Invalid_argument when every coordinate is pinned. *)

val project : relaxation -> Linalg.Vec.t -> Linalg.Vec.t
(** A full [(y, z)] point ([dim + 1] entries, [z] last, at [κ = 1]:
    [(w, 1)/t]) → the program's variables. *)

val embed : relaxation -> Linalg.Vec.t -> Linalg.Vec.t
(** The program's variables → the full [(y, z)] at [κ = 1]. *)

val weights_of : Linalg.Vec.t -> Linalg.Vec.t
(** [w = y/z] of a full point. *)

val cost_bound : relaxation -> float -> float
(** A lower bound [v] on the program's optimum as one on the cost,
    [v/κ²] rounded down ([0] for [v <= 0]). *)

val psd_block : t -> relaxation -> (int array * float) option
(** The [~psd_block] for {!Optim.Socp.certify_lower_bound}: the [y]
    coordinates and [lambda_min]; [None] when [lambda_min] is [0]. *)

val clip_into_box :
  t -> wbox:Fixedpoint.Fx_interval.t array -> Linalg.Vec.t -> Linalg.Vec.t option
(** An inherited full point with [w = y/z] clamped into a child's box and
    its own [dᵀy], at least [1 + 10⁻⁶], kept.  [None] for [z <= 0] or
    [dᵀy <= 0]. *)

val center_point :
  t -> wbox:Fixedpoint.Fx_interval.t array -> z_cap:float -> Linalg.Vec.t
(** A full point strictly inside the box rows, [dᵀy >= 1] and both [z]
    rows of the box's program whenever the box has a point with
    [1/z_cap < t]: small weights, which the cones favour, at a
    [t] a twentieth of the way up the box's admissible range.  The
    pull-in target for warm starts stranded on a branch cut
    ({!Optim.Socp.pull_to_interior}) and the cold start; interiority for
    the cones is {e not} guaranteed, and the pull-in checks it. *)

val fingerprint : t -> string
(** Hex digest of a canonical text of the problem's inputs: the format
    ({!Fixedpoint.Qformat.to_string}), [rho] and every
    {!Stats.Scatter.t} field, floats printed exactly ([%h]).  The
    derived boxes and cones are not hashed, since [build] computes them
    from these inputs.  Two runs over the same training data and
    configuration produce the same fingerprint; checkpoints record it so
    a resume against different data is rejected instead of silently
    producing garbage. *)

val interval_lower_bound : t -> wbox:Fixedpoint.Fx_interval.t array -> float
(** Cheap conservative lower bound on the cost over a box's points with
    [t > 0]: term-wise interval minimum of [wᵀ S_W w] divided by
    [t_hi²], clamped at 0 ([+∞] when no point has [t > 0]).  Orders of
    magnitude weaker than the SOCP relaxation but never raises and
    costs O(M²) — the degraded fallback when the relaxation solver
    fails on a region. *)

val pp_summary : Format.formatter -> t -> unit
