(** Incumbent-finding heuristics for the LDA-FP branch-and-bound.

    The paper notes (§4) that its implementation "includes a number of
    additional heuristics to speed up the search process" without listing
    them.  Ours are documented here; all only produce {e feasible}
    candidates (checked exactly), so they tighten the upper bound and
    never compromise the B&B's correctness.

    - H1 {!scaled_rounding_sweep}: scan scalings λ of a continuous
      direction (normally the float-LDA solution), round [λ·dir] onto the
      grid, keep the best feasible point.  Quantisation is scale-sensitive
      even though the exact cost is not, so different λ reach genuinely
      different grid points.
    - H2 {!coordinate_polish}: first-improvement local search moving one
      element by ±1 ulp at a time, each trial screened in O(1) and only
      the survivors evaluated exactly.
    - {!round_into}: plain nearest-grid rounding clamped into a box, used
      on relaxation solutions. *)

val round_into :
  Ldafp_problem.t ->
  ?wbox:Fixedpoint.Fx_interval.t array ->
  Linalg.Vec.t ->
  Linalg.Vec.t
(** Nearest grid point componentwise, clamped into [wbox] (default: the
    problem's element boxes). The result is on-grid but not necessarily
    feasible for (20). *)

val evaluate : Ldafp_problem.t -> Linalg.Vec.t -> (Linalg.Vec.t * float) option
(** [Some (w, cost)] when [w] is exactly feasible with finite cost. *)

val better :
  (Linalg.Vec.t * float) option ->
  (Linalg.Vec.t * float) option ->
  (Linalg.Vec.t * float) option
(** The lower-cost candidate; [None] loses to any point, and a tie keeps
    the first argument. *)

val scaled_rounding_sweep :
  ?steps:int ->
  Ldafp_problem.t ->
  Linalg.Vec.t ->
  (Linalg.Vec.t * float) option
(** H1 over the direction (L∞-normalised internally); [steps] scalings
    (default 200) spread geometrically from one ulp up to the format
    maximum. Returns the best feasible rounded point.  A step is not
    checked for feasibility when it rounds to the previous step's point
    or costs no less than the best so far: a tie keeps the first, so
    neither could change the result. *)

val coordinate_polish :
  ?max_rounds:int ->
  Ldafp_problem.t ->
  Linalg.Vec.t * float ->
  Linalg.Vec.t * float
(** H2 from a feasible start [(w, cost)] as {!evaluate} returned it;
    returns a point at least as good, with its exact cost.  The start's
    [w] is taken over: it is moved in place and returned, so the caller
    must not hold on to it.  [max_rounds] (default 6) full passes over the
    coordinates; a trial [w + δe_j] (δ = ±1 ulp, inside element [j]'s
    interval) is accepted when {!evaluate} finds it feasible at a cost
    below the current one by more than [1e-15].

    Each trial is first screened in O(1) from sums kept for the current
    point: [g = S_W w], [|S_W||w|], [q = wᵀg], [t = dᵀw],
    [a = |w|ᵀ|S_W||w|] and [|d|ᵀ|w|].  The trial's cost is
    [c' = q'/t'²] with [q' = q + 2δg_j + δ²S_jj] and [t' = t + δd_j],
    and the screen rejects it only when [c' − err >= cost − 1e-15],
    where [err] bounds [|c' − cost(w')|] by the dot-product rounding
    bound [|fl(xᵀy) − xᵀy| <= γ_n|x|ᵀ|y|]: with
    [B = a + 2|δ|(|S_W||w|)_j + δ²|S_jj|] and [D = |d|ᵀ|w| + |δ||d_j|],
    [E_Q = 4γ_{2m+3}B], [E_T = 4γ_{m+2}D] and
    [Δ = (E_Q + |q'|E_T(2|t'| + E_T)/t'²)/(|t'| − E_T)²],
    [err = 2(Δ + 4u|c'|)] ([u = 2⁻⁵³]; screening needs [|t'| > 2E_T]).
    The terms are absolute, so the bound holds for an S_W that rounding
    left indefinite.  A rejected trial is one {!evaluate} would reject
    too; every other one goes through {!evaluate}, which decides, and
    an accepted move recomputes the sums in O(m²).  The accept/reject
    sequence, and so the returned [(w, cost)], is bit for bit that of
    evaluating every trial.  The sums live in the call: nothing is
    shared between domains. *)

val seed_incumbent :
  ?steps:int ->
  ?max_rounds:int ->
  Ldafp_problem.t ->
  (Linalg.Vec.t * float) option
(** The full seeding pipeline: float LDA on the problem's scatter, H1
    sweep, then H2 polish.  [None] when nothing feasible is found, and
    when the class means coincide (the LDA direction is zero). *)
