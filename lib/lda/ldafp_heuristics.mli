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
      element by ±1 ulp at a time.
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
    maximum. Returns the best feasible rounded point. *)

val coordinate_polish :
  ?max_rounds:int ->
  Ldafp_problem.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t * float
(** H2 from a feasible start; returns a point at least as good.
    [max_rounds] (default 6) full passes over the coordinates.
    @raise Invalid_argument if the start is infeasible. *)

val seed_incumbent :
  ?steps:int ->
  ?max_rounds:int ->
  Ldafp_problem.t ->
  (Linalg.Vec.t * float) option
(** The full seeding pipeline: float LDA on the problem's scatter, H1
    sweep, then H2 polish. *)
