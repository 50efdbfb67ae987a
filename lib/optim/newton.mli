(** Damped Newton minimisation of smooth strictly convex functions.

    The inner loop of the barrier method: minimise [f] given a combined
    value/gradient/Hessian oracle ({!minimize}) or a split value /
    derivative oracle with a ray evaluator ({!minimize_into}).  The
    oracle returns [None] outside the function's domain (e.g. outside
    the barrier's cone), which the backtracking line search treats as
    [+∞]. *)

type oracle = Linalg.Vec.t -> (float * Linalg.Vec.t * Linalg.Mat.t) option

type params = {
  tol : float;  (** stop when the Newton decrement λ²/2 falls below this *)
  max_iter : int;
}
(** The backtracking line search asks for a decrease
    [f(x + t·d) − f(x) <= ¼·t·gᵀd] and halves [t] on each rejection. *)

val default_params : params
(** [tol = 1e-9], [max_iter = 80]. *)

type status = Converged | Iteration_limit | Stalled | Diverged
(** [Stalled]: the line search could not make progress (typically at the
    numerical boundary of the domain); the best iterate is still
    returned.  [Diverged]: the Newton decrement evaluated to NaN (a NaN
    in the oracle's gradient/Hessian, or a degenerate Newton system) —
    the returned iterate is the last {e finite} one, but it carries no
    optimality certificate and callers must not treat it as converged. *)

type result = {
  x : Linalg.Vec.t;
  value : float;
  iterations : int;
  trials : int;  (** line-search trials, summed over the iterations *)
  decrement : float;  (** final λ²/2 *)
  status : status;
}

val minimize : ?params:params -> oracle -> Linalg.Vec.t -> result
(** {!minimize_into} in a fresh workspace.  The combined oracle runs at
    every trial point (the decrease is its value there minus the value
    at the ray's base) and once more at the accepted one, whose Hessian
    is symmetrised, [(H + Hᵀ)/2], as it is copied into the workspace.
    @raise Invalid_argument if the starting point is outside the domain. *)

(** {2 Allocation-lean interface}

    The barrier method calls Newton once per outer iteration on problems
    of a fixed dimension, so the iterate, direction, Hessian and
    factorisation buffers can be reused across calls.  A {!workspace} is
    {b not} thread-safe: share one per domain (e.g. via [Domain.DLS]),
    never across domains. *)

type oracle_into = {
  value : Linalg.Vec.t -> float option;
      (** The domain test and the function value at a point, without
          derivatives ([None] outside the domain).  Called at the start
          point and at each trial point the ray accepted, to refresh
          what [derivs] and [ray] read. *)
  derivs : grad:Linalg.Vec.t -> hess:Linalg.Mat.t -> unit;
      (** The gradient, and the Hessian's lower triangle (diagonal
          included), at the point of the most recent [value] call, which
          must have returned [Some].  The strict upper triangle of [hess]
          is neither written nor read: the Cholesky factorisation reads
          only the lower one.  Called once at the start point and once per
          accepted step, never at a rejected trial. *)
  ray : Linalg.Vec.t -> Linalg.Vec.t -> float -> float option;
      (** [ray x d], with [x] the point of the most recent in-domain
          [value] call and [d] a direction, returns the trial evaluator
          of that ray: [t ↦ Some (f(x + t·d) − f(x))], [None] outside
          the domain.  The search calls [ray] once per Newton step, after
          [derivs], and the evaluator once per trial.  The evaluator must
          stay valid until the next [ray] call, across the [value] calls
          in between (a refresh the domain test rejects is followed by
          more trials).  The difference is what the sufficient-decrease
          test reads, so an evaluator that forms it from per-constraint
          ratios (as {!Socp} does) decides the test to the precision of
          the decrease, not of [f]. *)
}
(** A split oracle: the value pass, the derivative pass and the line
    search's trial of {!oracle}.  An implementation may cache
    intermediate results of [value] (slacks, residuals) for [derivs] and
    [ray], so they must be called in that order on the same point.  The
    point, direction, gradient and Hessian buffers are owned by the
    solver and clobbered between steps: an oracle may read them during
    the call, and the point and direction during the evaluator's life. *)

type workspace
(** Reusable scratch for {!minimize_into}: iterate double-buffer,
    gradient, Hessian (lower triangle), Cholesky scratch, direction. *)

val workspace : int -> workspace
(** [workspace n] allocates scratch for [n]-dimensional problems. *)

val minimize_into :
  ?params:params -> ?finish:bool -> workspace -> oracle_into -> Linalg.Vec.t -> result
(** Same algorithm and same results as {!minimize}, but all inner-loop
    temporaries live in the workspace, so each iteration allocates O(1)
    words.  Calls [value] and [derivs] at [x0] and once per accepted
    step, [value] also at a trial the ray accepted but the value pass
    finds outside the domain (a rounding edge: the trial is rejected
    and the step halved); [ray] once per step and its evaluator once per
    trial.  With [~finish:true] (default [false]) a converged run also
    takes the full step whose decrement met [tol], with no line search,
    and returns that point (its [value] called, not [derivs]; the
    reported [decrement] is still the one before it) when it is in the
    domain, so the point is centred to about the square of that
    decrement.  [x0] is not mutated; the returned iterate is freshly
    allocated.
    @raise Invalid_argument if the starting point is outside the domain
    or its dimension does not match the workspace. *)
