(** Damped Newton minimisation of smooth strictly convex functions.

    The inner loop of the barrier method: minimise [f] given a combined
    value/gradient/Hessian oracle ({!minimize}) or a split value /
    derivative oracle ({!minimize_into}).  The oracle returns [None]
    outside the function's domain (e.g. outside the barrier's cone),
    which the backtracking line search treats as [+∞]. *)

type oracle = Linalg.Vec.t -> (float * Linalg.Vec.t * Linalg.Mat.t) option

type params = {
  tol : float;  (** stop when the Newton decrement λ²/2 falls below this *)
  max_iter : int;
}
(** The backtracking line search asks for a decrease of at least ¼ of
    the linear prediction and halves the step on each rejection. *)

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
  decrement : float;  (** final λ²/2 *)
  status : status;
}

val minimize : ?params:params -> oracle -> Linalg.Vec.t -> result
(** {!minimize_into} in a fresh workspace.  The combined oracle runs at
    every trial point; the Hessian of the accepted one is symmetrised,
    [(H + Hᵀ)/2], as it is copied into the workspace.
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
          derivatives ([None] outside the domain).  The line search
          calls only this, once per trial point. *)
  derivs : grad:Linalg.Vec.t -> hess:Linalg.Mat.t -> unit;
      (** The gradient, and the Hessian's lower triangle (diagonal
          included), at the point of the most recent [value] call, which
          must have returned [Some].  The strict upper triangle of [hess]
          is neither written nor read: the Cholesky factorisation reads
          only the lower one.  Called once at the start point and once per
          accepted step, never at a rejected trial. *)
}
(** A split oracle: the value pass and the derivative pass of {!oracle}.
    An implementation may cache intermediate results of [value] (slacks,
    residuals) for [derivs], so the two must be called in that order on
    the same point.  The buffers are owned by the solver and clobbered
    on every call — oracles must not retain them. *)

type workspace
(** Reusable scratch for {!minimize_into}: iterate double-buffer,
    gradient, Hessian (lower triangle), Cholesky scratch, direction. *)

val workspace : int -> workspace
(** [workspace n] allocates scratch for [n]-dimensional problems. *)

val minimize_into : ?params:params -> workspace -> oracle_into -> Linalg.Vec.t -> result
(** Same algorithm and same results as {!minimize}, but all inner-loop
    temporaries live in the workspace, so each iteration allocates O(1)
    words.  Calls [value] once per trial point and [derivs] at [x0] and
    once per accepted step.  [x0] is not mutated; the returned iterate is freshly
    allocated.
    @raise Invalid_argument if the starting point is outside the domain
    or its dimension does not match the workspace. *)
