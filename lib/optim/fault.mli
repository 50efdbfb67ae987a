(** Failure taxonomy and containment policy for the branch-and-bound
    oracle calls.

    The per-node bound of the LDA-FP search is a barrier SOCP solve that
    can fail numerically on near-degenerate boxes: a Cholesky factor
    loses positive definiteness, a Newton start is pushed out of the
    barrier domain by roundoff, or the centering objective evaluates to
    NaN.  Uncontained, any such failure either destroys the whole search
    (an escaping exception) or poisons it silently (a NaN lower bound
    compares false with everything and wedges the frontier).  This
    module classifies those failures and describes what the driver
    should do about them; {!Bnb} applies the policy around every
    [oracle.bound] / [oracle.branch] call. *)

type failure =
  | Oracle_raised of string
      (** the oracle raised; the payload is [Printexc.to_string] of the
          exception *)
  | Non_finite_bound of float
      (** the oracle returned a NaN or [-infinity] lower bound
          ([+infinity] is legal and prunes the region) *)
  | Certificate_failed of string
      (** the primal solve finished but its independent dual
          certificate could not be established
          ({!Socp.certify_lower_bound} returned an error): the bound is
          unverified and must not be used.  Retried like any other
          failure (a jittered re-solve gets a fresh certificate
          chance), then degraded to the certified interval fallback. *)

exception Certificate_error of string
(** Raised by a bound oracle when certification of an otherwise
    successful solve fails, so the containment machinery classifies it
    as {!Certificate_failed} rather than a generic [Oracle_raised]. *)

val describe : failure -> string

val containable : exn -> bool
(** Whether an exception may be absorbed by the containment policy.
    Resource-exhaustion and user-interrupt exceptions ([Out_of_memory],
    [Stack_overflow], [Sys.Break]) always propagate. *)

type policy = {
  max_retries : int;
      (** re-invocations of a failing oracle call before degrading
          (each may use jittered solver parameters via
          {!Bnb.faults}[.retry_bound]).  Retries are immediate: a
          failing solve is a deterministic function of its inputs (or
          of an injected fault), so only the jitter, never waiting,
          can change its outcome. *)
  degrade : bool;
      (** after retries are exhausted, fall back to the caller's cheap
          conservative bound ({!Bnb.faults}[.fallback_bound]) so the
          region stays alive with a certified-but-loose key *)
  reraise : bool;
      (** if no handling remains, re-raise the original exception
          instead of dropping the region — restores the
          pre-containment fail-fast behaviour *)
}

val default_policy : policy
(** [max_retries = 1], [degrade = true], [reraise = false]: retry once,
    then degrade when a fallback bound exists, then drop (recorded in
    {!Bnb.stats}[.dropped_regions]) as the last resort. *)

val propagate : policy
(** [max_retries = 0], [degrade = false], [reraise = true]: fail fast on
    the first oracle failure. *)

type counters = {
  failures : int Atomic.t;  (** failing oracle invocations *)
  retries : int Atomic.t;  (** re-invocations made *)
  degraded : int Atomic.t;  (** regions kept alive via the fallback bound *)
  dropped : int Atomic.t;  (** regions (or branchings) abandoned *)
}
(** Shared fault telemetry, atomic so worker domains update them without
    the pool lock. *)

val fresh_counters : unit -> counters
