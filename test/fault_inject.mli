(** Deterministic fault injection for branch-and-bound oracles.

    Wraps a {!Optim.Bnb.oracle} so that individual [bound]/[branch]
    calls fail — raise {!Injected}, return a NaN lower bound, or stall
    in a short sleep — with configured probabilities.  This is the test
    harness for the driver's containment guarantees: under injected
    faults the search must still terminate, never deadlock across
    domain counts, report every failure in {!Optim.Bnb.stats}, and
    return a valid incumbent.

    Randomness is a counter-hashed SplitMix64 stream: each oracle
    invocation draws from an atomic call counter, so the combinator is
    domain-safe and a given [seed] yields the same fault {e rate}
    regardless of scheduling (the exact set of faulted calls depends on
    call order, which is scheduling-dependent when [domains > 1]). *)

exception Injected of string
(** The exception thrown by exception-faults; carries the call index so
    failures are traceable in logs. *)

type config = {
  seed : int;
  bound_exn_prob : float;  (** P[[bound] raises {!Injected}] *)
  bound_nan_prob : float;  (** P[[bound] returns a NaN lower bound] *)
  branch_exn_prob : float;  (** P[[branch] raises {!Injected}] *)
  delay_prob : float;  (** P[a call sleeps [delay_seconds] first] *)
  delay_seconds : float;
      (** scheduling perturbation for deadlock hunting; keep small *)
}

val none : config
(** All probabilities 0 — the wrapped oracle behaves identically. *)

val config :
  ?bound_exn_prob:float ->
  ?bound_nan_prob:float ->
  ?branch_exn_prob:float ->
  ?delay_prob:float ->
  ?delay_seconds:float ->
  seed:int ->
  unit ->
  config
(** Unspecified probabilities default to 0; [delay_seconds] to 1 ms. *)

val wrap :
  config -> ('region, 'sol) Optim.Bnb.oracle ->
  ('region, 'sol) Optim.Bnb.oracle * (unit -> int)
(** [wrap cfg oracle] is the faulty oracle plus a live counter of
    injected {e failures} (exceptions and NaN bounds; delays are not
    failures).  Tests assert the counter equals
    {!Optim.Bnb.stats}[.oracle_failures] — every injection must be
    observed, none double-counted. *)
