(** McNemar's test for paired classifier comparison.

    Tables 1–2 compare two classifiers on the {e same} trials, so the
    right significance question is not "are the two error rates
    different" but "among trials where the classifiers disagree, is one
    right more often" — McNemar's test on the discordant pairs.  The
    paper waves at this ("not strictly monotonic ... due to the
    randomness of our small data set"); this module quantifies it, which
    matters at the BCI scale of 140 trials.

    The statistic uses the exact binomial tail (both-sided): with [b]
    trials won by A only and [c] by B only, under the null each
    discordant trial is a fair coin, so
    [p = 2 · P(Bin(b+c, 1/2) <= min(b,c))], capped at 1. *)

type result = {
  a_only : int;  (** trials classifier A got right and B wrong *)
  b_only : int;
  both : int;
  neither : int;
  p_value : float;
  better : [ `A | `B | `Tie ];  (** direction of the observed advantage *)
}

val compare :
  truth:bool array ->
  a:bool array ->
  b:bool array ->
  result
(** [a]/[b] are the two classifiers' predictions.
    @raise Invalid_argument on length mismatch or empty input. *)

val significant : result -> bool
(** [p_value < 0.05]. *)
