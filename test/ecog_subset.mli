(** Small LDA-FP instances cut from the simulated ECoG set: a few of its
    42 features, so a search can be checked against brute force, at a
    short word length where the projection cones of eq. 20 bind, as they
    do on the full ECoG WL 3 row. *)

val problem :
  ?seed:int -> ?wl:int -> int array ->
  Ldafp_core.Ldafp_problem.t * Fixedpoint.Qformat.t
(** [problem cols] is the problem of features [cols] of the
    {!Datasets.Ecog_sim} draw of [seed] (default 7), all 140 trials, in
    the default format of word length [wl] (default 3). *)
