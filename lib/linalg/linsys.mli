(** The linear-system entry point the rest of the system uses. *)

val solve_spd_regularized : ?ridge:float -> Mat.t -> Vec.t -> Vec.t
(** Solve a symmetric system after adding a relative ridge
    (default [1e-10 * max_abs a]) — the standard guard for the
    within-class scatter matrix of a small training set. *)
