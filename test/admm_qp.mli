(** ADMM solver for box-constrained quadratic programs (OSQP-style).

    {v minimize   (1/2) xᵀP x + qᵀx
       subject to l <= A x <= u v}

    A second, algorithmically independent convex solver.  Its role in
    this repository is {e verification}: the interior-point
    {!Optim.Socp} solver and this operator-splitting method share no
    code beyond the linear-algebra substrate, so agreement on random
    QPs (see [test/test_optim.ml]) is strong evidence both are correct —
    the same pattern the paper applies by checking LDA-FP against
    conventional LDA at large word lengths.

    Fixed-step ADMM with a single up-front Cholesky factorisation of
    [P + σI + ρAᵀA]; terminates on primal/dual residual tolerances. *)

type problem = {
  p : Linalg.Mat.t;  (** symmetric PSD *)
  q : Linalg.Vec.t;
  a : Linalg.Mat.t;  (** constraint matrix, [m × n] *)
  l : Linalg.Vec.t;  (** lower bounds, [-infinity] allowed *)
  u : Linalg.Vec.t;  (** upper bounds, [+infinity] allowed *)
}

val problem :
  ?p:Linalg.Mat.t ->
  ?q:Linalg.Vec.t ->
  a:Linalg.Mat.t ->
  l:Linalg.Vec.t ->
  u:Linalg.Vec.t ->
  unit ->
  problem
(** @raise Invalid_argument on dimension mismatch or [l > u]. *)

val box_problem :
  ?p:Linalg.Mat.t ->
  ?q:Linalg.Vec.t ->
  lo:Linalg.Vec.t ->
  hi:Linalg.Vec.t ->
  unit ->
  problem
(** Plain variable bounds ([A = I]). *)

type params = {
  rho : float;  (** ADMM penalty (default 1.0) *)
  sigma : float;  (** proximal regularisation (default 1e-6) *)
  alpha : float;  (** over-relaxation in (0, 2) (default 1.6) *)
  eps_abs : float;
  eps_rel : float;
  max_iter : int;
}

val default_params : params

type status = Solved | Max_iterations

type solution = {
  x : Linalg.Vec.t;
  objective : float;
  iterations : int;
  primal_residual : float;
  dual_residual : float;
  status : status;
}

val solve : ?params:params -> problem -> solution
