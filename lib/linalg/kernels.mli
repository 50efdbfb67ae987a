(** Dense kernels of the barrier Newton step, in C ([kernels_stubs.c]):
    the Cholesky factorisation and forward substitution behind
    {!Cholesky.factor_into} and {!Tri.solve_lower_into}, and the two
    Hessian updates of [Optim.Socp]'s derivative pass.

    Each kernel runs four rows (or four entries) per vector, each lane
    doing the scalar reference loop's operations on the same operands
    in the same order, so every result is the reference's bit for bit.
    The C is compiled twice, for AVX2 and for the build's baseline
    (SSE2 on x86-64); the body is picked once, at start-up, from the
    CPU. *)

type body =
  | Avx2  (** four doubles per ymm register *)
  | Portable  (** the baseline build: two SSE2 registers per vector on x86-64 *)

val dispatched : body
(** The body the kernels run: [Avx2] when the CPU has it. *)

val name : body -> string
(** ["avx2"] or ["portable"]. *)

val with_body_for_tests : body -> (unit -> 'a) -> 'a
(** [with_body_for_tests b f] runs [f] with every kernel on body [b]
    and restores {!dispatched} afterwards.  Not domain-safe: for
    single-domain tests only.
    @raise Invalid_argument if [b] is [Avx2] on a CPU without it. *)

val factor : Mat.t -> dst:Mat.t -> jitter:float -> int
(** The lower Cholesky factor of [a + jitter·I] into [dst], n the rows
    of [a]: [-1], or the row of the failing pivot.  [dst] may alias [a].
    @raise Invalid_argument unless [a] and [dst] have n rows of at least
    n entries (checked before anything is written). *)

val solve_lower : Mat.t -> Vec.t -> dst:Vec.t -> int
(** Forward substitution [dst = l⁻¹ b], n the length of [b]: [-1], or
    the row of a zero diagonal, before which [dst] is written.  [dst]
    may alias [b].
    @raise Invalid_argument unless [l] holds a lower triangle of order
    n (row [i] at least [i + 1] long) and [dst] has n entries. *)

val scale_lower_into : float -> Mat.t -> dst:Mat.t -> int -> unit
(** [scale_lower_into tau p ~dst n] sets [dst.(i).(j) <- tau *. p.(i).(j)]
    for [j <= i < n].
    @raise Invalid_argument unless [p] and [dst] hold lower triangles of
    order [n] (row [i] at least [i + 1] long). *)

val cone_hessian_lower :
  Mat.t -> gram:Mat.t -> gh:Vec.t -> c:Vec.t -> inv_h:float -> int -> unit
(** [cone_hessian_lower hess ~gram ~gh ~c ~inv_h n] adds one cone's
    barrier term to the lower triangle [j <= i < n]:
    [hess.(i).(j) <- hess.(i).(j) +. (gh.(i) *. gh.(j) *. inv_h *. inv_h)
    -. (((2.0 *. c.(i)) *. c.(j) -. (2.0 *. gram.(i).(j))) *. inv_h)].
    [gram] may hold the lower triangle only.
    @raise Invalid_argument unless [hess] and [gram] hold lower
    triangles of order [n] and [gh] and [c] have at least [n]
    entries. *)
