(** Dense real matrices in row-major [float array array] layout.

    Row [i] of matrix [a] is [a.(i)]; all rows have equal length.  As with
    {!Vec}, dimension mismatches raise [Invalid_argument]. *)

type t = float array array

val make : int -> int -> float -> t
val zeros : int -> int -> t
val identity : int -> t
val init : int -> int -> (int -> int -> float) -> t
val diag : Vec.t -> t
val diagonal : t -> Vec.t
(** Main diagonal of a (not necessarily square) matrix. *)

val copy : t -> t
val rows : t -> int
val cols : t -> int
val dims : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t
(** A copy of row [i]. *)

val col : t -> int -> Vec.t
val of_rows : Vec.t array -> t
(** @raise Invalid_argument on ragged input. *)

val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a x]. *)

val mul_vec_into : t -> Vec.t -> dst:Vec.t -> unit
(** [mul_vec_into a x ~dst] writes [a x] into [dst] without allocating.
    [dst] must not alias [x].  Entry [i] is [Vec.dot a.(i) x] bit for
    bit: the sums of four rows run side by side (interleaved, to hide
    the latency of each addition), but each sum starts from [+0] and
    adds its terms in ascending column order. *)

val mul_vec_into_at : t -> Vec.t -> dst:Vec.t -> pos:int -> unit
(** [mul_vec_into_at a x ~dst ~pos] writes [a x] into
    [dst.(pos) .. dst.(pos + rows a - 1)], with the sums of
    {!mul_vec_into}, and leaves the rest of [dst] alone.
    @raise Invalid_argument if that range does not fit in [dst]. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x] is [aᵀ x]. *)

val tmul_vec_into : t -> Vec.t -> dst:Vec.t -> unit
(** [tmul_vec_into a x ~dst] writes [aᵀ x] into [dst] without
    allocating.  [dst] must not alias [x]. *)

val outer : Vec.t -> Vec.t -> t
(** [outer u v] is [u vᵀ]. *)

val quadratic_form : t -> Vec.t -> float
(** [quadratic_form a x] is [xᵀ a x], bit for bit
    [Vec.dot x (mul_vec a x)], with no intermediate array. *)

val add_scaled_identity : float -> t -> t
(** [add_scaled_identity c a] is [a + cI] (square matrices). *)

val trace : t -> float
val frobenius_norm : t -> float
val is_square : t -> bool
val is_symmetric : ?tol:float -> t -> bool
val symmetrize : t -> t
(** [(a + aᵀ)/2]. *)

val max_abs : t -> float
val approx_equal : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
