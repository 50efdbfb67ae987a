(** Dense real vectors backed by [float array].

    All binary operations require equal lengths and raise
    [Invalid_argument] otherwise.  Vectors are mutable arrays; functions
    documented as pure allocate fresh results. *)

type t = float array

val make : int -> float -> t
val zeros : int -> t
val ones : int -> t
val init : int -> (int -> float) -> t
val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of length [n]. *)

val copy : t -> t
val dim : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y] (pure). *)

val axpy_into : float -> t -> t -> dst:t -> unit
(** [axpy_into a x y ~dst] writes [a*x + y] into [dst] without
    allocating.  [dst] may alias [x] or [y] (each element is read before
    it is written).  The in-place counterpart of {!axpy} for hot loops
    (the barrier line search). *)

val dot : t -> t -> float
val norm2 : t -> float
(** Euclidean norm. *)

val norm1 : t -> float
val norm_inf : t -> float
val dist2 : t -> t -> float
(** Euclidean distance. *)

val normalize : t -> t
(** Unit Euclidean norm. @raise Invalid_argument on the zero vector. *)

val normalize_inf : t -> t
(** Unit infinity norm. @raise Invalid_argument on the zero vector. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val sum : t -> float
val mean : t -> float
val amax_index : t -> int
(** Index of the element with largest absolute value. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison with absolute tolerance (default [1e-9]). *)

val concat : t -> t -> t
val slice : t -> pos:int -> len:int -> t
val pp : Format.formatter -> t -> unit
