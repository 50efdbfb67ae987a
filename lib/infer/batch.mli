(** A format-tagged batch of quantised feature vectors.

    Storage is a Bigarray of untagged native ints, laid out
    feature-major — dims [(features, stride)] in C layout — so the C
    MAC kernel streams each feature row contiguously across the batch.
    Column [c] holds the [c]-th input vector's raw codes; every code
    lies in the raw range of the batch's {!Fixedpoint.Qformat.t}: the
    writer, [Engine.load], saturates on the way in.  The stride is at
    least [capacity], padded so that consecutive rows are an odd number
    of cache lines apart; columns past [capacity] are padding, zeroed at
    {!create} and never read or written after.

    A batch is a reusable buffer: [capacity] columns are allocated once,
    [length] says how many are live.  Refilling a warm batch through the
    engine's front end allocates nothing. *)

type ba1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type ba2 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array2.t

type t

val create : fmt:Fixedpoint.Qformat.t -> features:int -> capacity:int -> t
(** Zero-filled, [length = 0].
    @raise Invalid_argument if [features < 1] or [capacity < 1]. *)

val format : t -> Fixedpoint.Qformat.t
val n_features : t -> int
val capacity : t -> int
(** The capacity asked for at {!create}, not the padded stride. *)

val length : t -> int
val set_length : t -> int -> unit
(** @raise Invalid_argument unless [0 <= n <= capacity]. *)

val data : t -> ba2
(** The raw storage (kernels and tests), [capacity] columns plus the
    padding. *)
