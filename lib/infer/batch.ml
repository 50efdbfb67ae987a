open Fixedpoint

type ba1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type ba2 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array2.t

type t = {
  fmt : Qformat.t;
  data : ba2; (* (features, stride), raw codes in the format's range *)
  capacity : int;
  mutable len : int;
}

(* Rows are an odd number of 64-byte lines (8 ints) apart, so the
   features of one column fall in different L1 sets.  At a power-of-two
   pitch (capacity 1024: 8 KiB) they would all share one set and evict
   each other. *)
let stride capacity = 8 * (((capacity + 7) / 8) lor 1)

let create ~fmt ~features ~capacity =
  if features < 1 then invalid_arg "Batch.create: features must be >= 1";
  if capacity < 1 then invalid_arg "Batch.create: capacity must be >= 1";
  let data =
    Bigarray.Array2.create Bigarray.int Bigarray.c_layout features
      (stride capacity)
  in
  Bigarray.Array2.fill data 0;
  { fmt; data; capacity; len = 0 }

let format t = t.fmt
let n_features t = Bigarray.Array2.dim1 t.data
let capacity t = t.capacity
let length t = t.len

let set_length t n =
  if n < 0 || n > t.capacity then invalid_arg "Batch.set_length: out of range";
  t.len <- n

let data t = t.data
