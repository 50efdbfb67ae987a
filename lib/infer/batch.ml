open Fixedpoint

type ba1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type ba2 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array2.t

type t = {
  fmt : Qformat.t;
  data : ba2; (* (features, capacity), raw codes in the format's range *)
  mutable len : int;
}

let create ~fmt ~features ~capacity =
  if features < 1 then invalid_arg "Batch.create: features must be >= 1";
  if capacity < 1 then invalid_arg "Batch.create: capacity must be >= 1";
  let data = Bigarray.Array2.create Bigarray.int Bigarray.c_layout features capacity in
  Bigarray.Array2.fill data 0;
  { fmt; data; len = 0 }

let format t = t.fmt
let n_features t = Bigarray.Array2.dim1 t.data
let capacity t = Bigarray.Array2.dim2 t.data
let length t = t.len

let set_length t n =
  if n < 0 || n > capacity t then invalid_arg "Batch.set_length: out of range";
  t.len <- n

let data t = t.data
