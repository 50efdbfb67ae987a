(* Raw binding to the C MAC kernel in infer_stubs.c.  It is
   [@@noalloc]: no allocation, no exceptions, no callbacks.  Shape and
   length validation is the caller's job (Engine). *)

type ba1 = Batch.ba1
type ba2 = Batch.ba2

external mac_uniform : ba1 -> ba2 -> ba1 -> int -> int -> int -> unit
  = "ldafp_infer_mac_uniform_bytes" "ldafp_infer_mac_uniform"
[@@noalloc]
(* mac_uniform w x out len f bits *)
