(* Raw bindings to the C kernels in infer_stubs.c.  Both are
   [@@noalloc]: no allocation, no exceptions, no callbacks.  Shape,
   length and column validation is the caller's job (Engine). *)

type ba1 = Batch.ba1
type ba2 = Batch.ba2

external mac_uniform : ba1 -> ba2 -> ba1 -> int -> int -> int -> unit
  = "ldafp_infer_mac_uniform_bytes" "ldafp_infer_mac_uniform"
[@@noalloc]
(* mac_uniform w x out len f bits *)

external quantize :
  float array -> int array -> float array -> ba2 -> int -> int -> int -> int
  = "ldafp_infer_quantize_bytes" "ldafp_infer_quantize"
[@@noalloc]
(* quantize scales neg_exponents x data col f bits: -1, or the index of
   the first NaN feature *)
