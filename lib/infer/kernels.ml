(* Raw bindings to the C kernels in infer_stubs.c.  All are [@@noalloc]:
   no allocation, no exceptions, no callbacks.  Batch shape, length and
   column validation is the caller's job (Engine). *)

type ba1 = Batch.ba1
type ba2 = Batch.ba2

external mac_uniform : ba1 -> ba2 -> ba1 -> int -> int -> int -> unit
  = "ldafp_infer_mac_uniform_bytes" "ldafp_infer_mac_uniform"
[@@noalloc]
(* mac_uniform w x out len f bits *)

external quantize :
  float array -> int array -> float array -> ba2 -> int -> int -> int -> bool
  -> int = "ldafp_infer_quantize_bytes" "ldafp_infer_quantize"
[@@noalloc]
(* quantize scales neg_exponents x data col f bits fast: one column
   through the shared row body; -1, or the index of the first NaN
   feature.  [fast]: every scale normal and bits <= 52. *)

external quantize_rows :
  float array -> int array -> float array array -> int -> int -> ba2 -> int
  -> int -> bool -> int
  = "ldafp_infer_quantize_rows_bytes" "ldafp_infer_quantize_rows"
[@@noalloc]
(* quantize_rows scales neg_exponents rows start n data f bits fast:
   rows start .. start+n-1 into columns 0 .. n-1, one call per batch,
   the row 8 ahead prefetched.  -1, or for the first bad row the index
   of its first NaN feature, or the feature count if it is not a float
   array of that length; the rows before it are loaded. *)
