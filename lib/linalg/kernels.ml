type body = Avx2 | Portable

external avx2_supported : unit -> bool = "ldafp_linalg_avx2_supported"
[@@noalloc]

let dispatched = if avx2_supported () then Avx2 else Portable
let name = function Avx2 -> "avx2" | Portable -> "portable"
let code = function Avx2 -> 1 | Portable -> 0

(* The body code every call passes; only [with_body_for_tests] moves it. *)
let active = ref (code dispatched)

let with_body_for_tests b f =
  if b = Avx2 && dispatched <> Avx2 then
    invalid_arg "Kernels.with_body_for_tests: no AVX2 on this CPU";
  active := code b;
  Fun.protect ~finally:(fun () -> active := code dispatched) f

(* Each C entry point checks the lengths of the rows it reads and
   returns -3 on a short one, before it writes anything. *)
let bad_shape = -3

external factor_raw :
  (int[@untagged]) -> Mat.t -> Mat.t -> (float[@unboxed]) -> (int[@untagged])
  = "ldafp_linalg_factor_byte" "ldafp_linalg_factor"
[@@noalloc]

external solve_lower_raw :
  (int[@untagged]) -> Mat.t -> Vec.t -> Vec.t -> (int[@untagged])
  = "ldafp_linalg_solve_lower_byte" "ldafp_linalg_solve_lower"
[@@noalloc]

external scale_lower_raw :
  (int[@untagged]) -> (float[@unboxed]) -> Mat.t -> Mat.t -> (int[@untagged])
  -> (int[@untagged])
  = "ldafp_linalg_scale_lower_byte" "ldafp_linalg_scale_lower"
[@@noalloc]

external cone_lower_raw :
  (int[@untagged]) -> Mat.t -> Mat.t -> Vec.t -> Vec.t -> (float[@unboxed])
  -> (int[@untagged]) -> (int[@untagged])
  = "ldafp_linalg_cone_lower_byte" "ldafp_linalg_cone_lower"
[@@noalloc]

let factor a ~dst ~jitter =
  let r = factor_raw !active a dst jitter in
  if r = bad_shape then invalid_arg "Kernels.factor: rows shorter than n";
  if r = -2 then raise Out_of_memory;
  r

let solve_lower l b ~dst =
  let r = solve_lower_raw !active l b dst in
  if r = bad_shape then invalid_arg "Kernels.solve_lower: shape";
  r

let scale_lower_into tau p ~dst n =
  if scale_lower_raw !active tau p dst n = bad_shape then
    invalid_arg "Kernels.scale_lower_into: shape"

let cone_hessian_lower hess ~gram ~gh ~c ~inv_h n =
  if cone_lower_raw !active hess gram gh c inv_h n = bad_shape then
    invalid_arg "Kernels.cone_hessian_lower: shape"
