exception Not_positive_definite of int

(* The blocked C kernel (Kernels.factor): four rows per vector, each
   entry summed as the row-by-row loop sums it, so the factor and a
   failing pivot's index are that loop's.  The kernel checks every
   row's length itself. *)
let factor_into ?(jitter = 0.0) a ~dst =
  let n = Array.length a in
  if n > 0 && Array.length a.(0) <> n then invalid_arg "Cholesky.factor: not square";
  if Array.length dst <> n || (n > 0 && Array.length dst.(0) <> n) then
    invalid_arg "Cholesky.factor_into: dst dimension mismatch";
  match Kernels.factor a ~dst ~jitter with
  | -1 -> ()
  | i -> raise (Not_positive_definite i)

let factor a =
  let l = Mat.zeros (Mat.rows a) (Mat.cols a) in
  factor_into a ~dst:l;
  l

(* Largest |a(i)(j)| over the lower triangle, diagonal included: the
   part of [a] the factorisation reads. *)
let lower_max_abs a =
  let s = ref 0.0 in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to i do
      s := Float.max !s (Float.abs a.(i).(j))
    done
  done;
  !s

(* Up to 20 jittered attempts after the plain one. *)
let factor_jittered_into a ~dst =
  let rec go jitter tries =
    if tries > 20 then raise (Not_positive_definite (-1))
    else
      match factor_into ~jitter a ~dst with
      | () -> jitter
      | exception Not_positive_definite _ ->
          let next =
            if jitter = 0.0 then 1e-12 *. Float.max (lower_max_abs a) 1e-300
            else 10.0 *. jitter
          in
          go next (tries + 1)
  in
  go 0.0 0

let factor_jittered a =
  let l = Mat.zeros (Mat.rows a) (Mat.cols a) in
  let jitter = factor_jittered_into a ~dst:l in
  (l, jitter)

let solve_factored_into l b ~dst =
  Tri.solve_lower_into l b ~dst;
  Tri.solve_lower_transpose_into l dst ~dst

let solve_factored l b = Tri.solve_lower_transpose l (Tri.solve_lower l b)
let solve a b = solve_factored (factor a) b

let inverse a =
  let l = factor a in
  let n = Mat.rows a in
  Mat.init n n (fun i j -> (solve_factored l (Vec.basis n j)).(i))

let log_det a =
  let l = factor a in
  let s = ref 0.0 in
  for i = 0 to Mat.rows a - 1 do
    s := !s +. log l.(i).(i)
  done;
  2.0 *. !s

let is_positive_definite a =
  Mat.is_square a
  &&
  match factor a with
  | (_ : Mat.t) -> true
  | exception Not_positive_definite _ -> false
