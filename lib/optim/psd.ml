open Linalg

(* An over-estimate of λ_min(a), from the factor l of a: the largest
   eigenvalue θ of the tridiagonal T that a few Lanczos steps on a⁻¹
   build is at most 1/λ_min; θ by Sturm-count bisection on T. *)
let estimate l n =
  let k = min n 12 in
  let alpha = Array.make k 0.0 and beta = Array.make k 0.0 in
  let q = Vec.init n (fun i -> (if i land 1 = 0 then 1.0 else -1.0) /. float_of_int (i + 1)) in
  let q = ref (Vec.scale (1.0 /. Vec.norm2 q) q) and q_prev = ref (Vec.zeros n) in
  let steps = ref 0 in
  while !steps < k && (!steps = 0 || beta.(!steps - 1) > 1e-300) do
    let j = !steps in
    let w = Cholesky.solve_factored l !q in
    alpha.(j) <- Vec.dot w !q;
    let b = if j = 0 then 0.0 else beta.(j - 1) in
    Array.iteri (fun i wi -> w.(i) <- wi -. (alpha.(j) *. !q.(i)) -. (b *. !q_prev.(i))) w;
    beta.(j) <- Vec.norm2 w;
    q_prev := !q;
    q := Vec.scale (1.0 /. beta.(j)) w;
    incr steps
  done;
  let k = !steps in
  let below x =
    let c = ref 0 and dv = ref 1.0 in
    for j = 0 to k - 1 do
      let b = if j = 0 then 0.0 else beta.(j - 1) in
      dv := alpha.(j) -. x -. (b *. b /. !dv);
      if !dv = 0.0 then dv := -1e-300;
      if !dv < 0.0 then incr c
    done;
    !c
  in
  let lo = ref 0.0 and hi = ref 1e-300 in
  for j = 0 to k - 1 do
    hi := !hi +. Float.abs alpha.(j) +. (2.0 *. Float.abs beta.(j))
  done;
  for _ = 1 to 60 do
    let mid = 0.5 *. (!lo +. !hi) in
    if below mid >= k then hi := mid else lo := mid
  done;
  1.0 /. !hi

(* Rump's criterion: if the floating-point Cholesky factorisation of a
   symmetric B runs to completion, its factor R has RᵀR = B + ΔB with
   |ΔB| ≤ γ_{n+1}|Rᵀ||R| (Demmel), so ‖ΔB‖₂ ≤ α·tr(B) with
   α = γ_{n+1}/(1 − γ_{n+1}), and B ⪰ −α·tr(B)·I.  For B = a − s·I with
   its diagonal rounded down, a − s·I ⪰ B proves
   λ_min(a) ≥ s − α·tr(B).  tr(B), α and an absolute allowance for
   underflow, far below any eigenvalue that matters, round up; the
   result rounds down.  (n+1)·u·1.000001 bounds α while (n+1)·u ≤ 1e-7. *)
let verify a s =
  let n = Mat.rows a in
  let b = Mat.copy a and trace = ref (Interval.point 0.0) and big = ref 0.0 in
  for i = 0 to n - 1 do
    b.(i).(i) <- Interval.lo (Interval.wide_sub (Interval.point a.(i).(i)) (Interval.point s));
    big := Float.max !big (Float.abs b.(i).(i));
    trace := Interval.wide_add !trace (Interval.point b.(i).(i))
  done;
  match Cholesky.factor b with
  | exception Cholesky.Not_positive_definite _ -> 0.0
  | _ ->
      let nf = float_of_int n in
      let alpha = (nf +. 1.0) *. epsilon_float *. 0.5 *. 1.000001 in
      let underflow = 4.0 *. nf *. (2.0 *. nf +. 2.0) *. (1.0 +. !big) *. Float.min_float in
      let charge =
        Interval.wide_add (Interval.wide_mul (Interval.point alpha) !trace)
          (Interval.point underflow)
      in
      Interval.lo (Interval.wide (Interval.wide_sub (Interval.point s) charge))

let verified_lambda_min ?factor a =
  match match factor with Some l -> l | None -> Cholesky.factor a with
  | exception Cholesky.Not_positive_definite _ -> 0.0
  | l ->
      let est = estimate l (Mat.rows a) in
      if not (Float.is_finite est && est > 0.0) then 0.0
      else
        List.fold_left
          (fun found f -> if found > 0.0 then found else Float.max 0.0 (verify a (f *. est)))
          0.0 [ 0.999; 0.99; 0.9; 0.5; 0.1 ]
