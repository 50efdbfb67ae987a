exception Not_positive_definite of int

(* Row [i] of the factor from column [j0] on, the reference loop: each
   entry sums s = a(i)(j) (+ jitter on the diagonal) − Σ_{k<j}
   l(i)(k)·l(j)(k), k ascending, then takes the pivot's square root or
   divides by l(j)(j); then the row's upper part is zeroed.  Columns
   left of [j0] must already be done. *)
let[@inline] row_from ~jitter a dst i j0 =
  let ai = a.(i) and li = dst.(i) in
  for j = j0 to i do
    let lj = dst.(j) in
    let s = ref (ai.(j) +. if i = j then jitter else 0.0) in
    for k = 0 to j - 1 do
      s := !s -. (li.(k) *. lj.(k))
    done;
    if i = j then begin
      if !s <= 0.0 then raise (Not_positive_definite i);
      li.(i) <- sqrt !s
    end
    else li.(j) <- !s /. lj.(j)
  done;
  for j = i + 1 to Array.length li - 1 do
    li.(j) <- 0.0
  done

(* Left-looking over blocks of four rows.  Every entry keeps
   [row_from]'s sum, term for term, so the factor is the same bit for
   bit; but for each column j left of a block the four rows' sums are
   independent, so they run side by side and share the loads of row j:
   four subtractions in flight instead of one chain.  The block's own
   4×4 triangle, which needs its pivots in turn, keeps [row_from].  The
   n mod 4 rows that do not fill a block come first, where rows are
   shortest.  A failing pivot raises the index the row-by-row order
   would: rows finish in order, and a block checks its pivots in row
   order after all earlier rows. *)
let factor_into ?(jitter = 0.0) a ~dst =
  if not (Mat.is_square a) then invalid_arg "Cholesky.factor: not square";
  if Mat.dims a <> Mat.dims dst then
    invalid_arg "Cholesky.factor_into: dst dimension mismatch";
  let n = Mat.rows a in
  let lead = n mod 4 in
  for i = 0 to lead - 1 do
    row_from ~jitter a dst i 0
  done;
  let i0 = ref lead in
  while !i0 < n do
    let i = !i0 in
    let a0 = a.(i) and a1 = a.(i + 1) and a2 = a.(i + 2) and a3 = a.(i + 3) in
    let l0 = dst.(i) and l1 = dst.(i + 1) in
    let l2 = dst.(i + 2) and l3 = dst.(i + 3) in
    for j = 0 to i - 1 do
      let lj = dst.(j) in
      let s0 = ref (a0.(j) +. 0.0) and s1 = ref (a1.(j) +. 0.0) in
      let s2 = ref (a2.(j) +. 0.0) and s3 = ref (a3.(j) +. 0.0) in
      for k = 0 to j - 1 do
        let ljk = lj.(k) in
        s0 := !s0 -. (l0.(k) *. ljk);
        s1 := !s1 -. (l1.(k) *. ljk);
        s2 := !s2 -. (l2.(k) *. ljk);
        s3 := !s3 -. (l3.(k) *. ljk)
      done;
      let ljj = lj.(j) in
      l0.(j) <- !s0 /. ljj;
      l1.(j) <- !s1 /. ljj;
      l2.(j) <- !s2 /. ljj;
      l3.(j) <- !s3 /. ljj
    done;
    for r = i to i + 3 do
      row_from ~jitter a dst r i
    done;
    i0 := i + 4
  done

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
