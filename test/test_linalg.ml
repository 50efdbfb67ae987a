(* Tests for the dense linear-algebra substrate. *)

open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg
let checkfa msg = Alcotest.(check (array (float 1e-9))) msg

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basics () =
  let a = [| 1.0; -2.0; 3.0 |] and b = [| 0.5; 0.5; 0.5 |] in
  checkfa "add" [| 1.5; -1.5; 3.5 |] (Vec.add a b);
  checkfa "sub" [| 0.5; -2.5; 2.5 |] (Vec.sub a b);
  checkfa "scale" [| 2.0; -4.0; 6.0 |] (Vec.scale 2.0 a);
  checkf "dot" 1.0 (Vec.dot a b);
  checkf "norm2" (sqrt 14.0) (Vec.norm2 a);
  checkf "norm1" 6.0 (Vec.norm1 a);
  checkf "norm_inf" 3.0 (Vec.norm_inf a);
  checkfa "axpy" [| 2.5; -3.5; 6.5 |] (Vec.axpy 2.0 a b);
  checkf "sum" 2.0 (Vec.sum a);
  checkf "mean" (2.0 /. 3.0) (Vec.mean a);
  checki "amax" 2 (Vec.amax_index a)

let test_vec_normalize () =
  let a = [| 3.0; 4.0 |] in
  checkfa "unit" [| 0.6; 0.8 |] (Vec.normalize a);
  checkf "unit norm" 1.0 (Vec.norm2 (Vec.normalize a));
  checkfa "inf-normalized" [| 0.75; 1.0 |] (Vec.normalize_inf a);
  checkb "zero rejected" true
    (match Vec.normalize [| 0.0; 0.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_vec_basis_slice () =
  checkfa "basis" [| 0.0; 1.0; 0.0 |] (Vec.basis 3 1);
  checkfa "slice" [| 2.0; 3.0 |]
    (Vec.slice [| 1.0; 2.0; 3.0; 4.0 |] ~pos:1 ~len:2);
  checkb "dim mismatch raises" true
    (match Vec.add [| 1.0 |] [| 1.0; 2.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mat_mul () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  checkfa "row0" [| 19.0; 22.0 |] c.(0);
  checkfa "row1" [| 43.0; 50.0 |] c.(1);
  checkb "a*I = a" true (Mat.approx_equal a (Mat.mul a (Mat.identity 2)));
  checkb "I*a = a" true (Mat.approx_equal a (Mat.mul (Mat.identity 2) a))

let test_mat_vec () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  checkfa "mul_vec" [| 5.0; 11.0; 17.0 |] (Mat.mul_vec a [| 1.0; 2.0 |]);
  checkfa "tmul_vec" [| 22.0; 28.0 |] (Mat.tmul_vec a [| 1.0; 2.0; 3.0 |]);
  let t = Mat.transpose a in
  checki "transpose rows" 2 (Mat.rows t);
  checkfa "transpose row" [| 1.0; 3.0; 5.0 |] t.(0)

let test_mat_outer_quadratic () =
  let u = [| 1.0; 2.0 |] and v = [| 3.0; 4.0; 5.0 |] in
  let o = Mat.outer u v in
  checki "outer rows" 2 (Mat.rows o);
  checkf "outer entry" 8.0 o.(1).(1);
  let s = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  checkf "quadratic form" 18.0 (Mat.quadratic_form s [| 1.0; 2.0 |])

(* The in-place quadratic form sums in the order of the mul_vec form
   it replaced, so the bits agree, on square matrices of any sign
   pattern; a call allocates only the box of its float result. *)
let test_quadratic_form_in_place () =
  let rng = Stats.Rng.create 5 in
  let draw () = Stats.Sampler.std_normal rng *. (10.0 ** float_of_int (Stats.Rng.int rng 7 - 3)) in
  for n = 0 to 42 do
    let a = Mat.init n n (fun _ _ -> draw ()) in
    let x = Array.init n (fun _ -> draw ()) in
    checkb
      (Printf.sprintf "n = %d: bits of Vec.dot x (mul_vec a x)" n)
      true
      (Int64.bits_of_float (Mat.quadratic_form a x)
      = Int64.bits_of_float (Vec.dot x (Mat.mul_vec a x)))
  done;
  let a = Mat.init 42 42 (fun _ _ -> draw ()) and x = Array.init 42 (fun _ -> draw ()) in
  let acc = ref 0.0 in
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    acc := !acc +. Mat.quadratic_form a x
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  checkb (Printf.sprintf "%.2f minor words per 42-dim call <= 2 (the result box)" per_call)
    true (per_call <= 2.0);
  checkb "finite" true (Float.is_finite !acc);
  Alcotest.check_raises "rows <> dim"
    (Invalid_argument "Mat.quadratic_form: dimension mismatch") (fun () ->
      ignore (Mat.quadratic_form (Mat.zeros 3 2) [| 1.0; 2.0 |]))

let test_mat_props () =
  let s = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  checkb "symmetric" true (Mat.is_symmetric s);
  checkb "not symmetric" false
    (Mat.is_symmetric [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]);
  checkf "trace" 5.0 (Mat.trace s);
  checkf "fro" (sqrt 15.0) (Mat.frobenius_norm s);
  checkf "max_abs" 3.0 (Mat.max_abs s);
  let sym = Mat.symmetrize [| [| 1.0; 2.0 |]; [| 4.0; 1.0 |] |] in
  checkf "symmetrize" 3.0 sym.(0).(1);
  checkf "diag entry" 2.0 (Mat.diag [| 2.0; 5.0 |]).(0).(0);
  checkfa "diagonal" [| 2.0; 3.0 |] (Mat.diagonal s)

(* ------------------------------------------------------------------ *)
(* Tri / Cholesky                                                      *)
(* ------------------------------------------------------------------ *)

let random_spd rng n =
  let a =
    Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
  in
  Mat.add_scaled_identity (0.5 *. float_of_int n)
    (Mat.mul a (Mat.transpose a))

let test_cholesky_reconstruct () =
  let rng = Stats.Rng.create 1 in
  for n = 1 to 8 do
    let a = random_spd rng n in
    let l = Cholesky.factor a in
    let llt = Mat.mul l (Mat.transpose l) in
    checkb
      (Printf.sprintf "LLt = A (n=%d)" n)
      true
      (Mat.approx_equal ~tol:1e-8 a llt);
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        checkf "upper zero" 0.0 l.(i).(j)
      done
    done
  done

let test_cholesky_solve_residual () =
  let rng = Stats.Rng.create 2 in
  for n = 1 to 10 do
    let a = random_spd rng n in
    let b = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
    let x = Cholesky.solve a b in
    checkb
      (Printf.sprintf "residual small (n=%d)" n)
      true
      (Vec.dist2 (Mat.mul_vec a x) b < 1e-8)
  done

let test_cholesky_not_pd () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  checkb "not pd detected" false (Cholesky.is_positive_definite a);
  checkb "raises" true
    (match Cholesky.factor a with
    | exception Cholesky.Not_positive_definite _ -> true
    | _ -> false)

let test_cholesky_jittered () =
  let a = Mat.outer [| 1.0; 2.0 |] [| 1.0; 2.0 |] in
  let l, jitter = Cholesky.factor_jittered a in
  checkb "jitter positive" true (jitter > 0.0);
  let llt = Mat.mul l (Mat.transpose l) in
  checkb "close to A" true (Mat.approx_equal ~tol:1e-4 a llt)

let test_cholesky_inverse_logdet () =
  let a = [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  let inv = Cholesky.inverse a in
  checkb "A A-1 = I" true
    (Mat.approx_equal ~tol:1e-9 (Mat.identity 2) (Mat.mul a inv));
  checkf "log det" (log 8.0) (Cholesky.log_det a)

let test_tri_solves () =
  let l = [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  checkfa "lower solve" [| 2.0; 1.0 |] (Tri.solve_lower l [| 4.0; 5.0 |]);
  let u = [| [| 2.0; 1.0 |]; [| 0.0; 3.0 |] |] in
  checkfa "upper solve" [| 0.5; 3.0 |] (Tri.solve_upper u [| 4.0; 9.0 |]);
  let lt = Tri.solve_lower_transpose l [| 4.0; 9.0 |] in
  (* Lᵀ x = b with Lᵀ = [[2,1],[0,3]]: x = (0.5, 3) *)
  checkfa "lower transpose solve" [| 0.5; 3.0 |] lt;
  checkb "singular raises" true
    (match
       Tri.solve_lower [| [| 0.0; 0.0 |]; [| 1.0; 1.0 |] |] [| 1.0; 1.0 |]
     with
    | exception Tri.Singular _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* In-place kernels (_into): each must match its allocating            *)
(* counterpart exactly, including under the documented aliasing        *)
(* ------------------------------------------------------------------ *)

let random_vec rng n = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0)

let test_axpy_into () =
  let rng = Stats.Rng.create 11 in
  for n = 1 to 6 do
    let x = random_vec rng n and y = random_vec rng n in
    let expect = Vec.axpy 1.7 x y in
    let dst = Array.make n Float.nan in
    Vec.axpy_into 1.7 x y ~dst;
    checkfa "fresh dst" expect dst;
    let x' = Array.copy x in
    Vec.axpy_into 1.7 x' y ~dst:x';
    checkfa "dst aliases x" expect x';
    let y' = Array.copy y in
    Vec.axpy_into 1.7 x y' ~dst:y';
    checkfa "dst aliases y" expect y'
  done

let test_mat_vec_into () =
  let rng = Stats.Rng.create 12 in
  List.iter
    (fun (m, n) ->
      let a = Mat.init m n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
      let x = random_vec rng n and xt = random_vec rng m in
      let dst = Array.make m Float.nan in
      Mat.mul_vec_into a x ~dst;
      checkfa "mul_vec_into" (Mat.mul_vec a x) dst;
      let dstt = Array.make n Float.nan in
      Mat.tmul_vec_into a xt ~dst:dstt;
      checkfa "tmul_vec_into" (Mat.tmul_vec a xt) dstt;
      (* the zero-skip in tmul_vec_into must not change results *)
      let sparse = Array.mapi (fun i v -> if i mod 2 = 0 then 0.0 else v) xt in
      Mat.tmul_vec_into a sparse ~dst:dstt;
      checkfa "tmul_vec_into sparse" (Mat.tmul_vec a sparse) dstt)
    [ (1, 1); (3, 2); (2, 5); (4, 4) ]

let test_tri_into () =
  let rng = Stats.Rng.create 14 in
  for n = 1 to 6 do
    let l = Cholesky.factor (random_spd rng n) in
    let b = random_vec rng n in
    let dst = Array.make n Float.nan in
    Tri.solve_lower_into l b ~dst;
    checkfa "solve_lower_into" (Tri.solve_lower l b) dst;
    let b' = Array.copy b in
    Tri.solve_lower_into l b' ~dst:b';
    checkfa "solve_lower_into aliased" (Tri.solve_lower l b) b';
    Tri.solve_lower_transpose_into l b ~dst;
    checkfa "solve_lower_transpose_into" (Tri.solve_lower_transpose l b) dst;
    let b' = Array.copy b in
    Tri.solve_lower_transpose_into l b' ~dst:b';
    checkfa "solve_lower_transpose_into aliased"
      (Tri.solve_lower_transpose l b) b'
  done

let test_cholesky_into () =
  let rng = Stats.Rng.create 15 in
  for n = 1 to 6 do
    let a = random_spd rng n in
    let expect = Cholesky.factor a in
    let dst = Mat.init n n (fun _ _ -> Float.nan) in
    Cholesky.factor_into a ~dst;
    checkb "factor_into" true (Mat.approx_equal ~tol:1e-12 expect dst);
    (* aliased: classical in-place factorisation overwrites a *)
    let a' = Mat.copy a in
    Cholesky.factor_into a' ~dst:a';
    checkb "factor_into aliased" true (Mat.approx_equal ~tol:1e-12 expect a');
    let expect_l, expect_j = Cholesky.factor_jittered a in
    let j = Cholesky.factor_jittered_into a ~dst in
    checkf "factor_jittered_into jitter" expect_j j;
    checkb "factor_jittered_into factor" true
      (Mat.approx_equal ~tol:1e-12 expect_l dst);
    let b = random_vec rng n in
    let xdst = Array.make n Float.nan in
    Cholesky.solve_factored_into expect b ~dst:xdst;
    checkfa "solve_factored_into" (Cholesky.solve_factored expect b) xdst;
    let b' = Array.copy b in
    Cholesky.solve_factored_into expect b' ~dst:b';
    checkfa "solve_factored_into aliased" (Cholesky.solve_factored expect b) b'
  done

let test_factor_jittered_into_rank_deficient () =
  (* A rank-1 matrix forces the retry loop: failed attempts must leave
     the pristine input intact and still land on factor_jittered's
     answer. *)
  let a = Mat.outer [| 1.0; 2.0 |] [| 1.0; 2.0 |] in
  let keep = Mat.copy a in
  let expect_l, expect_j = Cholesky.factor_jittered a in
  let dst = Mat.init 2 2 (fun _ _ -> Float.nan) in
  let j = Cholesky.factor_jittered_into a ~dst in
  checkf "jitter agrees" expect_j j;
  checkb "factor agrees" true (Mat.approx_equal ~tol:1e-12 expect_l dst);
  checkb "input untouched" true (Mat.approx_equal ~tol:0.0 keep a)

let test_factor_jittered_into_reads_lower () =
  (* The Newton loop hands over a Hessian whose strict upper triangle is
     never written: the factor and the jitter (its scale included) must
     come from the lower triangle alone.  A NaN above the diagonal would
     poison either if it were read. *)
  let bits = Int64.bits_of_float in
  let check label a =
    let n = Mat.rows a in
    let masked = Mat.init n n (fun i j -> if j > i then Float.nan else a.(i).(j)) in
    let dst = Mat.zeros n n and dst' = Mat.zeros n n in
    let j = Cholesky.factor_jittered_into a ~dst in
    let j' = Cholesky.factor_jittered_into masked ~dst:dst' in
    checkb (label ^ ": same jitter bits") true (bits j = bits j');
    checkb (label ^ ": same factor bits") true
      (Array.for_all2 (Array.for_all2 (fun x y -> bits x = bits y)) dst dst');
    j
  in
  let rng = Stats.Rng.create 21 in
  checkf "spd: no jitter" 0.0 (check "spd" (random_spd rng 5));
  (* Rank 1: the first attempt fails, so the retry loop runs and takes
     its jitter scale from the lower triangle. *)
  let rank1 = Mat.outer [| 1.0; -3.0; 2.0 |] [| 1.0; -3.0; 2.0 |] in
  checkb "rank-deficient: jittered" true (check "rank-deficient" rank1 > 0.0)

(* Reference copies of the row-at-a-time kernels the blocked ones
   replaced: every entry of the blocked [Cholesky.factor_into] and
   [Mat.mul_vec_into] must equal these bit for bit (NaN payloads
   included: the same operations on the same operands). *)
let reference_factor_into ?(jitter = 0.0) a ~dst =
  let n = Mat.rows a in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (a.(i).(j) +. if i = j then jitter else 0.0) in
      for k = 0 to j - 1 do
        s := !s -. (dst.(i).(k) *. dst.(j).(k))
      done;
      if i = j then begin
        if !s <= 0.0 then raise (Cholesky.Not_positive_definite i);
        dst.(i).(i) <- sqrt !s
      end
      else dst.(i).(j) <- !s /. dst.(j).(j)
    done;
    for j = i + 1 to n - 1 do
      dst.(i).(j) <- 0.0
    done
  done

let reference_factor_jittered a =
  let dst = Mat.zeros (Mat.rows a) (Mat.cols a) in
  let rec go jitter tries =
    if tries > 20 then raise (Cholesky.Not_positive_definite (-1))
    else
      match reference_factor_into ~jitter a ~dst with
      | () -> (dst, jitter)
      | exception Cholesky.Not_positive_definite _ ->
          let lower = ref 0.0 in
          Array.iteri
            (fun i r ->
              for j = 0 to i do
                lower := Float.max !lower (Float.abs r.(j))
              done)
            a;
          go (if jitter = 0.0 then 1e-12 *. Float.max !lower 1e-300 else 10.0 *. jitter)
            (tries + 1)
  in
  go 0.0 0

let reference_mul_vec a x =
  Array.map
    (fun r ->
      let s = ref 0.0 in
      for k = 0 to Array.length x - 1 do
        s := !s +. (r.(k) *. x.(k))
      done;
      !s)
    a

let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y
let same_vec_bits u v = Array.length u = Array.length v && Array.for_all2 same_bits u v
let same_mat_bits a b = Array.length a = Array.length b && Array.for_all2 same_vec_bits a b

(* The pivot a factorisation fails at, or -2 when it succeeds. *)
let failing_pivot f = match f () with () -> -2 | exception Cholesky.Not_positive_definite i -> i

let test_cholesky_blocked_bits () =
  let rng = Stats.Rng.create 35 and retried = ref 0 in
  for n = 0 to 50 do
    let a = random_spd rng n in
    (* the upper triangle is never read: poison it *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        a.(i).(j) <- Float.nan
      done
    done;
    let expect = Mat.zeros n n in
    reference_factor_into a ~dst:expect;
    let dst = Mat.init n n (fun _ _ -> Float.nan) in
    Cholesky.factor_into a ~dst;
    checkb (Printf.sprintf "n = %d: factor bits" n) true (same_mat_bits expect dst);
    let a' = Mat.copy a in
    Cholesky.factor_into a' ~dst:a';
    checkb (Printf.sprintf "n = %d: aliased factor bits" n) true (same_mat_bits expect a');
    (* −0 off the diagonal: each sum starts at a(i)(j) + 0 = +0 *)
    let signed = Mat.init n n (fun i j -> if i = j then float_of_int (i + 1) else -0.0) in
    reference_factor_into signed ~dst:expect;
    Cholesky.factor_into signed ~dst;
    checkb (Printf.sprintf "n = %d: signed-zero factor bits" n) true (same_mat_bits expect dst);
    let jitter = 0.25 *. Stats.Rng.uniform rng ~lo:0.0 ~hi:1.0 in
    reference_factor_into ~jitter a ~dst:expect;
    Cholesky.factor_into ~jitter a ~dst;
    checkb (Printf.sprintf "n = %d: jittered factor bits" n) true (same_mat_bits expect dst);
    (* Rank at most n/2 + 1 < n from n = 3 on, so an attempt that
       rounding does not rescue fails and the retry loop runs. *)
    let b = Mat.init n (n / 2 + 1) (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
    let low_rank = Mat.mul b (Mat.transpose b) in
    let expect_l, expect_j = reference_factor_jittered low_rank in
    let j = Cholesky.factor_jittered_into low_rank ~dst in
    if j > 0.0 then incr retried;
    checkb (Printf.sprintf "n = %d: jitter bits" n) true (same_bits expect_j j);
    checkb (Printf.sprintf "n = %d: jittered retry factor bits" n) true
      (same_mat_bits expect_l dst)
  done;
  checkb (Printf.sprintf "%d of 51 sizes retried with jitter" !retried) true (!retried >= 25)

(* Make pivot [p] of an s.p.d. [a] negative: a(p)(p) below the sum of
   squares the reference subtracts from it.  Rows before p and row p's
   off-diagonal entries are unchanged, so the reference fails exactly
   at p; so must the blocked kernel, wherever p sits in a block of four
   (n runs through every residue mod 4). *)
let test_cholesky_blocked_failing_pivot () =
  let rng = Stats.Rng.create 36 in
  for n = 1 to 13 do
    let a = random_spd rng n in
    let l = Cholesky.factor a in
    for p = 0 to n - 1 do
      let bad = Mat.copy a in
      let sq = ref 0.0 in
      for k = 0 to p - 1 do
        sq := !sq +. (l.(p).(k) *. l.(p).(k))
      done;
      bad.(p).(p) <- !sq -. 1.0;
      let want = failing_pivot (fun () -> reference_factor_into bad ~dst:(Mat.zeros n n)) in
      checki (Printf.sprintf "n = %d: reference fails at %d" n p) p want;
      checki (Printf.sprintf "n = %d: pivot %d" n p) want
        (failing_pivot (fun () -> Cholesky.factor_into bad ~dst:(Mat.zeros n n)));
      checki (Printf.sprintf "n = %d: aliased pivot %d" n p) want
        (failing_pivot (fun () -> let c = Mat.copy bad in Cholesky.factor_into c ~dst:c));
      (* a zero pivot fails too, and a NaN one passes the test *)
      bad.(p).(p) <- 0.0;
      for k = 0 to p - 1 do bad.(p).(k) <- 0.0; bad.(k).(p) <- 0.0 done;
      checki (Printf.sprintf "n = %d: zero pivot %d" n p)
        (failing_pivot (fun () -> reference_factor_into bad ~dst:(Mat.zeros n n)))
        (failing_pivot (fun () -> Cholesky.factor_into bad ~dst:(Mat.zeros n n)));
      bad.(p).(p) <- Float.nan;
      let expect = Mat.zeros n n and dst = Mat.zeros n n in
      let want = failing_pivot (fun () -> reference_factor_into bad ~dst:expect) in
      checki (Printf.sprintf "n = %d: NaN pivot %d" n p) want
        (failing_pivot (fun () -> Cholesky.factor_into bad ~dst));
      if want = -2 then
        checkb (Printf.sprintf "n = %d: NaN pivot %d bits" n p) true (same_mat_bits expect dst)
    done
  done

let test_mat_vec_blocked_bits () =
  let rng = Stats.Rng.create 37 in
  let special =
    [| 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; 1e-300; -1e300; 1.5 |]
  in
  let entry () =
    if Stats.Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.3 then
      special.(int_of_float (Stats.Rng.uniform rng ~lo:0.0 ~hi:8.0) mod 8)
    else Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0
  in
  for m = 0 to 50 do
    List.iter
      (fun n ->
        let plain = Mat.init m n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
        let mixed = Mat.init m n (fun _ _ -> entry ()) in
        (* all-negative-zero products: each sum must stay +0 *)
        let zeros = Mat.make m n (-0.0) in
        List.iter
          (fun (label, a, x) ->
            let expect = reference_mul_vec a x in
            let dst = Array.make m Float.nan in
            Mat.mul_vec_into a x ~dst;
            checkb (Printf.sprintf "%s %dx%d: mul_vec_into bits" label m n) true
              (same_vec_bits expect dst);
            checkb (Printf.sprintf "%s %dx%d: mul_vec bits" label m n) true
              (same_vec_bits expect (Mat.mul_vec a x));
            let wide = Array.make (m + 5) 7.0 in
            Mat.mul_vec_into_at a x ~dst:wide ~pos:3;
            checkb (Printf.sprintf "%s %dx%d: mul_vec_into_at bits" label m n) true
              (same_vec_bits expect (Array.sub wide 3 m));
            checkb (Printf.sprintf "%s %dx%d: mul_vec_into_at leaves the rest" label m n)
              true
              (Array.for_all (( = ) 7.0) (Array.sub wide 0 3)
              && Array.for_all (( = ) 7.0) (Array.sub wide (m + 3) 2)))
          [ ("plain", plain, random_vec rng n);
            ("mixed", mixed, Array.init n (fun _ -> entry ()));
            ("zeros", zeros, Array.make n 1.0) ]
      )
      (* a matrix without rows has no columns either *)
      (if m = 0 then [ 0 ] else [ 0; 1; 5; 43 ])
  done;
  checkb "mul_vec_into_at past the end raises" true
    (match Mat.mul_vec_into_at (Mat.zeros 4 2) [| 1.0; 2.0 |] ~dst:(Array.make 5 0.0) ~pos:2 with
    | exception Invalid_argument _ -> true
    | () -> false);
  checkb "mul_vec_into ragged raises" true
    (match
       Mat.mul_vec_into
         [| [| 1.0; 2.0 |]; [| 1.0; 2.0 |]; [| 1.0 |]; [| 1.0; 2.0 |] |]
         [| 1.0; 2.0 |] ~dst:(Array.make 4 0.0)
     with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Linsys                                                              *)
(* ------------------------------------------------------------------ *)

let test_linsys_regularized () =
  let a = Mat.outer [| 1.0; 1.0 |] [| 1.0; 1.0 |] in
  let x = Linsys.solve_spd_regularized ~ridge:1e-8 a [| 2.0; 2.0 |] in
  checkb "finite" true (Array.for_all Float.is_finite x);
  checkb "approximately solves" true
    (Vec.dist2 (Mat.mul_vec a x) [| 2.0; 2.0 |] < 1e-3)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_vec n =
  QCheck.make
    ~print:(fun v -> Format.asprintf "%a" Vec.pp v)
    QCheck.Gen.(
      let* l = list_repeat n (float_range (-10.0) 10.0) in
      return (Array.of_list l))

let prop_dot_symmetric =
  QCheck.Test.make ~name:"dot symmetric" ~count:200
    (QCheck.pair (arb_vec 5) (arb_vec 5)) (fun (a, b) ->
      Float.abs (Vec.dot a b -. Vec.dot b a) < 1e-9)

let prop_cauchy_schwarz =
  QCheck.Test.make ~name:"Cauchy-Schwarz" ~count:200
    (QCheck.pair (arb_vec 6) (arb_vec 6)) (fun (a, b) ->
      Float.abs (Vec.dot a b) <= (Vec.norm2 a *. Vec.norm2 b) +. 1e-9)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    (QCheck.pair (arb_vec 6) (arb_vec 6)) (fun (a, b) ->
      Vec.norm2 (Vec.add a b) <= Vec.norm2 a +. Vec.norm2 b +. 1e-9)

let arb_spd =
  QCheck.make
    ~print:(fun m -> Format.asprintf "%a" Mat.pp m)
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* seed = int_range 0 1_000_000 in
      let rng = Stats.Rng.create seed in
      return (random_spd rng n))

let prop_cholesky_roundtrip =
  QCheck.Test.make ~name:"cholesky reconstructs" ~count:100 arb_spd (fun a ->
      let l = Cholesky.factor a in
      Mat.approx_equal ~tol:1e-7 a (Mat.mul l (Mat.transpose l)))

let prop_quadratic_form_nonneg =
  QCheck.Test.make ~name:"s.p.d. quadratic form positive" ~count:100
    (QCheck.pair arb_spd (arb_vec 6)) (fun (a, x) ->
      let x = Array.sub x 0 (Mat.rows a) in
      QCheck.assume (Vec.norm2 x > 1e-6);
      Mat.quadratic_form a x > 0.0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dot_symmetric;
      prop_cauchy_schwarz;
      prop_triangle_inequality;
      prop_cholesky_roundtrip;
      prop_quadratic_form_nonneg;
    ]

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "basis/slice" `Quick test_vec_basis_slice;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "mat-vec" `Quick test_mat_vec;
          Alcotest.test_case "outer/quadratic" `Quick test_mat_outer_quadratic;
          Alcotest.test_case "quadratic form in place" `Quick
            test_quadratic_form_in_place;
          Alcotest.test_case "properties" `Quick test_mat_props;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "reconstruct" `Quick test_cholesky_reconstruct;
          Alcotest.test_case "solve residual" `Quick
            test_cholesky_solve_residual;
          Alcotest.test_case "not pd" `Quick test_cholesky_not_pd;
          Alcotest.test_case "jittered" `Quick test_cholesky_jittered;
          Alcotest.test_case "inverse/logdet" `Quick
            test_cholesky_inverse_logdet;
          Alcotest.test_case "triangular solves" `Quick test_tri_solves;
        ] );
      ( "into kernels",
        [
          Alcotest.test_case "axpy_into" `Quick test_axpy_into;
          Alcotest.test_case "mat-vec into" `Quick test_mat_vec_into;
          Alcotest.test_case "triangular into" `Quick test_tri_into;
          Alcotest.test_case "cholesky into" `Quick test_cholesky_into;
          Alcotest.test_case "jittered retry pristine" `Quick
            test_factor_jittered_into_rank_deficient;
          Alcotest.test_case "jittered reads the lower triangle" `Quick
            test_factor_jittered_into_reads_lower;
          Alcotest.test_case "blocked cholesky bits" `Quick
            test_cholesky_blocked_bits;
          Alcotest.test_case "blocked cholesky failing pivot" `Quick
            test_cholesky_blocked_failing_pivot;
          Alcotest.test_case "blocked mat-vec bits" `Quick
            test_mat_vec_blocked_bits;
        ] );
      ( "linsys",
        [
          Alcotest.test_case "regularized" `Quick test_linsys_regularized;
        ] );
      ("properties", qcheck_tests);
    ]
