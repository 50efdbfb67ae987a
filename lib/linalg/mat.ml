type t = float array array

let make m n x =
  if m < 0 || n < 0 then invalid_arg "Mat.make: negative dimension";
  Array.init m (fun _ -> Array.make n x)

let zeros m n = make m n 0.0

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))

let init m n f = Array.init m (fun i -> Array.init n (fun j -> f i j))

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let rows a = Array.length a
let cols a = if Array.length a = 0 then 0 else Array.length a.(0)
let dims a = (rows a, cols a)

let diagonal a =
  let n = min (rows a) (cols a) in
  Array.init n (fun i -> a.(i).(i))

let copy a = Array.map Array.copy a
let get a i j = a.(i).(j)
let set a i j x = a.(i).(j) <- x
let row a i = Array.copy a.(i)
let col a j = Array.init (rows a) (fun i -> a.(i).(j))

let of_rows rs =
  if Array.length rs = 0 then [||]
  else begin
    let n = Array.length rs.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> n then invalid_arg "Mat.of_rows: ragged rows")
      rs;
    Array.map Array.copy rs
  end

let transpose a = init (cols a) (rows a) (fun i j -> a.(j).(i))

let check_same op a b =
  if dims a <> dims b then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" op (rows a)
         (cols a) (rows b) (cols b))

let add a b =
  check_same "add" a b;
  init (rows a) (cols a) (fun i j -> a.(i).(j) +. b.(i).(j))

let sub a b =
  check_same "sub" a b;
  init (rows a) (cols a) (fun i j -> a.(i).(j) -. b.(i).(j))

let scale c a = Array.map (Array.map (fun x -> c *. x)) a

let mul a b =
  if cols a <> rows b then
    invalid_arg
      (Printf.sprintf "Mat.mul: inner dimension mismatch (%d vs %d)" (cols a)
         (rows b));
  let m = rows a and n = cols b and k = cols a in
  let c = zeros m n in
  for i = 0 to m - 1 do
    let ai = a.(i) and ci = c.(i) in
    for l = 0 to k - 1 do
      let ail = ai.(l) in
      if ail <> 0.0 then begin
        let bl = b.(l) in
        for j = 0 to n - 1 do
          ci.(j) <- ci.(j) +. (ail *. bl.(j))
        done
      end
    done
  done;
  c

let mul_vec a x =
  if cols a <> Array.length x then
    invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.map (fun r -> Vec.dot r x) a

(* Row i of [a x] into [dst.(pos + i)], each the sum of [Vec.dot a.(i) x]:
   from +0, k ascending.  Four rows' sums run side by side and share the
   loads of x, so no sum waits on another's previous addition; the
   rows a block of four leaves over go one at a time.  The sums are
   written out here, not taken from [Vec.dot]: a call to it boxes the
   float it returns. *)
let mul_vec_into_at a x ~dst ~pos =
  let m = rows a and n = Array.length x in
  if cols a <> n then invalid_arg "Mat.mul_vec_into: dimension mismatch";
  if pos < 0 || pos + m > Array.length dst then
    invalid_arg "Mat.mul_vec_into_at: dst too short";
  let i0 = ref 0 in
  while !i0 + 4 <= m do
    let i = !i0 in
    let r0 = a.(i) and r1 = a.(i + 1) and r2 = a.(i + 2) and r3 = a.(i + 3) in
    if Array.length r0 <> n || Array.length r1 <> n || Array.length r2 <> n
       || Array.length r3 <> n
    then invalid_arg "Mat.mul_vec_into: ragged rows";
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for k = 0 to n - 1 do
      let xk = x.(k) in
      s0 := !s0 +. (r0.(k) *. xk);
      s1 := !s1 +. (r1.(k) *. xk);
      s2 := !s2 +. (r2.(k) *. xk);
      s3 := !s3 +. (r3.(k) *. xk)
    done;
    dst.(pos + i) <- !s0;
    dst.(pos + i + 1) <- !s1;
    dst.(pos + i + 2) <- !s2;
    dst.(pos + i + 3) <- !s3;
    i0 := i + 4
  done;
  for i = !i0 to m - 1 do
    let r = a.(i) in
    if Array.length r <> n then invalid_arg "Mat.mul_vec_into: ragged rows";
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. (r.(k) *. x.(k))
    done;
    dst.(pos + i) <- !s
  done

let mul_vec_into a x ~dst =
  if rows a <> Array.length dst then
    invalid_arg "Mat.mul_vec_into: dst dimension mismatch";
  mul_vec_into_at a x ~dst ~pos:0

let tmul_vec_into a x ~dst =
  if rows a <> Array.length x then
    invalid_arg "Mat.tmul_vec_into: dimension mismatch";
  let n = cols a in
  if Array.length dst <> n then
    invalid_arg "Mat.tmul_vec_into: dst dimension mismatch";
  Array.fill dst 0 n 0.0;
  for i = 0 to rows a - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      let ai = a.(i) in
      for j = 0 to n - 1 do
        dst.(j) <- dst.(j) +. (xi *. ai.(j))
      done
  done

let tmul_vec a x =
  if rows a <> Array.length x then
    invalid_arg "Mat.tmul_vec: dimension mismatch";
  let y = Array.make (cols a) 0.0 in
  tmul_vec_into a x ~dst:y;
  y

let outer u v = init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

(* Σ_i x_i·(a_i·x) summed in the order of [Vec.dot x (mul_vec a x)],
   so the bits are the same, without the [mul_vec] array. *)
let quadratic_form a x =
  let n = Array.length x in
  if rows a <> n || cols a <> n then
    invalid_arg "Mat.quadratic_form: dimension mismatch";
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    let ai = a.(i) in
    if Array.length ai <> n then invalid_arg "Mat.quadratic_form: ragged rows";
    let r = ref 0.0 in
    for k = 0 to n - 1 do
      r := !r +. (ai.(k) *. x.(k))
    done;
    s := !s +. (x.(i) *. !r)
  done;
  !s

let add_scaled_identity c a =
  if rows a <> cols a then invalid_arg "Mat.add_scaled_identity: not square";
  init (rows a) (cols a) (fun i j -> if i = j then a.(i).(j) +. c else a.(i).(j))

let trace a =
  let n = min (rows a) (cols a) in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. a.(i).(i)
  done;
  !s

let frobenius_norm a =
  sqrt
    (Array.fold_left
       (fun s r -> s +. Array.fold_left (fun s x -> s +. (x *. x)) 0.0 r)
       0.0 a)

let is_square a = rows a = cols a

let is_symmetric ?(tol = 1e-9) a =
  is_square a
  &&
  let n = rows a in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Float.abs (a.(i).(j) -. a.(j).(i)) > tol then ok := false
    done
  done;
  !ok

let symmetrize a =
  if not (is_square a) then invalid_arg "Mat.symmetrize: not square";
  init (rows a) (cols a) (fun i j -> 0.5 *. (a.(i).(j) +. a.(j).(i)))

let max_abs a =
  Array.fold_left
    (fun s r -> Array.fold_left (fun s x -> Float.max s (Float.abs x)) s r)
    0.0 a

let approx_equal ?(tol = 1e-9) a b =
  dims a = dims b
  && Array.for_all2 (fun ra rb -> Vec.approx_equal ~tol ra rb) a b

let pp ppf a =
  Format.fprintf ppf "[@[<v>%a@]]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Vec.pp)
    (Array.to_list a)
