type t = float array

let make n x =
  if n < 0 then invalid_arg "Vec.make: negative length";
  Array.make n x

let zeros n = make n 0.0
let ones n = make n 1.0
let init = Array.init

let basis n i =
  if i < 0 || i >= n then invalid_arg "Vec.basis: index out of range";
  let v = zeros n in
  v.(i) <- 1.0;
  v

let copy = Array.copy
let dim = Array.length

let check_dims op a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" op
         (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_dims "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let scale c a = Array.map (fun x -> c *. x) a
let neg a = Array.map (fun x -> -.x) a

let axpy a x y =
  check_dims "axpy" x y;
  Array.mapi (fun i xi -> (a *. xi) +. y.(i)) x

let axpy_into a x y ~dst =
  check_dims "axpy_into" x y;
  check_dims "axpy_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot a b =
  check_dims "dot" a b;
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let norm2 a = sqrt (dot a a)
let norm1 a = Array.fold_left (fun s x -> s +. Float.abs x) 0.0 a
let norm_inf a = Array.fold_left (fun s x -> Float.max s (Float.abs x)) 0.0 a
let dist2 a b = norm2 (sub a b)

let normalize a =
  let n = norm2 a in
  if n = 0.0 then invalid_arg "Vec.normalize: zero vector";
  scale (1.0 /. n) a

let normalize_inf a =
  let n = norm_inf a in
  if n = 0.0 then invalid_arg "Vec.normalize_inf: zero vector";
  scale (1.0 /. n) a

let map = Array.map

let map2 f a b =
  check_dims "map2" a b;
  Array.mapi (fun i x -> f x b.(i)) a

let sum = Array.fold_left ( +. ) 0.0

let mean a =
  if Array.length a = 0 then invalid_arg "Vec.mean: empty vector";
  sum a /. float_of_int (Array.length a)

let amax_index a =
  if Array.length a = 0 then invalid_arg "Vec.amax_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if Float.abs a.(i) > Float.abs a.(!best) then best := i
  done;
  !best

let approx_equal ?(tol = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a b

let concat = Array.append

let slice a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Vec.slice: out of range";
  Array.sub a pos len

let pp ppf a =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%.6g" x))
    (Array.to_list a)
