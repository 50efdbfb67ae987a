exception Singular of string

let check_square_compatible name a b =
  if not (Mat.is_square a) then invalid_arg (name ^ ": matrix not square");
  if Mat.rows a <> Array.length b then
    invalid_arg (name ^ ": dimension mismatch")

(* The blocked C kernel (Kernels.solve_lower): four rows per vector,
   each row summed as the row-by-row loop sums it, [dst] written up to
   the row of a zero diagonal.  The kernel checks the row lengths. *)
let solve_lower_into l b ~dst =
  check_square_compatible "Tri.solve_lower" l b;
  let n = Array.length b in
  if Array.length dst <> n then
    invalid_arg "Tri.solve_lower_into: dst dimension mismatch";
  if Kernels.solve_lower l b ~dst >= 0 then
    raise (Singular "Tri.solve_lower: zero diagonal")

let solve_lower l b =
  let y = Array.make (Array.length b) 0.0 in
  solve_lower_into l b ~dst:y;
  y

let solve_upper u b =
  check_square_compatible "Tri.solve_upper" u b;
  let n = Array.length b in
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (u.(i).(j) *. x.(j))
    done;
    let d = u.(i).(i) in
    if d = 0.0 then raise (Singular "Tri.solve_upper: zero diagonal");
    x.(i) <- !s /. d
  done;
  x

let solve_lower_transpose_into l b ~dst =
  check_square_compatible "Tri.solve_lower_transpose" l b;
  let n = Array.length b in
  if Array.length dst <> n then
    invalid_arg "Tri.solve_lower_transpose_into: dst dimension mismatch";
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (l.(j).(i) *. dst.(j))
    done;
    let d = l.(i).(i) in
    if d = 0.0 then raise (Singular "Tri.solve_lower_transpose: zero diagonal");
    dst.(i) <- !s /. d
  done

let solve_lower_transpose l b =
  let x = Array.make (Array.length b) 0.0 in
  solve_lower_transpose_into l b ~dst:x;
  x
