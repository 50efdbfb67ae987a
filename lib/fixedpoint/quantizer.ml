type t = {
  fmt : Qformat.t;
  scales : float array; (* 2^(f - e_j), or 0.0 if that is not a normal double *)
  neg_exponents : int array; (* -e_j, for the specification's ldexps *)
  lo : float; (* min_raw = -2^(n-1), exact *)
  hi : float; (* max_raw, rounded up to 2^(n-1) when n > 54 *)
}

let create fmt ~exponents =
  let f = fmt.Qformat.f in
  let scale e =
    (* 2^k is a normal double for k in [-1022, 1023]; tested on [e] so
       that [f - e] cannot overflow. *)
    if e >= f - 1023 && e <= f + 1022 then ldexp 1.0 (f - e) else 0.0
  in
  {
    fmt;
    scales = Array.map scale exponents;
    neg_exponents = Array.map (fun e -> -e) exponents;
    lo = float_of_int (Qformat.min_raw fmt);
    hi = float_of_int (Qformat.max_raw fmt);
  }

let dim t = Array.length t.scales

let nan_at what j =
  invalid_arg (Printf.sprintf "%s: NaN in feature %d" what j)

(* Exactness, for n-bit codes.  The specification's two [ldexp]s
   compute s = x * 2^(f - e) exactly, unless s overflows (it then
   saturates) or falls below 2^-960 (it then rounds to 0).  One
   multiply by a normal scale is exact in the same cases and gives the
   same code in the others.  A scale outside the normal range would
   not ([inf * 0] is NaN), and neither would any rewrite of [ldexp],
   which truncates its exponent to 32 bits, so such features run the
   specification's two [ldexp]s (unboxed, noalloc).  Then:
   - s <= lo (or s >= hi) rounds to a code at or past the bound, so it
     saturates to it.  NaN compares false with both and is caught next;
   - inside, |s| < 2^(n-1).  Below 2^51, adding and subtracting
     1.5 * 2^52 rounds s to an integer, ties to even, in the FPU: the
     sum lies in [2^52, 2^53), where doubles are the integers, and
     1.5 * 2^52 is even.  A data-dependent branch here would mispredict
     on every other value;
   - from 2^51 on, s is a multiple of 1/2: truncate, and move a tie to
     the even neighbour.  Above 2^53 every double inside is an integer.
   Nothing is boxed, so the loop allocates nothing. *)
let into t ~what x
    (data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array2.t) ~col =
  let m = dim t in
  if Array.length x <> m then invalid_arg (what ^ ": dimension mismatch");
  if Bigarray.Array2.dim1 data <> m then
    invalid_arg (what ^ ": batch feature count mismatch");
  if col < 0 || col >= Bigarray.Array2.dim2 data then
    invalid_arg (what ^ ": column outside [0, capacity)");
  let lo = t.lo and hi = t.hi in
  let min_raw = Qformat.min_raw t.fmt and max_raw = Qformat.max_raw t.fmt in
  let f = t.fmt.Qformat.f in
  for j = 0 to m - 1 do
    let v = Array.unsafe_get x j in
    let sc = Array.unsafe_get t.scales j in
    let s =
      if sc > 0.0 then v *. sc
      else ldexp (ldexp v (Array.unsafe_get t.neg_exponents j)) f
    in
    let r =
      if s <= lo then min_raw
      else if s >= hi then max_raw
      else if s <> s then nan_at what j
      else if Float.abs s < 0x1p51 then
        int_of_float (s +. 0x1.8p52 -. 0x1.8p52)
      else
        let tr = int_of_float s in
        if float_of_int tr = s || tr land 1 = 0 then tr
        else if s > 0.0 then tr + 1
        else tr - 1
    in
    Bigarray.Array2.unsafe_set data j col r
  done
