type t = { lo : float; hi : float }

let make ~lo ~hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN bound";
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo %g > hi %g" lo hi);
  { lo; hi }

let point x = make ~lo:x ~hi:x
let lo t = t.lo
let hi t = t.hi

(* ------------------------------------------------------------------ *)
(* Directed ("outward") rounding                                       *)
(* ------------------------------------------------------------------ *)

(* OCaml floats round to nearest, so the true real result of one IEEE
   +, −, × is strictly within one ulp of the computed value; stepping
   one representable float outward therefore encloses it.  [Float.pred
   infinity = max_float] would *shrink* an infinite endpoint, hence the
   guards.  For a finite |x| > 2⁻¹⁰²⁰ the step is x ± (φ·|x| + η) with
   φ = 2⁻⁵³ + 2⁻¹⁰⁵ and η = 2⁻¹⁰⁷⁴, the same float as [Float.succ]/[pred]
   under round-to-nearest (Rump, Zimmermann, Boldo & Melquiond, BIT
   2009) without their libm [nextafter] call; at 2⁻¹⁰²⁰ itself it would
   step two floats down.  Below that, at ±∞ and at NaN the library
   functions serve.  [Socp]'s certificate keeps its own inlined copy:
   nothing is inlined across modules in the dev profile. *)
let[@inline] down x =
  let a = Float.abs x in
  if a > 0x1p-1020 && a < Float.infinity then x -. ((0x1.0000000000001p-53 *. a) +. 0x1p-1074)
  else if x = Float.neg_infinity then x
  else Float.pred x
let[@inline] up x =
  let a = Float.abs x in
  if a > 0x1p-1020 && a < Float.infinity then x +. ((0x1.0000000000001p-53 *. a) +. 0x1p-1074)
  else if x = Float.infinity then x
  else Float.succ x

let wide t = { lo = down t.lo; hi = up t.hi }

let wide_add a b = make ~lo:(down (a.lo +. b.lo)) ~hi:(up (a.hi +. b.hi))

let neg t = { lo = -.t.hi; hi = -.t.lo }

let wide_sub a b = wide_add a (neg b)

(* Kahan convention: 0 · ±∞ = 0.  An exactly-zero factor contributes
   exactly zero to the product range even when the other interval is
   unbounded — the case the certificate's residual-absorption step hits
   when a stationarity residual is exactly 0 on a half-open box. *)
let prod x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let wide_mul a b =
  let p1 = prod a.lo b.lo and p2 = prod a.lo b.hi in
  let p3 = prod a.hi b.lo and p4 = prod a.hi b.hi in
  let lo = Float.min (Float.min p1 p2) (Float.min p3 p4) in
  let hi = Float.max (Float.max p1 p2) (Float.max p3 p4) in
  make ~lo:(down lo) ~hi:(up hi)
