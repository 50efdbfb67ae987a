type t = { raw : int; fmt : Qformat.t }

let create fmt raw = { raw = Qformat.wrap_raw fmt raw; fmt }

let check_same_format op a b =
  if not (Qformat.equal a.fmt b.fmt) then
    invalid_arg
      (Printf.sprintf "Fx.%s: format mismatch (%s vs %s)" op
         (Qformat.to_string a.fmt)
         (Qformat.to_string b.fmt))

let of_float ?(mode = Rounding.Nearest) ?(ov = Rounding.Wrap) fmt x =
  if Float.is_nan x then invalid_arg "Fx.of_float: nan";
  let scaled = ldexp x fmt.Qformat.f in
  (* Guard against floats far outside any raw range before int conversion. *)
  let limit = ldexp 1.0 62 in
  let scaled = Float.max (-.limit) (Float.min limit scaled) in
  let r = Rounding.round_scaled mode scaled in
  { raw = Rounding.apply_overflow ov fmt ~what:"Fx.of_float" r; fmt }

let to_float { raw; fmt } = Qformat.value_of_raw fmt raw
let raw t = t.raw
let format t = t.fmt
let zero fmt = { raw = 0; fmt }
let one ?(ov = Rounding.Wrap) fmt = of_float ~ov fmt 1.0
let min_val fmt = { raw = Qformat.min_raw fmt; fmt }

let add ?(ov = Rounding.Wrap) a b =
  check_same_format "add" a b;
  { raw = Rounding.apply_overflow ov a.fmt ~what:"Fx.add" (a.raw + b.raw);
    fmt = a.fmt }

let sub ?(ov = Rounding.Wrap) a b =
  check_same_format "sub" a b;
  { raw = Rounding.apply_overflow ov a.fmt ~what:"Fx.sub" (a.raw - b.raw);
    fmt = a.fmt }

let neg ?(ov = Rounding.Wrap) a =
  { raw = Rounding.apply_overflow ov a.fmt ~what:"Fx.neg" (-a.raw);
    fmt = a.fmt }

let abs ?(ov = Rounding.Wrap) a = if a.raw < 0 then neg ~ov a else a

let mul_exact_raw a b =
  check_same_format "mul_exact_raw" a b;
  if 2 * Qformat.word_length a.fmt > 62 then
    invalid_arg "Fx.mul_exact_raw: product precision exceeds 62 bits";
  a.raw * b.raw

let mul ?(mode = Rounding.Nearest) ?(ov = Rounding.Wrap) a b =
  let p = mul_exact_raw a b in
  (* p is in units of 2^(-2f); shift back to 2^(-f) with rounding. *)
  let r = Rounding.shift_right_rounded mode p a.fmt.Qformat.f in
  { raw = Rounding.apply_overflow ov a.fmt ~what:"Fx.mul" r; fmt = a.fmt }

let shift_left ?(ov = Rounding.Wrap) a n =
  if n < 0 then invalid_arg "Fx.shift_left: negative shift";
  { raw = Rounding.apply_overflow ov a.fmt ~what:"Fx.shift_left" (a.raw lsl n);
    fmt = a.fmt }

let shift_right ?(mode = Rounding.Nearest) a n =
  if n < 0 then invalid_arg "Fx.shift_right: negative shift";
  { raw = Rounding.shift_right_rounded mode a.raw n; fmt = a.fmt }

let compare a b =
  check_same_format "compare" a b;
  Stdlib.compare a.raw b.raw

let equal a b = Qformat.equal a.fmt b.fmt && a.raw = b.raw
let sign a = Stdlib.compare a.raw 0

let quantization_error fmt x =
  to_float (of_float ~ov:Rounding.Saturate fmt x) -. x

let pp ppf t = Format.fprintf ppf "%g:%a" (to_float t) Qformat.pp t.fmt
let to_string t = Format.asprintf "%a" pp t
