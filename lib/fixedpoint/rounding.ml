type mode = Nearest | Nearest_away | Toward_zero | Floor | Ceil
type overflow = Wrap | Saturate | Error

exception Fixed_point_overflow of string

(* [int_of_float] is unspecified outside the [int] range, so extreme
   scaled values (e.g. 1e300 · 2^f) must saturate rather than convert to
   garbage; callers then clamp the saturated raw into their format's
   bounds.  2^62 is the smallest magnitude that can overflow a 63-bit
   OCaml int. *)
let saturated_int_of_float what s =
  if Float.is_nan s then
    invalid_arg (Printf.sprintf "%s: NaN has no rounding" what)
  else if s >= 0x1p62 then max_int
  else if s <= -0x1p62 then min_int
  else int_of_float s

let round_scaled mode s =
  let lo = Float.floor s in
  let hi = Float.ceil s in
  let pick =
    if lo = hi then lo
    else
      match mode with
      | Floor -> lo
      | Ceil -> hi
      | Toward_zero -> if s >= 0.0 then lo else hi
      | Nearest_away ->
          let dl = s -. lo and dh = hi -. s in
          if dl < dh then lo
          else if dh < dl then hi
          else if s >= 0.0 then hi
          else lo
      | Nearest ->
          let dl = s -. lo and dh = hi -. s in
          if dl < dh then lo
          else if dh < dl then hi
          else if Float.rem lo 2.0 = 0.0 then lo
          else hi
  in
  saturated_int_of_float "Rounding.round_scaled" pick

let shift_right_rounded mode r n =
  if n < 0 then invalid_arg "Rounding.shift_right_rounded: negative shift";
  if n = 0 then r
  else
    let q = r asr n in
    (* remainder in [0, 2^n): arithmetic shift floors, so r = q*2^n + rem *)
    let rem = r - (q lsl n) in
    let half = 1 lsl (n - 1) in
    match mode with
    | Floor -> q
    | Ceil -> if rem = 0 then q else q + 1
    | Toward_zero -> if r >= 0 || rem = 0 then q else q + 1
    | Nearest_away ->
        if rem > half then q + 1
        else if rem < half then q
        else if r >= 0 then q + 1 (* tie: away from zero, value positive *)
        else q (* tie on a negative value: away from zero is more negative *)
    | Nearest ->
        if rem > half then q + 1
        else if rem < half then q
        else if q land 1 = 0 then q
        else q + 1

let apply_overflow ov fmt ~what r =
  if r >= Qformat.min_raw fmt && r <= Qformat.max_raw fmt then r
  else
    match ov with
    | Wrap -> Qformat.wrap_raw fmt r
    | Saturate -> Qformat.saturate_raw fmt r
    | Error ->
        raise
          (Fixed_point_overflow
             (Printf.sprintf "%s: raw %d exceeds %s range [%d, %d]" what r
                (Qformat.to_string fmt) (Qformat.min_raw fmt)
                (Qformat.max_raw fmt)))

