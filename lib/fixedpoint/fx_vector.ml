type t = { fmt : Qformat.t; raws : int array }
(* Invariant: every element of [raws] lies in the raw range of [fmt]. *)

let create fmt n =
  if n < 0 then invalid_arg "Fx_vector.create: negative length";
  { fmt; raws = Array.make n 0 }

let of_floats ?(mode = Rounding.Nearest) ?(ov = Rounding.Wrap) fmt xs =
  { fmt; raws = Array.map (fun x -> Fx.raw (Fx.of_float ~mode ~ov fmt x)) xs }

let of_fx arr =
  if Array.length arr = 0 then invalid_arg "Fx_vector.of_fx: empty array";
  let fmt = Fx.format arr.(0) in
  Array.iter
    (fun x ->
      if not (Qformat.equal (Fx.format x) fmt) then
        invalid_arg "Fx_vector.of_fx: mixed formats")
    arr;
  { fmt; raws = Array.map Fx.raw arr }

let to_floats { fmt; raws } = Array.map (Qformat.value_of_raw fmt) raws
let length t = Array.length t.raws
let format t = t.fmt
let get t i = Fx.create t.fmt t.raws.(i)

let set t i x =
  if not (Qformat.equal (Fx.format x) t.fmt) then
    invalid_arg "Fx_vector.set: format mismatch";
  t.raws.(i) <- Fx.raw x

let map f t = { t with raws = Array.map (fun r -> Fx.raw (f (Fx.create t.fmt r))) t.raws }

let check_compatible op a b =
  if not (Qformat.equal a.fmt b.fmt) then
    invalid_arg (Printf.sprintf "Fx_vector.%s: format mismatch" op);
  if Array.length a.raws <> Array.length b.raws then
    invalid_arg (Printf.sprintf "Fx_vector.%s: length mismatch" op)

let dot a b =
  check_compatible "dot" a b;
  let fmt = a.fmt in
  let f = fmt.Qformat.f in
  let acc = ref 0 in
  for i = 0 to Array.length a.raws - 1 do
    let p = a.raws.(i) * b.raws.(i) in
    let p = Rounding.shift_right_rounded Rounding.Nearest p f in
    let p = Qformat.wrap_raw fmt p in
    acc := Qformat.wrap_raw fmt (!acc + p)
  done;
  Fx.create fmt !acc

let dot_wide ?(mode = Rounding.Nearest) a b =
  check_compatible "dot_wide" a b;
  let fmt = a.fmt in
  if 2 * Qformat.word_length fmt + 8 > 62 then
    invalid_arg "Fx_vector.dot_wide: accumulator would exceed 62 bits";
  let acc = ref 0 in
  for i = 0 to Array.length a.raws - 1 do
    acc := !acc + (a.raws.(i) * b.raws.(i))
  done;
  let r = Rounding.shift_right_rounded mode !acc fmt.Qformat.f in
  Fx.create fmt r

let dot_reference a b =
  check_compatible "dot_reference" a b;
  let fa = to_floats a and fb = to_floats b in
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. (x *. fb.(i))) fa;
  !s

let map2 op name ?(ov = Rounding.Wrap) a b =
  check_compatible name a b;
  { fmt = a.fmt;
    raws =
      Array.mapi
        (fun i ra ->
          Rounding.apply_overflow ov a.fmt
            ~what:("Fx_vector." ^ name)
            (op ra b.raws.(i)))
        a.raws }

let add ?ov a b = map2 ( + ) "add" ?ov a b
let sub ?ov a b = map2 ( - ) "sub" ?ov a b

let neg ?(ov = Rounding.Wrap) a =
  { a with
    raws =
      Array.map
        (fun r -> Rounding.apply_overflow ov a.fmt ~what:"Fx_vector.neg" (-r))
        a.raws }

let scale ?(mode = Rounding.Nearest) ?(ov = Rounding.Wrap) c a =
  if not (Qformat.equal (Fx.format c) a.fmt) then
    invalid_arg "Fx_vector.scale: format mismatch";
  { a with
    raws =
      Array.map
        (fun r ->
          let p = Fx.raw c * r in
          let p = Rounding.shift_right_rounded mode p a.fmt.Qformat.f in
          Rounding.apply_overflow ov a.fmt ~what:"Fx_vector.scale" p)
        a.raws }

let linf_norm t =
  Array.fold_left
    (fun m r -> Float.max m (Float.abs (Qformat.value_of_raw t.fmt r)))
    0.0 t.raws

let equal a b =
  Qformat.equal a.fmt b.fmt
  && Array.length a.raws = Array.length b.raws
  && Array.for_all2 ( = ) a.raws b.raws

let pp ppf t =
  Format.fprintf ppf "[@[%a@]]:%a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Array.to_list (to_floats t))
    Qformat.pp t.fmt
