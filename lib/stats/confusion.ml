type t = { tp : int; fp : int; tn : int; fn : int }

let empty = { tp = 0; fp = 0; tn = 0; fn = 0 }

let add t ~truth ~predicted =
  match (truth, predicted) with
  | true, true -> { t with tp = t.tp + 1 }
  | true, false -> { t with fn = t.fn + 1 }
  | false, true -> { t with fp = t.fp + 1 }
  | false, false -> { t with tn = t.tn + 1 }

let of_predictions ~truth ~predicted =
  if Array.length truth <> Array.length predicted then
    invalid_arg "Confusion.of_predictions: length mismatch";
  let acc = ref empty in
  Array.iteri
    (fun i t -> acc := add !acc ~truth:t ~predicted:predicted.(i))
    truth;
  !acc

let merge a b =
  { tp = a.tp + b.tp; fp = a.fp + b.fp; tn = a.tn + b.tn; fn = a.fn + b.fn }

let total t = t.tp + t.fp + t.tn + t.fn
let errors t = t.fp + t.fn

let error_rate t =
  let n = total t in
  if n = 0 then invalid_arg "Confusion.error_rate: empty confusion";
  float_of_int (errors t) /. float_of_int n

let accuracy t = 1.0 -. error_rate t

let sensitivity t =
  let p = t.tp + t.fn in
  if p = 0 then Float.nan else float_of_int t.tp /. float_of_int p

let specificity t =
  let n = t.tn + t.fp in
  if n = 0 then Float.nan else float_of_int t.tn /. float_of_int n

let pp ppf t =
  Format.fprintf ppf "{tp=%d fp=%d tn=%d fn=%d err=%.2f%%}" t.tp t.fp t.tn t.fn
    (100.0 *. error_rate t)
