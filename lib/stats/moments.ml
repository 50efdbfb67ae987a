open Linalg

let check_nonempty name x =
  if Mat.rows x = 0 then invalid_arg (name ^ ": empty data matrix")

let mean x =
  check_nonempty "Moments.mean" x;
  let n = Mat.rows x and m = Mat.cols x in
  let mu = Vec.zeros m in
  Array.iter (fun row -> Array.iteri (fun j v -> mu.(j) <- mu.(j) +. v) row) x;
  Vec.scale (1.0 /. float_of_int n) mu

let centered x =
  let mu = mean x in
  Array.map (fun row -> Vec.sub row mu) x

let covariance_with_norm norm x =
  let c = centered x in
  let m = Mat.cols x in
  let cov = Mat.zeros m m in
  Array.iter
    (fun row ->
      for i = 0 to m - 1 do
        let ri = row.(i) in
        if ri <> 0.0 then
          for j = 0 to m - 1 do
            cov.(i).(j) <- cov.(i).(j) +. (ri *. row.(j))
          done
      done)
    c;
  Mat.scale (1.0 /. norm) cov

let covariance x =
  check_nonempty "Moments.covariance" x;
  covariance_with_norm (float_of_int (Mat.rows x)) x

let covariance_unbiased x =
  if Mat.rows x < 2 then invalid_arg "Moments.covariance_unbiased: N < 2";
  covariance_with_norm (float_of_int (Mat.rows x - 1)) x

let variances x = Mat.diagonal (covariance x)
let std_devs x = Vec.map sqrt (variances x)

let column_fold name f init x =
  check_nonempty name x;
  let m = Mat.cols x in
  let acc = Array.make m init in
  Array.iter
    (fun row -> Array.iteri (fun j v -> acc.(j) <- f acc.(j) v) row)
    x;
  acc

let column_min x = column_fold "Moments.column_min" Float.min Float.infinity x
let column_max x =
  column_fold "Moments.column_max" Float.max Float.neg_infinity x
