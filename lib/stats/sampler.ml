open Linalg

let rec std_normal rng =
  (* Marsaglia polar method, discarding the second variate to keep the
     sampler stateless across calls. *)
  let u = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
  let v = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then std_normal rng
  else u *. sqrt (-2.0 *. log s /. s)

let normal rng ~mean ~sigma = mean +. (sigma *. std_normal rng)
let std_normal_vec rng n = Array.init n (fun _ -> std_normal rng)

type mvn = { mean : Vec.t; factor : Mat.t }

let mvn ~mean ~cov =
  let m = Vec.dim mean in
  if Mat.dims cov <> (m, m) then
    invalid_arg "Sampler.mvn: mean/covariance dimension mismatch";
  let factor, _jitter = Cholesky.factor_jittered (Mat.symmetrize cov) in
  { mean; factor }

let mvn_draw { mean; factor } rng =
  let z = std_normal_vec rng (Vec.dim mean) in
  Vec.add mean (Mat.mul_vec factor z)

let mvn_draws t rng n = Array.init n (fun _ -> mvn_draw t rng)
