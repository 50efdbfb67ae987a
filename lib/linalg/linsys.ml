let solve_spd_regularized ?ridge a b =
  if not (Mat.is_square a) then
    invalid_arg "Linsys.solve_spd_regularized: not square";
  let ridge =
    match ridge with
    | Some r -> r
    | None -> 1e-10 *. Float.max (Mat.max_abs a) 1e-300
  in
  let a' = Mat.add_scaled_identity ridge (Mat.symmetrize a) in
  let l, _jitter = Cholesky.factor_jittered a' in
  Cholesky.solve_factored l b
