open Linalg

type report = { max_grad_error : float; max_hess_error : float }

let central_diff ~h f x i =
  let step = h *. (1.0 +. Float.abs x.(i)) in
  let xp = Vec.copy x and xm = Vec.copy x in
  xp.(i) <- xp.(i) +. step;
  xm.(i) <- xm.(i) -. step;
  (f xp -. f xm) /. (2.0 *. step)

let rel_err a b = Float.abs (a -. b) /. (1.0 +. Float.abs b)

let check ?(h = 1e-5) ?hessian ~f ~grad ?hess x =
  let n = Vec.dim x in
  let g = grad x in
  let max_grad_error = ref 0.0 in
  for i = 0 to n - 1 do
    let numeric = central_diff ~h f x i in
    max_grad_error := Float.max !max_grad_error (rel_err g.(i) numeric)
  done;
  let do_hess =
    match (hessian, hess) with
    | Some b, _ -> b && hess <> None
    | None, Some _ -> true
    | None, None -> false
  in
  let max_hess_error = ref 0.0 in
  if do_hess then begin
    let hm = (Option.get hess) x in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        (* d/dx_j of grad_i, central difference on the gradient *)
        let step = h *. (1.0 +. Float.abs x.(j)) in
        let xp = Vec.copy x and xm = Vec.copy x in
        xp.(j) <- xp.(j) +. step;
        xm.(j) <- xm.(j) -. step;
        let numeric = ((grad xp).(i) -. (grad xm).(i)) /. (2.0 *. step) in
        max_hess_error := Float.max !max_hess_error (rel_err hm.(i).(j) numeric)
      done
    done
  end;
  { max_grad_error = !max_grad_error; max_hess_error = !max_hess_error }

let check_oracle ?h (oracle : Optim.Newton.oracle) x =
  match oracle x with
  | None -> None
  | Some _ ->
      let f y = match oracle y with Some (v, _, _) -> v | None -> Float.nan in
      let grad y =
        match oracle y with
        | Some (_, g, _) -> g
        | None -> Vec.make (Vec.dim y) Float.nan
      in
      let hess y =
        match oracle y with
        | Some (_, _, h) -> h
        | None -> Mat.make (Vec.dim y) (Vec.dim y) Float.nan
      in
      Some (check ?h ~f ~grad ~hess x)
