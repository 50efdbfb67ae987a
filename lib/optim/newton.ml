open Linalg

type oracle = Vec.t -> (float * Vec.t * Mat.t) option

type params = { tol : float; max_iter : int }

let default_params = { tol = 1e-9; max_iter = 80 }

type status = Converged | Iteration_limit | Stalled | Diverged

type result = {
  x : Vec.t;
  value : float;
  iterations : int;
  decrement : float;
  status : status;
}

type oracle_into = {
  value : Vec.t -> float option;
  derivs : grad:Vec.t -> hess:Mat.t -> unit;
}

type workspace = {
  n : int;
  grad : Vec.t;
  hess : Mat.t;  (* lower triangle written by [derivs], read by Cholesky *)
  chol : Mat.t;  (* Cholesky factor scratch *)
  dir : Vec.t;  (* Newton direction *)
  mutable xa : Vec.t;  (* current iterate *)
  mutable xb : Vec.t;  (* line-search candidate; swapped on acceptance *)
}

let workspace n =
  if n < 0 then invalid_arg "Newton.workspace: negative dimension";
  {
    n;
    grad = Vec.zeros n;
    hess = Mat.zeros n n;
    chol = Mat.zeros n n;
    dir = Vec.zeros n;
    xa = Vec.zeros n;
    xb = Vec.zeros n;
  }

(* Newton direction H d = -g at the point of the last [derivs] call, via
   jittered Cholesky into scratch (the barrier Hessian is positive
   definite in the domain interior but may be numerically semidefinite
   near the analytic center of a thin box); returns g·d. *)
let direction ws =
  let (_ : float) = Cholesky.factor_jittered_into ws.hess ~dst:ws.chol in
  for i = 0 to ws.n - 1 do
    ws.dir.(i) <- -.ws.grad.(i)
  done;
  Cholesky.solve_factored_into ws.chol ws.dir ~dst:ws.dir;
  Vec.dot ws.grad ws.dir

(* Backtracking line search on f with domain rejection, from ws.xa along
   ws.dir: value-only trials, so a rejected one costs no derivatives.
   On acceptance the candidate is in ws.xb, and it was the oracle's last
   [value] call; returns its value.  Sufficient-decrease fraction 1/4,
   backtracking factor 1/2. *)
let line_search ws oracle ~f0 ~gd =
  let t = ref 1.0 in
  let accepted = ref None in
  let tries = ref 0 in
  while Option.is_none !accepted && !tries < 60 do
    incr tries;
    Vec.axpy_into !t ws.dir ws.xa ~dst:ws.xb;
    match oracle.value ws.xb with
    | Some fc
      when fc <= f0 +. (0.25 *. !t *. gd) && not (Float.is_nan fc) ->
        accepted := Some fc
    | _ -> t := 0.5 *. !t
  done;
  !accepted

let minimize_into ?(params = default_params) ws oracle x0 =
  if Vec.dim x0 <> ws.n then
    invalid_arg "Newton.minimize_into: dimension mismatch";
  Array.blit x0 0 ws.xa 0 ws.n;
  match oracle.value ws.xa with
  | None -> invalid_arg "Newton.minimize: start point outside domain"
  | Some f0 ->
      oracle.derivs ~grad:ws.grad ~hess:ws.hess;
      let fx = ref f0 in
      let iter = ref 0 in
      let dec = ref Float.infinity in
      let status = ref Iteration_limit in
      let continue = ref true in
      while !continue && !iter < params.max_iter do
        incr iter;
        let gd = direction ws in
        dec := 0.5 *. -.gd;
        if Float.is_nan !dec then begin
          (* A NaN decrement (NaN gradient/Hessian entries, or a Newton
             system solved into NaNs) used to be reported as Converged,
             silently handing callers a bogus centering point.  Surface
             it so Socp can report Suboptimal instead. *)
          status := Diverged;
          continue := false
        end
        else if !dec <= params.tol then begin
          status := Converged;
          continue := false
        end
        else
          match line_search ws oracle ~f0:!fx ~gd with
          | Some fc ->
              let tmp = ws.xa in
              ws.xa <- ws.xb;
              ws.xb <- tmp;
              fx := fc;
              oracle.derivs ~grad:ws.grad ~hess:ws.hess
          | None ->
              status := Stalled;
              continue := false
      done;
      { x = Vec.copy ws.xa; value = !fx; iterations = !iter; decrement = !dec;
        status = !status }

(* The combined oracle's last in-domain evaluation, handed out by
   [derivs] with the Hessian symmetrised as it is copied (the loop
   factors the lower triangle as given). *)
let oracle_into_of_oracle oracle =
  let last = ref None in
  let value x =
    match oracle x with
    | None -> None
    | Some (f, g, h) ->
        last := Some (g, h);
        Some f
  in
  let derivs ~grad ~hess =
    match !last with
    | None -> invalid_arg "Newton: derivs before an in-domain value"
    | Some (g, h) ->
        Array.blit g 0 grad 0 (Vec.dim grad);
        for i = 0 to Vec.dim grad - 1 do
          hess.(i).(i) <- h.(i).(i);
          for j = 0 to i - 1 do
            hess.(i).(j) <- 0.5 *. (h.(i).(j) +. h.(j).(i))
          done
        done
  in
  { value; derivs }

let minimize ?params oracle x0 =
  let n = Vec.dim x0 in
  minimize_into ?params (workspace n) (oracle_into_of_oracle oracle) x0
