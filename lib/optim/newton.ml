open Linalg

type oracle = Vec.t -> (float * Vec.t * Mat.t) option

type params = { tol : float; max_iter : int }

let default_params = { tol = 1e-9; max_iter = 80 }

type status = Converged | Iteration_limit | Stalled | Diverged

type result = {
  x : Vec.t;
  value : float;
  iterations : int;
  trials : int;
  decrement : float;
  status : status;
}

type oracle_into = {
  value : Vec.t -> float option;
  derivs : grad:Vec.t -> hess:Mat.t -> unit;
  ray : Vec.t -> Vec.t -> float -> float option;
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
   ws.dir.  Each trial asks the oracle's ray for the decrease
   f(xa + t·dir) − f(xa) itself, so the test does not compare two nearly
   equal values of f (whose difference is rounding noise near the
   optimum).  Only a trial that passes runs the value pass, at ws.xb,
   which refreshes the caches [derivs] reads; a refresh that finds the
   point outside the domain (a rounding edge the trial did not see)
   rejects it.  On acceptance returns ws.xb's value, and the trial
   count either way.  Sufficient-decrease fraction 1/4, backtracking
   factor 1/2. *)
let line_search ws oracle ~gd =
  let decrease = oracle.ray ws.xa ws.dir in
  let t = ref 1.0 in
  let accepted = ref None in
  let tries = ref 0 in
  while Option.is_none !accepted && !tries < 60 do
    incr tries;
    (match decrease !t with
    | Some dt when dt <= 0.25 *. !t *. gd -> (
        Vec.axpy_into !t ws.dir ws.xa ~dst:ws.xb;
        match oracle.value ws.xb with
        | Some fc when not (Float.is_nan fc) -> accepted := Some fc
        | _ -> ())
    | _ -> ());
    if Option.is_none !accepted then t := 0.5 *. !t
  done;
  (!accepted, !tries)

let minimize_into ?(params = default_params) ?(finish = false) ws oracle x0 =
  if Vec.dim x0 <> ws.n then
    invalid_arg "Newton.minimize_into: dimension mismatch";
  Array.blit x0 0 ws.xa 0 ws.n;
  match oracle.value ws.xa with
  | None -> invalid_arg "Newton.minimize: start point outside domain"
  | Some f0 ->
      oracle.derivs ~grad:ws.grad ~hess:ws.hess;
      let fx = ref f0 in
      let iter = ref 0 in
      let trials = ref 0 in
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
          continue := false;
          (* The step this decrement was measured on, taken in full:
             inside the quadratic region it squares the decrement, at
             the cost of one value pass. *)
          if finish then begin
            Vec.axpy_into 1.0 ws.dir ws.xa ~dst:ws.xb;
            match oracle.value ws.xb with
            | Some fc when not (Float.is_nan fc) ->
                let tmp = ws.xa in
                ws.xa <- ws.xb;
                ws.xb <- tmp;
                fx := fc
            | _ -> ()
          end
        end
        else
          let accepted, tries = line_search ws oracle ~gd in
          trials := !trials + tries;
          match accepted with
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
      { x = Vec.copy ws.xa; value = !fx; iterations = !iter; trials = !trials;
        decrement = !dec; status = !status }

(* The combined oracle's last in-domain evaluation, handed out by
   [derivs] with the Hessian symmetrised as it is copied (the loop
   factors the lower triangle as given).  Its ray evaluates each trial
   point in full and subtracts the value at the ray's base. *)
let oracle_into_of_oracle oracle =
  let last = ref None in
  let value x =
    match oracle x with
    | None -> None
    | Some (f, g, h) ->
        last := Some (f, g, h);
        Some f
  in
  let derivs ~grad ~hess =
    match !last with
    | None -> invalid_arg "Newton: derivs before an in-domain value"
    | Some (_, g, h) ->
        Array.blit g 0 grad 0 (Vec.dim grad);
        for i = 0 to Vec.dim grad - 1 do
          hess.(i).(i) <- h.(i).(i);
          for j = 0 to i - 1 do
            hess.(i).(j) <- 0.5 *. (h.(i).(j) +. h.(j).(i))
          done
        done
  in
  let ray x d =
    let f0 = match !last with Some (f, _, _) -> f | None -> Float.nan in
    fun t ->
      match oracle (Vec.axpy t d x) with
      | Some (f, _, _) -> Some (f -. f0)
      | None -> None
  in
  { value; derivs; ray }

let minimize ?params oracle x0 =
  let n = Vec.dim x0 in
  minimize_into ?params (workspace n) (oracle_into_of_oracle oracle) x0
