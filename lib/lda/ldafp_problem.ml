open Linalg
open Fixedpoint
open Optim

type t = {
  fmt : Qformat.t;
  rho : float;
  beta : float;
  scatter : Stats.Scatter.t;
  sw : Mat.t;
  d : Vec.t;
  elem_box : Fx_interval.t array;
  cones : Socp.cones;
  t_root : Interval.t;
  restrict_t_positive : bool;
  (* Relaxation template, shared by every branch-and-bound node: the
     quadratic term, the zero linear term and all constraint direction
     vectors are node-independent — only the half-space offsets (box and
     t-range) and the objective scale (1/eta) change per node. *)
  p_base : Mat.t;  (* 2 S_W *)
  q_zero : Vec.t;
  box_pos : Vec.t array;  (* e_i,  for w_i <= hi_i *)
  box_neg : Vec.t array;  (* -e_i, for -w_i <= -lo_i *)
  d_neg : Vec.t;  (* -d, for -dᵀw <= -t_lo *)
}

exception No_feasible_box of string

(* Feasible w-interval of the four element constraints (18) for one
   element, given mean/sigma pairs for both classes.  On each half-line
   the constraints are linear, so we intersect half-line by half-line and
   take the union (both halves contain w = 0). *)
let elem_range ~beta ~lo_bound ~hi_bound stats =
  (* stats : (mu, sigma) list; constraints for w >= 0 (sign = +1) are
       w (mu - beta sigma) >= lo_bound  and  w (mu + beta sigma) <= hi_bound
     and for w <= 0 (sign = -1), |w| = -w:
       w (mu + beta sigma) >= lo_bound  and  w (mu - beta sigma) <= hi_bound *)
  let pos_hi = ref Float.infinity in
  let neg_lo = ref Float.neg_infinity in
  List.iter
    (fun (mu, sigma) ->
      let c_minus = mu -. (beta *. sigma) in
      let c_plus = mu +. (beta *. sigma) in
      (* w >= 0: w * c_minus >= lo_bound restricts only when c_minus < 0. *)
      if c_minus < 0.0 then pos_hi := Float.min !pos_hi (lo_bound /. c_minus);
      (* w >= 0: w * c_plus <= hi_bound restricts only when c_plus > 0. *)
      if c_plus > 0.0 then pos_hi := Float.min !pos_hi (hi_bound /. c_plus);
      (* w <= 0: w * c_plus >= lo_bound restricts only when c_plus > 0. *)
      if c_plus > 0.0 then neg_lo := Float.max !neg_lo (lo_bound /. c_plus);
      (* w <= 0: w * c_minus <= hi_bound restricts only when c_minus < 0. *)
      if c_minus < 0.0 then neg_lo := Float.max !neg_lo (hi_bound /. c_minus))
    stats;
  (!neg_lo, !pos_hi)

let build ?(rho = 0.99) ?(restrict_t_positive = true) ~fmt scatter =
  let beta = Stats.Gaussian.beta_of_confidence rho in
  let m = Stats.Scatter.dim scatter in
  let sw = Mat.symmetrize (Stats.Scatter.within_class scatter) in
  let d = Stats.Scatter.mean_difference scatter in
  let lo_bound = Qformat.min_value fmt in
  let hi_bound = Qformat.max_value fmt in
  let mu_a = scatter.Stats.Scatter.mu_a and mu_b = scatter.Stats.Scatter.mu_b in
  let sig_a = scatter.Stats.Scatter.sigma_a
  and sig_b = scatter.Stats.Scatter.sigma_b in
  let elem_box =
    Array.init m (fun j ->
        let stats =
          [
            (mu_a.(j), sqrt (Float.max sig_a.(j).(j) 0.0));
            (mu_b.(j), sqrt (Float.max sig_b.(j).(j) 0.0));
          ]
        in
        let lo, hi = elem_range ~beta ~lo_bound ~hi_bound stats in
        match Fx_interval.of_values fmt ~lo ~hi with
        | iv -> iv
        | exception Invalid_argument msg ->
            raise (No_feasible_box (Printf.sprintf "element %d: %s" j msg)))
  in
  (* Cones of (20): beta ‖Lᵀw‖ <= ±μᵀw + bound.  Cholesky jitter makes the
     relaxed cone slightly tighter than the exact constraint, so add the
     worst-case compensation beta·sqrt(jitter)·max‖w‖ to the offsets. *)
  let max_norm_w =
    sqrt (float_of_int m)
    *. Float.max (Float.abs lo_bound) (Float.abs hi_bound)
  in
  let make_cones sigma mu =
    let l_chol, jitter = Cholesky.factor_jittered (Mat.symmetrize sigma) in
    let slack = beta *. sqrt jitter *. max_norm_w in
    let l = Mat.scale beta (Mat.transpose l_chol) in
    let zero_g = Vec.zeros m in
    [
      (* μᵀw − β√(wᵀΣw) >= lo_bound  ⇔  β‖Lᵀw‖ <= μᵀw − lo_bound *)
      { Socp.l; g = zero_g; c = Vec.copy mu; d = -.lo_bound +. slack };
      (* μᵀw + β√(wᵀΣw) <= hi_bound  ⇔  β‖Lᵀw‖ <= −μᵀw + hi_bound *)
      { Socp.l; g = zero_g; c = Vec.neg mu; d = hi_bound +. slack };
    ]
  in
  (* Each class's two cones share one [l], so two Grams serve all four,
     computed here once and shared by every node's relaxation. *)
  let cones =
    Socp.cones (Array.of_list (make_cones sig_a mu_a @ make_cones sig_b mu_b))
  in
  (* Root t-interval: eq. (29) tightened by the element boxes. *)
  let t_lo = ref 0.0 and t_hi = ref 0.0 in
  Array.iteri
    (fun j iv ->
      let a = d.(j) *. Fx_interval.lo iv and b = d.(j) *. Fx_interval.hi iv in
      t_lo := !t_lo +. Float.min a b;
      t_hi := !t_hi +. Float.max a b)
    elem_box;
  let t_root =
    if restrict_t_positive then
      Interval.make ~lo:(Float.max 0.0 !t_lo) ~hi:(Float.max 0.0 !t_hi)
    else Interval.make ~lo:!t_lo ~hi:!t_hi
  in
  {
    fmt; rho; beta; scatter; sw; d; elem_box; cones; t_root;
    restrict_t_positive;
    p_base = Mat.scale 2.0 sw;
    q_zero = Vec.zeros m;
    box_pos = Array.init m (Vec.basis m);
    box_neg = Array.init m (fun i -> Vec.neg (Vec.basis m i));
    d_neg = Vec.neg d;
  }

let dim t = Vec.dim t.d
let elem_interval t j = t.elem_box.(j)

let cost t w =
  let tt = Vec.dot t.d w in
  if tt = 0.0 then Float.infinity
  else Mat.quadratic_form t.sw w /. (tt *. tt)

let on_grid t w =
  Array.for_all
    (fun x ->
      Qformat.in_range t.fmt x
      && Float.abs (x -. Qformat.nearest_on_grid t.fmt x) < 1e-12)
    w

let constraint_violation t w =
  let lo_bound = Qformat.min_value t.fmt in
  let hi_bound = Qformat.max_value t.fmt in
  let s = t.scatter in
  let worst = ref Float.neg_infinity in
  let push v = worst := Float.max !worst v in
  (* Element constraints (18), exact. *)
  Array.iteri
    (fun j wj ->
      let check mu sigma =
        let spread = t.beta *. Float.abs wj *. sigma in
        push (lo_bound -. ((wj *. mu) -. spread));
        push ((wj *. mu) +. spread -. hi_bound)
      in
      check s.Stats.Scatter.mu_a.(j)
        (sqrt (Float.max s.Stats.Scatter.sigma_a.(j).(j) 0.0));
      check s.Stats.Scatter.mu_b.(j)
        (sqrt (Float.max s.Stats.Scatter.sigma_b.(j).(j) 0.0)))
    w;
  (* Projection constraints (20), exact quadratic forms. *)
  let check_proj mu sigma =
    let m = Vec.dot mu w in
    let spread = t.beta *. sqrt (Float.max (Mat.quadratic_form sigma w) 0.0) in
    push (lo_bound -. (m -. spread));
    push (m +. spread -. hi_bound)
  in
  check_proj s.Stats.Scatter.mu_a s.Stats.Scatter.sigma_a;
  check_proj s.Stats.Scatter.mu_b s.Stats.Scatter.sigma_b;
  !worst

let feasible ?(tol = 1e-9) t w =
  on_grid t w
  && Array.for_all2 (fun iv x -> Fx_interval.mem iv x) t.elem_box w
  && constraint_violation t w <= tol

let t_of t w = Vec.dot t.d w

let trange_of_box t wbox =
  let lo = ref 0.0 and hi = ref 0.0 in
  Array.iteri
    (fun j iv ->
      let a = t.d.(j) *. Fx_interval.lo iv
      and b = t.d.(j) *. Fx_interval.hi iv in
      lo := !lo +. Float.min a b;
      hi := !hi +. Float.max a b)
    wbox;
  Interval.make ~lo:!lo ~hi:!hi

(* Only the offsets [b] are node-specific; every direction vector is
   shared from the template, so a node's half-spaces cost 2M+2 small
   records, not O(M²) fresh floats. *)
let box_and_t_lins t ~wbox ~trange =
  let m = dim t in
  Array.init
    ((2 * m) + 2)
    (fun k ->
      if k < m then { Socp.a = t.box_pos.(k); b = Fx_interval.hi wbox.(k) }
      else if k < 2 * m then
        let i = k - m in
        { Socp.a = t.box_neg.(i); b = -.Fx_interval.lo wbox.(i) }
      else if k = 2 * m then { Socp.a = t.d; b = Interval.hi trange }
      else { Socp.a = t.d_neg; b = -.Interval.lo trange })

let relaxation t ~wbox ~trange ~eta =
  if eta <= 0.0 then invalid_arg "Ldafp_problem.relaxation: eta must be > 0";
  (* wᵀ S_W w / eta = (1/eta) · (1/2) wᵀ (2 S_W) w: the eta-dependence
     lives entirely in the objective scale, so the shared [p_base] and
     cones serve every node unchanged. *)
  Socp.of_parts ~obj_scale:(1.0 /. eta) ~p:t.p_base ~q:t.q_zero
    ~lins:(box_and_t_lins t ~wbox ~trange)
    ~cones:t.cones (dim t)

let secant_relaxation t ~wbox ~trange ~theta =
  if theta < 0.0 then
    invalid_arg "Ldafp_problem.secant_relaxation: theta must be >= 0";
  let l = Interval.lo trange and u = Interval.hi trange in
  if l < 0.0 then
    invalid_arg "Ldafp_problem.secant_relaxation: t-range must be >= 0";
  let m = dim t in
  let q = Vec.scale (-.theta *. (l +. u)) t.d in
  let problem =
    Socp.of_parts ~p:t.p_base ~q
      ~lins:(box_and_t_lins t ~wbox ~trange)
      ~cones:t.cones m
  in
  (problem, theta *. l *. u)

(* A certifiably box-and-t-interior point of a node's region, used as
   the pull-in target for warm starts that landed on the child's branch
   cut (Socp.pull_to_interior).  Corner blend: each coordinate moves the
   fraction theta from the endpoint minimising d_j w_j to the one
   maximising it, so d·w = (1−theta)·min(d·w over box) + theta·max and
   choosing theta to hit mid(trange) puts d·w exactly at the t-slice
   centre.  Because bound_node intersects trange with trange_of_box
   first, theta lands in [0, 1]; strictly inside unless the region is
   degenerate (a singleton box dimension or a width-zero t-slice), in
   which case there is no strict interior for any point to find and the
   caller's interiority check fails as it must. *)
let center_point t ~wbox ~trange =
  let m = dim t in
  let t_mid = Interval.mid trange in
  let lo_t = ref 0.0 and hi_t = ref 0.0 in
  Array.iteri
    (fun j iv ->
      let a = t.d.(j) *. Fx_interval.lo iv
      and b = t.d.(j) *. Fx_interval.hi iv in
      lo_t := !lo_t +. Float.min a b;
      hi_t := !hi_t +. Float.max a b)
    wbox;
  let width = !hi_t -. !lo_t in
  let theta = if width <= 0.0 then 0.5 else (t_mid -. !lo_t) /. width in
  Vec.init m (fun j ->
      let iv = wbox.(j) in
      let lo = Fx_interval.lo iv and hi = Fx_interval.hi iv in
      if t.d.(j) >= 0.0 then lo +. (theta *. (hi -. lo))
      else hi -. (theta *. (hi -. lo)))

(* A canonical text of the inputs [build] derives everything else from,
   with every float printed exactly ([%h]): independent of the record's
   memory layout and of the derived data (boxes, cones, Grams). *)
let fingerprint t =
  let s = t.scatter in
  let b = Buffer.create 1024 in
  let row v =
    Array.iter (Printf.bprintf b " %h") v;
    Buffer.add_char b '\n'
  in
  Printf.bprintf b "%s rho %h t>0 %b n %d %d\n" (Qformat.to_string t.fmt) t.rho
    t.restrict_t_positive s.Stats.Scatter.n_a s.Stats.Scatter.n_b;
  row s.Stats.Scatter.mu_a;
  row s.Stats.Scatter.mu_b;
  Array.iter row s.Stats.Scatter.sigma_a;
  Array.iter row s.Stats.Scatter.sigma_b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let interval_lower_bound t ~wbox ~trange =
  let m = dim t in
  let lo = Array.map Fx_interval.lo wbox in
  let hi = Array.map Fx_interval.hi wbox in
  (* Term-wise interval arithmetic on wᵀ S_W w: each product
     s·wᵢ·wⱼ attains its extrema at box corners.  The sum of per-term
     minima under-estimates the true minimum, which is exactly what a
     fallback lower bound needs. *)
  let qf_min = ref 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      let s = t.sw.(i).(j) in
      if s <> 0.0 then begin
        let p1 = lo.(i) *. lo.(j)
        and p2 = lo.(i) *. hi.(j)
        and p3 = hi.(i) *. lo.(j)
        and p4 = hi.(i) *. hi.(j) in
        let pmin = Float.min (Float.min p1 p2) (Float.min p3 p4) in
        let pmax = Float.max (Float.max p1 p2) (Float.max p3 p4) in
        qf_min := !qf_min +. (if s > 0.0 then s *. pmin else s *. pmax)
      end
    done
  done;
  let l = Interval.lo trange and u = Interval.hi trange in
  let t2_sup = Float.max (l *. l) (u *. u) in
  if t2_sup <= 0.0 then Float.infinity
  else Float.max 0.0 (!qf_min /. t2_sup)

let pp_summary ppf t =
  Format.fprintf ppf
    "LDA-FP problem: %a, M=%d, rho=%g (beta=%.3f), t in %a%s" Qformat.pp t.fmt
    (dim t) t.rho t.beta Interval.pp t.t_root
    (if t.restrict_t_positive then " [t>=0 heuristic]" else "")
