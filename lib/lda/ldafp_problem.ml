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
  cones : Socp.soc array;
  p_base : Mat.t;
  lambda_min : float;
  lambda_grid : float;
  norm : float;
  m_diag : Vec.t option;
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

(* A pinned coordinate y_j = v_j·z folds into z's column: with
   M = [the free unit columns | v], P = Mᵀ(2S_W)M (its free block
   copied bit for bit), dᵀy = dᵀM·(y_F, z), and each cone
   β‖Lᵀw‖ <= cᵀw + R becomes β‖LᵀM·‖ <= (Mᵀc + R·e_z)ᵀ·, its offset R
   moved into z's coefficient.  The cones of one class keep sharing one
   [l], so the program forms two Grams, not four.  Returns P, the
   direction of dᵀy >= κ and the cones. *)
let fold_pins ~p_base ~d ~cones ~free ~v =
  let nf = Array.length free in
  let n = nf + 1 in
  let pinned = List.filter (fun j -> v.(j) <> 0.0) (List.init (Vec.dim v) Fun.id) in
  let fold row = List.fold_left (fun s p -> s +. (row.(p) *. v.(p))) 0.0 pinned in
  let col a ~z = Vec.init n (fun i -> if i < nf then a.(free.(i)) else z) in
  let pz = Array.map (fun j -> fold p_base.(j)) free in
  let fp =
    Mat.init n n (fun i k ->
        if i < nf && k < nf then p_base.(free.(i)).(free.(k))
        else if i < nf then pz.(i)
        else if k < nf then pz.(k)
        else List.fold_left (fun s p -> s +. (v.(p) *. fold p_base.(p))) 0.0 pinned)
  in
  let folded = ref [] in
  let fold_l l =
    match List.assq_opt l !folded with
    | Some l' -> l'
    | None ->
        let l' = Array.map (fun lr -> col lr ~z:(fold lr)) l in
        folded := (l, l') :: !folded;
        l'
  in
  let socs =
    Array.map
      (fun { Socp.l; g; c; d } ->
        { Socp.l = fold_l l; g; c = col c ~z:(fold c +. d); d = 0.0 })
      cones
  in
  (fp, Vec.neg (col d ~z:(fold d)), socs)

let build ?(rho = 0.99) ~fmt scatter =
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
  (* Each class's two cones share one [l], which every fold keeps
     shared. *)
  let cones = Array.of_list (make_cones sig_a mu_a @ make_cones sig_b mu_b) in
  let p_base = Mat.scale 2.0 sw in
  (* The node programs' scale: 1/(√c*·t_hi) at the root, with the
     float-LDA floor c* = 1/(dᵀS_W⁻¹d) = 1/(2·dᵀ(2S_W)⁻¹d), puts the
     root optimum near 1. *)
  let t_root =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun j iv -> Float.max (d.(j) *. Fx_interval.lo iv) (d.(j) *. Fx_interval.hi iv))
         elem_box)
  in
  let factor = try Some (Cholesky.factor p_base) with Cholesky.Not_positive_definite _ -> None in
  let norm =
    match Option.map (fun l -> sqrt (2.0 *. Vec.dot d (Cholesky.solve_factored l d)) /. t_root) factor with
    | Some g when Float.is_finite g && g > 0.0 -> g
    | _ -> 1.0
  in
  (* The distinct coordinates: one whose row of S_W repeats a kept one's
     with the same d_j (an exactly duplicated feature), or is zero with
     d_j = 0 (a constant one), adds nothing to wᵀS_W w or to t.  Merging
     such coordinates maps a grid point with t > 0 to a nonzero grid
     point, so λ_min over the kept ones caps z ({!z_cap}) even when
     S_W is singular through them. *)
  let keep = Array.make m true in
  for j = 0 to m - 1 do
    let dup k = keep.(k) && p_base.(k) = p_base.(j) && d.(k) = d.(j) in
    if (Array.for_all (( = ) 0.0) p_base.(j) && d.(j) = 0.0)
       || List.exists dup (List.init j Fun.id)
    then keep.(j) <- false
  done;
  let kept = Array.of_list (List.filter (fun j -> keep.(j)) (List.init m Fun.id)) in
  let nk = Array.length kept in
  let lambda_min = match factor with Some factor -> Psd.verified_lambda_min ~factor p_base | None -> 0.0 in
  (* M = A⁻¹ − A⁻¹ddᵀA⁻¹/(dᵀA⁻¹d) for A = 2S_W, half the inverse
     Hessian of yᵀS_W y on dᵀy = 1: with A = LLᵀ and c column j of L⁻¹
     (zero above row j), A⁻¹_jj = ‖c‖² and (A⁻¹d)_j = cᵀ(L⁻¹d).  The
     columns are formed one at a time in one buffer, rows j.. only. *)
  let m_diag =
    Option.map
      (fun l ->
        let v = Tri.solve_lower l d in
        let vv = Vec.dot v v in
        let c = Array.make m 0.0 in
        Vec.init m (fun j ->
            c.(j) <- 1.0 /. l.(j).(j);
            let cc = ref (c.(j) *. c.(j)) and cv = ref (c.(j) *. v.(j)) in
            for i = j + 1 to m - 1 do
              let s = ref 0.0 in
              for k = j to i - 1 do
                s := !s +. (l.(i).(k) *. c.(k))
              done;
              c.(i) <- -. !s /. l.(i).(i);
              cc := !cc +. (c.(i) *. c.(i));
              cv := !cv +. (c.(i) *. v.(i))
            done;
            !cc -. (!cv *. !cv /. vv)))
      factor
  in
  {
    fmt; rho; beta; scatter; sw; d; elem_box; cones; p_base; lambda_min; norm; m_diag;
    lambda_grid =
      (if nk = m then lambda_min
       else if nk = 0 then 0.0
       else Psd.verified_lambda_min (Mat.init nk nk (fun i k -> p_base.(kept.(i)).(kept.(k)))));
  }

let dim t = Vec.dim t.d
let elem_interval t j = t.elem_box.(j)

(* [Vec.dot a x] and [Mat.quadratic_form a x], summed in their order so
   the bits are theirs, as loops inlined into the callers here: the
   cross-module calls box the float each returns. *)
let[@inline] check_dim a x =
  if Array.length a <> Array.length x then
    invalid_arg "Ldafp_problem: dimension mismatch"

let[@inline] dot a x =
  check_dim a x;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (a.(i) *. x.(i))
  done;
  !s

let[@inline] quadratic_form a x =
  check_dim a x;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let ai = a.(i) in
    check_dim ai x;
    let r = ref 0.0 in
    for k = 0 to Array.length x - 1 do
      r := !r +. (ai.(k) *. x.(k))
    done;
    s := !s +. (x.(i) *. !r)
  done;
  !s

let cost t w =
  let tt = dot t.d w in
  if tt = 0.0 then Float.infinity else quadratic_form t.sw w /. (tt *. tt)

(* In the format's range and within 1e-12 of the nearest grid point,
   the verdicts of {!Qformat.in_range} and {!Qformat.nearest_on_grid}
   (rounding a tie away from zero instead of to even moves no distance),
   in a loop over unboxed floats: the cross-module calls box every float
   they take or return. *)
let on_grid t w =
  let { Qformat.k; f } = t.fmt in
  let lo = -.ldexp 1.0 (k - 1) and hi = ldexp 1.0 (k - 1) -. ldexp 1.0 (-f) in
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length w do
    let x = w.(!j) in
    ok :=
      x >= lo && x <= hi
      && Float.abs (x -. ldexp (Float.round (ldexp x f)) (-f)) < 1e-12;
    incr j
  done;
  !ok

(* The larger violation of [lo_bound <= c − spread] and
   [c + spread <= hi_bound]. *)
let[@inline] band_violation ~lo_bound ~hi_bound c spread =
  Float.max (lo_bound -. (c -. spread)) (c +. spread -. hi_bound)

(* Element constraint (18) of a weight [wj] for one class: mean [mu],
   variance [var]. *)
let[@inline] elem_violation ~beta ~lo_bound ~hi_bound wj mu var =
  band_violation ~lo_bound ~hi_bound (wj *. mu)
    (beta *. Float.abs wj *. sqrt (Float.max var 0.0))

(* Projection constraint (20) of one class, mean [mu] and covariance
   [sigma]. *)
let[@inline] proj_violation ~beta ~lo_bound ~hi_bound mu sigma w =
  band_violation ~lo_bound ~hi_bound (dot mu w)
    (beta *. sqrt (Float.max (quadratic_form sigma w) 0.0))

(* Float.max is associative and commutative, NaN and signed zeros
   included, so the order of the folds does not change the bits.  The
   bounds are {!Qformat.min_value} and {!Qformat.max_value}, formed here
   unboxed; inlined into [feasible], the result is never boxed either. *)
let[@inline] constraint_violation t w =
  let { Qformat.k; f } = t.fmt in
  let lo_bound = -.ldexp 1.0 (k - 1) and hi_bound = ldexp 1.0 (k - 1) -. ldexp 1.0 (-f) in
  let s = t.scatter and beta = t.beta in
  let worst =
    ref
      (Float.max
         (proj_violation ~beta ~lo_bound ~hi_bound s.Stats.Scatter.mu_a s.Stats.Scatter.sigma_a w)
         (proj_violation ~beta ~lo_bound ~hi_bound s.Stats.Scatter.mu_b s.Stats.Scatter.sigma_b w))
  in
  (* Element constraints (18), exact. *)
  for j = 0 to Vec.dim w - 1 do
    let wj = w.(j) in
    worst :=
      Float.max !worst
        (Float.max
           (elem_violation ~beta ~lo_bound ~hi_bound wj s.Stats.Scatter.mu_a.(j)
              s.Stats.Scatter.sigma_a.(j).(j))
           (elem_violation ~beta ~lo_bound ~hi_bound wj s.Stats.Scatter.mu_b.(j)
              s.Stats.Scatter.sigma_b.(j).(j)))
  done;
  !worst

(* {!Fx_interval.mem} of every element's box, on the endpoints' raw
   codes (in range, so {!Qformat.value_of_raw} wraps none): no float
   boxed. *)
let in_elem_box t w =
  if Array.length w <> Array.length t.elem_box then
    invalid_arg "Ldafp_problem.feasible: dimension mismatch";
  let f = t.fmt.Qformat.f in
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length w do
    let { Fx_interval.lo_raw; hi_raw; _ } = t.elem_box.(!j) and x = w.(!j) in
    ok :=
      x >= ldexp (float_of_int lo_raw) (-f) && x <= ldexp (float_of_int hi_raw) (-f);
    incr j
  done;
  !ok

let feasible ?(tol = 1e-9) t w =
  on_grid t w && in_elem_box t w && constraint_violation t w <= tol

let t_of t w = Vec.dot t.d w

(* Outward-rounded: every grid point of the box has dᵀw inside. *)
let trange_of_box t wbox =
  let acc = ref (Interval.point 0.0) in
  Array.iteri
    (fun j iv ->
      acc :=
        Interval.wide_add !acc
          (Interval.wide_mul (Interval.point t.d.(j))
             (Interval.make ~lo:(Fx_interval.lo iv) ~hi:(Fx_interval.hi iv))))
    wbox;
  !acc

(* Any grid point w with t > 0 and cost ≤ θ merges (over its distinct
   coordinates) to a nonzero grid point w', so ‖w'‖ ≥ ulp and
   t² ≥ wᵀS_W w/θ ≥ (λ̲/2)·ulp²/θ: z = 1/t ≤ 1/(ulp·√(λ̲/(2θ))).
   Rounded up; infinite without an incumbent or a verified λ̲. *)
let z_cap t ~theta =
  if not (theta < Float.infinity && t.lambda_grid > 0.0) then Float.infinity
  else if theta <= 0.0 then 0.0
  else
    Float.succ (Float.succ (1.0 /. (Qformat.ulp t.fmt *. sqrt (t.lambda_grid /. (2.0 *. theta)))))

type relaxation = { socp : Socp.problem; free : int array; pinned : Vec.t; kappa : float }

let all_cones = 0b1111

(* The bit of each cone of {!build}'s array whose side of (20) [w]
   violates by more than the 1e-9 {!feasible} allows, by the test of
   {!constraint_violation}: per class, the lower side is its even cone,
   the upper its odd one. *)
let violated_cones t w =
  let tol = 1e-9 in
  let { Qformat.k; f } = t.fmt in
  let lo_bound = -.ldexp 1.0 (k - 1) and hi_bound = ldexp 1.0 (k - 1) -. ldexp 1.0 (-f) in
  let s = t.scatter and beta = t.beta in
  let sides bit mu sigma =
    let c = dot mu w and spread = beta *. sqrt (Float.max (quadratic_form sigma w) 0.0) in
    (if lo_bound -. (c -. spread) > tol then bit else 0)
    lor if c +. spread -. hi_bound > tol then bit lsl 1 else 0
  in
  sides 0b0001 s.Stats.Scatter.mu_a s.Stats.Scatter.sigma_a
  lor sides 0b0100 s.Stats.Scatter.mu_b s.Stats.Scatter.sigma_b

let relaxation t ~wbox ~z_cap ~cones =
  let m = dim t in
  let free =
    Array.of_list
      (List.filter (fun j -> not (Fx_interval.is_singleton wbox.(j))) (List.init m Fun.id))
  in
  let nf = Array.length free in
  if nf = 0 then invalid_arg "Ldafp_problem.relaxation: every coordinate pinned";
  (* y = κ·w/t and z = κ/t with κ = norm·t_hi keep y near norm·w at the
     top of the box's t-range however small t_hi is: z >= κ/t_hi,
     rounded down, and z <= κ·z_cap, rounded up.  No point of the box
     has t > 0 when t_hi <= 0, and none with cost <= θ when the two ends
     of z cross. *)
  let t_hi = Interval.hi (trange_of_box t wbox) in
  let kappa = t.norm *. t_hi in
  let z_lo = Float.pred (kappa /. t_hi) in
  let z_max = if z_cap < Float.infinity then Float.succ (kappa *. z_cap) else z_cap in
  if not (t_hi > 0.0 && kappa > 0.0 && z_lo < z_max) then None
  else begin
    let n = nf + 1 in
    let pinned =
      Vec.init m (fun j ->
          if Fx_interval.is_singleton wbox.(j) then Fx_interval.lo wbox.(j) else 0.0)
    in
    let cones =
      Array.of_list (List.filteri (fun i _ -> cones land (1 lsl i) <> 0) (Array.to_list t.cones))
    in
    let p, dt, socs = fold_pins ~p_base:t.p_base ~d:t.d ~cones ~free ~v:pinned in
    let row i ~y ~z b =
      let a = Vec.zeros n in
      if i < nf then a.(i) <- y;
      a.(nf) <- z;
      { Socp.a; b }
    in
    (* y_j − hi_j·z <= 0 and lo_j·z − y_j <= 0, dᵀy >= κ, then z's rows *)
    let lins =
      Array.concat
        [
          Array.concat
            (Array.to_list
               (Array.mapi
                  (fun i j ->
                    [| row i ~y:1.0 ~z:(-.Fx_interval.hi wbox.(j)) 0.0;
                       row i ~y:(-1.0) ~z:(Fx_interval.lo wbox.(j)) 0.0 |])
                  free));
          [| { Socp.a = dt; b = -.kappa }; row nf ~y:0.0 ~z:(-1.0) (-.z_lo) |];
          (if z_max < Float.infinity then [| row nf ~y:0.0 ~z:1.0 z_max |] else [||]);
        ]
    in
    Some
      { socp = Socp.of_parts ~p ~q:(Vec.zeros n) ~lins ~socs n;
        free; pinned; kappa }
  end

(* Full (y, z) points are kept at κ = 1, (w, 1)/t, so that a point
   stays meaningful in a child whose κ differs. *)
let project r yz =
  let nf = Array.length r.free in
  Vec.init (nf + 1) (fun i -> r.kappa *. yz.(if i < nf then r.free.(i) else Vec.dim r.pinned))

let embed r x =
  let nf = Array.length r.free in
  let z = x.(nf) /. r.kappa in
  let yz = Vec.init (Vec.dim r.pinned + 1) (fun j ->
      if j < Vec.dim r.pinned then r.pinned.(j) *. z else z) in
  Array.iteri (fun i j -> yz.(j) <- x.(i) /. r.kappa) r.free;
  yz

let weights_of yz =
  let m = Vec.dim yz - 1 in
  Vec.init m (fun j -> yz.(j) /. yz.(m))

(* The program's objective is κ²·cost: cost >= v/κ², rounded down; a
   negative v only proves cost >= 0. *)
let cost_bound r v =
  if not (v > 0.0) then 0.0
  else
    Float.pred
      (v /. Interval.hi (Interval.wide_mul (Interval.point r.kappa) (Interval.point r.kappa)))

let psd_block t r =
  if t.lambda_min > 0.0 then Some (Array.init (Array.length r.free) Fun.id, t.lambda_min)
  else None

(* (w, 1)·ratio/dᵀw: the full point standing for w with dᵀy = ratio;
   z = 0 (outside every program) when dᵀw <= 0. *)
let lift t w ~ratio =
  let tw = Vec.dot t.d w in
  let s = if tw > 0.0 then ratio /. tw else 0.0 in
  Vec.init (Vec.dim w + 1) (fun j -> if j < Vec.dim w then s *. w.(j) else s)

(* The pull-in target for warm starts stranded on a child's branch cut
   (Socp.pull_to_interior), and the cold start.  The cones favour small
   weights and the z cap a t not too small, so w runs from p0, the box
   point nearest the origin, toward c, the corner maximising dᵀw, a
   twentieth of the way from the smallest admissible t, max(dᵀp0,
   1/z_cap), to dᵀc; both a thousandth of each width inside the box.
   The lift puts dᵀy at r ∈ (1, 2] with r/t < z_cap, so the point is
   strictly inside the box rows, dᵀy >= 1 and both z rows whenever the
   box has such a t; the cones are not guaranteed, which the pull-in
   checks before trusting the target. *)
let center_point t ~wbox ~z_cap =
  let inside j x =
    let lo = Fx_interval.lo wbox.(j) and hi = Fx_interval.hi wbox.(j) in
    let margin = 1e-3 *. (hi -. lo) in
    Float.max (lo +. margin) (Float.min (hi -. margin) x)
  in
  let p0 = Array.mapi (fun j _ -> inside j 0.0) wbox in
  let c =
    Array.mapi
      (fun j iv -> inside j (if t.d.(j) >= 0.0 then Fx_interval.hi iv else Fx_interval.lo iv))
      wbox
  in
  let t0 = Vec.dot t.d p0 and t1 = Vec.dot t.d c in
  let t_a = Float.max (Float.max t0 0.0) (1.0 /. z_cap) in
  let theta =
    if t1 -. t0 <= 0.0 then 1.0
    else Float.min 1.0 (Float.max 0.0 ((t_a +. (0.05 *. (t1 -. t_a)) -. t0) /. (t1 -. t0)))
  in
  let w = Vec.init (dim t) (fun j -> p0.(j) +. (theta *. (c.(j) -. p0.(j)))) in
  lift t w ~ratio:(Float.min 2.0 (sqrt (Vec.dot t.d w *. z_cap)))

(* An inherited full point clipped into a child's box.  The branch rule
   cuts at the floor of the point's own w_j, which lies in neither
   child, so the clipped point lands on the child's face at the cut —
   not strictly interior, which the pull-in toward the center point
   repairs (Socp.prepare_warm_start).  The lift keeps the point's dᵀy,
   at least 1 + 10⁻⁶: a barrier optimum leaves the normalisation row
   dᵀy >= 1 slack by about 10⁻⁹ only, below the warm start's
   interiority margin. *)
let clip_into_box t ~wbox yz =
  let m = dim t in
  let ratio = if Vec.dim yz = m + 1 then Vec.dot t.d (Array.sub yz 0 m) else 0.0 in
  if not (ratio > 0.0 && yz.(m) > 0.0) then None
  else
    let w =
      Array.mapi
        (fun j iv -> Float.max (Fx_interval.lo iv) (Float.min (Fx_interval.hi iv) (yz.(j) /. yz.(m))))
        wbox
    in
    Some (lift t w ~ratio:(Float.max ratio (1.0 +. 1e-6)))

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
  Printf.bprintf b "%s rho %h n %d %d\n" (Qformat.to_string t.fmt) t.rho
    s.Stats.Scatter.n_a s.Stats.Scatter.n_b;
  row s.Stats.Scatter.mu_a;
  row s.Stats.Scatter.mu_b;
  Array.iter row s.Stats.Scatter.sigma_a;
  Array.iter row s.Stats.Scatter.sigma_b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let interval_lower_bound t ~wbox =
  (* wᵀS_W w enclosed term by term over the box (outward rounded), over
     t_hi²: the search keeps only t > 0, so sup t² over the region is
     t_hi², and a t_hi² that underflows proves nothing. *)
  let iv j = Interval.make ~lo:(Fx_interval.lo wbox.(j)) ~hi:(Fx_interval.hi wbox.(j)) in
  let qf = ref (Interval.point 0.0) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j s ->
          qf := Interval.wide_add !qf (Interval.wide_mul (Interval.point s) (Interval.wide_mul (iv i) (iv j))))
        row)
    t.sw;
  let u = Interval.hi (trange_of_box t wbox) and q = Interval.lo !qf in
  if u <= 0.0 then Float.infinity
  else if q <= 0.0 || not (u *. u > 0.0) then 0.0
  else Float.pred (q /. Float.succ (u *. u))

let pp_summary ppf t =
  Format.fprintf ppf "LDA-FP problem: %a, M=%d, rho=%g (beta=%.3f), λ̲=%g"
    Qformat.pp t.fmt (dim t) t.rho t.beta t.lambda_min
