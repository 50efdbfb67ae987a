open Linalg

(* Barrier-solver probes, declared at module init.  Glossary:
   doc/observability.mld. *)
let p_solve =
  Obs.Probe.v "socp.solve" ~count:"barrier SOCP solves (warm or cold)"
    ~seconds:
      (1e-7, 100.0, "wall time of one Socp.solve call")

let p_phase1 =
  Obs.Probe.v "socp.phase1"
    ~count:"phase-I feasibility solves actually run (the path warm starts skip)"

let p_warm_pull =
  Obs.Probe.v "socp.warm_pull"
    ~count:"warm starts repaired by the analytic-center pull-in"

let m_newton_iterations =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1.0 ~hi:1e4
    ~help:"Newton iterations per Socp.solve (summed over the tau ladder)"
    "ldafp_socp_newton_iterations"

let m_line_search_trials =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1.0 ~hi:1e5
    ~help:"Newton line-search trials per Socp.solve (summed over the tau ladder)"
    "ldafp_socp_line_search_trials"

let p_cert =
  Obs.Probe.v "socp.cert" ~count:"dual-certificate evaluations attempted"
    ~seconds:(1e-7, 100.0, "wall time of one dual-certificate evaluation")

let p_cert_repaired =
  Obs.Probe.v "socp.cert_repaired"
    ~count:
      "certificates whose multipliers needed the feasibility repair projection"

let p_cert_failed =
  Obs.Probe.v "socp.cert_failed"
    ~count:
      "certificate evaluations that failed (repair impossible or primal-dual \
       slack excessive)"

let m_cert_slack =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1e-12 ~hi:1e3
    ~help:"primal objective minus certified dual value per certificate \
           (clamped below at 1e-12)"
    "ldafp_socp_cert_slack"

type lin = { a : Vec.t; b : float }
type soc = { l : Mat.t; g : Vec.t; c : Vec.t; d : float }

(* The barrier Hessian of a cone needs LᵀL, which never changes for the
   life of a problem, so [of_parts] computes it once instead of on every
   oracle call (O(n²) per cone per call instead of O(rows·n²)).
   [grams.(k)] is the lower triangle of the Gram of cone k's [l]; cones
   built from one physically shared [l] share one. *)
type problem = {
  n : int;
  p : Mat.t;
  q : Vec.t;
  lins : lin array;
  socs : soc array;
  grams : Mat.t array;
  lin_support : int array;
  lin_support2 : int array;
  cone_src : int array;
  cone_off : int array;
}

(* The lower triangle of G = LᵀL, row i holding G(i, 0..i): all the
   barrier Hessian reads.  Each entry is summed r-ascending from +0, the
   order of the textbook Σ_r l(r)(i)·l(r)(j), so barrier Hessians match
   it bit for bit.  A product with l(r)(i) = 0 or l(r)(j) = 0, skipped
   here (row r of a triangular l starts at its first nonzero), would
   only have added ±0 to a running sum that is never −0, so no bit
   changes — and a triangular L costs ≈ n³/6. *)
let gram l =
  let n = Mat.cols l in
  if Array.exists (fun lr -> Array.length lr <> n) l then
    invalid_arg "Socp.of_parts: ragged cone matrix";
  let g = Array.init n (fun i -> Array.make (i + 1) 0.0) in
  Array.iter
    (fun lr ->
      let first = ref 0 in
      while !first < n && lr.(!first) = 0.0 do
        incr first
      done;
      for i = !first to n - 1 do
        let lri = lr.(i) in
        if lri <> 0.0 then begin
          let gi = g.(i) in
          (* j <= i < n, the lengths of [gi] (i + 1) and of [lr], checked
             above: the unchecked accesses halve the build. *)
          for j = !first to i do
            Array.unsafe_set gi j
              (Array.unsafe_get gi j +. (Array.unsafe_get lr j *. lri))
          done
        end
      done)
    l;
  g

(* [f] of each physically distinct element of [xs], in order: equal
   elements share one result. *)
let per_distinct f xs =
  let seen = ref [] in
  Array.map
    (fun x ->
      match List.assq_opt x !seen with
      | Some v -> v
      | None ->
          let v = f x in
          seen := (x, v) :: !seen;
          v)
    xs

(* The indices of [a]'s nonzero entries when it has one or two
   ([(i, −1)] or [(i, j)] with i < j), else [(−1, −1)]: the ±eᵢ box
   rows and the two-term rows [yᵢ − hᵢz] of a node program get an O(1)
   path in the oracle, and the single-nonzero ones feed the
   certificate's coordinate box. *)
let support a =
  let first = ref (-1) and second = ref (-1) and count = ref 0 in
  Array.iteri
    (fun i ai ->
      if ai <> 0.0 then begin
        incr count;
        if !first < 0 then first := i else second := i
      end)
    a;
  if !count = 1 || !count = 2 then (!first, !second) else (-1, -1)

(* Cone k's residual Lx + g depends on its (l, g) alone: [cone_src.(k)]
   is the first cone built from the same physical pair, and
   [cone_off.(k)] where that cone's residual starts in the oracle's
   scratch.  The oracle forms each distinct residual once. *)
let make ~p ~q ~lins ~socs ~grams n =
  let sup = Array.map (fun { a; _ } -> support a) lins in
  let cone_src =
    Array.map
      (fun { l; g; _ } ->
        let j = ref 0 in
        while socs.(!j).l != l || socs.(!j).g != g do
          incr j
        done;
        !j)
      socs
  in
  let cone_off = Array.make (Array.length socs) 0 in
  let rows = ref 0 in
  Array.iteri
    (fun k { l; _ } ->
      if cone_src.(k) = k then begin
        cone_off.(k) <- !rows;
        rows := !rows + Mat.rows l
      end
      else cone_off.(k) <- cone_off.(cone_src.(k)))
    socs;
  {
    n; p; q; lins; socs; grams;
    lin_support = Array.map fst sup;
    lin_support2 = Array.map snd sup;
    cone_src; cone_off;
  }

let of_parts ~p ~q ~lins ~socs n =
  if n <= 0 then invalid_arg "Socp.of_parts: n must be positive";
  if Mat.dims p <> (n, n) then invalid_arg "Socp.of_parts: P must be n x n";
  if not (Mat.is_symmetric ~tol:0.0 p) then
    invalid_arg "Socp.of_parts: P must be exactly symmetric";
  if Vec.dim q <> n then invalid_arg "Socp.of_parts: q must have length n";
  Array.iter
    (fun { a; _ } ->
      if Vec.dim a <> n then
        invalid_arg "Socp.of_parts: linear constraint dimension mismatch")
    lins;
  Array.iter
    (fun { l; g; c; _ } ->
      if Mat.cols l <> n || Vec.dim c <> n || Vec.dim g <> Mat.rows l then
        invalid_arg "Socp.of_parts: cone constraint dimension mismatch")
    socs;
  make ~p ~q ~lins ~socs
    ~grams:(per_distinct gram (Array.map (fun { l; _ } -> l) socs))
    n

let problem ?p ?q ?(lins = []) ?(socs = []) n =
  if n <= 0 then invalid_arg "Socp.problem: n must be positive";
  let p = match p with Some p -> p | None -> Mat.zeros n n in
  let q = match q with Some q -> q | None -> Vec.zeros n in
  if Mat.dims p <> (n, n) then invalid_arg "Socp.problem: P must be n x n";
  if not (Mat.is_symmetric ~tol:1e-8 p) then
    invalid_arg "Socp.problem: P must be symmetric";
  of_parts ~p:(Mat.symmetrize p) ~q ~lins:(Array.of_list lins)
    ~socs:(Array.of_list socs) n

let objective_value pb x =
  (0.5 *. Mat.quadratic_form pb.p x) +. Vec.dot pb.q x

let soc_violation { l; g; c; d } x =
  let v = Vec.add (Mat.mul_vec l x) g in
  Vec.norm2 v -. (Vec.dot c x +. d)

let max_violation pb x =
  let worst = ref Float.neg_infinity in
  Array.iter (fun { a; b } -> worst := Float.max !worst (Vec.dot a x -. b)) pb.lins;
  Array.iter (fun s -> worst := Float.max !worst (soc_violation s x)) pb.socs;
  if !worst = Float.neg_infinity then 0.0 else !worst

let is_feasible ?(tol = 1e-9) pb x = max_violation pb x <= tol

type params = {
  tau0 : float;
  gap_tol : float;
  newton : Newton.params;
}

(* Barrier growth factor per outer iteration, and the outer-iteration
   cap of every ladder (the solve's and phase-I's). *)
let mu = 15.0
let max_outer = 60

let default_params =
  { tau0 = 1.0; gap_tol = 1e-8;
    newton = { Newton.default_params with tol = 1e-10 } }

(* Warm-start schedule advance: from a near-optimal start the low-tau
   centerings are redundant, and because the tau sequence is the same
   geometric ladder, the final tau (hence the certified gap) is
   unchanged — only the number of rungs climbed differs.  The ladder
   restarts at the producing solve's terminal [tau_final] itself, found
   by the ladder's own products so that it is that tau to the bit; the
   solve's mandatory centering step then re-centres the start once at
   it, and the stop test ends the ladder there on the same ν.  At most
   [max_outer] rungs, as the producing ladder climbed. *)
let warm_start_params params ~tau_final =
  let rec climb tau rungs =
    let next = mu *. tau in
    if rungs < max_outer && next <= tau_final then climb next (rungs + 1) else tau
  in
  if Float.is_finite tau_final then { params with tau0 = climb params.tau0 0 } else params

type status = Optimal | Suboptimal

type solution = {
  x : Vec.t;
  objective : float;
  gap_bound : float;
  tau_final : float;
  outer_iterations : int;
  newton_iterations : int;
  status : status;
}

(* Total barrier parameter: 1 per half-space, 2 per cone. *)
let barrier_nu pb = Array.length pb.lins + (2 * Array.length pb.socs)

(* Per-domain scratch for the centering oracle and the Newton solver,
   keyed by problem dimension.  Domain-local (Domain.DLS), so workers of
   the parallel B&B driver never share buffers, whichever worker takes a
   region from the shared frontier; the phase-I augmented problem has
   dimension n+1 and therefore its own entry, so phase-I and phase-II
   never clobber each other either.  [slack], [u], [h], [vv] and [v]
   carry the value pass's per-constraint results over to the derivative
   pass and the ray; the ray's own coefficients live apart from them, so
   a value pass between two trials does not disturb the ray. *)
type scratch = {
  ws : Newton.workspace;
  px : Vec.t;  (* P x *)
  pd : Vec.t;  (* P d *)
  slack : Vec.t;  (* per half-space: b − aᵀx *)
  lin_rate : Vec.t;  (* per half-space: aᵀd / s *)
  u : Vec.t;  (* per cone: cᵀx + d *)
  h : Vec.t;  (* per cone: u² − ‖v‖² *)
  vv : Vec.t;  (* per cone: ‖v‖² *)
  vld : Vec.t;  (* per cone: vᵀLd *)
  ldd : Vec.t;  (* per cone: ‖Ld‖² *)
  u_rate : Vec.t;  (* per cone: cᵀd / u *)
  h_rate1 : Vec.t;  (* per cone: 2(u·cᵀd − vᵀLd) / h *)
  h_rate2 : Vec.t;  (* per cone: ((cᵀd)² − ‖Ld‖²) / h *)
  v : Vec.t;  (* each distinct residual Lx + g, at its cone_off *)
  ld : Vec.t;  (* each distinct L d of the ray, at its cone_off *)
  ltv : Mat.t;  (* per cone: Lᵀ v *)
  gh : Vec.t;  (* gradient of the cone slack h *)
}

let scratch_key : (int, scratch) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 7)

(* The domain's scratch for dimension [pb.n], replaced by one of
   [pb]'s sizes when it is too small for [pb]. *)
let scratch_for pb =
  let tbl = Domain.DLS.get scratch_key in
  let n_lins = Array.length pb.lins and n_socs = Array.length pb.socs in
  let rows = Array.fold_left (fun m { l; _ } -> m + Mat.rows l) 0 pb.socs in
  match Hashtbl.find_opt tbl pb.n with
  | Some sc
    when Vec.dim sc.slack >= n_lins && Vec.dim sc.u >= n_socs
         && Vec.dim sc.v >= rows ->
      sc
  | _ ->
      let per_cone () = Vec.zeros n_socs in
      let sc =
        {
          ws = Newton.workspace pb.n;
          px = Vec.zeros pb.n;
          pd = Vec.zeros pb.n;
          slack = Vec.zeros n_lins;
          lin_rate = Vec.zeros n_lins;
          u = per_cone (); h = per_cone (); vv = per_cone ();
          vld = per_cone (); ldd = per_cone ();
          u_rate = per_cone (); h_rate1 = per_cone (); h_rate2 = per_cone ();
          v = Vec.zeros rows;
          ld = Vec.zeros rows;
          ltv = Mat.zeros n_socs pb.n;
          gh = Vec.zeros pb.n;
        }
      in
      Hashtbl.replace tbl pb.n sc;
      sc

(* aₖᵀx.  A row with one or two nonzeros (the box rows) costs O(1): off
   its support the dense terms are ±0 products, which change no value
   for a finite x. *)
let[@inline] lin_dot pb k x =
  let a = pb.lins.(k).a and sk = pb.lin_support.(k) in
  let sk2 = pb.lin_support2.(k) in
  if sk < 0 then Vec.dot a x
  else if sk2 < 0 then a.(sk) *. x.(sk)
  else (a.(sk) *. x.(sk)) +. (a.(sk2) *. x.(sk2))

(* In-place oracle for tau * f(x) + phi(x), split for the Newton line
   search.  [value] is the domain test and the barrier value, O(1) per
   box row and O(rows·n) per distinct cone residual; it leaves the
   slacks and each cone's u, v, ‖v‖², h in [sc].  [derivs] reads them
   back — no second Lx — and adds the P, half-space and cone terms to
   the Hessian's lower triangle only, each entry in the order the full
   matrix used to be summed in.  Cones sharing (l, g) share v and Lᵀv,
   formed once.  [ray] restricts the function to x + t·d: every term is
   a polynomial of degree 1 or 2 in t, so one O(n² + rows·n) pass forms
   the coefficients and a trial is O(constraints) scalar work,
     Δ(t) = τ(t·(Px+q)ᵀd + ½t²·dᵀPd) − Σ log1p(−t·aₖᵀd/sₖ)
            − Σ log1p(t·2(uⱼcⱼᵀd − vⱼᵀLⱼd)/hⱼ + t²((cⱼᵀd)² − ‖Lⱼd‖²)/hⱼ),
   in the domain iff every log1p argument and t·cⱼᵀd/uⱼ exceed −1.  Each
   term is relative to its constraint's own slack, so Δ is accurate to a
   few ulps of its largest term, not of f. *)
let centering_into pb sc tau : Newton.oracle_into =
  let n = pb.n in
  let n_lins = Array.length pb.lins and n_socs = Array.length pb.socs in
  let value x =
    Mat.mul_vec_into pb.p x ~dst:sc.px;
    let fx = (0.5 *. Vec.dot x sc.px) +. Vec.dot pb.q x in
    let value = ref (tau *. fx) in
    let ok = ref true in
    for k = 0 to n_lins - 1 do
      if !ok then begin
        let s = pb.lins.(k).b -. lin_dot pb k x in
        if s <= 0.0 then ok := false
        else begin
          sc.slack.(k) <- s;
          value := !value -. log s
        end
      end
    done;
    for k = 0 to n_socs - 1 do
      if !ok then begin
        let { l; g; c; d } = pb.socs.(k) and src = pb.cone_src.(k) in
        let u = Vec.dot c x +. d in
        if src = k then begin
          let off = pb.cone_off.(k) and vv = ref 0.0 in
          Mat.mul_vec_into_at l x ~dst:sc.v ~pos:off;
          for r = 0 to Mat.rows l - 1 do
            let vr = sc.v.(off + r) +. g.(r) in
            sc.v.(off + r) <- vr;
            vv := !vv +. (vr *. vr)
          done;
          sc.vv.(k) <- !vv
        end;
        let h = (u *. u) -. sc.vv.(src) in
        if u <= 0.0 || h <= 0.0 then ok := false
        else begin
          sc.u.(k) <- u;
          sc.h.(k) <- h;
          value := !value -. log h
        end
      end
    done;
    if !ok && not (Float.is_nan !value) then Some !value else None
  in
  let derivs ~grad ~hess =
    for i = 0 to n - 1 do
      grad.(i) <- tau *. (sc.px.(i) +. pb.q.(i))
    done;
    Kernels.scale_lower_into tau pb.p ~dst:hess n;
    Array.iteri
      (fun k { a; _ } ->
        let sk = pb.lin_support.(k) and sk2 = pb.lin_support2.(k) in
        let inv_s = 1.0 /. sc.slack.(k) in
        if sk >= 0 then begin
          let ai = a.(sk) in
          grad.(sk) <- grad.(sk) +. (ai *. inv_s);
          hess.(sk).(sk) <- hess.(sk).(sk) +. (ai *. ai *. inv_s *. inv_s);
          if sk2 >= 0 then begin
            (* sk < sk2: the cross term lands in row sk2's lower part *)
            let aj = a.(sk2) in
            grad.(sk2) <- grad.(sk2) +. (aj *. inv_s);
            hess.(sk2).(sk2) <-
              hess.(sk2).(sk2) +. (aj *. aj *. inv_s *. inv_s);
            hess.(sk2).(sk) <- hess.(sk2).(sk) +. (aj *. ai *. inv_s *. inv_s)
          end
        end
        else
          for i = 0 to n - 1 do
            grad.(i) <- grad.(i) +. (a.(i) *. inv_s);
            if a.(i) <> 0.0 then
              for j = 0 to i do
                hess.(i).(j) <-
                  hess.(i).(j) +. (a.(i) *. a.(j) *. inv_s *. inv_s)
              done
          done)
      pb.lins;
    Array.iteri
      (fun k { l; c; _ } ->
        let u = sc.u.(k) and src = pb.cone_src.(k) in
        (* grad h = 2u c - 2 Lᵀ v *)
        let ltv = sc.ltv.(src) in
        if src = k then begin
          let off = pb.cone_off.(k) in
          Array.fill ltv 0 n 0.0;
          for r = 0 to Mat.rows l - 1 do
            let vr = sc.v.(off + r) in
            if vr <> 0.0 then
              let lr = l.(r) in
              for j = 0 to n - 1 do
                ltv.(j) <- ltv.(j) +. (vr *. lr.(j))
              done
          done
        end;
        for i = 0 to n - 1 do
          sc.gh.(i) <- (2.0 *. u *. c.(i)) -. (2.0 *. ltv.(i))
        done;
        let inv_h = 1.0 /. sc.h.(k) in
        for i = 0 to n - 1 do
          grad.(i) <- grad.(i) -. (sc.gh.(i) *. inv_h)
        done;
        (* hess(-log h) = (gh ghᵀ)/h² − (2ccᵀ − 2LᵀL)/h, LᵀL read from
           the precomputed Gram *)
        Kernels.cone_hessian_lower hess ~gram:pb.grams.(k) ~gh:sc.gh ~c ~inv_h n)
      pb.socs
  in
  let ray _ d =
    Mat.mul_vec_into pb.p d ~dst:sc.pd;
    let slope = ref 0.0 and curv = ref 0.0 in
    for i = 0 to n - 1 do
      slope := !slope +. ((sc.px.(i) +. pb.q.(i)) *. d.(i));
      curv := !curv +. (d.(i) *. sc.pd.(i))
    done;
    for k = 0 to n_lins - 1 do
      sc.lin_rate.(k) <- lin_dot pb k d /. sc.slack.(k)
    done;
    for k = 0 to n_socs - 1 do
      let { l; c; _ } = pb.socs.(k) and src = pb.cone_src.(k) in
      if src = k then begin
        let off = pb.cone_off.(k) in
        let vld = ref 0.0 and ldd = ref 0.0 in
        Mat.mul_vec_into_at l d ~dst:sc.ld ~pos:off;
        for r = 0 to Mat.rows l - 1 do
          let ldr = sc.ld.(off + r) in
          vld := !vld +. (sc.v.(off + r) *. ldr);
          ldd := !ldd +. (ldr *. ldr)
        done;
        sc.vld.(k) <- !vld;
        sc.ldd.(k) <- !ldd
      end;
      let cd = Vec.dot c d and u = sc.u.(k) and h = sc.h.(k) in
      sc.u_rate.(k) <- cd /. u;
      sc.h_rate1.(k) <- 2.0 *. ((u *. cd) -. sc.vld.(src)) /. h;
      sc.h_rate2.(k) <- ((cd *. cd) -. sc.ldd.(src)) /. h
    done;
    let slope = tau *. !slope and curv = 0.5 *. tau *. !curv in
    fun t ->
      let delta = ref (t *. (slope +. (t *. curv))) in
      let ok = ref true in
      for k = 0 to n_lins - 1 do
        if !ok then begin
          let e = -.t *. sc.lin_rate.(k) in
          if e > -1.0 then delta := !delta -. Float.log1p e else ok := false
        end
      done;
      for k = 0 to n_socs - 1 do
        if !ok then begin
          let e = t *. (sc.h_rate1.(k) +. (t *. sc.h_rate2.(k))) in
          if e > -1.0 && t *. sc.u_rate.(k) > -1.0 then
            delta := !delta -. Float.log1p e
          else ok := false
        end
      done;
      if !ok && not (Float.is_nan !delta) then Some !delta else None
  in
  { Newton.value; derivs; ray }

(* Residual scale of one half-space at x: the natural size of the
   numbers whose difference is the slack.  Dividing a slack by it turns
   an absolute margin into a scale-free one, so a problem with its
   coefficients multiplied by 1e6 accepts exactly the same warm starts
   as the original. *)
let lin_scale b ax = 1.0 +. Float.abs b +. Float.abs ax

let soc_scale u nv = 1.0 +. Float.abs u +. nv

(* ‖Lx + g‖² without materialising the residual vector. *)
let soc_vv { l; g; _ } x =
  let vv = ref 0.0 in
  for r = 0 to Mat.rows l - 1 do
    let vr = Vec.dot l.(r) x +. g.(r) in
    vv := !vv +. (vr *. vr)
  done;
  !vv

(* Minimum over all constraints of slack / residual scale, in the
   σ = (cᵀx+d) − ‖Lx+g‖ form for cones.  Positive iff x is strictly
   interior.  The cone sign is decided on h = u² − ‖v‖² — the exact
   expression the barrier oracle tests — so a point this function calls
   interior is never rejected by [centering_into] over a rounding
   disagreement between the two algebraically-equal forms. *)
let min_relative_slack pb x =
  let worst = ref Float.infinity in
  Array.iter
    (fun { a; b } ->
      let ax = Vec.dot a x in
      worst := Float.min !worst ((b -. ax) /. lin_scale b ax))
    pb.lins;
  Array.iter
    (fun ({ c; d; _ } as s) ->
      let u = Vec.dot c x +. d in
      let vv = soc_vv s x in
      let nv = sqrt vv in
      let scale = soc_scale u nv in
      let rel =
        if u <= 0.0 then (u -. nv) /. scale
        else ((u *. u) -. vv) /. (u +. nv) /. scale
      in
      worst := Float.min !worst rel)
    pb.socs;
  !worst

(* Strict interiority without derivatives, O(constraints · n) — cheap
   enough to test warm starts on the bound-oracle hot path (the full
   oracle evaluation it replaces builds an n×n Hessian).  [margin] is
   {e relative}: every constraint must clear margin × its residual
   scale, so the test is invariant under rescaling the constraint
   coefficients.  [margin = 0.] is the barrier's exact domain. *)
let is_strictly_interior ?(margin = 0.0) pb x =
  Vec.dim x = pb.n && min_relative_slack pb x > margin

type feasibility =
  | Strictly_feasible of Vec.t
  | Infeasible of float
  | Unknown of Vec.t

(* Augment with a slack variable s (index n): every half-space becomes
   aᵀx − s <= b and every cone ‖Lx+g‖ <= cᵀx + d + s; minimise s.  The
   slack's column of every [l] is 0, so each distinct Gram's lower
   triangle gains a zero row and keeps the original's rows, and cones
   that shared an [l] share its extension. *)
let phase1_problem pb =
  let n = pb.n in
  let extend v extra = Array.append v [| extra |] in
  let lins = Array.map (fun { a; b } -> { a = extend a (-1.0); b }) pb.lins in
  let ls =
    per_distinct
      (fun l -> Array.map (fun lr -> extend lr 0.0) l)
      (Array.map (fun { l; _ } -> l) pb.socs)
  in
  let socs =
    Array.mapi (fun k { g; c; d; _ } -> { l = ls.(k); g; c = extend c 1.0; d }) pb.socs
  in
  make
    ~p:(Mat.zeros (n + 1) (n + 1))
    ~q:(extend (Vec.zeros n) 1.0)
    ~lins ~socs
    ~grams:
      (per_distinct (fun g -> Array.append g [| Vec.zeros (n + 1) |]) pb.grams)
    (n + 1)

let find_strictly_feasible ?(params = default_params) pb ~start =
  let margin = 1e-9 in
  if Vec.dim start <> pb.n then
    invalid_arg "Socp.find_strictly_feasible: start dimension";
  let v0 = max_violation pb start in
  (* The margin is relative (slack over residual scale), so the
     feasibility verdict does not change under a rescaling of the
     constraint coefficients. *)
  if min_relative_slack pb start >= margin then
    Strictly_feasible (Vec.copy start)
  else begin
    (* The expensive path: an actual phase-I barrier solve (the early
       return above is the cheap already-interior case and stays
       unobserved).  This span vs. its absence is exactly the
       phase-I-paid vs. warm-path distinction in a trace. *)
    let t0 = Obs.Clock.now_ns () in
    let aug = phase1_problem pb in
    let s0 = (Float.max v0 0.0) +. 1.0 +. (0.1 *. Float.abs v0) in
    let z = ref (Array.append start [| s0 |]) in
    let sc = scratch_for aug in
    (* Custom outer loop so we can stop as soon as s goes negative. *)
    let nu = float_of_int (barrier_nu aug) in
    let tau = ref params.tau0 in
    let result = ref None in
    let outer = ref 0 in
    while !result = None && !outer < max_outer do
      incr outer;
      let r =
        Newton.minimize_into ~params:params.newton sc.ws
          (centering_into aug sc !tau) !z
      in
      z := r.x;
      let s = !z.(aug.n - 1) in
      let x = Array.sub !z 0 pb.n in
      if min_relative_slack pb x >= margin then
        result := Some (Strictly_feasible x)
      else begin
        let gap = nu /. !tau in
        let dead =
          match r.status with
          | Newton.Stalled | Newton.Diverged -> true
          | Newton.Converged | Newton.Iteration_limit -> false
        in
        if gap <= params.gap_tol || dead then begin
          (* s is an upper bound on s*; s - gap is a lower bound. *)
          if s -. gap > margin then result := Some (Infeasible (s -. gap))
          else result := Some (Unknown x)
        end
        else tau := mu *. !tau
      end
    done;
    let fr =
      match !result with
      | Some r -> r
      | None -> Unknown (Array.sub !z 0 pb.n)
    in
    if Obs.Probe.on () then
      Obs.Probe.span p_phase1 ~t0_ns:t0 ~dur_ns:(Obs.Clock.now_ns () - t0)
        ~args:
          [
            ("outer", Obs.Trace.Int !outer);
            ( "result",
              Obs.Trace.Str
                (match fr with
                | Strictly_feasible _ -> "strictly_feasible"
                | Infeasible _ -> "infeasible"
                | Unknown _ -> "unknown") );
          ];
    fr
  end

(* ------------------------------------------------------------------ *)
(* Warm-start interiority repair                                       *)
(* ------------------------------------------------------------------ *)

(* Pull x toward [target] just far enough that every constraint clears
   margin × its residual scale.  Per-constraint safe blends are exact
   for half-spaces (affine slack) and certified for cones by concavity:
   σ(α) = u(α) − ‖v(α)‖ is concave along the segment (affine minus
   convex), so the chord (1−α)σ(x) + ασ(target) under-estimates it and
   a blend clearing the chord bound clears the true slack.  The residual
   scales are likewise bounded by their endpoint maxima (|aᵀ·|, |u| and
   ‖v‖ are convex).  [None] when the target itself does not clear the
   margin. *)
let warm_margin = 1e-8

let pull_to_interior ?(margin = warm_margin) pb ~target x =
  if Vec.dim x <> pb.n || Vec.dim target <> pb.n then None
  else begin
    let alpha = ref 0.0 in
    let ok = ref true in
    (* A constraint with slack below its safe margin at x needs at least
       α = (m − σx)/(σt − σx) of the way toward the target. *)
    let need m sx st =
      if st <= m then ok := false
      else if sx < m then alpha := Float.max !alpha ((m -. sx) /. (st -. sx))
    in
    Array.iter
      (fun { a; b } ->
        if !ok then begin
          let ax = Vec.dot a x and at = Vec.dot a target in
          let scale = Float.max (lin_scale b ax) (lin_scale b at) in
          need (margin *. scale) (b -. ax) (b -. at)
        end)
      pb.lins;
    Array.iter
      (fun ({ c; d; _ } as s) ->
        if !ok then begin
          let ux = Vec.dot c x +. d and ut = Vec.dot c target +. d in
          let nvx = sqrt (soc_vv s x) and nvt = sqrt (soc_vv s target) in
          let scale = Float.max (soc_scale ux nvx) (soc_scale ut nvt) in
          need (margin *. scale) (ux -. nvx) (ut -. nvt)
        end)
      pb.socs;
    if not !ok then None
    else begin
      let a = Float.min 1.0 !alpha in
      let y =
        if a <= 0.0 then Vec.copy x
        else Vec.init pb.n (fun i -> x.(i) +. (a *. (target.(i) -. x.(i))))
      in
      (* The chord bound is exact arithmetic; re-verify against floating
         rounding at a fraction of the margin before handing the point
         to the barrier. *)
      if is_strictly_interior ~margin:(0.25 *. margin) pb y then Some y
      else None
    end
  end

type warm_prep = Warm_interior | Warm_pulled

(* The warm-start decision tree (doc/solver.mld), with the ladder it
   starts: the [warm_start_params] one, at the producing solve's
   [tau_final].  Accept a start that clears [warm_margin] as-is;
   otherwise pull it toward the caller's interior target, by the
   duality measure ν/τ of the rung below that ladder's start where the
   target clears that, else by [warm_margin].  A point centred at that
   rung sits about that far inside its constraints, so a parent optimum
   on a child's branch cut, pulled that far in, re-centres in the one
   rung; one left [warm_margin] inside costs many damped Newton steps
   there.  [None] means the caller must solve cold (phase-I). *)
let prepare_warm_start ?(params = default_params) ~tau_final ~target pb x =
  let params = warm_start_params params ~tau_final in
  if is_strictly_interior ~margin:warm_margin pb x then Some (x, Warm_interior, params)
  else
    let pull margin = pull_to_interior ~margin pb ~target x in
    let duality = mu *. float_of_int (barrier_nu pb) /. params.tau0 in
    let pulled =
      match if duality > warm_margin then pull duality else None with
      | None -> pull warm_margin
      | some -> some
    in
    Option.map
      (fun y ->
        Obs.Probe.hit p_warm_pull;
        (y, Warm_pulled, params))
      pulled

let solve ?(params = default_params) pb ~start =
  if Vec.dim start <> pb.n then invalid_arg "Socp.solve: start dimension";
  if not (is_strictly_interior pb start) then
    invalid_arg "Socp.solve: start point not strictly feasible";
  let nu = float_of_int (barrier_nu pb) in
  if nu = 0.0 then invalid_arg "Socp.solve: no constraints";
  let t0 = Obs.Clock.now_ns () in
  let sc = scratch_for pb in
  let x = ref start in
  let tau = ref params.tau0 in
  let outer = ref 0 in
  let newton_total = ref 0 in
  let trials = ref 0 in
  let stalled = ref false in
  let centred = ref false in
  (* At least one centering step, so the point returned is never the
     caller's start unrefined.  Each rung also takes the full Newton
     step its stopping test computed ([~finish]): the certificate charges
     the stationarity residual over the box, and a point centred only
     to the decrement [tol] leaves it far above ν/τ (2.9e-4 against
     1.5e-6 on a Table-1 node program), where one more step squares
     the decrement. *)
  while
    !outer = 0
    || (nu /. !tau > params.gap_tol && !outer < max_outer && not !stalled)
  do
    incr outer;
    let r =
      Newton.minimize_into ~params:params.newton ~finish:true sc.ws
        (centering_into pb sc !tau) !x
    in
    newton_total := !newton_total + r.iterations;
    trials := !trials + r.trials;
    x := r.x;
    centred := r.status = Newton.Converged;
    (match r.status with
    | Newton.Stalled | Newton.Diverged -> stalled := true
    | Newton.Converged | Newton.Iteration_limit -> ());
    tau := mu *. !tau
  done;
  let gap = nu /. !tau *. mu (* gap before the last multiply *) in
  (* Optimal needs the last rung centred: a stalled or iteration-limited
     last centering returns a point off the central path, whose
     certificate may be loose or fail. *)
  let status =
    if !centred && (nu /. !tau <= params.gap_tol || gap <= params.gap_tol) then Optimal
    else Suboptimal
  in
  let x = !x in
  let sol =
    { x; objective = objective_value pb x; gap_bound = gap;
      (* The tau the point was last centered at: !tau was multiplied
         once more after the final centering, so divide it back.
         gap_bound = ν / tau_final by construction. *)
      tau_final = !tau /. mu;
      outer_iterations = !outer; newton_iterations = !newton_total; status }
  in
  if Obs.Probe.on () then begin
    Obs.Metrics.observe m_newton_iterations
      (float_of_int sol.newton_iterations);
    Obs.Metrics.observe m_line_search_trials (float_of_int !trials);
    Obs.Probe.span p_solve ~t0_ns:t0 ~dur_ns:(Obs.Clock.now_ns () - t0)
      ~args:
        [
          ("outer", Obs.Trace.Int sol.outer_iterations);
          ("newton", Obs.Trace.Int sol.newton_iterations);
          ("trials", Obs.Trace.Int !trials);
          ( "status",
            Obs.Trace.Str
              (match sol.status with
              | Optimal -> "optimal"
              | Suboptimal -> "suboptimal") );
        ]
  end;
  sol

let centering_for_tests pb tau = centering_into pb (scratch_for pb) tau

let phase1_problem_for_tests = phase1_problem

(* ------------------------------------------------------------------ *)
(* Independent dual certificates (Neumaier–Shcherbina safe bounds)     *)
(* ------------------------------------------------------------------ *)

(* The primal objective of a barrier solve is {e not} a lower bound on
   the optimum — a stalled Newton iteration, a jittered Cholesky or
   plain roundoff can leave it above or below the truth, and a bound
   that overstates silently prunes the true optimum out of a
   branch-and-bound search.  The cure is classical (Neumaier &
   Shcherbina, Math. Prog. 2004; Jansson's rigorous SDP/SOCP bounds):
   build a {e dual feasible} point from the terminal barrier iterate,
   repair its approximate feasibility with a closed-form projection,
   and evaluate the resulting dual objective in outward-rounded
   interval arithmetic.  Weak duality then makes the result a true
   lower bound {e whatever} the primal solve did.

   Derivation, in the sign convention of this file (minimise
   f(x) = ½xᵀPx + qᵀx over aᵢᵀx ≤ bᵢ and ‖Lⱼx+gⱼ‖ ≤ cⱼᵀx+dⱼ, P positive
   semidefinite):

   for any λ ≥ 0 and cone pairs (wⱼ, zⱼ) with ‖zⱼ‖ ≤ wⱼ, every
   feasible y satisfies

     f(y) ≥ ½yᵀPy + rᵀy − κ,
       r = q + Σᵢ λᵢaᵢ + Σⱼ (Lⱼᵀzⱼ − wⱼcⱼ),
       κ = Σᵢ λᵢbᵢ + Σⱼ (wⱼdⱼ − zⱼᵀgⱼ)

   (each added term is ≤ 0 on the feasible set: λᵢ(aᵢᵀy − bᵢ) ≤ 0 and
   zⱼᵀ(Lⱼy+gⱼ) − wⱼ(cⱼᵀy+dⱼ) ≤ 0 by cone self-duality).  Write
   y = x* + δ around the primal iterate x* and ρ = Px* + r — the
   Lagrangian stationarity residual, tiny at a centered iterate but
   never assumed zero:

     f(y) ≥ ρᵀx* − ½x*ᵀPx* − κ + ρᵀδ + ½δᵀPδ.

   The box charge drops ½δᵀPδ ≥ 0 and takes ρᵀy = ρᵀ(x* + δ) at its
   minimum over any coordinate box [xlo, xhi] containing the feasible
   set:

     f(y) ≥ Σᵢ min(ρᵢ·xloᵢ, ρᵢ·xhiᵢ) − ½x*ᵀPx* − κ.

   An unbounded coordinate makes that charge −∞ unless its ρᵢ is 0.
   The curvature charge keeps ½δᵀPδ on a block B: given λ̲ > 0 with
   δᵀPδ ≥ λ̲‖δ_B‖² for every δ and any u supported on B (a float solve
   of P_BB u = ρ_B), e = ρ − Pu and v = δ + u turn ρᵀδ + ½δᵀPδ into
   ½vᵀPv + eᵀv + ½uᵀPu − ρ_Bᵀu ≥ −‖e_B‖²/(2λ̲) + e_Nᵀδ_N + ½uᵀPu − ρ_Bᵀu
   (N off the block), with e_Nᵀδ_N charged over the box — about
   −½ρ_BᵀP_BB⁻¹ρ_B however ill-conditioned P_BB is.  Both charges are
   valid; the certificate reports the larger.

   Validity needs {e only} λ ≥ 0 and ‖zⱼ‖ ≤ wⱼ (both enforced exactly,
   with an upward-rounded norm for the cone test); the {e quality} of
   the bound — how close it lands to the primal objective — is what
   depends on how well the solve actually converged (the curvature
   charge's validity also rests on the caller's λ̲).  At a τ-centered
   point the multipliers below give a slack of about ν/τ, i.e. the
   certified bound is typically {e tighter} than the heuristic
   [objective − 2·gap_bound] it replaces.

   Multipliers from the terminal iterate (barrier stationarity at
   weight τ = tau_final):  λᵢ = 1/(τ·sᵢ) with sᵢ = bᵢ − aᵢᵀx*, and per
   cone, with u = cᵀx*+d, v = Lx*+g, h = u² − ‖v‖²:  wⱼ = 2u/(τh),
   zⱼ = 2v/(τh).  Repair: any multiplier that comes out negative,
   non-finite, or from a violated constraint is clipped to 0 (always
   dual-feasible); a z with upward-rounded norm above w is shrunk onto
   the cone, or the pair is zeroed.  The only true failure modes are a
   non-finite dual value (a residual ρᵢ ≠ 0 on an unbounded
   coordinate) and an excessive primal-dual slack. *)

type certificate = { dual_value : float; slack : float; repaired : bool }

type cert_failure =
  | Cert_repair_failed of string
  | Cert_gap_excessive of float

let describe_cert_failure = function
  | Cert_repair_failed msg -> Printf.sprintf "repair failed: %s" msg
  | Cert_gap_excessive slack ->
      Printf.sprintf "primal-dual slack %.3g exceeds the trust threshold"
        slack

(* Directed-rounding helpers.  The certificate runs its interval
   arithmetic on bare lo/hi endpoints: the steps of the {!Interval}
   operations in the same order, so every bound keeps its bits, with no
   [Interval.t] boxed per step.  As {!Interval.make} does, a NaN endpoint
   or an empty box raises [Invalid_argument].  Without [@inline], ocamlopt
   (no flambda) calls them and boxes every float passing through.
   [dir_up]/[dir_down] are [Interval]'s outward steps: [Float.succ]/
   [Float.pred] as [c ± (φ·|c| + η)] without a libm call for a finite
   |c| > 2⁻¹⁰²⁰, the library functions elsewhere. *)
let[@inline] dir_up x =
  let a = Float.abs x in
  if a > 0x1p-1020 && a < Float.infinity then x +. ((0x1.0000000000001p-53 *. a) +. 0x1p-1074)
  else if x = Float.infinity then x
  else Float.succ x
let[@inline] dir_down x =
  let a = Float.abs x in
  if a > 0x1p-1020 && a < Float.infinity then x -. ((0x1.0000000000001p-53 *. a) +. 0x1p-1074)
  else if x = Float.neg_infinity then x
  else Float.pred x
let outward_for_tests x = (dir_down x, dir_up x)
let[@inline] no_nan x = if Float.is_nan x then invalid_arg "Interval.make: NaN bound"
let[@inline] check_box lo hi =
  no_nan lo; no_nan hi;
  if lo > hi then invalid_arg (Printf.sprintf "Interval.make: lo %g > hi %g" lo hi)

(* Kahan: 0 · ±∞ = 0.  A product p of two points is in [dir_down p, dir_up p]. *)
let[@inline] prod x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y
let[@inline] point_prod x y = no_nan x; no_nan y; prod x y

(* The lower and upper ends of a sum (from its terms' like ends) and of [alo, ahi]·[blo, bhi]. *)
let[@inline] add_lo a b = let v = dir_down (a +. b) in no_nan v; v
let[@inline] add_hi a b = let v = dir_up (a +. b) in no_nan v; v
let[@inline] mul_lo alo ahi blo bhi =
  let p1 = prod alo blo and p2 = prod alo bhi and p3 = prod ahi blo and p4 = prod ahi bhi in
  let v = dir_down (Float.min (Float.min p1 p2) (Float.min p3 p4)) in no_nan v; v
let[@inline] mul_hi alo ahi blo bhi =
  let p1 = prod alo blo and p2 = prod alo bhi and p3 = prod ahi blo and p4 = prod ahi bhi in
  let v = dir_up (Float.max (Float.max p1 p2) (Float.max p3 p4)) in no_nan v; v

(* Upper bound on the Euclidean norm of a float vector: upward-rounded
   sum of upward-rounded squares, then an upward step over the
   correctly-rounded sqrt. *)
let norm2_up z =
  let s = Array.fold_left (fun acc zi -> dir_up (acc +. dir_up (zi *. zi))) 0.0 z in
  dir_up (sqrt s)

let certify ~max_rel_slack ?psd_block pb sol =
  let fail reason =
    Obs.Probe.hit p_cert_failed;
    Error (Cert_repair_failed reason)
  in
  let x = sol.x in
  let tau = sol.tau_final in
  let n = pb.n in
  let constrained = Array.length pb.lins > 0 || Array.length pb.socs > 0 in
  let block_ok =
    match psd_block with
    | None -> true
    | Some (block, lambda) ->
        Float.is_finite lambda && lambda > 0.0
        && Array.for_all (fun i -> i >= 0 && i < n) block
  in
  if Vec.dim x <> n then fail "solution dimension mismatch"
  else if not (Array.for_all Float.is_finite x) then
    fail "non-finite primal iterate"
  else if not block_ok then fail "unusable positive-definite block"
  else if constrained && not (Float.is_finite tau && tau > 0.0) then
    fail (Printf.sprintf "unusable terminal barrier weight %h" tau)
  else begin
    let repaired = ref false in
    (* Half-space multipliers, clipped to the nonnegative orthant. *)
    let lambda =
      Array.map
        (fun { a; b } ->
          let sl = b -. Vec.dot a x in
          let lam = 1.0 /. (tau *. sl) in
          if sl > 0.0 && Float.is_finite lam && lam > 0.0 then lam
          else (repaired := true; 0.0))
        pb.lins
    in
    (* Cone multiplier pairs; [None] = pair zeroed by the repair. *)
    let cone_mult =
      Array.map
        (fun ({ l; g; c; d } as soc) ->
          let u = Vec.dot c x +. d in
          let vv = soc_vv soc x in
          let h = (u *. u) -. vv in
          let w = 2.0 *. u /. (tau *. h) in
          if not (u > 0.0 && h > 0.0 && Float.is_finite w && w > 0.0) then (repaired := true; None)
          else begin
            let rows = Mat.rows l in
            let z =
              Vec.init rows (fun r ->
                  2.0 *. (Vec.dot l.(r) x +. g.(r)) /. (tau *. h))
            in
            (* ‖z‖ ≤ w is part of dual feasibility, so the norm test must
               be rigorous: shrink z onto the cone (checking with the
               upward-rounded norm each time), zero the pair if a few
               shrinks do not land inside. *)
            let rec fit tries z =
              let nz = norm2_up z in
              if Float.is_finite nz && nz <= w then Some (w, z)
              else if tries = 0 then None
              else begin
                repaired := true;
                let scale = w /. nz *. (1.0 -. 1e-12) in
                if Float.is_finite scale && scale > 0.0 then
                  fit (tries - 1) (Vec.scale scale z)
                else None
              end
            in
            match fit 3 z with
            | Some wz -> Some wz
            | None ->
                repaired := true;
                None
          end)
        pb.socs
    in
    (* Everything from here on is a rigorous enclosure: outward-rounded
       interval arithmetic on lo/hi endpoints (the helpers above), NaN
       and empty boxes surfacing as Invalid_argument (caught below and
       reported as a certification failure, never as a bound). *)
    match
      (* r = q + Σ λᵢaᵢ + Σ (Lⱼᵀzⱼ − wⱼcⱼ) and κ *)
      Array.iter no_nan pb.q;
      let r_lo = Array.copy pb.q and r_hi = Array.copy pb.q in
      let k_lo = ref 0.0 and k_hi = ref 0.0 in
      for k = 0 to Array.length pb.lins - 1 do
        let { a; b } = pb.lins.(k) and lam = lambda.(k) in
        if lam <> 0.0 then begin
          for i = 0 to n - 1 do
            if a.(i) <> 0.0 then begin
              let p = point_prod lam a.(i) in
              r_lo.(i) <- add_lo r_lo.(i) (dir_down p); r_hi.(i) <- add_hi r_hi.(i) (dir_up p)
            end
          done;
          let p = point_prod lam b in
          k_lo := add_lo !k_lo (dir_down p); k_hi := add_hi !k_hi (dir_up p)
        end
      done;
      for k = 0 to Array.length pb.socs - 1 do
        match cone_mult.(k) with
        | None -> ()
        | Some (w, z) ->
            let { l; g; c; d } = pb.socs.(k) in
            for i = 0 to n - 1 do
              let p = point_prod (-.w) c.(i) in
              let acc_lo = ref (dir_down p) and acc_hi = ref (dir_up p) in
              for rr = 0 to Mat.rows l - 1 do
                if z.(rr) <> 0.0 && l.(rr).(i) <> 0.0 then begin
                  let p = point_prod z.(rr) l.(rr).(i) in
                  acc_lo := add_lo !acc_lo (dir_down p); acc_hi := add_hi !acc_hi (dir_up p)
                end
              done;
              r_lo.(i) <- add_lo r_lo.(i) !acc_lo; r_hi.(i) <- add_hi r_hi.(i) !acc_hi
            done;
            let p = point_prod w d in
            k_lo := add_lo !k_lo (dir_down p); k_hi := add_hi !k_hi (dir_up p);
            for rr = 0 to Mat.rows l - 1 do
              if z.(rr) <> 0.0 && g.(rr) <> 0.0 then begin
                (* κ − zᵣgᵣ: negation swaps the endpoints *)
                let p = point_prod z.(rr) g.(rr) in
                k_lo := add_lo !k_lo (-.dir_up p); k_hi := add_hi !k_hi (-.dir_down p)
              end
            done
      done;
      (* ρ = Px* + r and the tangent offset ½x*ᵀPx*, sharing the Px*
         enclosures. *)
      let q_lo = ref 0.0 and q_hi = ref 0.0 in
      let rho_lo = Array.make n 0.0 and rho_hi = Array.make n 0.0 in
      for i = 0 to n - 1 do
        let px_lo = ref 0.0 and px_hi = ref 0.0 in
        for j = 0 to n - 1 do
          if pb.p.(i).(j) <> 0.0 && x.(j) <> 0.0 then begin
            let p = point_prod pb.p.(i).(j) x.(j) in
            px_lo := add_lo !px_lo (dir_down p); px_hi := add_hi !px_hi (dir_up p)
          end
        done;
        q_lo := add_lo !q_lo (mul_lo x.(i) x.(i) !px_lo !px_hi);
        q_hi := add_hi !q_hi (mul_hi x.(i) x.(i) !px_lo !px_hi);
        rho_lo.(i) <- add_lo !px_lo r_lo.(i); rho_hi.(i) <- add_hi !px_hi r_hi.(i)
      done;
      (* Coordinate box containing the feasible set, harvested from the
         single-nonzero half-space rows (the ±eᵢ box rows), then carried
         once through the two-nonzero rows: aᵢxᵢ + aⱼxⱼ <= b with xⱼ
         boxed bounds xᵢ by (b − min aⱼxⱼ)/aᵢ.  Directed division keeps
         the harvested box outer. *)
      let xlo = Array.make n Float.neg_infinity in
      let xhi = Array.make n Float.infinity in
      let cut i ai b =
        if ai > 0.0 then xhi.(i) <- Float.min xhi.(i) (dir_up (b /. ai))
        else xlo.(i) <- Float.max xlo.(i) (dir_down (b /. ai))
      in
      Array.iteri
        (fun k { a; b } ->
          let i = pb.lin_support.(k) in
          if i >= 0 && pb.lin_support2.(k) < 0 then cut i a.(i) b)
        pb.lins;
      let lo0 = Array.copy xlo and hi0 = Array.copy xhi in
      Array.iteri
        (fun k { a; b } ->
          let i = pb.lin_support.(k) and j = pb.lin_support2.(k) in
          (* b − aⱼ·[lo0ⱼ, hi0ⱼ], the lower end only checked *)
          let through i j =
            if Float.is_finite lo0.(j) && Float.is_finite hi0.(j) then begin
              check_box lo0.(j) hi0.(j); no_nan a.(j); no_nan b;
              no_nan (b -. mul_hi a.(j) a.(j) lo0.(j) hi0.(j));
              cut i a.(i) (add_hi b (-.mul_lo a.(j) a.(j) lo0.(j) hi0.(j)))
            end
          in
          if i >= 0 && j >= 0 then (through i j; through j i))
        pb.lins;
      (* − ½x*ᵀPx* − κ: negation swaps the endpoints. *)
      let off_lo = add_lo (-.(0.5 *. !q_hi)) (-. !k_hi)
      and off_hi = add_hi (-.(0.5 *. !q_lo)) (-. !k_lo) in
      (* Σ min over the box of resᵢ·xᵢ on the coordinates outside
         [block], plus [extra], − ½x*ᵀPx* − κ. *)
      let charge ~block ~res_lo ~res_hi extra_lo extra_hi =
        let lower_lo = ref (add_lo extra_lo off_lo) and lower_hi = ref (add_hi extra_hi off_hi) in
        for i = 0 to n - 1 do
          if not block.(i) then begin
            check_box xlo.(i) xhi.(i);
            lower_lo := add_lo !lower_lo (mul_lo res_lo.(i) res_hi.(i) xlo.(i) xhi.(i));
            lower_hi := add_hi !lower_hi (mul_hi res_lo.(i) res_hi.(i) xlo.(i) xhi.(i))
          end
        done;
        !lower_lo
      in
      let box_charge = charge ~block:(Array.make n false) ~res_lo:rho_lo ~res_hi:rho_hi 0.0 0.0 in
      match psd_block with
      | None -> box_charge
      | Some (idx, lambda) ->
          (* The curvature charge, u = 0 when the solve fails; ‖e_B‖²
             sums upward-rounded squares of each enclosure's larger
             magnitude. *)
          let nb = Array.length idx in
          let block = Array.make n false in
          Array.iter (fun i -> block.(i) <- true) idx;
          let u =
            match
              Cholesky.solve
                (Mat.init nb nb (fun a b -> pb.p.(idx.(a)).(idx.(b))))
                (Array.map (fun i -> 0.5 *. (rho_lo.(i) +. rho_hi.(i))) idx)
            with
            | u when Array.for_all Float.is_finite u -> u
            | _ | (exception Cholesky.Not_positive_definite _) -> Vec.zeros nb
          in
          (* Pu, then e = ρ − Pu *)
          let pu_lo = Array.make n 0.0 and pu_hi = Array.make n 0.0 in
          for i = 0 to n - 1 do
            for a = 0 to nb - 1 do
              let p = point_prod pb.p.(i).(idx.(a)) u.(a) in
              pu_lo.(i) <- add_lo pu_lo.(i) (dir_down p); pu_hi.(i) <- add_hi pu_hi.(i) (dir_up p)
            done
          done;
          let e_lo = Array.init n (fun i -> add_lo rho_lo.(i) (-.pu_hi.(i)))
          and e_hi = Array.init n (fun i -> add_hi rho_hi.(i) (-.pu_lo.(i))) in
          (* lin = Σ_B (ρᵢx*ᵢ + (½uᵢ(Pu)ᵢ − ρᵢuᵢ)) + Σ_N (Pu)ᵢx*ᵢ *)
          let lin_lo = ref 0.0 and lin_hi = ref 0.0 and sq = ref 0.0 in
          for a = 0 to nb - 1 do
            let i = idx.(a) and ua = u.(a) in
            let rl = rho_lo.(i) and rh = rho_hi.(i) and pl = pu_lo.(i) and ph = pu_hi.(i) in
            let t_lo = add_lo (0.5 *. mul_lo ua ua pl ph) (-.mul_hi rl rh ua ua)
            and t_hi = add_hi (0.5 *. mul_hi ua ua pl ph) (-.mul_lo rl rh ua ua) in
            lin_lo := add_lo !lin_lo (add_lo (mul_lo rl rh x.(i) x.(i)) t_lo);
            lin_hi := add_hi !lin_hi (add_hi (mul_hi rl rh x.(i) x.(i)) t_hi);
            let mag = Float.max (Float.abs e_lo.(i)) (Float.abs e_hi.(i)) in
            sq := dir_up (!sq +. dir_up (mag *. mag))
          done;
          for i = 0 to n - 1 do
            if not block.(i) then begin
              lin_lo := add_lo !lin_lo (mul_lo pu_lo.(i) pu_hi.(i) x.(i) x.(i));
              lin_hi := add_hi !lin_hi (mul_hi pu_lo.(i) pu_hi.(i) x.(i) x.(i))
            end
          done;
          (* extra = lin − [0, ‖e_B‖²/(2λ̲)] *)
          let s = dir_up (!sq *. dir_up (1.0 /. (2.0 *. lambda))) in
          check_box 0.0 s;
          Float.max box_charge
            (charge ~block ~res_lo:e_lo ~res_hi:e_hi (add_lo !lin_lo (-.s)) (add_hi !lin_hi (-0.0)))
    with
    | exception Invalid_argument msg ->
        fail (Printf.sprintf "interval evaluation: %s" msg)
    | dual_value ->
        if not (Float.is_finite dual_value) then
          fail
            "dual value not finite (nonzero residual on an unbounded \
             coordinate)"
        else begin
          let slack = sol.objective -. dual_value in
          if Obs.Probe.on () then
            Obs.Metrics.observe m_cert_slack (Float.max slack 1e-12);
          if slack > max_rel_slack *. (1.0 +. Float.abs sol.objective) then begin
            Obs.Probe.hit p_cert_failed;
            Error (Cert_gap_excessive slack)
          end
          else begin
            if !repaired then Obs.Probe.hit p_cert_repaired;
            Ok { dual_value; slack; repaired = !repaired }
          end
        end
  end

(* The span covers every outcome, so its time is the certificate's
   share of a trace or of [--metrics]. *)
let certify_lower_bound ?(max_rel_slack = 0.1) ?psd_block pb sol =
  let observed = Obs.Probe.on () in
  let t0 = if observed then Obs.Clock.now_ns () else 0 in
  let r = certify ~max_rel_slack ?psd_block pb sol in
  if observed then Obs.Probe.span p_cert ~t0_ns:t0 ~dur_ns:(Obs.Clock.now_ns () - t0);
  r
