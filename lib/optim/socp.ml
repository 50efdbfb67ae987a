open Linalg

(* Barrier-solver probes, declared at module init.  Glossary:
   doc/observability.mld. *)
let p_solve =
  Obs.Probe.v "socp.solve" ~count:"barrier SOCP solves (warm or cold)"
    ~seconds:
      (1e-7, 100.0, "wall time of one Socp.solve call (incl. any interior nudge)")

let p_phase1 =
  Obs.Probe.v "socp.phase1"
    ~count:"phase-I feasibility solves actually run (the path warm starts skip)"

let p_warm_pull =
  Obs.Probe.v "socp.warm_pull"
    ~count:"warm starts repaired by the analytic-center pull-in"

let p_warm_correct =
  Obs.Probe.v "socp.warm_correct"
    ~count:"warm starts repaired by the one-step Newton correction"

let m_newton_iterations =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1.0 ~hi:1e4
    ~help:"Newton iterations per Socp.solve (summed over the tau ladder)"
    "ldafp_socp_newton_iterations"

let p_cert =
  Obs.Probe.v "socp.cert" ~count:"dual-certificate evaluations attempted"

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
   life of a problem, so it is computed once here instead of on every
   oracle call (O(n²) per cone per call instead of O(rows·n²)).
   [grams.(k)] is the Gram of cone k's source [l]; cones built from one
   physically shared [l] share one matrix.  [gidx] maps each variable of
   the problem the cones belong to onto a Gram row/column: the identity
   for {!cones}, composed with the free-coordinate map by {!restrict},
   and −1 for the phase-I slack column, whose Gram row is exactly 0. *)
type cones = { socs : soc array; grams : Mat.t array; gidx : int array }

type problem = {
  n : int;
  p : Mat.t;
  q : Vec.t;
  lins : lin array;
  socs : soc array;
  obj_scale : float;
  cones : cones;
  lin_support : int array;
}

(* G = LᵀL, each entry summed r-ascending from +0: the order of the
   textbook Σ_r l(r)(i)·l(r)(j), so barrier Hessians match it bit for
   bit.  Row-contiguous over the upper triangle, then mirrored; a skipped
   l(r)(i) = 0 would only have added a ±0 product to a running sum that
   is never −0, so no bit changes — and a triangular L costs ≈ n³/6. *)
let gram l =
  let n = Mat.cols l in
  if Array.exists (fun lr -> Array.length lr <> n) l then
    invalid_arg "Socp.cones: ragged cone matrix";
  let g = Mat.zeros n n in
  Array.iter
    (fun lr ->
      for i = 0 to n - 1 do
        let lri = lr.(i) in
        if lri <> 0.0 then begin
          let gi = g.(i) in
          (* i <= j < n = length of [gi] and of [lr], checked above: the
             unchecked accesses halve the build, which is set-up time. *)
          for j = i to n - 1 do
            Array.unsafe_set gi j
              (Array.unsafe_get gi j +. (lri *. Array.unsafe_get lr j))
          done
        end
      done)
    l;
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      g.(i).(j) <- g.(j).(i)
    done
  done;
  g

let cones socs =
  let n = if Array.length socs = 0 then 0 else Mat.cols socs.(0).l in
  let seen = ref [] in
  let grams =
    Array.map
      (fun { l; _ } ->
        match List.assq_opt l !seen with
        | Some g -> g
        | None ->
            let g = gram l in
            seen := (l, g) :: !seen;
            g)
      socs
  in
  { socs; grams; gidx = Array.init n Fun.id }

(* The cones [socs] of a problem derived from [cs]'s (restricted or
   phase-I augmented): same Grams, variable k reading Gram index
   [gidx_of k]. *)
let derived_cones cs socs ~n gidx_of =
  {
    socs;
    grams = cs.grams;
    gidx = (if Array.length socs = 0 then [||] else Array.init n gidx_of);
  }

(* The index of [a]'s only nonzero entry, or −1 when it has several or
   none: the ±eᵢ box rows get an O(1) path in the oracle and feed the
   certificate's coordinate box. *)
let support a =
  let idx = ref (-1) and count = ref 0 in
  Array.iteri
    (fun i ai ->
      if ai <> 0.0 then begin
        incr count;
        idx := i
      end)
    a;
  if !count = 1 then !idx else -1

let make ~obj_scale ~p ~q ~lins ~(cones : cones) n =
  {
    n; p; q; lins; socs = cones.socs; obj_scale; cones;
    lin_support = Array.map (fun { a; _ } -> support a) lins;
  }

let of_parts ?(obj_scale = 1.0) ~p ~q ~lins ~(cones : cones) n =
  if n <= 0 then invalid_arg "Socp.of_parts: n must be positive";
  if Mat.dims p <> (n, n) then invalid_arg "Socp.of_parts: P must be n x n";
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
    cones.socs;
  make ~obj_scale ~p ~q ~lins ~cones n

(* ------------------------------------------------------------------ *)
(* Variable fixing (restriction to a coordinate subspace)              *)
(* ------------------------------------------------------------------ *)

(* A box-split branch-and-bound search pins variables to singletons long
   before its boxes become atomic, and a pinned coordinate pair
   [x_j <= c, -x_j <= -c] has {e no} strict interior: the log barrier
   cannot even evaluate there, so every such node used to fall through
   phase-I to an uncertified lower bound of 0 — and every warm start on
   one was unrepairable by construction.  Exact substitution fixes both:
   eliminate the pinned coordinates, solve over the free ones (whose
   strict interior is back), and embed the optimum. *)
type restriction = {
  full_n : int;
  free : int array;  (* reduced index -> full index, ascending *)
  pinned : Vec.t;  (* full-dimensional; free entries are 0 *)
  reduced : problem;
  obj_const : float;
      (* unscaled objective offset of the substitution,
         ½ vᵀPv + qᵀv over the pinned part *)
}

let restrict pb ~fixed =
  if Array.length fixed = 0 then invalid_arg "Socp.restrict: nothing to fix";
  let keep = Array.make pb.n true in
  let v = Vec.zeros pb.n in
  Array.iter
    (fun (j, value) ->
      if j < 0 || j >= pb.n then
        invalid_arg "Socp.restrict: index out of range";
      keep.(j) <- false;
      v.(j) <- value)
    fixed;
  let free =
    Array.of_list (List.filter (fun j -> keep.(j)) (List.init pb.n Fun.id))
  in
  let nf = Array.length free in
  if nf = 0 then invalid_arg "Socp.restrict: every variable fixed";
  (* Full x = y on the free coordinates, v on the fixed ones.  Every
     part below is the exact substitution — no approximation — so the
     reduced optimum embeds back to the optimum of the full problem
     restricted to the pinned slice, with identical certified gaps. *)
  let pv = Mat.mul_vec pb.p v in
  let p = Mat.init nf nf (fun i j -> pb.p.(free.(i)).(free.(j))) in
  let q = Vec.init nf (fun i -> pb.q.(free.(i)) +. pv.(free.(i))) in
  let obj_const = (0.5 *. Mat.quadratic_form pb.p v) +. Vec.dot pb.q v in
  let sub_vec a = Vec.init nf (fun i -> a.(free.(i))) in
  let all_zero a = Array.for_all (fun x -> x = 0.0) a in
  let infeasible = ref false in
  let lins =
    Array.to_list pb.lins
    |> List.filter_map (fun { a; b } ->
           let b = b -. Vec.dot a v in
           let a = sub_vec a in
           if all_zero a then begin
             (* Fixed-variables-only constraint: now a constant.
                Satisfied (the pinned pair's own half-spaces, with slack
                exactly 0) — drop it; violated — the slice is empty. *)
             if b < 0.0 then infeasible := true;
             None
           end
           else Some { a; b })
    |> Array.of_list
  in
  let socs =
    Array.map
      (fun { l; g; c; d } ->
        let rows = Mat.rows l in
        let lv = Mat.mul_vec l v in
        {
          l = Mat.init rows nf (fun r i -> l.(r).(free.(i)));
          g = Vec.init rows (fun r -> g.(r) +. lv.(r));
          c = sub_vec c;
          d = d +. Vec.dot c v;
        })
      pb.socs
  in
  Array.iter
    (fun { l; g; c; d } ->
      if
        all_zero c
        && Array.for_all all_zero l
        && Vec.norm2 g > d
      then infeasible := true)
    socs;
  if !infeasible then None
  else
    Some
      {
        full_n = pb.n;
        free;
        pinned = v;
        reduced =
          make ~obj_scale:pb.obj_scale ~p ~q ~lins
            ~cones:
              (derived_cones pb.cones socs ~n:nf (fun i ->
                   pb.cones.gidx.(free.(i))))
            nf;
        obj_const;
      }

let restriction_embed r y =
  if Vec.dim y <> Array.length r.free then
    invalid_arg "Socp.restriction_embed: dimension mismatch";
  let x = Vec.copy r.pinned in
  Array.iteri (fun i j -> x.(j) <- y.(i)) r.free;
  x

let restriction_project r x =
  if Vec.dim x <> r.full_n then
    invalid_arg "Socp.restriction_project: dimension mismatch";
  Vec.init (Array.length r.free) (fun i -> x.(r.free.(i)))

let restriction_objective_const r = r.reduced.obj_scale *. r.obj_const

let problem ?p ?q ?(lins = []) ?(socs = []) n =
  if n <= 0 then invalid_arg "Socp.problem: n must be positive";
  let p = match p with Some p -> p | None -> Mat.zeros n n in
  let q = match q with Some q -> q | None -> Vec.zeros n in
  if Mat.dims p <> (n, n) then invalid_arg "Socp.problem: P must be n x n";
  if not (Mat.is_symmetric ~tol:1e-8 p) then
    invalid_arg "Socp.problem: P must be symmetric";
  of_parts ~p:(Mat.symmetrize p) ~q ~lins:(Array.of_list lins)
    ~cones:(cones (Array.of_list socs)) n

let box_constraints lo hi =
  if Vec.dim lo <> Vec.dim hi then
    invalid_arg "Socp.box_constraints: dimension mismatch";
  let n = Vec.dim lo in
  List.concat
    (List.init n (fun i ->
         [ { a = Vec.basis n i; b = hi.(i) };
           { a = Vec.neg (Vec.basis n i); b = -.lo.(i) } ]))

let objective_value pb x =
  pb.obj_scale *. ((0.5 *. Mat.quadratic_form pb.p x) +. Vec.dot pb.q x)

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
  mu : float;
  gap_tol : float;
  newton : Newton.params;
  max_outer : int;
  start_margin : float;
}

let default_params =
  { tau0 = 1.0; mu = 15.0; gap_tol = 1e-8;
    newton = { Newton.default_params with tol = 1e-10 }; max_outer = 60;
    start_margin = 1e-6 }

(* Warm-start schedule advance: from a near-optimal start the early
   low-tau centerings are redundant, and because the tau sequence is the
   same geometric ladder, the final tau (hence the certified gap) is
   unchanged — only the number of rungs climbed differs. *)
let warm_start_params ?(levels = 5) params =
  { params with tau0 = params.tau0 *. (params.mu ** float_of_int levels) }

(* How many rungs a solve seeded near an optimum certified at
   [tau_final] may skip.  Integer rungs of the same geometric ladder, so
   the terminal tau — and with it the certified gap — is exactly the
   cold solve's; [back] extra rungs of headroom for starts that were
   repaired rather than inherited verbatim.  The clamp to >= 1 remaining
   rung matters: a ladder that starts at or beyond the parent's terminal
   tau would run zero centering steps and return the (parent's!) start
   unrefined. *)
let restart_levels ?(back = 1) params ~tau_final =
  if
    (not (Float.is_finite tau_final))
    || tau_final <= params.tau0 || params.mu <= 1.0
  then 0
  else
    let rungs = floor (log (tau_final /. params.tau0) /. log params.mu) in
    max 0 (int_of_float rungs - max 1 back)

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
   never clobber each other either. *)
type scratch = {
  ws : Newton.workspace;
  px : Vec.t;  (* P x *)
  mutable v : Vec.t;  (* cone residual Lx + g; sized to the largest cone *)
  ltv : Vec.t;  (* Lᵀ v *)
  gh : Vec.t;  (* gradient of the cone slack h *)
}

let scratch_key : (int, scratch) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 7)

let scratch_for pb =
  let tbl = Domain.DLS.get scratch_key in
  let max_rows =
    Array.fold_left (fun m { l; _ } -> max m (Mat.rows l)) 0 pb.socs
  in
  let sc =
    match Hashtbl.find_opt tbl pb.n with
    | Some sc -> sc
    | None ->
        let sc =
          {
            ws = Newton.workspace pb.n;
            px = Vec.zeros pb.n;
            v = Vec.zeros max_rows;
            ltv = Vec.zeros pb.n;
            gh = Vec.zeros pb.n;
          }
        in
        Hashtbl.replace tbl pb.n sc;
        sc
  in
  if Vec.dim sc.v < max_rows then sc.v <- Vec.zeros max_rows;
  sc

(* In-place oracle for tau * f(x) + phi(x); None outside the barrier
   domain.  All temporaries live in [sc]; [grad]/[hess] are the Newton
   workspace buffers.  [relax] loosens every constraint offset by that
   absolute amount (b ← b + relax, d ← d + relax): the δ-relaxed barrier
   of the one-step interiority correction, whose domain contains points
   just outside the true feasible set. *)
let centering_into ?(relax = 0.0) pb sc tau : Newton.oracle_into =
 fun x ~grad ~hess ->
  let n = pb.n in
  let s_obj = tau *. pb.obj_scale in
  Mat.mul_vec_into pb.p x ~dst:sc.px;
  let fx = (0.5 *. Vec.dot x sc.px) +. Vec.dot pb.q x in
  for i = 0 to n - 1 do
    grad.(i) <- s_obj *. (sc.px.(i) +. pb.q.(i))
  done;
  Mat.scale_into s_obj pb.p ~dst:hess;
  let value = ref (s_obj *. fx) in
  let ok = ref true in
  Array.iteri
    (fun k { a; b } ->
      if !ok then begin
        (* A single-nonzero row (the ±eᵢ box rows) costs O(1): off its
           support the dense terms are ±0 products, which change no
           value for a finite iterate. *)
        let sk = pb.lin_support.(k) in
        let ax = if sk >= 0 then a.(sk) *. x.(sk) else Vec.dot a x in
        let s = b +. relax -. ax in
        if s <= 0.0 then ok := false
        else begin
          value := !value -. log s;
          let inv_s = 1.0 /. s in
          if sk >= 0 then begin
            let ai = a.(sk) in
            grad.(sk) <- grad.(sk) +. (ai *. inv_s);
            hess.(sk).(sk) <- hess.(sk).(sk) +. (ai *. ai *. inv_s *. inv_s)
          end
          else
            for i = 0 to n - 1 do
              grad.(i) <- grad.(i) +. (a.(i) *. inv_s);
              if a.(i) <> 0.0 then
                for j = 0 to n - 1 do
                  hess.(i).(j) <-
                    hess.(i).(j) +. (a.(i) *. a.(j) *. inv_s *. inv_s)
                done
            done
        end
      end)
    pb.lins;
  let gidx = pb.cones.gidx in
  Array.iteri
    (fun k { l; g; c; d } ->
      if !ok then begin
        let u = Vec.dot c x +. d +. relax in
        let rows_l = Mat.rows l in
        let vv = ref 0.0 in
        for r = 0 to rows_l - 1 do
          let vr = Vec.dot l.(r) x +. g.(r) in
          sc.v.(r) <- vr;
          vv := !vv +. (vr *. vr)
        done;
        let h = (u *. u) -. !vv in
        if u <= 0.0 || h <= 0.0 then ok := false
        else begin
          value := !value -. log h;
          (* grad h = 2u c - 2 Lᵀ v *)
          Array.fill sc.ltv 0 n 0.0;
          for r = 0 to rows_l - 1 do
            let vr = sc.v.(r) in
            if vr <> 0.0 then
              let lr = l.(r) in
              for j = 0 to n - 1 do
                sc.ltv.(j) <- sc.ltv.(j) +. (vr *. lr.(j))
              done
          done;
          for i = 0 to n - 1 do
            sc.gh.(i) <- (2.0 *. u *. c.(i)) -. (2.0 *. sc.ltv.(i))
          done;
          let inv_h = 1.0 /. h in
          for i = 0 to n - 1 do
            grad.(i) <- grad.(i) -. (sc.gh.(i) *. inv_h)
          done;
          (* hess(-log h) = (gh ghᵀ)/h² − (2ccᵀ − 2LᵀL)/h, LᵀL read from
             the precomputed Gram *)
          let gram = pb.cones.grams.(k) and gh = sc.gh in
          for i = 0 to n - 1 do
            let gi = gidx.(i) and hi = hess.(i) in
            let ghi = gh.(i) and c2i = 2.0 *. c.(i) in
            for j = 0 to n - 1 do
              let gj = gidx.(j) in
              let ltl = if gi < 0 || gj < 0 then 0.0 else gram.(gi).(gj) in
              hi.(j) <-
                hi.(j)
                +. (ghi *. gh.(j) *. inv_h *. inv_h)
                -. (((c2i *. c.(j)) -. (2.0 *. ltl)) *. inv_h)
            done
          done
        end
      end)
    pb.socs;
  if !ok && not (Float.is_nan !value) then Some !value else None

(* Allocating wrapper, kept for the derivative tests. *)
let centering_oracle pb tau : Newton.oracle =
 fun x ->
  let sc = scratch_for pb in
  let grad = Vec.zeros pb.n in
  let hess = Mat.zeros pb.n pb.n in
  match centering_into pb sc tau x ~grad ~hess with
  | Some value -> Some (value, grad, hess)
  | None -> None

(* Residual scale of one half-space at x: the natural size of the
   numbers whose difference is the slack.  Dividing a slack by it turns
   an absolute margin into a scale-free one, so a problem with its
   coefficients multiplied by 1e6 accepts exactly the same warm starts
   as the original (the absolute 1e-6 [start_margin] used to reject
   them). *)
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
   aᵀx − s <= b and every cone ‖Lx+g‖ <= cᵀx + d + s; minimise s. *)
let phase1_problem pb =
  let n = pb.n in
  let extend v extra = Array.append v [| extra |] in
  let lins = Array.map (fun { a; b } -> { a = extend a (-1.0); b }) pb.lins in
  let socs =
    Array.map
      (fun { l; g; c; d } ->
        let l' = Mat.init (Mat.rows l) (n + 1) (fun i j ->
            if j < n then l.(i).(j) else 0.0)
        in
        { l = l'; g; c = extend c 1.0; d })
      pb.socs
  in
  make ~obj_scale:1.0
    ~p:(Mat.zeros (n + 1) (n + 1))
    ~q:(extend (Vec.zeros n) 1.0)
    ~lins
    ~cones:
      (derived_cones pb.cones socs ~n:(n + 1) (fun i ->
           if i < n then pb.cones.gidx.(i) else -1))
    (n + 1)

let find_strictly_feasible ?(params = default_params) ?(margin = 1e-9) pb
    ~start =
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
    while !result = None && !outer < params.max_outer do
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
        else tau := params.mu *. !tau
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
   margin — the caller falls back to the Newton correction. *)
let pull_to_interior ?(margin = 1e-8) pb ~target x =
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

(* One-step infeasible-start Newton correction: relax every constraint
   by the smallest absolute δ that makes x clear margin × scale on the
   relaxed problem (so x is certifiably inside the relaxed barrier's
   domain), take a single damped Newton step on the relaxed pure barrier
   (τ = 0 — the step aims at the relaxed analytic center, i.e. straight
   inward), and keep the result iff it is strictly interior to the
   {e true} constraints.  O(1) heap allocation beyond the returned
   vector: the oracle and the step run in the per-domain scratch. *)
let correct_to_interior ?(params = default_params) ?(margin = 1e-8) pb x =
  if Vec.dim x <> pb.n then None
  else begin
    let delta = ref 0.0 in
    Array.iter
      (fun { a; b } ->
        let ax = Vec.dot a x in
        let need = (margin *. lin_scale b ax) -. (b -. ax) in
        delta := Float.max !delta need)
      pb.lins;
    Array.iter
      (fun ({ c; d; _ } as s) ->
        let u = Vec.dot c x +. d in
        let nv = sqrt (soc_vv s x) in
        let need = (margin *. soc_scale u nv) -. (u -. nv) in
        delta := Float.max !delta need)
      pb.socs;
    if not (Float.is_finite !delta) then None
    else if !delta <= 0.0 then Some (Vec.copy x)
    else begin
      let sc = scratch_for pb in
      let dst = Vec.zeros pb.n in
      if
        Newton.step_into ~params:params.newton sc.ws
          (centering_into ~relax:!delta pb sc 0.0)
          x ~dst
        && is_strictly_interior ~margin:(0.25 *. margin) pb dst
      then Some dst
      else None
    end
  end

type warm_prep = Warm_interior | Warm_pulled | Warm_corrected

(* The warm-start decision tree (doc/solver.mld): accept a certifiably
   interior start as-is; otherwise pull it toward the caller's interior
   target; otherwise take one corrective Newton step.  [None] means the
   caller must solve cold (phase-I). *)
let prepare_warm_start ?(params = default_params) ?(margin = 1e-8) ?target pb
    x =
  if Vec.dim x <> pb.n then None
  else if is_strictly_interior ~margin pb x then Some (x, Warm_interior)
  else begin
    let pulled =
      match target with
      | Some t -> pull_to_interior ~margin pb ~target:t x
      | None -> None
    in
    match pulled with
    | Some y ->
        Obs.Probe.hit p_warm_pull;
        Some (y, Warm_pulled)
    | None -> (
        match correct_to_interior ~params ~margin pb x with
        | Some y ->
            Obs.Probe.hit p_warm_correct;
            Some (y, Warm_corrected)
        | None -> None)
  end

let solve ?(params = default_params) ?certificate pb ~start =
  if Vec.dim start <> pb.n then invalid_arg "Socp.solve: start dimension";
  (* The span covers the whole solve including any interior nudge, so a
     phase-I span nested inside it shows up as exactly the overhead the
     warm path avoids. *)
  let t0 = Obs.Clock.now_ns () in
  let finish sol =
    let dns = Obs.Clock.now_ns () - t0 in
    if Obs.Probe.on () then begin
      Obs.Metrics.observe m_newton_iterations
        (float_of_int sol.newton_iterations);
      Obs.Probe.span p_solve ~t0_ns:t0 ~dur_ns:dns
        ~args:
          [
            ("outer", Obs.Trace.Int sol.outer_iterations);
            ("newton", Obs.Trace.Int sol.newton_iterations);
            ( "status",
              Obs.Trace.Str
                (match sol.status with
                | Optimal -> "optimal"
                | Suboptimal -> "suboptimal") );
          ]
    end;
    sol
  in
  let start =
    if is_strictly_interior pb start then start
    else begin
      (* The start sits on (or within roundoff of) the constraint
         boundary — common when a caller clips a warm start to the box. *)
      let blended =
        match certificate with
        | Some cert when Vec.dim cert = pb.n && is_strictly_interior pb cert
          ->
            (* Pull the start toward a point the caller certifies as
               strictly interior (a phase-I output or a previous barrier
               iterate): by convexity some blend is interior, so no
               phase-I solve is needed.  Small alphas first to stay close
               to the warm start; alpha = 1 recovers the certificate. *)
            let rec go = function
              | [] -> None
              | alpha :: rest ->
                  let cand =
                    Vec.init pb.n (fun i ->
                        start.(i) +. (alpha *. (cert.(i) -. start.(i))))
                  in
                  if is_strictly_interior pb cand then Some cand else go rest
            in
            go [ 0.01; 0.1; 0.5; 1.0 ]
        | _ -> None
      in
      match blended with
      | Some x -> x
      | None ->
          (* Relative test: a start violating every constraint by at most
             start_margin × its residual scale is repairable regardless
             of how the problem is scaled. *)
          if min_relative_slack pb start >= -.params.start_margin then
            (* No certificate: nudge into the interior with a phase-I
               solve rather than rejecting. *)
            match find_strictly_feasible ~params pb ~start with
            | Strictly_feasible x -> x
            | Infeasible _ | Unknown _ ->
                invalid_arg "Socp.solve: start point not strictly feasible"
          else invalid_arg "Socp.solve: start point not strictly feasible"
    end
  in
  let sc = scratch_for pb in
  let nu = float_of_int (barrier_nu pb) in
  if nu = 0.0 then begin
    (* Unconstrained QP: single Newton solve. *)
    let r =
      Newton.minimize_into ~params:params.newton sc.ws
        (centering_into pb sc 1.0) start
    in
    let diverged = r.status = Newton.Diverged in
    finish
      { x = r.x; objective = objective_value pb r.x;
        gap_bound = (if diverged then Float.infinity else 0.0);
        tau_final = Float.infinity;
        outer_iterations = 0; newton_iterations = r.iterations;
        status = (if diverged then Suboptimal else Optimal) }
  end
  else begin
    let x = ref start in
    let tau = ref params.tau0 in
    let outer = ref 0 in
    let newton_total = ref 0 in
    let stalled = ref false in
    while nu /. !tau > params.gap_tol && !outer < params.max_outer
          && not !stalled do
      incr outer;
      let r =
        Newton.minimize_into ~params:params.newton sc.ws
          (centering_into pb sc !tau) !x
      in
      newton_total := !newton_total + r.iterations;
      x := r.x;
      (match r.status with
      | Newton.Stalled | Newton.Diverged -> stalled := true
      | Newton.Converged | Newton.Iteration_limit -> ());
      tau := params.mu *. !tau
    done;
    let gap = nu /. !tau *. params.mu (* gap before the last multiply *) in
    let status =
      if nu /. !tau <= params.gap_tol || gap <= params.gap_tol then Optimal
      else Suboptimal
    in
    (* If the loop never ran, !x still aliases the caller's start. *)
    let x = if !x == start then Vec.copy start else !x in
    finish
      { x; objective = objective_value pb x; gap_bound = gap;
        (* The tau the point was last centered at: !tau was multiplied
           once more after the final centering, so divide it back.
           gap_bound = ν / tau_final by construction. *)
        tau_final = !tau /. params.mu;
        outer_iterations = !outer; newton_iterations = !newton_total; status }
  end

let centering_oracle_for_tests = centering_oracle
let phase1_problem_for_tests = phase1_problem

let solve_auto ?(params = default_params) pb ~start =
  match find_strictly_feasible ~params pb ~start with
  | Strictly_feasible x -> Some (solve ~params pb ~start:x)
  | Infeasible _ | Unknown _ -> None

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
   f(x) = s·(½xᵀPx + qᵀx), s = [obj_scale] > 0, over aᵢᵀx ≤ bᵢ and
   ‖Lⱼx+gⱼ‖ ≤ cⱼᵀx+dⱼ, P positive semidefinite):

   for any λ ≥ 0 and cone pairs (wⱼ, zⱼ) with ‖zⱼ‖ ≤ wⱼ, every
   feasible y satisfies

     f(y) ≥ ½s·yᵀPy + rᵀy − κ,
       r = s·q + Σᵢ λᵢaᵢ + Σⱼ (Lⱼᵀzⱼ − wⱼcⱼ),
       κ = Σᵢ λᵢbᵢ + Σⱼ (wⱼdⱼ − zⱼᵀgⱼ)

   (each added term is ≤ 0 on the feasible set: λᵢ(aᵢᵀy − bᵢ) ≤ 0 and
   zⱼᵀ(Lⱼy+gⱼ) − wⱼ(cⱼᵀy+dⱼ) ≤ 0 by cone self-duality).  Since s·P is
   PSD, the quadratic supports its tangent plane at the primal iterate
   x*:  ½s·yᵀPy ≥ [s·Px*]ᵀy − ½s·x*ᵀPx*.  Writing ρ = s·Px* + r — the
   Lagrangian stationarity residual, tiny at a centered iterate but
   never assumed zero — gives, over any coordinate box [xlo, xhi]
   containing the feasible set,

     f(y) ≥ Σᵢ min(ρᵢ·xloᵢ, ρᵢ·xhiᵢ) − ½s·x*ᵀPx* − κ.

   Validity needs {e only} λ ≥ 0 and ‖zⱼ‖ ≤ wⱼ (both enforced exactly,
   with an upward-rounded norm for the cone test); the {e quality} of
   the bound — how close it lands to the primal objective — is what
   depends on how well the solve actually converged.  At a τ-centered
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

(* Directed-rounding scalar helpers (the interval ops live in
   {!Interval}; these cover the two places a bare float bound is
   needed: the cone-norm test and the box extraction). *)
let dir_up x = if x = Float.infinity then x else Float.succ x
let dir_down x = if x = Float.neg_infinity then x else Float.pred x

(* Upper bound on the Euclidean norm of a float vector: upward-rounded
   sum of upward-rounded squares, then an upward step over the
   correctly-rounded sqrt. *)
let norm2_up z =
  let s = Array.fold_left (fun acc zi -> dir_up (acc +. dir_up (zi *. zi))) 0.0 z in
  dir_up (sqrt s)

let certify_lower_bound ?(max_rel_slack = 0.1) pb sol =
  Obs.Probe.hit p_cert;
  let fail reason =
    Obs.Probe.hit p_cert_failed;
    Error (Cert_repair_failed reason)
  in
  let x = sol.x in
  let tau = sol.tau_final in
  let n = pb.n in
  let s_obj = pb.obj_scale in
  let constrained = Array.length pb.lins > 0 || Array.length pb.socs > 0 in
  if Vec.dim x <> n then fail "solution dimension mismatch"
  else if not (Array.for_all Float.is_finite x) then
    fail "non-finite primal iterate"
  else if not (Float.is_finite s_obj && s_obj > 0.0) then
    fail "objective scale not positive"
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
          else begin
            repaired := true;
            0.0
          end)
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
          if not (u > 0.0 && h > 0.0 && Float.is_finite w && w > 0.0) then begin
            repaired := true;
            None
          end
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
       interval ops over {!Interval}, NaN surfacing as Invalid_argument
       (caught below and reported as a certification failure, never as
       a bound). *)
    match
      let ip = Interval.point in
      (* r = s·q + Σ λᵢaᵢ + Σ (Lⱼᵀzⱼ − wⱼcⱼ) *)
      let r = Array.init n (fun i -> Interval.wide_mul (ip s_obj) (ip pb.q.(i))) in
      let kappa = ref (ip 0.0) in
      Array.iteri
        (fun k { a; b } ->
          let lam = lambda.(k) in
          if lam <> 0.0 then begin
            for i = 0 to n - 1 do
              if a.(i) <> 0.0 then
                r.(i) <-
                  Interval.wide_add r.(i) (Interval.wide_mul (ip lam) (ip a.(i)))
            done;
            kappa := Interval.wide_add !kappa (Interval.wide_mul (ip lam) (ip b))
          end)
        pb.lins;
      Array.iteri
        (fun k { l; g; c; d } ->
          match cone_mult.(k) with
          | None -> ()
          | Some (w, z) ->
              let rows = Mat.rows l in
              for i = 0 to n - 1 do
                let acc = ref (Interval.wide_mul (Interval.neg (ip w)) (ip c.(i))) in
                for rr = 0 to rows - 1 do
                  if z.(rr) <> 0.0 && l.(rr).(i) <> 0.0 then
                    acc :=
                      Interval.wide_add !acc
                        (Interval.wide_mul (ip z.(rr)) (ip l.(rr).(i)))
                done;
                r.(i) <- Interval.wide_add r.(i) !acc
              done;
              kappa := Interval.wide_add !kappa (Interval.wide_mul (ip w) (ip d));
              for rr = 0 to rows - 1 do
                if z.(rr) <> 0.0 && g.(rr) <> 0.0 then
                  kappa :=
                    Interval.wide_sub !kappa
                      (Interval.wide_mul (ip z.(rr)) (ip g.(rr)))
              done)
        pb.socs;
      (* ρ = s·Px* + r and the tangent offset ½s·x*ᵀPx*, sharing the
         s·Px* enclosures. *)
      let quad = ref (ip 0.0) in
      let rho =
        Array.init n (fun i ->
            let pxi = ref (ip 0.0) in
            for j = 0 to n - 1 do
              if pb.p.(i).(j) <> 0.0 && x.(j) <> 0.0 then
                pxi :=
                  Interval.wide_add !pxi
                    (Interval.wide_mul (ip pb.p.(i).(j)) (ip x.(j)))
            done;
            let spxi = Interval.wide_mul (ip s_obj) !pxi in
            quad := Interval.wide_add !quad (Interval.wide_mul (ip x.(i)) spxi);
            Interval.wide_add spxi r.(i))
      in
      (* Coordinate box containing the feasible set, harvested from the
         single-nonzero half-space rows ([lin_support]: the ±eᵢ box rows
         every LDA-FP relaxation carries; restriction preserves the
         shape).  Directed
         division keeps the harvested box outer. *)
      let xlo = Array.make n Float.neg_infinity in
      let xhi = Array.make n Float.infinity in
      Array.iteri
        (fun k { a; b } ->
          let i = pb.lin_support.(k) in
          if i >= 0 then begin
            let ai = a.(i) in
            if ai > 0.0 then xhi.(i) <- Float.min xhi.(i) (dir_up (b /. ai))
            else xlo.(i) <- Float.max xlo.(i) (dir_down (b /. ai))
          end)
        pb.lins;
      (* bound = Σ min over the box of ρᵢ·xᵢ − ½s·x*ᵀPx* − κ. *)
      let lower =
        ref (Interval.wide_sub (Interval.neg (Interval.scale 0.5 !quad)) !kappa)
      in
      for i = 0 to n - 1 do
        lower :=
          Interval.wide_add !lower
            (Interval.wide_mul rho.(i) (Interval.make ~lo:xlo.(i) ~hi:xhi.(i)))
      done;
      Interval.lo !lower
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
