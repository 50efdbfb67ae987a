(* Tests for the LDA core: scaling, float LDA, the LDA-FP problem
   formulation, heuristics, the branch-and-bound trainer (including an
   exhaustive global-optimality check on a small grid), the fixed-point
   classifier, pipelines, evaluation, and model persistence. *)

open Ldafp_core
open Fixedpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)
(* ------------------------------------------------------------------ *)

let test_scaling_fit_bounds () =
  let features = [| [| 100.0; 0.01 |]; [| -120.0; 0.02 |]; [| 80.0; 0.015 |] |] in
  let s = Scaling.fit ~margin_sigmas:0.0 features in
  let scaled = Scaling.apply_mat s features in
  Array.iter
    (fun row ->
      Array.iter (fun v -> checkb "within [-1, 1)" true (Float.abs v < 1.0)) row)
    scaled;
  (* small features are scaled UP (negative exponent) *)
  checkb "second feature scaled up" true (Scaling.exponent s 1 < 0)

let test_scaling_target_bound () =
  let features = [| [| 3.0 |]; [| -3.5 |] |] in
  let s1 = Scaling.fit ~margin_sigmas:0.0 ~target_bound:1.0 features in
  let s2 = Scaling.fit ~margin_sigmas:0.0 ~target_bound:2.0 features in
  (* doubling the target bound saves exactly one shift *)
  checki "one bit difference" 1 (Scaling.exponent s1 0 - Scaling.exponent s2 0);
  let m2 = Scaling.apply_mat s2 features in
  Array.iter
    (fun row -> checkb "within [-2, 2)" true (Float.abs row.(0) < 2.0))
    m2

let test_scaling_roundtrip () =
  let s = Scaling.of_exponents [| 3; -2; 0 |] in
  let x = [| 8.0; 0.25; 1.5 |] in
  let y = Scaling.apply_vec s x in
  Alcotest.(check (array (float 1e-12))) "apply" [| 1.0; 1.0; 1.5 |] y;
  Alcotest.(check (array (float 1e-12))) "unapply" x (Scaling.unapply_vec s y)

let test_scaling_weight_equivalence () =
  (* w·x must be invariant: scaling features down and weights down
     together (unscale_weights) preserves the product. *)
  let s = Scaling.of_exponents [| 2; -1 |] in
  let x = [| 4.0; 0.5 |] and w_scaled = [| 0.5; 1.0 |] in
  let proj_scaled = Linalg.Vec.dot w_scaled (Scaling.apply_vec s x) in
  let w_raw = Scaling.unscale_weights s w_scaled in
  checkf 1e-12 "projection invariant" proj_scaled (Linalg.Vec.dot w_raw x)

(* ------------------------------------------------------------------ *)
(* Float LDA                                                           *)
(* ------------------------------------------------------------------ *)

let test_lda_analytic_2d () =
  (* Spherical covariance: LDA direction = mean difference direction. *)
  let rng = Stats.Rng.create 1 in
  let draw mean =
    Array.init 4000 (fun _ ->
        [|
          mean.(0) +. Stats.Sampler.std_normal rng;
          mean.(1) +. Stats.Sampler.std_normal rng;
        |])
  in
  let a = draw [| 1.0; 0.0 |] and b = draw [| -1.0; 0.0 |] in
  let model = Lda.train a b in
  let w = Lda.weights model in
  checkb "along e1" true (Float.abs w.(0) > 0.99);
  checkb "unit norm" true (Float.abs (Linalg.Vec.norm2 w -. 1.0) < 1e-9);
  (* A projects above the threshold, B below *)
  checkb "A side" true (Lda.predict model [| 1.0; 0.0 |]);
  checkb "B side" true (not (Lda.predict model [| -1.0; 0.0 |]))

let test_lda_solves_normal_equations () =
  (* w must be parallel to S_W⁻¹ d (eq. 11). *)
  let a =
    [| [| 2.0; 1.0 |]; [| 3.0; 2.5 |]; [| 2.5; 0.5 |]; [| 3.5; 2.0 |] |]
  in
  let b =
    [| [| -1.0; 0.0 |]; [| 0.0; 1.5 |]; [| -0.5; -0.5 |]; [| 0.5; 1.0 |] |]
  in
  let scatter = Stats.Scatter.of_data a b in
  let model = Lda.train_scatter scatter in
  let sw = Stats.Scatter.within_class scatter in
  let d = Stats.Scatter.mean_difference scatter in
  let direct = Linalg.Linsys.solve_spd_regularized sw d in
  let direct = Linalg.Vec.normalize direct in
  let w = Lda.weights model in
  let cosine = Float.abs (Linalg.Vec.dot direct w) in
  checkf 1e-9 "parallel to closed form" 1.0 cosine

let test_lda_optimality_of_fisher_cost () =
  (* The solved direction minimises the Fisher ratio: random directions
     can't beat it. *)
  let rng = Stats.Rng.create 2 in
  let gen mean =
    Array.init 200 (fun _ ->
        Array.init 3 (fun j -> mean.(j) +. Stats.Sampler.std_normal rng))
  in
  let scatter =
    Stats.Scatter.of_data (gen [| 1.0; 0.5; 0.0 |]) (gen [| 0.0; 0.0; 0.3 |])
  in
  let model = Lda.train_scatter scatter in
  let best = Lda.fisher_cost scatter model in
  for _ = 1 to 100 do
    let w = Array.init 3 (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
    if Linalg.Vec.norm2 w > 1e-6 then
      checkb "LDA direction is optimal" true
        (Stats.Scatter.fisher_ratio scatter w >= best -. 1e-9)
  done

let test_lda_threshold_midpoint () =
  let a = [| [| 2.0 |]; [| 4.0 |] |] and b = [| [| -2.0 |]; [| -4.0 |] |] in
  let model = Lda.train a b in
  checkf 1e-9 "decision value at pooled mean is 0" 0.0
    (Lda.decision_value model [| 0.0 |])

(* ------------------------------------------------------------------ *)
(* Ldafp_problem                                                       *)
(* ------------------------------------------------------------------ *)

let small_scatter () =
  (* Deterministic 2-feature scatter with distinct per-class stats. *)
  let a =
    [| [| 0.5; 0.1 |]; [| 0.7; -0.1 |]; [| 0.6; 0.2 |]; [| 0.4; -0.2 |] |]
  in
  let b =
    [| [| -0.5; 0.15 |]; [| -0.7; -0.15 |]; [| -0.6; 0.1 |]; [| -0.4; -0.1 |] |]
  in
  Stats.Scatter.of_data a b

(* The Table-1 synthetic problem (seed 42) at [n_per_class] trials per
   class in format Q2.[f]. *)
let synthetic_problem ~n_per_class ~f =
  let fmt = Qformat.make ~k:2 ~f in
  let ds = Datasets.Synthetic.generate ~n_per_class (Stats.Rng.create 42) in
  Ldafp_problem.build ~fmt (Pipeline.prepare ~fmt ds).Pipeline.scatter

let test_problem_beta () =
  let pb = Ldafp_problem.build ~rho:0.99 ~fmt:(Qformat.make ~k:2 ~f:4) (small_scatter ()) in
  checkf 1e-6 "beta = probit(0.995)" 2.5758293035489004 pb.Ldafp_problem.beta

let test_problem_elem_box_contains_zero () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:3) (small_scatter ()) in
  Array.iter
    (fun iv -> checkb "zero admissible" true (Fx_interval.mem iv 0.0))
    pb.Ldafp_problem.elem_box

let test_problem_elem_box_matches_bruteforce () =
  (* The closed-form element interval must agree with scanning every grid
     point against the exact element constraints (18). *)
  let fmt = Qformat.make ~k:2 ~f:3 in
  let scatter = small_scatter () in
  let pb = Ldafp_problem.build ~rho:0.99 ~fmt scatter in
  let beta = pb.Ldafp_problem.beta in
  let lo_bound = Qformat.min_value fmt and hi_bound = Qformat.max_value fmt in
  Array.iteri
    (fun j iv ->
      let mu_a = scatter.Stats.Scatter.mu_a.(j) in
      let mu_b = scatter.Stats.Scatter.mu_b.(j) in
      let s_a = sqrt scatter.Stats.Scatter.sigma_a.(j).(j) in
      let s_b = sqrt scatter.Stats.Scatter.sigma_b.(j).(j) in
      let elem_ok w =
        let ok mu s =
          let spread = beta *. Float.abs w *. s in
          (w *. mu) -. spread >= lo_bound -. 1e-12
          && (w *. mu) +. spread <= hi_bound +. 1e-12
        in
        ok mu_a s_a && ok mu_b s_b
      in
      Array.iter
        (fun g ->
          checkb
            (Printf.sprintf "elem %d grid %g agreement" j g)
            (elem_ok g) (Fx_interval.mem iv g))
        (Qformat.values fmt))
    pb.Ldafp_problem.elem_box

(* The fingerprint hashes the inputs, not the built record: two builds
   of one scatter agree, and a one-ulp move of one covariance entry is
   a different problem. *)
let test_problem_fingerprint () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let fp scatter = Ldafp_problem.fingerprint (Ldafp_problem.build ~fmt scatter) in
  let base = fp (small_scatter ()) in
  Alcotest.(check string) "two builds agree" base (fp (small_scatter ()));
  let moved = small_scatter () in
  let sa = moved.Stats.Scatter.sigma_a in
  sa.(0).(1) <- Float.succ sa.(0).(1);
  checkb "one ulp of sigma_a changes it" true (fp moved <> base);
  checkb "rho is hashed" true
    (Ldafp_problem.fingerprint
       (Ldafp_problem.build ~rho:0.95 ~fmt (small_scatter ()))
    <> base)

let test_problem_cost () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:4) (small_scatter ()) in
  checkb "zero weight infinite cost" true
    (Ldafp_problem.cost pb [| 0.0; 0.0 |] = Float.infinity);
  let c1 = Ldafp_problem.cost pb [| 1.0; 0.0 |] in
  checkb "finite positive" true (Float.is_finite c1 && c1 > 0.0);
  (* scale invariance of the exact cost *)
  checkf 1e-12 "scale invariant" c1 (Ldafp_problem.cost pb [| 2.0; 0.0 |])

let test_problem_on_grid () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:2) (small_scatter ()) in
  checkb "grid point" true (Ldafp_problem.on_grid pb [| 0.25; -1.5 |]);
  checkb "off grid" false (Ldafp_problem.on_grid pb [| 0.3; 0.0 |]);
  checkb "out of range" false (Ldafp_problem.on_grid pb [| 5.0; 0.0 |])

let test_problem_constraint_violation_signs () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:4) (small_scatter ()) in
  checkb "origin feasible" true (Ldafp_problem.constraint_violation pb [| 0.0; 0.0 |] <= 0.0);
  (* enormous weights must violate the projection constraints *)
  checkb "hypothetical huge weights violate" true
    (Ldafp_problem.constraint_violation pb [| 100.0; 100.0 |] > 0.0)

let test_problem_trange_of_box () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let box =
    [|
      Fx_interval.of_values fmt ~lo:(-1.0) ~hi:1.0;
      Fx_interval.of_values fmt ~lo:0.0 ~hi:0.5;
    |]
  in
  let tr = Ldafp_problem.trange_of_box pb box in
  (* brute force over the box corners of the grid *)
  let d = pb.Ldafp_problem.d in
  let worst_lo = ref Float.infinity and worst_hi = ref Float.neg_infinity in
  Array.iter
    (fun w0 ->
      Array.iter
        (fun w1 ->
          let t = (d.(0) *. w0) +. (d.(1) *. w1) in
          worst_lo := Float.min !worst_lo t;
          worst_hi := Float.max !worst_hi t)
        (Fx_interval.values box.(1)))
    (Fx_interval.values box.(0));
  checkb "contains all grid t values" true
    (Optim.Interval.lo tr <= !worst_lo +. 1e-12
    && Optim.Interval.hi tr >= !worst_hi -. 1e-12);
  checkf 1e-9 "tight lo" !worst_lo (Optim.Interval.lo tr);
  checkf 1e-9 "tight hi" !worst_hi (Optim.Interval.hi tr)

let enumerate_feasible pb fmt =
  (* All feasible grid points with finite cost, by brute force. *)
  let values = Qformat.values fmt in
  let acc = ref [] in
  Array.iter
    (fun w0 ->
      Array.iter
        (fun w1 ->
          let w = [| w0; w1 |] in
          if Ldafp_problem.feasible pb w then begin
            let c = Ldafp_problem.cost pb w in
            if Float.is_finite c then acc := (Array.copy w, c) :: !acc
          end)
        values)
    values;
  !acc

let test_relaxation_lower_bounds_feasible_points () =
  (* Relaxation over the root box must lower-bound every feasible grid
     point's cost (the soundness property Algorithm 1 relies on). *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let feas = enumerate_feasible pb fmt in
  checkb "nonempty" true (feas <> []);
  let pos = List.filter (fun (w, _) -> Ldafp_problem.t_of pb w >= 0.0) feas in
  let tr = pb.Ldafp_problem.t_root in
  let eta = Optim.Interval.sup_sq tr in
  let relax =
    Ldafp_problem.relaxation pb ~wbox:pb.Ldafp_problem.elem_box ~trange:tr
      ~eta
  in
  let start = Array.map Fx_interval.mid pb.Ldafp_problem.elem_box in
  match Optim.Socp.solve_auto relax ~start with
  | None -> Alcotest.fail "root relaxation infeasible"
  | Some sol ->
      let lower = sol.Optim.Socp.objective -. (2.0 *. sol.Optim.Socp.gap_bound) in
      List.iter
        (fun (w, c) ->
          checkb
            (Format.asprintf "lower bound %.6g <= cost %.6g at %a" lower c
               Linalg.Vec.pp w)
            true (lower <= c +. 1e-9))
        pos

let test_secant_relaxation_soundness () =
  (* If the secant program's minimum is positive at theta, no feasible
     grid point with t in range can have cost <= theta. Verify against
     brute force for several thetas. *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let feas = enumerate_feasible pb fmt in
  let tr = pb.Ldafp_problem.t_root in
  let in_range (w, _) = Optim.Interval.mem tr (Ldafp_problem.t_of pb w) in
  let feas = List.filter in_range feas in
  let best = List.fold_left (fun acc (_, c) -> Float.min acc c) Float.infinity feas in
  List.iter
    (fun theta ->
      let problem, const_term =
        Ldafp_problem.secant_relaxation pb ~wbox:pb.Ldafp_problem.elem_box
          ~trange:tr ~theta
      in
      let start = Array.map Fx_interval.mid pb.Ldafp_problem.elem_box in
      match Optim.Socp.solve_auto problem ~start with
      | None -> ()
      | Some sol ->
          let min_val =
            sol.Optim.Socp.objective +. const_term
            -. (2.0 *. sol.Optim.Socp.gap_bound)
          in
          if min_val > 1e-9 then
            (* certificate says: no point with cost <= theta *)
            checkb
              (Printf.sprintf "secant certificate valid at theta=%g" theta)
              true (best > theta))
    [ best /. 2.0; best *. 0.9; best *. 0.99 ]

let test_relative_margins_scale_invariant () =
  (* The Table-1-style relaxation with every constraint rescaled by 1e6
     describes the same geometry, so interiority verdicts must not
     change.  Absolute margins fail exactly this: a fixed 1e-7 absolute
     clearance is generous at scale 1 and lost in roundoff at scale
     1e6. *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let tr = pb.Ldafp_problem.t_root in
  let relax =
    Ldafp_problem.relaxation pb ~wbox:pb.Ldafp_problem.elem_box ~trange:tr
      ~eta:(Optim.Interval.sup_sq tr)
  in
  let s = 1e6 in
  let scaled =
    Optim.Socp.of_parts ~p:relax.Optim.Socp.p ~q:relax.Optim.Socp.q
      ~lins:
        (Array.map
           (fun { Optim.Socp.a; b } ->
             { Optim.Socp.a = Linalg.Vec.scale s a; b = s *. b })
           relax.Optim.Socp.lins)
      ~cones:
        (Optim.Socp.cones
           (Array.map
              (fun { Optim.Socp.l; g; c; d } ->
                {
                  Optim.Socp.l = Linalg.Mat.scale s l;
                  g = Linalg.Vec.scale s g;
                  c = Linalg.Vec.scale s c;
                  d = s *. d;
                })
              relax.Optim.Socp.socs))
      relax.Optim.Socp.n
  in
  let agree label x =
    checkb
      (label ^ ": interiority verdict scale-invariant")
      (Optim.Socp.is_strictly_interior ~margin:1e-8 relax x)
      (Optim.Socp.is_strictly_interior ~margin:1e-8 scaled x);
    checkb
      (label ^ ": slack sign scale-invariant")
      (Optim.Socp.min_relative_slack relax x > 0.0)
      (Optim.Socp.min_relative_slack scaled x > 0.0)
  in
  let mid = Array.map Fx_interval.mid pb.Ldafp_problem.elem_box in
  agree "box midpoint" mid;
  (* A point on a box face: zero slack at any scale. *)
  let face = Array.copy mid in
  face.(0) <- Fx_interval.hi pb.Ldafp_problem.elem_box.(0);
  agree "box face" face;
  (* A point a small relative depth inside the same face. *)
  let near = Array.copy mid in
  near.(0) <-
    Fx_interval.hi pb.Ldafp_problem.elem_box.(0)
    -. (1e-4 *. Fx_interval.width pb.Ldafp_problem.elem_box.(0));
  agree "near the face" near

let test_warm_prepare_repairs_branch_cut () =
  (* The search's hot case, in miniature: branch t at the parent
     optimum's own projection.  The inherited point lands exactly on the
     child's branch-cut half-space — not strictly interior — and
     [prepare_warm_start] must repair it (pull-in toward the
     analytic-center proxy) rather than go cold.  The warm solve from
     the repaired point must then reach the cold solve's objective
     within the sum of their certified gap bounds. *)
  let check name pb =
    let wbox = pb.Ldafp_problem.elem_box in
    let relax trange =
      Ldafp_problem.relaxation pb ~wbox ~trange
        ~eta:(Optim.Interval.sup_sq trange)
    in
    let solve_cold p =
      match Optim.Socp.solve_auto p ~start:(Array.map Fx_interval.mid wbox) with
      | Some s -> s
      | None -> Alcotest.failf "%s: relaxation infeasible" name
    in
    let root = solve_cold (relax pb.Ldafp_problem.t_root) in
    let t_opt = Ldafp_problem.t_of pb root.Optim.Socp.x in
    let left, _ = Optim.Interval.split ~at:t_opt pb.Ldafp_problem.t_root in
    let child = relax left in
    checkb (name ^ ": parent optimum sits on the cut") false
      (Optim.Socp.is_strictly_interior ~margin:1e-8 child root.Optim.Socp.x);
    let target = Ldafp_problem.center_point pb ~wbox ~trange:left in
    checkb (name ^ ": center-point target is strictly interior") true
      (Optim.Socp.is_strictly_interior child target);
    match Optim.Socp.prepare_warm_start ~target child root.Optim.Socp.x with
    | None -> Alcotest.failf "%s: branch-cut point must be repairable" name
    | Some (y, prep) ->
        checkb (name ^ ": repaired point certifiably interior") true
          (Optim.Socp.min_relative_slack child y > 0.0);
        checkb (name ^ ": repair actually ran") true
          (prep <> Optim.Socp.Warm_interior);
        let warm =
          Optim.Socp.solve
            ~params:(Optim.Socp.warm_start_params Optim.Socp.default_params)
            child ~start:y
        in
        let cold = solve_cold child in
        let tol =
          cold.Optim.Socp.gap_bound +. warm.Optim.Socp.gap_bound
          +. (1e-9 *. (1.0 +. Float.abs cold.Optim.Socp.objective))
        in
        checkb (name ^ ": warm objective agrees with cold") true
          (Float.abs (cold.Optim.Socp.objective -. warm.Optim.Socp.objective)
          <= tol)
  in
  check "small Q2.2"
    (Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:2) (small_scatter ()));
  check "table-1 Q2.6" (synthetic_problem ~n_per_class:300 ~f:6)

(* ------------------------------------------------------------------ *)
(* Heuristics                                                          *)
(* ------------------------------------------------------------------ *)

let test_round_into_boxes () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let w = Ldafp_heuristics.round_into pb [| 7.3; -9.9 |] in
  Array.iteri
    (fun j v ->
      checkb "inside elem box" true
        (Fx_interval.mem (Ldafp_problem.elem_interval pb j) v))
    w;
  checkb "on grid" true (Ldafp_problem.on_grid pb w)

let test_evaluate_rejects_infeasible () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  checkb "zero rejected (infinite cost)" true
    (Ldafp_heuristics.evaluate pb [| 0.0; 0.0 |] = None);
  checkb "off-grid rejected" true
    (Ldafp_heuristics.evaluate pb [| 0.3; 0.0 |] = None)

let test_sweep_finds_feasible () =
  let fmt = Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let model = Lda.train_scatter pb.Ldafp_problem.scatter in
  match Ldafp_heuristics.scaled_rounding_sweep pb (Lda.weights model) with
  | None -> Alcotest.fail "sweep found nothing"
  | Some (w, c) ->
      checkb "feasible" true (Ldafp_problem.feasible pb w);
      checkf 1e-12 "cost consistent" c (Ldafp_problem.cost pb w)

let test_polish_never_worsens () =
  let fmt = Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  match Ldafp_heuristics.seed_incumbent pb with
  | None -> Alcotest.fail "no seed"
  | Some (w, c) ->
      let w2, c2 = Ldafp_heuristics.coordinate_polish pb w in
      checkb "polish monotone" true (c2 <= c +. 1e-15);
      checkb "polished feasible" true (Ldafp_problem.feasible pb w2)

(* ------------------------------------------------------------------ *)
(* Lda_fp solver: exhaustive global-optimality check                   *)
(* ------------------------------------------------------------------ *)

let test_solver_matches_bruteforce () =
  (* 2 features x 4 bits: 256 grid points, fully enumerable. The solver
     (with H3 restricting to t >= 0; costs are symmetric under w -> -w,
     and the brute-force minimum over t >= 0 equals the global minimum
     here) must return exactly the brute-force optimum. *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let feas = enumerate_feasible pb fmt in
  let best_cost =
    List.fold_left (fun acc (_, c) -> Float.min acc c) Float.infinity feas
  in
  let config =
    {
      Lda_fp.default_config with
      bnb_params =
        { Optim.Bnb.default_params with max_nodes = 20_000; rel_gap = 1e-9 };
    }
  in
  match Lda_fp.solve ~config pb with
  | None -> Alcotest.fail "solver found nothing"
  | Some outcome ->
      checkb "solver solution feasible" true
        (Ldafp_problem.feasible pb outcome.Lda_fp.w);
      checkf 1e-9 "global optimum" best_cost outcome.Lda_fp.cost

let test_solver_without_seed_still_works () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let feas = enumerate_feasible pb fmt in
  let best_cost =
    List.fold_left (fun acc (_, c) -> Float.min acc c) Float.infinity feas
  in
  let config =
    {
      Lda_fp.default_config with
      seed_incumbent = false;
      bnb_params =
        { Optim.Bnb.default_params with max_nodes = 20_000; rel_gap = 1e-9 };
    }
  in
  match Lda_fp.solve ~config pb with
  | None -> Alcotest.fail "solver found nothing"
  | Some outcome -> checkf 1e-9 "global optimum" best_cost outcome.Lda_fp.cost

let test_solver_diagnostics () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  match Lda_fp.solve pb with
  | None -> Alcotest.fail "no outcome"
  | Some o ->
      let d = o.Lda_fp.diagnostics in
      checkb "nodes counted" true (d.Lda_fp.nodes >= 0);
      checkb "bound <= cost" true (d.Lda_fp.bound <= o.Lda_fp.cost +. 1e-9);
      checkb "gap consistent" true
        (Float.abs (d.Lda_fp.gap -. (o.Lda_fp.cost -. d.Lda_fp.bound)) < 1e-6);
      checkb "seed recorded" true (d.Lda_fp.seed_cost <> None);
      checkb "time nonneg" true (d.Lda_fp.train_seconds >= 0.0)

let test_problem_without_t_restriction () =
  (* H3 off: the root t-interval must span negative values and the solver
     must still find the same optimal cost (the objective is symmetric
     under w -> -w). *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let scatter = small_scatter () in
  let pb_sym =
    Ldafp_problem.build ~restrict_t_positive:false ~fmt scatter
  in
  checkb "t range spans negatives" true
    (Optim.Interval.lo pb_sym.Ldafp_problem.t_root < 0.0);
  let pb_pos = Ldafp_problem.build ~fmt scatter in
  checkb "H3 root starts at 0" true
    (Optim.Interval.lo pb_pos.Ldafp_problem.t_root >= 0.0);
  let config =
    {
      Lda_fp.default_config with
      bnb_params =
        { Optim.Bnb.default_params with max_nodes = 20_000; rel_gap = 1e-9 };
    }
  in
  match (Lda_fp.solve ~config pb_sym, Lda_fp.solve ~config pb_pos) with
  | Some a, Some b ->
      checkf 1e-9 "same optimal cost with and without H3" a.Lda_fp.cost
        b.Lda_fp.cost
  | _ -> Alcotest.fail "a solve failed"

let test_solver_time_budget () =
  let fmt = Qformat.make ~k:2 ~f:8 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let config =
    {
      Lda_fp.default_config with
      bnb_params =
        { Optim.Bnb.default_params with max_nodes = max_int;
          rel_gap = 0.0; abs_gap = 0.0; time_limit = Some 0.05 };
    }
  in
  let t0 = Sys.time () in
  match Lda_fp.solve ~config pb with
  | None -> Alcotest.fail "expected an incumbent"
  | Some o ->
      checkb "stopped quickly" true (Sys.time () -. t0 < 5.0);
      checkb "reason is a budget" true
        (match o.Lda_fp.diagnostics.Lda_fp.stop_reason with
        | Optim.Bnb.Time_budget | Optim.Bnb.Proved_optimal
        | Optim.Bnb.Gap_reached -> true
        | Optim.Bnb.Node_budget | Optim.Bnb.Interrupted -> false)

let test_solver_respects_node_budget () =
  let fmt = Qformat.make ~k:2 ~f:6 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let config =
    {
      Lda_fp.default_config with
      bnb_params =
        { Optim.Bnb.default_params with max_nodes = 5; rel_gap = 0.0;
          abs_gap = 0.0 };
    }
  in
  match Lda_fp.solve ~config pb with
  | None -> Alcotest.fail "should still return the seed incumbent"
  | Some o ->
      checkb "stopped by budget or exhaustion" true
        (o.Lda_fp.diagnostics.Lda_fp.nodes <= 6)

(* Warm starting is a pure acceleration: on the same problem and seed,
   warm and cold searches must reach the same incumbent after the same
   node count (bounds are solved to identical certified tolerances, so
   pruning and branching decisions coincide). *)
let warm_cold_pair pb ~max_nodes =
  let config warm_start =
    {
      Lda_fp.default_config with
      warm_start;
      bnb_params =
        { Optim.Bnb.default_params with max_nodes; rel_gap = 1e-6 };
    }
  in
  (Lda_fp.solve ~config:(config true) pb, Lda_fp.solve ~config:(config false) pb)

let test_solver_warm_matches_cold () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  match warm_cold_pair pb ~max_nodes:400 with
  | Some warm, Some cold ->
      checkf 1e-12 "same incumbent cost" cold.Lda_fp.cost warm.Lda_fp.cost;
      checki "same node count" cold.Lda_fp.diagnostics.Lda_fp.nodes
        warm.Lda_fp.diagnostics.Lda_fp.nodes;
      let ws = warm.Lda_fp.diagnostics.Lda_fp.search in
      let cs = cold.Lda_fp.diagnostics.Lda_fp.search in
      checkb "warm run hit warm starts" true
        (ws.Optim.Bnb.warm_start_hits > 0);
      checkb "phase-I skips >= warm hits" true
        (ws.Optim.Bnb.phase1_skipped >= ws.Optim.Bnb.warm_start_hits);
      checki "cold run never warm-starts" 0 cs.Optim.Bnb.warm_start_hits;
      checkb "oracle time measured" true (ws.Optim.Bnb.oracle_seconds >= 0.0)
  | _ -> Alcotest.fail "a solve failed"

let prop_warm_cold_same_search =
  QCheck.Test.make ~name:"warm and cold searches coincide on fixed seeds"
    ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let ds = Datasets.Synthetic.generate ~n_per_class:60 rng in
      let a, b = Datasets.Dataset.class_split ds in
      let scatter = Stats.Scatter.of_data a b in
      let fmt = Qformat.make ~k:2 ~f:3 in
      match Ldafp_problem.build ~fmt scatter with
      | exception Ldafp_problem.No_feasible_box _ -> true
      | pb -> (
          match warm_cold_pair pb ~max_nodes:120 with
          | None, None -> true
          | Some warm, Some cold ->
              warm.Lda_fp.cost = cold.Lda_fp.cost
              && warm.Lda_fp.diagnostics.Lda_fp.nodes
                 = cold.Lda_fp.diagnostics.Lda_fp.nodes
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Fixed_classifier                                                    *)
(* ------------------------------------------------------------------ *)

let build_classifier () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  Fixed_classifier.of_weights ~fmt
    ~scaling:(Scaling.of_exponents [| 1; 0 |])
    ~weights:[| 1.0; -0.5 |] ~threshold:0.25 ()

let test_classifier_predict_rule () =
  let clf = build_classifier () in
  (* raw x = (2, 0): scaled (1, 0): y = 1 >= 0.25 -> A *)
  checkb "A side" true (Fixed_classifier.predict clf [| 2.0; 0.0 |]);
  (* raw x = (0, 1): y = -0.5 < 0.25 -> B *)
  checkb "B side" false (Fixed_classifier.predict clf [| 0.0; 1.0 |])

let test_classifier_polarity () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf =
    Fixed_classifier.of_weights ~polarity:false ~fmt
      ~scaling:(Scaling.identity 1) ~weights:[| 1.0 |] ~threshold:0.0 ()
  in
  checkb "inverted comparator" false (Fixed_classifier.predict clf [| 1.0 |]);
  checkb "inverted comparator B" true (Fixed_classifier.predict clf [| -1.0 |])

let test_classifier_input_saturation () =
  let clf = build_classifier () in
  (* wild inputs saturate instead of wrapping: a huge positive x0 still
     lands on the A side. *)
  checkb "saturated input" true (Fixed_classifier.predict clf [| 1e9; 0.0 |])

let test_classifier_threshold_equality () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf =
    Fixed_classifier.of_weights ~fmt ~scaling:(Scaling.identity 1)
      ~weights:[| 1.0 |] ~threshold:0.5 ()
  in
  (* y exactly equal to threshold decides A (eq. 12: >= 0). *)
  checkb "boundary is A" true (Fixed_classifier.predict clf [| 0.5 |])

let test_classifier_matches_datapath () =
  (* Fixed_classifier.predict and the cycle-accurate Datapath must agree
     bit for bit on random inputs. *)
  let rng = Stats.Rng.create 3 in
  let fmt = Qformat.make ~k:2 ~f:5 in
  for _ = 1 to 200 do
    let m = 1 + Stats.Rng.int rng 8 in
    let weights =
      Array.init m (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
    in
    let clf =
      Fixed_classifier.of_weights ~fmt ~scaling:(Scaling.identity m)
        ~weights ~threshold:(Stats.Rng.uniform rng ~lo:(-0.5) ~hi:0.5) ()
    in
    let x = Array.init m (fun _ -> Stats.Rng.uniform rng ~lo:(-1.5) ~hi:1.5) in
    let xq = Fixed_classifier.quantize_input clf x in
    let trace =
      Hw.Datapath.run ~polarity:true ~w:clf.Fixed_classifier.w ~x:xq
        ~threshold:clf.Fixed_classifier.threshold ()
    in
    checkb "datapath agreement" (Fixed_classifier.predict clf x)
      trace.Hw.Datapath.decision
  done

(* ------------------------------------------------------------------ *)
(* Pipeline + Eval                                                     *)
(* ------------------------------------------------------------------ *)

let easy_dataset seed n =
  (* Well-separated 2-feature classes: everything should classify it. *)
  let rng = Stats.Rng.create seed in
  let gen offset =
    Array.init n (fun _ ->
        [|
          offset +. (0.3 *. Stats.Sampler.std_normal rng);
          0.2 *. Stats.Sampler.std_normal rng;
        |])
  in
  Datasets.Dataset.of_class_matrices ~name:"easy" ~a:(gen 1.0) ~b:(gen (-1.0))

let test_pipeline_conventional_on_easy_data () =
  let ds = easy_dataset 4 200 in
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf = Pipeline.train_conventional ~fmt ds in
  checkb "near zero training error" true (Eval.error_fixed clf ds < 0.02)

let test_pipeline_ldafp_on_easy_data () =
  let ds = easy_dataset 5 200 in
  let fmt = Qformat.make ~k:2 ~f:4 in
  match Pipeline.train_ldafp ~config:Lda_fp.quick_config ~fmt ds with
  | None -> Alcotest.fail "no classifier"
  | Some r ->
      checkb "near zero training error" true
        (Eval.error_fixed r.Pipeline.classifier ds < 0.02);
      checkb "solution feasible for its own problem" true
        (Ldafp_problem.feasible r.Pipeline.problem r.Pipeline.outcome.Lda_fp.w)

let test_pipeline_ldafp_beats_lda_on_synthetic () =
  (* The headline claim at a short word length. *)
  let rng = Stats.Rng.create 42 in
  let train = Datasets.Synthetic.generate ~n_per_class:800 rng in
  let test = Datasets.Synthetic.generate ~n_per_class:4000 rng in
  let fmt = Qformat.make ~k:2 ~f:2 in
  let conv = Pipeline.train_conventional ~fmt train in
  let e_lda = Eval.error_fixed conv test in
  match Pipeline.train_ldafp ~config:Lda_fp.quick_config ~fmt train with
  | None -> Alcotest.fail "no classifier"
  | Some r ->
      let e_fp = Eval.error_fixed r.Pipeline.classifier test in
      checkb
        (Printf.sprintf "LDA-FP (%.3f) beats LDA (%.3f) at 4 bits" e_fp e_lda)
        true
        (e_fp < e_lda -. 0.05)

let test_quantize_dataset_on_grid () =
  let ds = easy_dataset 6 50 in
  let fmt = Qformat.make ~k:2 ~f:3 in
  let scaling = Scaling.fit ds.Datasets.Dataset.features in
  let q = Pipeline.quantize_dataset ~fmt scaling ds in
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          checkb "on grid" true
            (Float.abs (v -. Qformat.nearest_on_grid fmt v) < 1e-12))
        row)
    q.Datasets.Dataset.features

let test_eval_kfold_counts () =
  let ds = easy_dataset 7 60 in
  let rng = Stats.Rng.create 8 in
  match
    Eval.kfold ~rng ~k:4
      ~train:(fun tr ->
        Some (Pipeline.train_conventional ~fmt:(Qformat.make ~k:2 ~f:5) tr))
      ~predict:Fixed_classifier.predict ds
  with
  | None -> Alcotest.fail "training failed"
  | Some confusion ->
      checki "every trial tested once" (Datasets.Dataset.n_trials ds)
        (Stats.Confusion.total confusion)

let test_eval_kfold_propagates_failure () =
  let ds = easy_dataset 9 40 in
  let rng = Stats.Rng.create 10 in
  checkb "None propagates" true
    (Eval.kfold ~rng ~k:4
       ~train:(fun _ -> None)
       ~predict:(fun () _ -> true)
       ds
    = None)

(* ------------------------------------------------------------------ *)
(* Model_io                                                            *)
(* ------------------------------------------------------------------ *)

let test_model_io_roundtrip () =
  let clf = build_classifier () in
  let text = Model_io.to_string clf in
  let clf2 = Model_io.of_string text in
  checkb "formats equal" true
    (Qformat.equal (Fixed_classifier.format clf) (Fixed_classifier.format clf2));
  checkb "weights bit-equal" true
    (Fx_vector.equal clf.Fixed_classifier.w clf2.Fixed_classifier.w);
  checkb "threshold bit-equal" true
    (Fx.equal clf.Fixed_classifier.threshold clf2.Fixed_classifier.threshold);
  checkb "scaling equal" true
    (Scaling.equal clf.Fixed_classifier.scaling clf2.Fixed_classifier.scaling);
  (* behavioural equivalence on random inputs *)
  let rng = Stats.Rng.create 11 in
  for _ = 1 to 100 do
    let x = Array.init 2 (fun _ -> Stats.Rng.uniform rng ~lo:(-4.0) ~hi:4.0) in
    checkb "same predictions" (Fixed_classifier.predict clf x)
      (Fixed_classifier.predict clf2 x)
  done

let test_model_io_file_roundtrip () =
  let clf = build_classifier () in
  let path = Filename.temp_file "ldafp_model" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Model_io.save path clf;
      let clf2 = Model_io.load path in
      checkb "weights preserved" true
        (Fx_vector.equal clf.Fixed_classifier.w clf2.Fixed_classifier.w))

let test_model_io_errors () =
  let bad text =
    match Model_io.of_string text with
    | exception Model_io.Parse_error _ -> true
    | _ -> false
  in
  checkb "empty" true (bad "");
  checkb "wrong magic" true (bad "not-a-model\n");
  checkb "missing fields" true (bad "ldafp-model v1\nformat Q2.4\n");
  checkb "bad format" true
    (bad "ldafp-model v1\nformat X\npolarity 1\nexponents 0\nweights 1\nthreshold 0\n");
  checkb "length mismatch" true
    (bad
       "ldafp-model v1\nformat Q2.4\npolarity 1\nexponents 0 0\nweights \
        1\nthreshold 0\n");
  checkb "no features" true
    (bad
       "ldafp-model v1\nformat Q2.4\npolarity 1\nexponents\nweights\n\
        threshold 0\n")

(* Exponents are accepted up to +-1100 inclusive and refused one past
   either bound (and at the int extremes, where C [ldexp] truncates). *)
let test_model_io_exponent_range () =
  let model e =
    Printf.sprintf
      "ldafp-model v1\nformat Q2.4\npolarity 1\nexponents 0 %d\nweights 1 \
       -2\nthreshold 0\n"
      e
  in
  List.iter
    (fun e ->
      let clf = Model_io.of_string (model e) in
      checki (Printf.sprintf "exponent %d kept" e) e
        (Scaling.exponent clf.Fixed_classifier.scaling 1))
    [ -1100; 0; 1100 ];
  List.iter
    (fun e ->
      checkb
        (Printf.sprintf "exponent %d rejected" e)
        true
        (match Model_io.of_string (model e) with
        | exception Model_io.Parse_error _ -> true
        | _ -> false))
    [ -1101; 1101; min_int; max_int; 1 lsl 31 ]

(* A raw code outside the format's range, or a format [Qformat.make]
   refuses, is a malformed file, not a model to wrap into range. *)
let test_model_io_code_range () =
  let model ~fmt ~weights ~threshold =
    Printf.sprintf
      "ldafp-model v1\nformat %s\npolarity 1\nexponents 3 3 2\nweights \
       %s\nthreshold %d\n"
      fmt weights threshold
  in
  let refused text =
    match Model_io.of_string text with
    | exception Model_io.Parse_error _ -> true
    | _ -> false
  in
  let clf = Model_io.of_string (model ~fmt:"Q2.4" ~weights:"-32 31 3" ~threshold:(-32)) in
  checki "weight at max_raw kept" 31
    (Fx.raw (Fx_vector.get clf.Fixed_classifier.w 1));
  checkb "weight above max_raw" true
    (refused (model ~fmt:"Q2.4" ~weights:"-7 92 3" ~threshold:5));
  checkb "weight below min_raw" true
    (refused (model ~fmt:"Q2.4" ~weights:"-33 1 3" ~threshold:5));
  checkb "threshold above max_raw" true
    (refused (model ~fmt:"Q2.4" ~weights:"-7 1 3" ~threshold:32));
  List.iter
    (fun fmt ->
      checkb ("format " ^ fmt) true
        (refused (model ~fmt ~weights:"-7 1 3" ~threshold:5)))
    [ "Q0.4"; "Q2.-1"; "Q40.40"; "Q2.4x" ]

(* Every byte of a model file XORed with every mask 0x01..0xff: each
   result must be refused with [Parse_error] or load as a model whose
   own serialisation loads back to the same text. *)
let test_model_io_byte_flips () =
  let text =
    "ldafp-model v1\nformat Q2.4\npolarity 1\nexponents 3 3 2\nweights -7 \
     12 3\nthreshold 5\n"
  in
  for i = 0 to String.length text - 1 do
    for mask = 1 to 255 do
      let b = Bytes.of_string text in
      Bytes.set b i (Char.chr (Char.code text.[i] lxor mask));
      match Model_io.of_string (Bytes.to_string b) with
      | exception Model_io.Parse_error _ -> ()
      | exception e ->
          Alcotest.failf "offset %d mask 0x%02x: %s" i mask
            (Printexc.to_string e)
      | clf ->
          let s = Model_io.to_string clf in
          if Model_io.to_string (Model_io.of_string s) <> s then
            Alcotest.failf "offset %d mask 0x%02x: no round trip" i mask
    done
  done

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_solver_cost_matches_reported =
  QCheck.Test.make ~name:"reported cost equals cost of returned weights"
    ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let gen off =
        Array.init 12 (fun _ ->
            [|
              off +. (0.4 *. Stats.Sampler.std_normal rng);
              0.3 *. Stats.Sampler.std_normal rng;
            |])
      in
      let scatter = Stats.Scatter.of_data (gen 0.8) (gen (-0.8)) in
      let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:3) scatter in
      match Lda_fp.solve ~config:Lda_fp.quick_config pb with
      | None -> true
      | Some o ->
          Float.abs (o.Lda_fp.cost -. Ldafp_problem.cost pb o.Lda_fp.w)
          < 1e-9
          && Ldafp_problem.feasible pb o.Lda_fp.w)

let prop_seed_feasible =
  QCheck.Test.make ~name:"seed incumbent always feasible" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let gen off =
        Array.init 10 (fun _ ->
            [|
              off +. Stats.Sampler.std_normal rng;
              Stats.Sampler.std_normal rng;
              0.5 *. Stats.Sampler.std_normal rng;
            |])
      in
      let scatter = Stats.Scatter.of_data (gen 1.0) (gen (-1.0)) in
      let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:4) scatter in
      match Ldafp_heuristics.seed_incumbent pb with
      | None -> true
      | Some (w, c) ->
          Ldafp_problem.feasible pb w
          && Float.abs (c -. Ldafp_problem.cost pb w) < 1e-9)

let prop_parallel_solver_matches_sequential =
  (* The multi-domain search must agree with the sequential one: same
     incumbent cost up to the gap tolerance and comparable termination,
     for domains ∈ {1, 2, 4} on random problems. *)
  QCheck.Test.make ~name:"parallel solve matches sequential" ~count:6
    QCheck.(pair (int_range 0 100_000) (int_range 0 2))
    (fun (seed, dpow) ->
      let domains = 1 lsl dpow in
      let rng = Stats.Rng.create seed in
      let gen off =
        Array.init 12 (fun _ ->
            [|
              off +. (0.4 *. Stats.Sampler.std_normal rng);
              0.3 *. Stats.Sampler.std_normal rng;
            |])
      in
      let scatter = Stats.Scatter.of_data (gen 0.8) (gen (-0.8)) in
      match Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:2) scatter with
      | exception Invalid_argument _ -> true
      | pb -> (
          let rel_gap = 1e-6 in
          let config domains =
            {
              Lda_fp.default_config with
              bnb_params =
                {
                  Optim.Bnb.default_params with
                  max_nodes = 20_000;
                  rel_gap;
                  domains;
                };
            }
          in
          let seq = Lda_fp.solve ~config:(config 1) pb in
          let par = Lda_fp.solve ~config:(config domains) pb in
          match (seq, par) with
          | None, None -> true
          | Some s, Some p ->
              let ok_stop o =
                match o.Lda_fp.diagnostics.Lda_fp.stop_reason with
                | Optim.Bnb.Proved_optimal | Optim.Bnb.Gap_reached -> true
                | _ -> false
              in
              ok_stop s && ok_stop p
              && p.Lda_fp.diagnostics.Lda_fp.search.Optim.Bnb.domains_used
                 = domains
              && Float.abs (s.Lda_fp.cost -. p.Lda_fp.cost)
                 <= 2.0 *. rel_gap *. (1.0 +. Float.abs s.Lda_fp.cost)
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Table-1 synthetic searches                                          *)
(* ------------------------------------------------------------------ *)

let solve_exn config pb =
  match Lda_fp.solve ~config pb with
  | Some o -> o
  | None -> Alcotest.fail "no feasible solution"

(* The 150-node Q2.4 search on one domain: warm starts must actually
   hit, and neither warm starting nor certification may change what the
   search concludes.  Warm and cold runs share the incumbent and the
   certified gap bit for bit; pruning on certificates lands on the same
   incumbent as trusting the primal objective (gaps differ by the dual
   slack, so only the incumbent is compared). *)
let test_quick_search_warm_and_certified () =
  let pb = synthetic_problem ~n_per_class:300 ~f:4 in
  let config ~warm_start ~certify =
    {
      Lda_fp.default_config with
      bnb_params =
        { Optim.Bnb.default_params with max_nodes = 150; rel_gap = 1e-6 };
      warm_start;
      certify;
    }
  in
  let warm = solve_exn (config ~warm_start:true ~certify:true) pb in
  let cold = solve_exn (config ~warm_start:false ~certify:true) pb in
  let trusting = solve_exn (config ~warm_start:true ~certify:false) pb in
  let s = warm.Lda_fp.diagnostics.Lda_fp.search in
  let hits = s.Optim.Bnb.warm_start_hits in
  let misses =
    s.Optim.Bnb.warm_miss_no_parent + s.Optim.Bnb.warm_miss_not_interior
    + s.Optim.Bnb.warm_miss_fault_cleared
  in
  checkb "warm hit rate >= 0.5" true
    (float_of_int hits /. float_of_int (max 1 (hits + misses)) >= 0.5);
  checkb "warm and cold: same incumbent" true
    (warm.Lda_fp.cost = cold.Lda_fp.cost);
  checkb "warm and cold: same certified gap" true
    (warm.Lda_fp.diagnostics.Lda_fp.gap = cold.Lda_fp.diagnostics.Lda_fp.gap);
  checkb "certified and trusting: same incumbent" true
    (warm.Lda_fp.cost = trusting.Lda_fp.cost);
  checkb "certified sound" true s.Optim.Bnb.certified_sound;
  checkb "certificates verified" true (s.Optim.Bnb.cert_verified >= 1);
  checki "no certificate fallbacks" 0 s.Optim.Bnb.cert_fallbacks

(* An exact run-to-drain search of more than 10^4 nodes (Q2.5, 200 per
   class) at 1, 2 and 4 domains.  However the workers interleave on the
   shared frontier, every domain count proves the same optimum with a
   zero certified gap, bit for bit, fully certified, and every worker
   records its first expansion. *)
let test_exact_search_domain_invariant () =
  let pb = synthetic_problem ~n_per_class:200 ~f:5 in
  let solve domains =
    let config =
      {
        Lda_fp.default_config with
        bnb_params =
          {
            Optim.Bnb.default_params with
            max_nodes = 5_000_000 (* runaway stop only *);
            rel_gap = 0.0;
            abs_gap = 0.0;
            domains;
          };
      }
    in
    solve_exn config pb
  in
  let seq = solve 1 in
  checkb ">= 10^4 nodes on one domain" true
    (seq.Lda_fp.diagnostics.Lda_fp.nodes >= 10_000);
  (* Pinned: a rewrite of the solver arithmetic that claims
     bit-identity must leave this search where it is. *)
  checki "pinned node count" 11_641 seq.Lda_fp.diagnostics.Lda_fp.nodes;
  Alcotest.(check string)
    "pinned cost bits" "3fe1254547599450"
    (Printf.sprintf "%Lx" (Int64.bits_of_float seq.Lda_fp.cost));
  List.iter
    (fun domains ->
      let o = if domains = 1 then seq else solve domains in
      let d = o.Lda_fp.diagnostics in
      let s = d.Lda_fp.search in
      let tag what = Printf.sprintf "domains=%d: %s" domains what in
      checkb (tag "same cost bits") true
        (Int64.bits_of_float o.Lda_fp.cost
        = Int64.bits_of_float seq.Lda_fp.cost);
      checkb (tag "zero certified gap") true (d.Lda_fp.gap = 0.0);
      checkb (tag "certified sound") true s.Optim.Bnb.certified_sound;
      checki (tag "no certificate fallbacks") 0 s.Optim.Bnb.cert_fallbacks;
      checki (tag "first-node time per worker") domains
        (Array.length s.Optim.Bnb.domain_first_node_seconds))
    [ 1; 2; 4 ]

(* Table-2 ECoG at WL 6 on a 2-node budget per fold, d = 1: the
   [ecog_cv] benchmark instance (Ecog_sim seed 7, folds seed 1007).
   Fold costs pinned like the synthetic search above, on the 42-dim
   relaxations.  A search can absorb a last-bit change in the oracle;
   test_optim's bitwise oracle test guards those bits. *)
let test_ecog_fold_costs_pinned () =
  let base = Datasets.Ecog_sim.generate (Stats.Rng.create 7) in
  let folds =
    Datasets.Dataset.stratified_folds (Stats.Rng.create 1007) ~k:5 base
  in
  let fmt = Format_policy.default 6 in
  let config =
    {
      Lda_fp.default_config with
      bnb_params =
        { Optim.Bnb.default_params with max_nodes = 2; rel_gap = 1e-3 };
    }
  in
  let bits =
    Array.map
      (fun (train, _) ->
        let pb =
          Ldafp_problem.build ~fmt (Pipeline.prepare ~fmt train).Pipeline.scatter
        in
        Printf.sprintf "%Lx" (Int64.bits_of_float (solve_exn config pb).Lda_fp.cost))
      folds
  in
  (* Fold 2 (3fb73af3a75045c8) is the incumbent that per-node H2 polish
     finds: without the polish the search ends at 3fb77658e0c9db73. *)
  Alcotest.(check (array string))
    "fold cost bits"
    [|
      "3fb624a8135c1f9d"; "3fb73af3a75045c8"; "3fb9672547d2fca1";
      "3fb6fdde56cf47a2"; "3fb452e0463e87ec";
    |]
    bits

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_solver_cost_matches_reported;
      prop_seed_feasible;
      prop_parallel_solver_matches_sequential;
      prop_warm_cold_same_search;
    ]

let () =
  Alcotest.run "lda"
    [
      ( "scaling",
        [
          Alcotest.test_case "fit bounds" `Quick test_scaling_fit_bounds;
          Alcotest.test_case "target bound" `Quick test_scaling_target_bound;
          Alcotest.test_case "roundtrip" `Quick test_scaling_roundtrip;
          Alcotest.test_case "weight equivalence" `Quick
            test_scaling_weight_equivalence;
        ] );
      ( "lda",
        [
          Alcotest.test_case "analytic 2d" `Quick test_lda_analytic_2d;
          Alcotest.test_case "normal equations (eq 11)" `Quick
            test_lda_solves_normal_equations;
          Alcotest.test_case "fisher optimality (eq 10)" `Quick
            test_lda_optimality_of_fisher_cost;
          Alcotest.test_case "threshold midpoint (eq 12)" `Quick
            test_lda_threshold_midpoint;
        ] );
      ( "problem",
        [
          Alcotest.test_case "beta (eq 16)" `Quick test_problem_beta;
          Alcotest.test_case "element box contains zero" `Quick
            test_problem_elem_box_contains_zero;
          Alcotest.test_case "element box vs brute force (eq 18)" `Quick
            test_problem_elem_box_matches_bruteforce;
          Alcotest.test_case "fingerprint hashes the inputs" `Quick
            test_problem_fingerprint;
          Alcotest.test_case "cost (eq 21)" `Quick test_problem_cost;
          Alcotest.test_case "grid membership (eq 13)" `Quick
            test_problem_on_grid;
          Alcotest.test_case "violation signs (eq 18/20)" `Quick
            test_problem_constraint_violation_signs;
          Alcotest.test_case "trange of box (eq 29)" `Quick
            test_problem_trange_of_box;
          Alcotest.test_case "relaxation lower-bounds grid (eq 25)" `Quick
            test_relaxation_lower_bounds_feasible_points;
          Alcotest.test_case "secant certificate sound" `Quick
            test_secant_relaxation_soundness;
          Alcotest.test_case "relative margins scale-invariant" `Quick
            test_relative_margins_scale_invariant;
          Alcotest.test_case "warm prepare repairs the branch cut" `Quick
            test_warm_prepare_repairs_branch_cut;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "round into boxes" `Quick test_round_into_boxes;
          Alcotest.test_case "evaluate rejects" `Quick
            test_evaluate_rejects_infeasible;
          Alcotest.test_case "sweep feasible" `Quick test_sweep_finds_feasible;
          Alcotest.test_case "polish monotone" `Quick test_polish_never_worsens;
        ] );
      ( "solver",
        [
          Alcotest.test_case "matches brute force (global optimum)" `Slow
            test_solver_matches_bruteforce;
          Alcotest.test_case "no-seed still optimal" `Slow
            test_solver_without_seed_still_works;
          Alcotest.test_case "diagnostics" `Quick test_solver_diagnostics;
          Alcotest.test_case "node budget" `Quick
            test_solver_respects_node_budget;
          Alcotest.test_case "H3 symmetry" `Slow
            test_problem_without_t_restriction;
          Alcotest.test_case "time budget" `Quick test_solver_time_budget;
          Alcotest.test_case "warm matches cold" `Quick
            test_solver_warm_matches_cold;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "predict rule" `Quick test_classifier_predict_rule;
          Alcotest.test_case "polarity" `Quick test_classifier_polarity;
          Alcotest.test_case "input saturation" `Quick
            test_classifier_input_saturation;
          Alcotest.test_case "threshold equality" `Quick
            test_classifier_threshold_equality;
          Alcotest.test_case "matches datapath" `Quick
            test_classifier_matches_datapath;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "conventional easy data" `Quick
            test_pipeline_conventional_on_easy_data;
          Alcotest.test_case "ldafp easy data" `Quick
            test_pipeline_ldafp_on_easy_data;
          Alcotest.test_case "ldafp beats lda at 4 bits" `Slow
            test_pipeline_ldafp_beats_lda_on_synthetic;
          Alcotest.test_case "quantize dataset" `Quick
            test_quantize_dataset_on_grid;
          Alcotest.test_case "kfold counts" `Quick test_eval_kfold_counts;
          Alcotest.test_case "kfold failure" `Quick
            test_eval_kfold_propagates_failure;
        ] );
      ( "model_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_model_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick
            test_model_io_file_roundtrip;
          Alcotest.test_case "errors" `Quick test_model_io_errors;
          Alcotest.test_case "exponent range" `Quick
            test_model_io_exponent_range;
          Alcotest.test_case "code range" `Quick test_model_io_code_range;
          Alcotest.test_case "every byte flip" `Quick
            test_model_io_byte_flips;
        ] );
      ( "table-1",
        [
          Alcotest.test_case "warm and certified searches agree" `Quick
            test_quick_search_warm_and_certified;
          Alcotest.test_case "exact search agrees across domains" `Quick
            test_exact_search_domain_invariant;
        ] );
      ( "table-2",
        [
          Alcotest.test_case "ECoG WL-6 fold costs pinned" `Quick
            test_ecog_fold_costs_pinned;
        ] );
      ("properties", qcheck_tests);
    ]
