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

(* All feasible grid points with finite cost, by brute force over the
   whole grid (m <= 3 features). *)
let enumerate_feasible pb fmt =
  let values = Qformat.values fmt in
  let m = Ldafp_problem.dim pb in
  let acc = ref [] in
  let rec go j w =
    if j = m then begin
      if Ldafp_problem.feasible pb w then begin
        let c = Ldafp_problem.cost pb w in
        if Float.is_finite c then acc := (Array.copy w, c) :: !acc
      end
    end
    else
      Array.iter
        (fun v ->
          w.(j) <- v;
          go (j + 1) w)
        values
  in
  go 0 (Array.make m 0.0);
  !acc

(* The brute-force optimum over the grid points with t = dᵀw >= 0, the
   half the search explores (H3), and over all of them; [infinity] when
   no point has a finite cost. *)
let bruteforce_optima pb fmt =
  List.fold_left
    (fun (pos, all) (w, c) ->
      ( (if Ldafp_problem.t_of pb w >= 0.0 then Float.min pos c else pos),
        Float.min all c ))
    (Float.infinity, Float.infinity)
    (enumerate_feasible pb fmt)

(* The program of a box, solved the way the trainer solves a cold node:
   phase-I from the center point, then the barrier.  With every cone of
   eq. 20 unless [cones] masks some out. *)
let solve_relaxation ?(cones = Ldafp_problem.all_cones) pb ~wbox ~z_cap =
  match Ldafp_problem.relaxation pb ~wbox ~z_cap ~cones with
  | None -> Alcotest.fail "relaxation empty"
  | Some r -> (
      let socp = r.Ldafp_problem.socp in
      let start =
        Ldafp_problem.project r (Ldafp_problem.center_point pb ~wbox ~z_cap)
      in
      match Optim.Socp.find_strictly_feasible socp ~start with
      | Optim.Socp.Strictly_feasible x0 ->
          (r, Optim.Socp.solve ~params:Lda_fp.default_config.Lda_fp.socp_params
                socp ~start:x0)
      | Optim.Socp.Infeasible _ | Optim.Socp.Unknown _ ->
          Alcotest.fail "relaxation has no strictly feasible point")

(* The certified bound of a solved node program, as a cost bound. *)
let certified_bound pb (r, sol) =
  match
    Optim.Socp.certify_lower_bound
      ?psd_block:(Ldafp_problem.psd_block pb r)
      r.Ldafp_problem.socp sol
  with
  | Ok c -> Ldafp_problem.cost_bound r c.Optim.Socp.dual_value
  | Error f -> Alcotest.fail (Optim.Socp.describe_cert_failure f)

let test_relaxation_lower_bounds_feasible_points () =
  (* The certified bound of the root program must lower-bound every
     feasible grid point's cost on the t > 0 side (the soundness
     property Algorithm 1 relies on), with the z cap of the optimum and
     a looser one. *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let feas = enumerate_feasible pb fmt in
  let pos = List.filter (fun (w, _) -> Ldafp_problem.t_of pb w > 0.0) feas in
  checkb "nonempty" true (pos <> []);
  let best = List.fold_left (fun a (_, c) -> Float.min a c) Float.infinity pos in
  List.iter
    (fun z_cap ->
      let lower =
        certified_bound pb
          (solve_relaxation pb ~wbox:pb.Ldafp_problem.elem_box ~z_cap)
      in
      List.iter
        (fun (w, c) ->
          checkb
            (Format.asprintf "lower bound %.6g <= cost %.6g at %a" lower c
               Linalg.Vec.pp w)
            true (lower <= c))
        pos;
      checkb "bound within 1% of the optimum" true (lower >= 0.99 *. best))
    [ Ldafp_problem.z_cap pb ~theta:best;
      Ldafp_problem.z_cap pb ~theta:(100.0 *. best) ]

let test_relative_margins_scale_invariant () =
  (* The root program with every constraint rescaled by 1e6 describes
     the same geometry, so interiority verdicts must not change.
     Absolute margins fail exactly this: a fixed 1e-7 absolute
     clearance is generous at scale 1 and lost in roundoff at scale
     1e6. *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let wbox = pb.Ldafp_problem.elem_box in
  let z_cap =
    Ldafp_problem.z_cap pb
      ~theta:(snd (Option.get (Ldafp_heuristics.seed_incumbent pb)))
  in
  let r =
    Option.get (Ldafp_problem.relaxation pb ~wbox ~z_cap ~cones:Ldafp_problem.all_cones)
  in
  let relax = r.Ldafp_problem.socp in
  let s = 1e6 in
  let scaled =
    Optim.Socp.of_parts ~p:relax.Optim.Socp.p ~q:relax.Optim.Socp.q
      ~lins:
        (Array.map
           (fun { Optim.Socp.a; b } ->
             { Optim.Socp.a = Linalg.Vec.scale s a; b = s *. b })
           relax.Optim.Socp.lins)
      ~socs:
        (Array.map
           (fun { Optim.Socp.l; g; c; d } ->
             {
               Optim.Socp.l = Linalg.Mat.scale s l;
               g = Linalg.Vec.scale s g;
               c = Linalg.Vec.scale s c;
               d = s *. d;
             })
           relax.Optim.Socp.socs)
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
  let center =
    Ldafp_problem.project r
      (Ldafp_problem.center_point pb ~wbox ~z_cap)
  in
  agree "center point" center;
  (* The center scaled to a power-of-two z (the program is homogeneous,
     and the scale keeps dᵀy >= κ), then moved onto the box face
     y_0 = hi_0·z: products with a power of two are exact, so the
     face's slack is exactly zero at any scale. *)
  let n = relax.Optim.Socp.n in
  let z = ldexp 1.0 (snd (Float.frexp center.(n - 1)) - 1) in
  let scaled_center = Array.map (fun x -> x *. z /. center.(n - 1)) center in
  let face = Array.copy scaled_center in
  face.(n - 1) <- z;
  face.(0) <- Fx_interval.hi wbox.(0) *. z;
  agree "box face" face;
  (* A point a small relative depth inside the same face. *)
  let near = Array.copy face in
  near.(0) <-
    (Fx_interval.hi wbox.(0) -. (1e-4 *. Fx_interval.width wbox.(0))) *. z;
  agree "near the face" near

let test_warm_prepare_repairs_branch_cut () =
  (* The search's hot case, in miniature: split a coordinate at the
     parent optimum's own w_j.  Clipped into the child on the far side,
     the inherited point lands on the child's branch-cut half-space —
     not strictly interior — and [prepare_warm_start] must repair it
     (pull-in toward the center point) rather than go cold.  The warm solve from the
     repaired point must then reach the cold solve's objective within
     the sum of their certified gap bounds. *)
  let check name pb =
    let wbox = pb.Ldafp_problem.elem_box in
    let z_cap =
      Ldafp_problem.z_cap pb
        ~theta:(snd (Option.get (Ldafp_heuristics.seed_incumbent pb)))
    in
    let r, root = solve_relaxation pb ~wbox ~z_cap in
    let yz = Ldafp_problem.embed r root.Optim.Socp.x in
    let w = Ldafp_problem.weights_of yz in
    let j = 0 in
    let lo, hi = Option.get (Fx_interval.split ~at:w.(j) wbox.(j)) in
    (* the child on the far side of w_j *)
    let child_box = Array.copy wbox in
    child_box.(j) <- (if w.(j) <= Fx_interval.hi lo then hi else lo);
    let rc, cold = solve_relaxation pb ~wbox:child_box ~z_cap in
    let child = rc.Ldafp_problem.socp in
    let x0 =
      Ldafp_problem.project rc
        (Option.get (Ldafp_problem.clip_into_box pb ~wbox:child_box yz))
    in
    checkb (name ^ ": clipped parent optimum is not interior") false
      (Optim.Socp.is_strictly_interior ~margin:1e-8 child x0);
    let target =
      Ldafp_problem.project rc
        (Ldafp_problem.center_point pb ~wbox:child_box ~z_cap)
    in
    checkb (name ^ ": center-point target is strictly interior") true
      (Optim.Socp.is_strictly_interior child target);
    match Optim.Socp.prepare_warm_start ~target child x0 with
    | None -> Alcotest.failf "%s: branch-cut point must be repairable" name
    | Some (y, prep) ->
        checkb (name ^ ": repaired point certifiably interior") true
          (Optim.Socp.min_relative_slack child y > 0.0);
        checkb (name ^ ": repair actually ran") true
          (prep <> Optim.Socp.Warm_interior);
        let warm =
          Optim.Socp.solve
            ~params:
              (Optim.Socp.warm_start_params Optim.Socp.default_params
                 ~tau_final:root.Optim.Socp.tau_final)
            child ~start:y
        in
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
      let w2, c2 = Ldafp_heuristics.coordinate_polish pb (w, c) in
      checkb "polish monotone" true (c2 <= c +. 1e-15);
      checkb "polished feasible" true (Ldafp_problem.feasible pb w2)

(* Raw class means that differ but quantise identically at Q2.2: the
   LDA direction of the data LDA-FP sees is zero, and the seed is none
   (the float LDA used to raise on normalising it). *)
let test_seed_none_on_zero_direction () =
  let ds =
    Datasets.Dataset.of_class_matrices ~name:"quantised means"
      ~a:[| [| 0.0; 1.0 |]; [| 0.01; 0.0 |]; [| 0.02; 0.5 |] |]
      ~b:[| [| 0.011; 0.5 |]; [| 0.012; 0.6 |]; [| 0.01; 0.4 |] |]
  in
  let fmt = Format_policy.default 4 in
  let scatter = (Pipeline.prepare ~fmt ds).Pipeline.scatter in
  checkb "quantised means equal" true
    (Array.for_all (( = ) 0.0) (Stats.Scatter.mean_difference scatter));
  checkb "no seed" true
    (Ldafp_heuristics.seed_incumbent (Ldafp_problem.build ~fmt scatter) = None)

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
        | Optim.Bnb.Node_budget | Optim.Bnb.Interrupted | Optim.Bnb.Exhausted
          ->
            false)

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

(* Warm starting is a pure acceleration: on the same problem, warm and
   cold searches run to drain must prove the same optimum, and in the
   same tree on the fixed instances.  The two end their solves on
   iterates that differ in the last digits, and the branch rule cuts a
   box at the optimum's w_j rounded to the grid: when w_j sits on a
   rounding boundary the two runs split that box differently, so on some
   random instances the trees differ by a few nodes (at most 6, or 10%,
   over 400 Q2.3 instances). *)
let warm_cold_pair pb =
  let config warm_start =
    {
      Lda_fp.default_config with
      warm_start;
      bnb_params =
        { Optim.Bnb.default_params with
          max_nodes = 1_000_000; rel_gap = 0.0; abs_gap = 0.0 };
    }
  in
  (Lda_fp.solve ~config:(config true) pb, Lda_fp.solve ~config:(config false) pb)

let test_solver_warm_matches_cold () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  match warm_cold_pair pb with
  | Some warm, Some cold ->
      checkb "same optimum bits" true
        (Int64.bits_of_float cold.Lda_fp.cost
        = Int64.bits_of_float warm.Lda_fp.cost);
      checki "same node count" cold.Lda_fp.diagnostics.Lda_fp.nodes
        warm.Lda_fp.diagnostics.Lda_fp.nodes;
      List.iter
        (fun o ->
          checkb "drained" true
            (o.Lda_fp.diagnostics.Lda_fp.stop_reason = Optim.Bnb.Proved_optimal))
        [ warm; cold ];
      let ws = warm.Lda_fp.diagnostics.Lda_fp.search in
      let cs = cold.Lda_fp.diagnostics.Lda_fp.search in
      checkb "warm run hit warm starts" true
        (ws.Optim.Bnb.warm_start_hits > 0);
      checkb "phase-I skips >= warm hits" true
        (ws.Optim.Bnb.phase1_skipped >= ws.Optim.Bnb.warm_start_hits);
      checki "cold run never warm-starts" 0 cs.Optim.Bnb.warm_start_hits;
      checkb "oracle time measured" true (ws.Optim.Bnb.oracle_seconds >= 0.0)
  | _ -> Alcotest.fail "a solve failed"

(* The node program starts warm from the parent optimum.  A bound
   certified wrongly from a warm start would cut the optimum out of the
   tree, so every exact solve here must end on the brute-force
   optimum.  Instances: the first two
   features of the Table-1 synthetic generator at three seeds, WL 4 and
   5, small enough for [enumerate_feasible]. *)
let test_exact_solve_matches_bruteforce_warm_and_cold () =
  List.iter
    (fun seed ->
      let ds =
        Datasets.Synthetic.generate ~n_per_class:100 (Stats.Rng.create seed)
      in
      let a, b = Datasets.Dataset.class_split ds in
      let first_two = Array.map (fun row -> Array.sub row 0 2) in
      let scatter = Stats.Scatter.of_data (first_two a) (first_two b) in
      List.iter
        (fun f ->
          let fmt = Qformat.make ~k:2 ~f in
          let pb = Ldafp_problem.build ~fmt scatter in
          (* The search restricts to t = dᵀw >= 0 (H3). *)
          let best =
            List.fold_left
              (fun acc (w, c) ->
                if Ldafp_problem.t_of pb w >= 0.0 then Float.min acc c else acc)
              Float.infinity (enumerate_feasible pb fmt)
          in
          checkb "instance has a feasible point" true (Float.is_finite best);
          List.iter
            (fun warm_start ->
              let tag =
                Printf.sprintf "seed %d, WL %d, warm %b" seed (2 + f) warm_start
              in
              let config =
                {
                  Lda_fp.default_config with
                  warm_start;
                  (* The H1/H2 seed already hits the optimum of these
                     instances; without it the search must find the
                     optimum itself, past every prune. *)
                  seed_incumbent = false;
                  bnb_params =
                    { Optim.Bnb.default_params with
                      max_nodes = 100_000; rel_gap = 0.0; abs_gap = 0.0 };
                }
              in
              match Lda_fp.solve ~config pb with
              | None -> Alcotest.failf "%s: no solution" tag
              | Some o ->
                  let d = o.Lda_fp.diagnostics in
                  let s = d.Lda_fp.search in
                  checkb (tag ^ ": drained") true
                    (d.Lda_fp.stop_reason = Optim.Bnb.Proved_optimal);
                  Alcotest.(check int64)
                    (tag ^ ": brute-force optimum bits")
                    (Int64.bits_of_float best)
                    (Int64.bits_of_float o.Lda_fp.cost);
                  checkb (tag ^ ": certified_sound") true
                    s.Optim.Bnb.certified_sound;
                  checki (tag ^ ": cert fallbacks") 0
                    s.Optim.Bnb.cert_fallbacks;
                  if warm_start then
                    checkb (tag ^ ": warm starts ran") true
                      (s.Optim.Bnb.warm_start_hits > 0))
            [ true; false ])
        [ 2; 3 ])
    [ 1; 2; 3 ]

(* Run to drain, one domain; [None] when the search finds nothing. *)
let drain ?(seed_incumbent = true) pb =
  Lda_fp.solve
    ~config:
      {
        Lda_fp.default_config with
        seed_incumbent;
        bnb_params =
          { Optim.Bnb.default_params with
            max_nodes = 200_000; rel_gap = 0.0; abs_gap = 0.0 };
      }
    pb

(* An exact search's answer against brute force: the cost bits of the
   optimum among the t >= 0 points, or a better point on the t < 0 side
   (the grid is not symmetric under w ↦ −w, and the seed sweep and the
   polish may land there), which must then be a feasible grid point;
   [None] only when no point has a finite cost. *)
let bruteforce_verdict pb fmt result =
  let best, best_all = bruteforce_optima pb fmt in
  match result with
  | None ->
      if Float.is_finite best then Error (Printf.sprintf "no solution, optimum %h" best)
      else Ok ()
  | Some o ->
      let w = o.Lda_fp.w in
      let other_side =
        o.Lda_fp.cost < best && o.Lda_fp.cost >= best_all
        && Ldafp_problem.t_of pb w < 0.0
        && Ldafp_problem.feasible pb w
        && Ldafp_problem.cost pb w = o.Lda_fp.cost
      in
      if Int64.bits_of_float o.Lda_fp.cost = Int64.bits_of_float best || other_side
      then Ok ()
      else Error (Printf.sprintf "cost %h, brute force %h" o.Lda_fp.cost best)

let check_bruteforce_optimum tag pb fmt result =
  (match bruteforce_verdict pb fmt result with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" tag msg);
  Option.iter
    (fun o ->
      checkb (tag ^ ": certified sound") true
        o.Lda_fp.diagnostics.Lda_fp.search.Optim.Bnb.certified_sound)
    result

(* Before there is an incumbent the node program's z cap comes from the
   cost at the box's center point, which need not meet the cones.  An
   empty program then proves only that no point of the box costs less,
   so the box must be kept at that bound, not dropped.  On this Q2.1
   instance (class means near the top of the range, so the cones bind)
   the box [-0.5, 0] × [-0.5, 0.5]² holds the optimum and its program
   is empty: an unseeded search that drops it finds no classifier. *)
let test_unseeded_search_keeps_capped_boxes () =
  let scatter =
    {
      Stats.Scatter.mu_a = [| 0x1.1774aec6ac069p+1; 0x1.c938f757b0c9ep+0; 0x1.cc4cebd806bedp+0 |];
      mu_b = [| 0x1.dca9401f03ad8p-1; 0x1.7af40c37c4604p+0; 0x1.8369e545ba9e6p+0 |];
      sigma_a =
        [|
          [| 0x1.29aaa75fd8396p-2; 0x1.4162f2804d5p-9; -0x1.1c8afb67a2c84p-4 |];
          [| 0x1.4162f2804d5p-9; 0x1.3934c1045248p-3; 0x1.26b79a845c25cp-4 |];
          [| -0x1.1c8afb67a2c84p-4; 0x1.26b79a845c25cp-4; 0x1.30a8708edb95p-3 |];
        |];
      sigma_b =
        [|
          [| 0x1.f820e6592f732p-3; -0x1.2bceb90b96b0bp-5; 0x1.c01eee897e47bp-7 |];
          [| -0x1.2bceb90b96b0bp-5; 0x1.00c1d0483dceap-2; -0x1.2c86ad14523e5p-5 |];
          [| 0x1.c01eee897e47bp-7; -0x1.2c86ad14523e5p-5; 0x1.6ceb64d77ede2p-3 |];
        |];
      n_a = 16;
      n_b = 16;
    }
  in
  let fmt = Qformat.make ~k:2 ~f:1 in
  let pb = Ldafp_problem.build ~fmt scatter in
  check_bruteforce_optimum "unseeded" pb fmt (drain ~seed_incumbent:false pb)

(* A third feature that is the sum of the first two (data on a 1/8 grid,
   16 trials a class, so S_W is exactly singular and exactly positive
   semidefinite): no λ̲ exists over the distinct coordinates, nothing
   caps z, and every node takes the certified interval bound at once —
   no failed program and no retry on the way to a drain on the
   brute-force optimum. *)
let test_no_verified_lambda_takes_interval_bounds () =
  let rng = Stats.Rng.create 5 in
  let draw off =
    Array.init 16 (fun _ ->
        let x j = Float.round (8.0 *. (off +. (0.1 *. float_of_int j) +. (0.5 *. Stats.Sampler.std_normal rng))) /. 8.0 in
        let a = x 0 and b = x 1 in
        [| a; b; a +. b |])
  in
  let scatter = Stats.Scatter.of_data (draw 0.6) (draw (-0.6)) in
  let fmt = Qformat.make ~k:2 ~f:2 in
  let pb = Ldafp_problem.build ~fmt scatter in
  checkb "no verified λ̲" true (pb.Ldafp_problem.lambda_grid = 0.0);
  List.iter
    (fun seed_incumbent ->
      let tag = if seed_incumbent then "seeded" else "unseeded" in
      let o = drain ~seed_incumbent pb in
      check_bruteforce_optimum tag pb fmt o;
      Option.iter
        (fun o ->
          let s = o.Lda_fp.diagnostics.Lda_fp.search in
          checki (tag ^ ": no oracle failures") 0 s.Optim.Bnb.oracle_failures;
          checki (tag ^ ": no retries") 0 s.Optim.Bnb.retries)
        o)
    [ true; false ]

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
          match warm_cold_pair pb with
          | None, None -> true
          | Some warm, Some cold ->
              let nw = warm.Lda_fp.diagnostics.Lda_fp.nodes
              and nc = cold.Lda_fp.diagnostics.Lda_fp.nodes in
              (Int64.bits_of_float warm.Lda_fp.cost
               = Int64.bits_of_float cold.Lda_fp.cost
              || QCheck.Test.fail_reportf "warm cost %h, cold %h" warm.Lda_fp.cost
                   cold.Lda_fp.cost)
              && (abs (nw - nc) <= 2 + (max nw nc / 8)
                 || QCheck.Test.fail_reportf "warm %d nodes, cold %d" nw nc)
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

(* The Q2.4 search on one domain, run to drain: warm starts must
   actually hit, and warm starting may not change what the certified
   search concludes.  Warm and cold runs prove the same optimum, bit for
   bit, with a zero gap, and grow the same tree.  Features 2 and 3 of this
   instance quantise identically, so S_W is singular: the curvature
   charge is off and the z cap comes from the distinct coordinates. *)
let test_quick_search_warm_and_certified () =
  let pb = synthetic_problem ~n_per_class:300 ~f:4 in
  let config warm_start =
    {
      Lda_fp.default_config with
      bnb_params =
        { Optim.Bnb.default_params with
          max_nodes = 1_000_000; rel_gap = 0.0; abs_gap = 0.0 };
      warm_start;
    }
  in
  let warm = solve_exn (config true) pb in
  let cold = solve_exn (config false) pb in
  let s = warm.Lda_fp.diagnostics.Lda_fp.search in
  let hits = s.Optim.Bnb.warm_start_hits in
  let misses =
    s.Optim.Bnb.warm_miss_no_parent + s.Optim.Bnb.warm_miss_not_interior
    + s.Optim.Bnb.warm_miss_fault_cleared
  in
  checkb "S_W singular" true (pb.Ldafp_problem.lambda_min = 0.0);
  checkb "z capped" true (pb.Ldafp_problem.lambda_grid > 0.0);
  checkb "warm hit rate >= 0.5" true
    (float_of_int hits /. float_of_int (max 1 (hits + misses)) >= 0.5);
  let bits o = Int64.bits_of_float o.Lda_fp.cost in
  checkb "warm and cold: same optimum" true (bits warm = bits cold);
  checki "warm and cold: same node count" cold.Lda_fp.diagnostics.Lda_fp.nodes
    warm.Lda_fp.diagnostics.Lda_fp.nodes;
  List.iter
    (fun o -> checkb "zero gap" true (o.Lda_fp.diagnostics.Lda_fp.gap = 0.0))
    [ warm; cold ];
  checkb "certified sound" true s.Optim.Bnb.certified_sound;
  checkb "certificates verified" true (s.Optim.Bnb.cert_verified >= 1);
  checki "no certificate fallbacks" 0 s.Optim.Bnb.cert_fallbacks

let exact_search ~domains pb =
  solve_exn
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
    pb

(* Pinned exact searches on one domain: a rewrite of the solver
   arithmetic that claims bit-identity must leave them where they
   are. *)
let check_pinned tag o ~nodes ~bits =
  checki (tag ^ ": pinned node count") nodes o.Lda_fp.diagnostics.Lda_fp.nodes;
  Alcotest.(check string)
    (tag ^ ": pinned cost bits") bits
    (Printf.sprintf "%Lx" (Int64.bits_of_float o.Lda_fp.cost))

(* An exact run-to-drain search of more than 10^4 nodes (Q2.10, 1000 per
   class) at 1, 2 and 4 domains.  However the workers interleave on the
   shared frontier, every domain count proves the same optimum with a
   zero certified gap, bit for bit, fully certified, and every worker
   records its first expansion.  The Q2.5, 200-per-class search is
   pinned too. *)
let test_exact_search_domain_invariant () =
  check_pinned "Q2.5, 200 per class"
    (exact_search ~domains:1 (synthetic_problem ~n_per_class:200 ~f:5))
    ~nodes:286 ~bits:"3fe1254547599450";
  let pb = synthetic_problem ~n_per_class:1000 ~f:10 in
  let seq = exact_search ~domains:1 pb in
  checkb ">= 10^4 nodes on one domain" true
    (seq.Lda_fp.diagnostics.Lda_fp.nodes >= 10_000);
  check_pinned "Q2.10, 1000 per class" seq ~nodes:15_539 ~bits:"3fe325be928d116b";
  List.iter
    (fun domains ->
      let o = if domains = 1 then seq else exact_search ~domains pb in
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
  Alcotest.(check (array string))
    "fold cost bits"
    [|
      "3fb624a8135c1f9d"; "3fb739298792f391"; "3fb95a2ef3248ee8";
      "3fb6f6712e7a4225"; "3fb452e0463e87ec";
    |]
    bits

(* Small random problems run to drain against brute force: m <= 3
   features, WL <= 4 (Q2.1 and Q2.2), with the shapes that stress a
   bound: a feature copied exactly (S_W singular, the curvature charge
   off), one that is the sum of two others (S_W singular with no z cap:
   every node takes the interval bound), class means a hair apart, means
   so large that the projection cones (20) bind inside the box (the
   center point of a box may violate them), and a range so wide that
   every weight rounds to 0 (no feasible classifier).  [None] when the
   format leaves no feasible box. *)
let arb_small_problem =
  let shape =
    QCheck.Gen.oneofl [ `Plain; `Collinear; `Sum; `Close_means; `Tight; `Wide ]
  in
  QCheck.make
    ~print:(fun (seed, m, f, sh) ->
      Printf.sprintf "seed %d, m %d, Q2.%d, %s" seed m f
        (match sh with
        | `Plain -> "plain"
        | `Collinear -> "collinear"
        | `Sum -> "sum"
        | `Close_means -> "close means"
        | `Tight -> "tight"
        | `Wide -> "wide"))
    QCheck.Gen.(quad (int_range 0 1_000_000) (int_range 1 3) (int_range 1 2) shape)

let small_problem (seed, m, f, sh) =
  let rng = Stats.Rng.create seed in
  let gap = match sh with `Close_means -> 1e-7 | _ -> 0.6 in
  let spread = match sh with `Wide -> 1e6 | _ -> 0.5 in
  let common = match sh with `Tight -> 1.5 | _ -> 0.0 in
  (* The sum shape draws multiples of 1/8, 16 trials a class: every
     step of the scatter is then exact, so S_W is singular but exactly
     positive semidefinite.  Rounded, a sum of features leaves S_W
     indefinite by an ulp, and grid points near its null space have
     costs of -2^49. *)
  let draw off =
    Array.init 16 (fun _ ->
        let row =
          Array.init m (fun j ->
              let x =
                common
                +. (if j = 0 then off else 0.1 *. float_of_int j)
                +. (spread *. Stats.Sampler.std_normal rng)
              in
              if sh = `Sum then Float.round (8.0 *. x) /. 8.0 else x)
        in
        if sh = `Collinear && m >= 2 then row.(m - 1) <- row.(0);
        if sh = `Sum && m = 3 then row.(2) <- row.(0) +. row.(1);
        row)
  in
  let scatter = Stats.Scatter.of_data (draw gap) (draw (-.gap)) in
  let fmt = Qformat.make ~k:2 ~f in
  match Ldafp_problem.build ~fmt scatter with
  | exception Ldafp_problem.No_feasible_box _ -> None
  | pb -> Some (pb, fmt)

let exact_config ?(max_nodes = 200_000) ?(domains = 1) seed_incumbent =
  {
    Lda_fp.default_config with
    seed_incumbent;
    bnb_params =
      { Optim.Bnb.default_params with
        max_nodes; rel_gap = 0.0; abs_gap = 0.0; domains };
  }

(* An exact search's end against brute force ([bruteforce_verdict]): a
   proved optimum (a zero certified gap proves it as a drain does),
   fully certified, nothing dropped. *)
let check_exact_end tag pb fmt result =
  match (bruteforce_verdict pb fmt result, result) with
  | Error msg, _ -> QCheck.Test.fail_reportf "%s: %s" tag msg
  | Ok (), None -> true
  | Ok (), Some o ->
      let d = o.Lda_fp.diagnostics in
      let s = d.Lda_fp.search in
      ((d.Lda_fp.stop_reason = Optim.Bnb.Proved_optimal
       || (d.Lda_fp.stop_reason = Optim.Bnb.Gap_reached && d.Lda_fp.gap = 0.0))
      && s.Optim.Bnb.certified_sound
      && s.Optim.Bnb.dropped_regions = 0)
      || QCheck.Test.fail_reportf "%s: stop %s, certified_sound %b, %d dropped"
           tag
           (Optim.Bnb.stop_reason_name d.Lda_fp.stop_reason)
           s.Optim.Bnb.certified_sound s.Optim.Bnb.dropped_regions

(* Every exact search, seeded and unseeded (the node program's z cap
   then comes from the center point's cost, not an incumbent), on one
   domain and on two, agrees with brute force. *)
let prop_exact_search_matches_bruteforce =
  QCheck.Test.make ~name:"exact search matches brute force on small problems"
    ~count:40 arb_small_problem (fun instance ->
      match small_problem instance with
      | None -> true
      | Some (pb, fmt) ->
          List.for_all
            (fun (seed_incumbent, domains) ->
              let tag =
                Printf.sprintf "domains %d, %s" domains
                  (if seed_incumbent then "seeded" else "unseeded")
              in
              check_exact_end tag pb fmt
                (Lda_fp.solve ~config:(exact_config ~domains seed_incumbent) pb))
            [ (true, 1); (true, 2); (false, 1); (false, 2) ])

(* The same instances with every first bound call failing, by an
   exception or by a NaN bound (branch calls stay clean), straight and
   through one kill/resume (a node budget of 2, then a drain).  Each
   failure is retried once, jittered and clean, so every search still
   ends on the brute-force optimum, sound and with nothing dropped; and
   the search counts exactly the failures the wrapper injected, summed
   over the chain's runs. *)
let prop_faulty_exact_search_matches_bruteforce =
  QCheck.Test.make
    ~name:"exact search under bound faults and kill/resume matches brute force"
    ~count:40
    (QCheck.pair arb_small_problem QCheck.bool)
    (fun (instance, nan) ->
      match small_problem instance with
      | None -> true
      | Some (pb, fmt) ->
          let inject =
            if nan then Fault_inject.config ~seed:1 ~bound_nan_prob:1.0 ()
            else Fault_inject.config ~seed:1 ~bound_exn_prob:1.0 ()
          in
          let path = Filename.temp_file "ldafp-test-brute" ".ck" in
          Sys.remove path;
          (* The result and the wrapper's injected count of one run. *)
          let solve ?checkpoint max_nodes =
            let injected = ref (fun () -> 0) in
            let o =
              Lda_fp.solve
                ~config:{ (exact_config ~max_nodes true) with checkpoint }
                ~wrap_oracle:(fun o ->
                  let o, count = Fault_inject.wrap inject o in
                  injected := count;
                  o)
                pb
            in
            (o, !injected ())
          in
          let counted tag (result, injected) =
            match result with
            | None -> true
            | Some o ->
                let s = o.Lda_fp.diagnostics.Lda_fp.search in
                s.Optim.Bnb.oracle_failures = injected
                || QCheck.Test.fail_reportf "%s: %d failures, %d injected" tag
                     s.Optim.Bnb.oracle_failures injected
          in
          let straight = solve 200_000 in
          let resumed =
            Fun.protect
              ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
              (fun () ->
                let checkpoint = Lda_fp.checkpoint_spec ~resume:true path in
                let _, first = solve ~checkpoint 2 in
                (* A first run that finished left no snapshot, and the
                   second then starts afresh: only a saved one chains. *)
                let first = if Sys.file_exists path then first else 0 in
                let o, second = solve ~checkpoint 200_000 in
                (o, first + second))
          in
          check_exact_end "faulted" pb fmt (fst straight)
          && counted "faulted" straight
          && check_exact_end "faulted, resumed" pb fmt (fst resumed)
          && counted "faulted, resumed" resumed)

(* ------------------------------------------------------------------ *)
(* The exact linear-fractional relaxation                              *)
(* ------------------------------------------------------------------ *)

(* The Table-1 quick problem (seed 42, 1000 per class) at word length
   [wl], and ECoG fold [k] (Ecog_sim seed 7, folds seed 1007) or, with
   [k] negative, all 140 trials, at [wl], both in the default format. *)
let table1_problem wl =
  let fmt = Format_policy.default wl in
  let ds = Datasets.Synthetic.generate ~n_per_class:1000 (Stats.Rng.create 42) in
  Ldafp_problem.build ~fmt (Pipeline.prepare ~fmt ds).Pipeline.scatter

let ecog_problem ~fold wl =
  let fmt = Format_policy.default wl in
  let base = Datasets.Ecog_sim.generate (Stats.Rng.create 7) in
  let train =
    if fold < 0 then base
    else fst (Datasets.Dataset.stratified_folds (Stats.Rng.create 1007) ~k:5 base).(fold)
  in
  Ldafp_problem.build ~fmt (Pipeline.prepare ~fmt train).Pipeline.scatter

(* ------------------------------------------------------------------ *)
(* H1 and H2 against the versions that evaluated every trial          *)
(* ------------------------------------------------------------------ *)

(* The ±1-ulp coordinate polish as it was before the O(1) screen: every
   trial in the element interval goes through [evaluate]. *)
let reference_polish ?(max_rounds = 6) (pb : Ldafp_problem.t) (start, cost) =
  let ulp = Qformat.ulp pb.Ldafp_problem.fmt in
  let w = Linalg.Vec.copy start in
  let cost = ref cost in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for j = 0 to Linalg.Vec.dim w - 1 do
      let original = w.(j) in
      let try_move delta =
        let cand = original +. delta in
        if Fx_interval.mem (Ldafp_problem.elem_interval pb j) cand then begin
          w.(j) <- cand;
          match Ldafp_heuristics.evaluate pb w with
          | Some (_, c) when c < !cost -. 1e-15 ->
              cost := c;
              improved := true
          | _ -> w.(j) <- original
        end
      in
      try_move ulp;
      if w.(j) = original then try_move (-.ulp)
    done
  done;
  (w, !cost)

(* The H1 sweep as it was before it skipped steps: every rounded point
   through [evaluate]. *)
let reference_sweep ~steps (pb : Ldafp_problem.t) direction =
  let n = Linalg.Vec.norm_inf direction in
  if n = 0.0 then None
  else begin
    let dir = Linalg.Vec.scale (1.0 /. n) direction in
    let fmt = pb.Ldafp_problem.fmt in
    let lo = Qformat.ulp fmt in
    let hi = Qformat.max_value fmt in
    let ratio = (hi /. lo) ** (1.0 /. float_of_int (max 1 (steps - 1))) in
    let best = ref None in
    let lambda = ref lo in
    for _ = 1 to steps do
      let w = Ldafp_heuristics.round_into pb (Linalg.Vec.scale !lambda dir) in
      best := Ldafp_heuristics.better !best (Ldafp_heuristics.evaluate pb w);
      lambda := !lambda *. ratio
    done;
    !best
  end

let bits = Int64.bits_of_float

let same_point (w1, c1) (w2, c2) =
  bits c1 = bits c2 && Array.for_all2 (fun a b -> bits a = bits b) w1 w2

(* The screened polish and the reference from one evaluated start: the
   same weights and cost, bit for bit.  The screened polish moves its
   start in place, so it gets a copy. *)
let polish_matches tag pb ~max_rounds (w, cost) =
  let got = Ldafp_heuristics.coordinate_polish ~max_rounds pb (Linalg.Vec.copy w, cost)
  and want = reference_polish ~max_rounds pb (w, cost) in
  same_point got want
  || QCheck.Test.fail_reportf "%s, %d rounds: cost %h, reference %h" tag
       max_rounds (snd got) (snd want)

(* The sweep along a direction and the reference: the same best point,
   bit for bit, or none from both. *)
let sweep_matches tag pb ~steps dir =
  match (Ldafp_heuristics.scaled_rounding_sweep ~steps pb dir, reference_sweep ~steps pb dir) with
  | None, None -> true
  | Some got, Some want when same_point got want -> true
  | got, want ->
      let cost = function Some (_, c) -> Printf.sprintf "%h" c | None -> "none" in
      QCheck.Test.fail_reportf "%s, %d steps: sweep %s, reference %s" tag steps
        (cost got) (cost want)

(* A direction near the float-LDA one: its weights times log-normal
   noise, some signs flipped. *)
let random_direction pb rng =
  Array.map
    (fun x ->
      let x = x *. exp (0.7 *. Stats.Sampler.std_normal rng) in
      if Stats.Rng.int rng 8 = 0 then -.x else x)
    (Lda.weights (Lda.train_scatter pb.Ldafp_problem.scatter))

(* A feasible start along a random direction, at a random scale,
   rounded into the element boxes and halved until exactly feasible. *)
let random_start pb rng =
  let dir = random_direction pb rng in
  let dir = Linalg.Vec.scale (1.0 /. Linalg.Vec.norm_inf dir) dir in
  let rec go lambda k =
    if k = 0 then None
    else
      match
        Ldafp_heuristics.evaluate pb
          (Ldafp_heuristics.round_into pb (Linalg.Vec.scale lambda dir))
      with
      | Some _ as start -> start
      | None -> go (lambda /. 2.0) (k - 1)
  in
  go (Qformat.max_value pb.Ldafp_problem.fmt *. (2.0 ** -.Stats.Rng.uniform rng ~lo:0.0 ~hi:6.0)) 16

let ecog_problems = Hashtbl.create 25

let prop_heuristics_match_references_ecog =
  QCheck.Test.make
    ~name:"sweep and screened polish match the references on ECoG folds"
    ~count:40
    QCheck.(quad (int_range 0 4) (int_range 4 8) (int_range 0 1_000_000) (int_range 1 6))
    (fun (fold, wl, seed, max_rounds) ->
      let pb =
        match Hashtbl.find_opt ecog_problems (fold, wl) with
        | Some pb -> pb
        | None ->
            let pb = ecog_problem ~fold wl in
            Hashtbl.add ecog_problems (fold, wl) pb;
            pb
      in
      let rng = Stats.Rng.create seed in
      let tag = Printf.sprintf "fold %d, WL %d" fold wl in
      sweep_matches tag pb ~steps:(40 * max_rounds) (random_direction pb rng)
      &&
      match random_start pb rng with
      | None -> QCheck.assume_fail ()
      | Some start -> polish_matches tag pb ~max_rounds start)

(* On the brute-force generator's instances, from any feasible grid
   point: S_W singular, indefinite by an ulp, or with means a hair
   apart. *)
let prop_heuristics_match_references_small =
  QCheck.Test.make ~name:"sweep and screened polish match the references on small problems"
    ~count:150
    (QCheck.pair arb_small_problem QCheck.(pair (int_range 0 1_000_000) (int_range 1 6)))
    (fun (inst, (seed, max_rounds)) ->
      match small_problem inst with
      | None -> true
      | Some (pb, fmt) -> (
          match Array.of_list (enumerate_feasible pb fmt) with
          | [||] -> true
          | points ->
              let rng = Stats.Rng.create seed in
              sweep_matches "small" pb ~steps:(40 * max_rounds) (random_direction pb rng)
              && List.for_all
                   (fun _ ->
                     polish_matches "small" pb ~max_rounds
                       points.(Stats.Rng.int rng (Array.length points)))
                   (List.init 8 Fun.id)))

(* λ_min by bisection on whether a float Cholesky of a − s·I succeeds. *)
let bisect_lambda_min a =
  let n = Linalg.Mat.rows a in
  let pd s =
    match
      Linalg.Cholesky.factor
        (Linalg.Mat.init n n (fun i j -> if i = j then a.(i).(j) -. s else a.(i).(j)))
    with
    | _ -> true
    | exception Linalg.Cholesky.Not_positive_definite _ -> false
  in
  let lo = ref 0.0 and hi = ref 1.0 in
  while pd !hi do hi := 2.0 *. !hi done;
  for _ = 1 to 80 do
    let mid = 0.5 *. (!lo +. !hi) in
    if pd mid then lo := mid else hi := mid
  done;
  !lo

let test_verified_lambda_min () =
  List.iter
    (fun (name, pb) ->
      let a = pb.Ldafp_problem.p_base in
      let bis = bisect_lambda_min a in
      let v = Optim.Psd.verified_lambda_min a in
      checkb (Printf.sprintf "%s: λ̲ %g <= bisection %g" name v bis) true (v <= bis);
      checkb (Printf.sprintf "%s: λ̲ %g >= 0.99 bisection %g" name v bis) true
        (v >= 0.99 *. bis);
      checkb (name ^ ": build keeps it") true (pb.Ldafp_problem.lambda_min = v))
    [ ("synthetic WL 16", table1_problem 16); ("ECoG fold 0 WL 6", ecog_problem ~fold:0 6) ];
  checkf 0.0 "indefinite refused" 0.0
    (Optim.Psd.verified_lambda_min [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |]);
  checkf 0.0 "collinear refused" 0.0
    (Optim.Psd.verified_lambda_min [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]);
  (* Features 2 and 3 of this instance quantise identically. *)
  let pb = synthetic_problem ~n_per_class:300 ~f:4 in
  checkf 0.0 "singular S_W refused" 0.0 pb.Ldafp_problem.lambda_min;
  checkb "its distinct coordinates still cap z" true (pb.Ldafp_problem.lambda_grid > 0.0)

(* The root program's certified bound against the float-LDA floor
   c* = 1/(dᵀS_W⁻¹d), which the relaxation attains at the root: never
   above it, close to it, and hardly moved by the z cap once the cap
   admits the floor's t.  The tolerance is the barrier's terminal gap
   ν/τ on a root optimum normalised to about 1. *)
let test_root_bound_is_the_floor () =
  let check name pb ~caps ~tol =
    let wbox = pb.Ldafp_problem.elem_box in
    let cstar =
      1.0
      /. Linalg.Vec.dot pb.Ldafp_problem.d
           (Linalg.Cholesky.solve pb.Ldafp_problem.sw pb.Ldafp_problem.d)
    in
    let bounds =
      List.map (fun z_cap -> certified_bound pb (solve_relaxation pb ~wbox ~z_cap)) caps
    in
    List.iter2
      (fun z b ->
        let tag what = Printf.sprintf "%s, Z %g: %s" name z what in
        checkb (tag (Printf.sprintf "bound %.12g <= c* %.12g" b cstar)) true (b <= cstar);
        checkb (tag (Printf.sprintf "within %g of c*" tol)) true
          ((cstar -. b) /. cstar < tol))
      caps bounds;
    let lo = List.fold_left Float.min Float.infinity bounds
    and hi = List.fold_left Float.max Float.neg_infinity bounds in
    checkb (name ^ ": the cap moves the bound by < 1e-9") true ((hi -. lo) /. hi < 1e-9)
  in
  check "ECoG fold 0 WL 6" (ecog_problem ~fold:0 6) ~caps:[ 1e2; 1e4; 1e6 ] ~tol:1e-6;
  let pb = table1_problem 16 in
  let z = Ldafp_problem.z_cap pb ~theta:(snd (Option.get (Ldafp_heuristics.seed_incumbent pb))) in
  check "synthetic WL 16" pb ~caps:[ z; 10.0 *. z ] ~tol:2e-6

(* A pinned coordinate folds into z: its node's certified bound can only
   be above the bound of the same node with the pin widened by one ulp,
   a superset region. *)
let test_pinned_fold_dominates_widened () =
  let pb = table1_problem 8 in
  let fmt = pb.Ldafp_problem.fmt in
  let z_cap =
    Ldafp_problem.z_cap pb ~theta:(snd (Option.get (Ldafp_heuristics.seed_incumbent pb)))
  in
  let root = pb.Ldafp_problem.elem_box in
  (* pins at the grid values nearest the root optimum's weights *)
  let r, sol = solve_relaxation pb ~wbox:root ~z_cap in
  let w = Ldafp_problem.weights_of (Ldafp_problem.embed r sol.Optim.Socp.x) in
  List.iter
    (fun j ->
      let v = Fx_interval.clamp_value root.(j) w.(j) in
      let pinned = Array.copy root and widened = Array.copy root in
      pinned.(j) <- Fx_interval.of_values fmt ~lo:v ~hi:v;
      widened.(j) <-
        (if v < Fx_interval.hi root.(j) then Fx_interval.of_values fmt ~lo:v ~hi:(v +. Qformat.ulp fmt)
         else Fx_interval.of_values fmt ~lo:(v -. Qformat.ulp fmt) ~hi:v);
      let bound wbox = certified_bound pb (solve_relaxation pb ~wbox ~z_cap) in
      let bp = bound pinned and bw = bound widened in
      checkb
        (Printf.sprintf "w_%d = %g: pinned %.12g >= widened %.12g" j v bp bw)
        true (bp >= bw))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Cones on demand                                                     *)
(* ------------------------------------------------------------------ *)

(* An ECoG-WL-3-like instance small enough for brute force: [m] of the
   42 features of the Ecog_sim draw of [seed], picked at random by it. *)
let ecog_wl3_like ~seed ~m =
  let rng = Stats.Rng.create (seed + 1) in
  let cols = Array.init 42 Fun.id in
  for i = 0 to m - 1 do
    let k = i + Stats.Rng.int rng (Array.length cols - i) in
    let c = cols.(i) in
    cols.(i) <- cols.(k);
    cols.(k) <- c
  done;
  Ecog_subset.problem ~seed (Array.sub cols 0 m)

(* Node programs start without the cones and take back the ones their
   optimum violates.  On instances where the cones bind, exact searches
   (seeded on one domain, unseeded on two) still end on the brute-force
   optimum with a feasible model and a certified bound no higher, and
   some node re-solved with cones. *)
let test_cones_on_demand_match_bruteforce () =
  let resolves = ref 0 in
  List.iter
    (fun seed ->
      let pb, fmt = ecog_wl3_like ~seed ~m:5 in
      let best, _ = bruteforce_optima pb fmt in
      List.iter
        (fun (seed_incumbent, domains) ->
          let tag what = Printf.sprintf "seed %d, %d domain(s): %s" seed domains what in
          let result = Lda_fp.solve ~config:(exact_config ~domains seed_incumbent) pb in
          (match bruteforce_verdict pb fmt result with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (tag msg));
          match result with
          | None -> Alcotest.fail (tag "no model")
          | Some o ->
              let d = o.Lda_fp.diagnostics in
              checkb (tag "model feasible") true (Ldafp_problem.feasible pb o.Lda_fp.w);
              checkb
                (tag (Printf.sprintf "bound %h <= optimum %h" d.Lda_fp.bound best))
                true (d.Lda_fp.bound <= best);
              checkb (tag "certified sound") true
                d.Lda_fp.search.Optim.Bnb.certified_sound;
              resolves := !resolves + d.Lda_fp.search.Optim.Bnb.cone_resolves)
        [ (true, 1); (false, 2) ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  checkb (Printf.sprintf "cone re-solves fired (%d)" !resolves) true (!resolves > 0)

(* The root program without cones relaxes the one with all four, so its
   certified bound is at most the full program's optimum, which the full
   program's objective at its strictly feasible terminal iterate bounds
   from above.  (Against the full program's certified bound the
   comparison is no theorem: where the cones do not bind, the two
   optima are equal and each certificate sits its own ν/τ below.) *)
let test_cone_free_root_bound () =
  List.iter
    (fun (name, pb) ->
      let wbox = pb.Ldafp_problem.elem_box in
      let z_cap =
        Ldafp_problem.z_cap pb ~theta:(snd (Option.get (Ldafp_heuristics.seed_incumbent pb)))
      in
      let free = certified_bound pb (solve_relaxation ~cones:0 pb ~wbox ~z_cap) in
      let r, sol = solve_relaxation pb ~wbox ~z_cap in
      let kappa = r.Ldafp_problem.kappa in
      let full = sol.Optim.Socp.objective /. (kappa *. kappa) in
      checkb (Printf.sprintf "%s: cone-free bound %h <= full optimum %h" name free full) true
        (free <= full))
    [
      ("ECoG WL 3", ecog_problem ~fold:(-1) 3);
      ("ECoG WL 6", ecog_problem ~fold:(-1) 6);
      ("Table-1 WL 6", table1_problem 6);
      ("ECoG subset WL 3", fst (ecog_wl3_like ~seed:1 ~m:5));
      ("ECoG subset WL 3 b", fst (ecog_wl3_like ~seed:2 ~m:5));
      ("ECoG subset WL 3 c", fst (ecog_wl3_like ~seed:3 ~m:5));
    ]

(* The Table-1 rows the η-bound search left open on time (WL 10–16,
   and WL 8 after 16,119 nodes), and the ECoG WL 8 and 10 rows, close to
   the trainer's default 1e-3 gap in at most 5 nodes. *)
let test_rows_close_at_the_root () =
  let check name pb =
    let config =
      { Lda_fp.default_config with
        bnb_params = { Optim.Bnb.default_params with max_nodes = 5; rel_gap = 1e-3 } }
    in
    let d = (solve_exn config pb).Lda_fp.diagnostics in
    checkb
      (Printf.sprintf "%s: %s in %d nodes" name
         (Optim.Bnb.stop_reason_name d.Lda_fp.stop_reason) d.Lda_fp.nodes)
      true
      (d.Lda_fp.stop_reason = Optim.Bnb.Gap_reached && d.Lda_fp.nodes <= 5)
  in
  List.iter (fun wl -> check (Printf.sprintf "Table-1 WL %d" wl) (table1_problem wl))
    [ 8; 10; 12; 14; 16 ];
  List.iter (fun wl -> check (Printf.sprintf "ECoG WL %d" wl) (ecog_problem ~fold:(-1) wl))
    [ 8; 10 ]

(* A problem's root program, solved cold at its seeded incumbent's z
   cap, with its [~psd_block]. *)
let root_program pb =
  let theta = snd (Option.get (Ldafp_heuristics.seed_incumbent pb)) in
  let r, sol =
    solve_relaxation pb ~wbox:pb.Ldafp_problem.elem_box
      ~z_cap:(Ldafp_problem.z_cap pb ~theta)
  in
  (r.Ldafp_problem.socp, sol, Ldafp_problem.psd_block pb r)

let ecog_root = lazy (root_program (ecog_problem ~fold:(-1) 6))

(* The certified root bounds, bit for bit: with [~psd_block] the
   curvature charge wins, without it the box charge is the bound.  The
   certificate's outward rounding takes fixed steps in a fixed order,
   so any change to them moves these bits. *)
let test_root_certificate_bits () =
  let check name (socp, sol, psd_block) ~curvature ~box =
    List.iter
      (fun (charge, psd_block, want) ->
        match Optim.Socp.certify_lower_bound ?psd_block socp sol with
        | Ok c ->
            Alcotest.(check string)
              (Printf.sprintf "%s, %s charge" name charge)
              want
              (Printf.sprintf "%Lx" (Int64.bits_of_float c.Optim.Socp.dual_value))
        | Error f -> Alcotest.fail (Optim.Socp.describe_cert_failure f))
      [ ("curvature", psd_block, curvature); ("box", None, box) ]
  in
  check "small scatter Q2.2"
    (root_program (Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:2) (small_scatter ())))
    ~curvature:"3feffffd6c196f13" ~box:"3fefff146866b119";
  check "ECoG WL 6" (Lazy.force ecog_root) ~curvature:"3feffffed8979840"
    ~box:"3fefc0374fc78c0a"

(* The certificate runs its interval arithmetic on unboxed endpoints:
   over 43 variables a call allocates the multipliers, the enclosure
   arrays and the copy and factor of P_BB, not one box per step (428k
   words when every step boxed an interval). *)
let test_certificate_allocation () =
  let socp, sol, psd_block = Lazy.force ecog_root in
  let cert () = ignore (Optim.Socp.certify_lower_bound ?psd_block socp sol) in
  cert ();
  let calls = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    cert ()
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  checkb
    (Printf.sprintf "%.0f minor words per ECoG WL 6 root certificate <= 20000" per_call)
    true (per_call <= 20000.0)

(* One exact evaluation of an ECoG WL 6 grid point (the seed
   incumbent): [on_grid] and the element-box test allocate nothing, and
   [evaluate] its result — the copy (43 words), its tuple and option (5)
   and the boxed cost (2) — and nothing more: [constraint_violation] and
   [cost] sum their dot products and quadratic forms in loops of their
   own, in the order of [Vec.dot] and [Mat.quadratic_form], whose bits
   they keep (checked below on points on and off the grid).  The grid
   test alone used to box 605 words.  [on_grid] keeps the verdicts
   of [Qformat.in_range] and [Qformat.nearest_on_grid] on grid points,
   points off the grid by a fraction of an ulp or by less than 1e-12,
   and points beyond either end of the range. *)
let test_evaluate_allocation () =
  let pb = ecog_problem ~fold:(-1) 6 in
  let fmt = pb.Ldafp_problem.fmt in
  let w =
    match Ldafp_heuristics.seed_incumbent pb with
    | Some (w, _) -> w
    | None -> Alcotest.fail "no ECoG seed incumbent"
  in
  let words f =
    ignore (f ());
    let calls = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  checkf 0.0 "on_grid allocates nothing" 0.0
    (words (fun () -> Ldafp_problem.on_grid pb w));
  let per_eval = words (fun () -> Ldafp_heuristics.evaluate pb w) in
  let result = float_of_int (Array.length w + 1 + 5 + 2) in
  checkb
    (Printf.sprintf "%.0f minor words per evaluate <= %.0f (result)" per_eval result)
    true
    (per_eval <= result);
  let bits = Int64.bits_of_float in
  let s = pb.Ldafp_problem.scatter in
  let lo_bound = Qformat.min_value fmt and hi_bound = Qformat.max_value fmt in
  let reference_violation w =
    let proj mu sigma =
      let c = Linalg.Vec.dot mu w
      and spread = pb.Ldafp_problem.beta *. sqrt (Float.max (Linalg.Mat.quadratic_form sigma w) 0.0) in
      Float.max (lo_bound -. (c -. spread)) (c +. spread -. hi_bound)
    in
    let worst = ref (Float.max (proj s.Stats.Scatter.mu_a s.Stats.Scatter.sigma_a)
                       (proj s.Stats.Scatter.mu_b s.Stats.Scatter.sigma_b)) in
    Array.iteri
      (fun j wj ->
        let elem mu var =
          let c = wj *. mu and spread = pb.Ldafp_problem.beta *. Float.abs wj *. sqrt (Float.max var 0.0) in
          Float.max (lo_bound -. (c -. spread)) (c +. spread -. hi_bound)
        in
        worst := Float.max !worst
            (Float.max (elem s.Stats.Scatter.mu_a.(j) s.Stats.Scatter.sigma_a.(j).(j))
               (elem s.Stats.Scatter.mu_b.(j) s.Stats.Scatter.sigma_b.(j).(j))))
      w;
    !worst
  in
  let reference_cost w =
    let tt = Linalg.Vec.dot pb.Ldafp_problem.d w in
    if tt = 0.0 then Float.infinity else Linalg.Mat.quadratic_form pb.Ldafp_problem.sw w /. (tt *. tt)
  in
  let rng = Stats.Rng.create 35 in
  List.iter
    (fun (label, p) ->
      checkb (label ^ ": cost bits") true (bits (Ldafp_problem.cost pb p) = bits (reference_cost p));
      checkb (label ^ ": violation bits") true
        (bits (Ldafp_problem.constraint_violation pb p) = bits (reference_violation p)))
    ([ ("incumbent", w); ("zero", Array.make (Array.length w) 0.0);
       ("negated", Array.map (fun x -> -.x) w) ]
    @ List.init 20 (fun i ->
          ( Printf.sprintf "random %d" i,
            Array.map (fun x -> x +. Stats.Rng.uniform rng ~lo:(-0.3) ~hi:0.3) w )));
  let ulp = Qformat.ulp fmt and lo = Qformat.min_value fmt and hi = Qformat.max_value fmt in
  let reference x =
    Qformat.in_range fmt x && Float.abs (x -. Qformat.nearest_on_grid fmt x) < 1e-12
  in
  let points =
    List.concat_map
      (fun r ->
        let x = Qformat.value_of_raw fmt r in
        [ x; x +. (0.5 *. ulp); x -. (0.3 *. ulp); x +. 1e-13; x -. 5e-13; x +. 2e-12 ])
      (List.init (Qformat.max_raw fmt - Qformat.min_raw fmt + 1) (fun i -> Qformat.min_raw fmt + i))
    @ [ lo -. ulp; hi +. ulp; lo -. 1e-13; hi +. 1e-13; 100.0; Float.nan; Float.infinity ]
  in
  List.iter
    (fun x ->
      checkb (Printf.sprintf "on_grid %h" x) (reference x) (Ldafp_problem.on_grid pb [| x |]))
    points;
  checkb "the incumbent is on the grid" true (Ldafp_problem.on_grid pb w);
  let off = Array.copy w in
  off.(0) <- off.(0) +. (0.5 *. ulp);
  checkb "half an ulp off" false (Ldafp_problem.on_grid pb off);
  off.(0) <- hi +. ulp;
  checkb "beyond the range" false (Ldafp_problem.on_grid pb off)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_solver_cost_matches_reported;
      prop_seed_feasible;
      prop_parallel_solver_matches_sequential;
      prop_warm_cold_same_search;
      prop_exact_search_matches_bruteforce;
      prop_faulty_exact_search_matches_bruteforce;
      prop_heuristics_match_references_ecog;
      prop_heuristics_match_references_small;
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
          Alcotest.test_case "no seed on a zero LDA direction" `Quick
            test_seed_none_on_zero_direction;
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
          Alcotest.test_case "time budget" `Quick test_solver_time_budget;
          Alcotest.test_case "warm matches cold" `Quick
            test_solver_warm_matches_cold;
          Alcotest.test_case "exact warm and cold match brute force" `Quick
            test_exact_solve_matches_bruteforce_warm_and_cold;
          Alcotest.test_case "unseeded search keeps capped boxes" `Quick
            test_unseeded_search_keeps_capped_boxes;
          Alcotest.test_case "no verified λ̲ takes interval bounds" `Quick
            test_no_verified_lambda_takes_interval_bounds;
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
      ( "relaxation",
        [
          Alcotest.test_case "verified λ_min" `Quick test_verified_lambda_min;
          Alcotest.test_case "root bound is the float-LDA floor" `Quick
            test_root_bound_is_the_floor;
          Alcotest.test_case "pinned fold dominates the widened pin" `Quick
            test_pinned_fold_dominates_widened;
          Alcotest.test_case "Table-1 and ECoG rows close in 5 nodes" `Quick
            test_rows_close_at_the_root;
          Alcotest.test_case "root certificate bits" `Quick
            test_root_certificate_bits;
          Alcotest.test_case "cones on demand match brute force" `Quick
            test_cones_on_demand_match_bruteforce;
          Alcotest.test_case "cone-free root bound below the full one" `Quick
            test_cone_free_root_bound;
          Alcotest.test_case "certificate allocation" `Quick
            test_certificate_allocation;
          Alcotest.test_case "evaluate allocation and grid verdicts" `Quick
            test_evaluate_allocation;
        ] );
      ("properties", qcheck_tests);
    ]
