(* Tests for the optimisation substrate: intervals, priority queue,
   Newton, the barrier SOCP solver, and the branch-and-bound driver. *)

open Optim
open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

(* The 2n half-spaces of lo <= x <= hi. *)
let box_constraints lo hi =
  let n = Vec.dim lo in
  List.concat
    (List.init n (fun i ->
         [ { Socp.a = Vec.basis n i; b = hi.(i) };
           { Socp.a = Vec.neg (Vec.basis n i); b = -.lo.(i) } ]))

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  let iv = Interval.make ~lo:(-2.0) ~hi:3.0 in
  checkf 1e-12 "lo" (-2.0) (Interval.lo iv);
  checkf 1e-12 "hi" 3.0 (Interval.hi iv);
  checkb "point" true (Interval.point 1.5 = Interval.make ~lo:1.5 ~hi:1.5);
  checkb "bad bounds rejected" true
    (match Interval.make ~lo:1.0 ~hi:0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_interval_directed_rounding () =
  (* wide_add strictly contains the rounded sum on both sides. *)
  let a = Interval.point 0.1 and b = Interval.point 0.2 in
  let s = Interval.wide_add a b in
  checkb "sum lo below" true (Interval.lo s < 0.1 +. 0.2);
  checkb "sum hi above" true (Interval.hi s > 0.1 +. 0.2);
  (* wide_mul encloses every cross product of the endpoints. *)
  let m =
    Interval.wide_mul
      (Interval.make ~lo:0.1 ~hi:0.2)
      (Interval.make ~lo:(-0.3) ~hi:0.4)
  in
  List.iter
    (fun (x, y) ->
      checkb "product enclosed" true
        (Interval.lo m <= x *. y && x *. y <= Interval.hi m))
    [ (0.1, -0.3); (0.1, 0.4); (0.2, -0.3); (0.2, 0.4) ];
  (* Kahan convention: an exactly-zero factor kills an unbounded one. *)
  let z =
    Interval.wide_mul (Interval.point 0.0)
      (Interval.make ~lo:Float.neg_infinity ~hi:Float.infinity)
  in
  checkf 1e-12 "0 * [-inf,inf] lo" 0.0 (Interval.lo z);
  checkf 1e-12 "0 * [-inf,inf] hi" 0.0 (Interval.hi z);
  (* Infinite endpoints are preserved, never stepped inward or to NaN. *)
  let u = Interval.wide (Interval.make ~lo:Float.neg_infinity ~hi:Float.infinity) in
  checkb "wide keeps -inf" true (Interval.lo u = Float.neg_infinity);
  checkb "wide keeps +inf" true (Interval.hi u = Float.infinity);
  (* inf - inf is NaN: the operation must refuse, not return a "bound". *)
  checkb "inf - inf raises" true
    (match Interval.wide_sub (Interval.point Float.infinity)
             (Interval.point Float.infinity) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  checki "length" 5 (Pqueue.length q);
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "ascending order" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !popped)

let test_pqueue_filter () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k ()) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Pqueue.filter_in_place q (fun k () -> k < 3.5);
  checki "filtered length" 3 (Pqueue.length q);
  checkf 1e-12 "min still right" 1.0 (Pqueue.min_key q)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  checkb "empty" true (Pqueue.is_empty q);
  checkb "pop none" true (Pqueue.pop q = None);
  checkf 1e-12 "min of empty is inf" Float.infinity (Pqueue.min_key q)

let test_pqueue_filter_releases_dropped () =
  (* [filter_in_place] must clear dead slots so dropped payloads become
     collectable — in the solver those payloads are whole search regions,
     and keeping them pinned by the backing array is a leak.  Observed
     through finalisers on the dropped boxes. *)
  let released = ref 0 in
  let q = Pqueue.create () in
  let fill () =
    for i = 0 to 63 do
      let v = ref i in
      Gc.finalise (fun _ -> incr released) v;
      Pqueue.push q (float_of_int i) v
    done
  in
  fill ();
  Pqueue.filter_in_place q (fun k _ -> k < 8.0);
  Gc.full_major ();
  Gc.full_major ();
  checki "filtered length" 8 (Pqueue.length q);
  checkb "dropped values were collected" true (!released >= 40);
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (k, v) ->
        checkf 1e-12 "payload matches key" k (float_of_int !v);
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "survivors ascending"
    [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 ]
    (List.rev !popped)

let prop_pqueue_filter_heap =
  QCheck.Test.make ~name:"filter_in_place preserves heap order" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 60) (float_range (-50.0) 50.0))
        (float_range (-50.0) 50.0))
    (fun (keys, cut) ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      Pqueue.filter_in_place q (fun k _ -> k <= cut);
      let expected =
        List.sort compare (List.filter (fun k -> k <= cut) keys)
      in
      let rec drain acc =
        match Pqueue.pop q with
        | Some (k, v) -> k = v && drain (k :: acc)
        | None -> List.rev acc = expected
      in
      drain [])

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (float_range (-100.0) 100.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      List.sort compare keys = out)

(* ------------------------------------------------------------------ *)
(* Newton                                                              *)
(* ------------------------------------------------------------------ *)

let quadratic_oracle center : Newton.oracle =
 fun x ->
  (* f(x) = 1/2 ||x - c||², minimum at c *)
  let d = Vec.sub x center in
  Some (0.5 *. Vec.dot d d, d, Mat.identity (Vec.dim x))

let test_newton_quadratic () =
  let c = [| 1.0; -2.0; 0.5 |] in
  let r = Newton.minimize (quadratic_oracle c) (Vec.zeros 3) in
  checkb "converged" true (r.Newton.status = Newton.Converged);
  checkb "found center" true (Vec.approx_equal ~tol:1e-8 c r.Newton.x)

let test_newton_log_barrier_1d () =
  (* f(x) = x - log(1 - x), domain x < 1; f' = 1 + 1/(1-x) > 0 always:
     decreasing x helps; but domain also requires... actually minimise
     f(x) = -log(x) - log(1 - x): minimum at x = 1/2. *)
  let oracle : Newton.oracle =
   fun x ->
    let v = x.(0) in
    if v <= 0.0 || v >= 1.0 then None
    else
      Some
        ( -.log v -. log (1.0 -. v),
          [| (-1.0 /. v) +. (1.0 /. (1.0 -. v)) |],
          [| [| (1.0 /. (v *. v)) +. (1.0 /. ((1.0 -. v) *. (1.0 -. v))) |] |]
        )
  in
  let r = Newton.minimize oracle [| 0.9 |] in
  checkb "converged" true (r.Newton.status = Newton.Converged);
  checkf 1e-7 "minimum at 1/2" 0.5 r.Newton.x.(0)

let test_newton_rejects_infeasible_start () =
  let oracle : Newton.oracle =
   fun x -> if x.(0) <= 0.0 then None else Some (x.(0), [| 1.0 |], [| [| 1e-9 |] |])
  in
  checkb "raises" true
    (match Newton.minimize oracle [| -1.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_newton_nan_decrement_is_diverged () =
  (* Regression: a NaN gradient makes the Newton decrement NaN, and
     [!dec <= tol] is false for NaN, so the old code fell through to the
     line search with a NaN direction and eventually reported the start
     point as Converged.  It must be surfaced as Diverged instead. *)
  let calls = ref 0 in
  let oracle : Newton.oracle =
   fun x ->
    incr calls;
    let g = if !calls = 1 then [| Float.nan |] else [| x.(0) |] in
    Some (0.5 *. x.(0) *. x.(0), g, [| [| 1.0 |] |])
  in
  let r = Newton.minimize oracle [| 3.0 |] in
  checkb "status is Diverged" true (r.Newton.status = Newton.Diverged);
  checkb "decrement is NaN" true (Float.is_nan r.Newton.decrement);
  checkf 1e-12 "last finite iterate returned" 3.0 r.Newton.x.(0)

(* f(x) = x − log x on x > 0 (minimum at 1) as a split oracle that logs
   every call: [`Value (x, in_domain)], [`Derivs x], [`Ray x] and
   [`Trial (t, decrease)], where [derivs] and [ray] work at the most
   recent in-domain [value] point.  The ray's evaluator misjudges
   (−1, 0] as inside the domain, the rounding edge the value pass
   catches.  From x0 = 3 the Newton direction is −6: the full step to −3
   is outside (the trial says so), the half step to 0 passes the trial
   and fails the value pass, and the quarter step to 1.5 is accepted.
   From 1.5 the full step to 0.75 is in the domain but fails the
   sufficient-decrease test.  Every kind of rejection occurs. *)
let logged_oracle () =
  let events = ref [] and last = ref Float.nan in
  let f v = v -. log v in
  let value x =
    let v = x.(0) in
    let inside = v > 0.0 in
    events := `Value (v, inside) :: !events;
    if inside then begin
      last := v;
      Some (f v)
    end
    else None
  in
  let derivs ~grad ~hess =
    events := `Derivs !last :: !events;
    grad.(0) <- 1.0 -. (1.0 /. !last);
    hess.(0).(0) <- 1.0 /. (!last *. !last)
  in
  let ray x d =
    let base = x.(0) and d = d.(0) in
    events := `Ray base :: !events;
    fun t ->
      let v = base +. (t *. d) in
      let dv =
        if v > 0.0 then Some (f v -. f base)
        else if v > -1.0 then Some (-1.0)
        else None
      in
      events := `Trial (t, dv) :: !events;
      dv
  in
  ({ Newton.value; derivs; ray }, fun () -> List.rev !events)

(* Each [`Derivs] directly follows an in-domain [`Value] at its point. *)
let derivs_follow_values events =
  let rec go prev = function
    | `Derivs x :: rest -> (
        match prev with
        | Some (`Value (v, true)) -> v = x && go None rest
        | _ -> false)
    | e :: rest -> go (Some e) rest
    | [] -> true
  in
  go None events

let test_newton_split_oracle_calls () =
  let oracle, events = logged_oracle () in
  let r = Newton.minimize_into (Newton.workspace 1) oracle [| 3.0 |] in
  let ev = events () in
  let count p = List.length (List.filter p ev) in
  checkb "converged" true (r.Newton.status = Newton.Converged);
  checkf 1e-4 "minimum at 1" 1.0 r.Newton.x.(0);
  checkb "starts with value then derivs at x0" true
    (match ev with `Value (3.0, true) :: `Derivs 3.0 :: _ -> true | _ -> false);
  checkb "derivs only right after an in-domain value at that point" true
    (derivs_follow_values ev);
  (* Converged: every iteration but the last accepted a step, so
     derivatives ran at x0 and at each accepted point — no more. *)
  let derivs = List.filter_map (function `Derivs x -> Some x | _ -> None) ev in
  checki "derivs calls = x0 + accepted steps" r.Newton.iterations
    (List.length derivs);
  checkb "last derivs at the returned iterate" true
    (List.nth derivs (List.length derivs - 1) = r.Newton.x.(0));
  (* The value pass runs at x0, at each accepted point and at each trial
     the ray passed but the domain test refused. *)
  let refreshes_rejected = count (function `Value (_, false) -> true | _ -> false) in
  checki "one value refresh rejected (the rounding edge at 0)" 1 refreshes_rejected;
  checki "value calls = x0 + accepted steps + rejected refreshes"
    (List.length derivs + refreshes_rejected)
    (count (function `Value _ -> true | _ -> false));
  (* One ray per step, after the derivatives at its base; within it the
     trial offsets are 1, ½, ¼, … *)
  let rec steps = function
    | `Ray base :: rest ->
        let rec trials acc = function
          | `Trial (t, dv) :: rest -> trials ((t, dv) :: acc) rest
          | (`Value _ :: rest) -> trials acc rest
          | rest -> (List.rev acc, rest)
        in
        let ts, rest = trials [] rest in
        (base, ts) :: steps rest
    | _ :: rest -> steps rest
    | [] -> []
  in
  let steps = steps ev in
  checki "one ray per accepted step"
    (r.Newton.iterations - 1) (List.length steps);
  List.iter
    (fun (_, ts) ->
      List.iteri
        (fun i (t, _) -> checkf 0.0 "trial offset halves" (0.5 ** float_of_int i) t)
        ts)
    steps;
  checki "trials counted in the result" r.Newton.trials
    (List.fold_left (fun n (_, ts) -> n + List.length ts) 0 steps);
  checkb "first step: two rejected trials, then 1.5" true
    (match steps with
    | (3.0, [ (1.0, None); (0.5, Some _); (0.25, Some _) ]) :: (b, _) :: _ ->
        Float.abs (b -. 1.5) < 1e-12
    | _ -> false);
  (* From 1.5: d = −0.75, gᵀd = −0.25, and Δ(1) = log 2 − 0.75 ≈ −0.057
     is above ¼·gᵀd. *)
  checkb "second step: the full step fails sufficient decrease" true
    (match steps with
    | _ :: (_, (1.0, Some dv) :: (0.5, _) :: _) :: _ ->
        dv < 0.0 && dv > 0.25 *. -0.25
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Socp                                                                *)
(* ------------------------------------------------------------------ *)

let test_socp_box_qp () =
  (* min (x-3)² + (y+1)² s.t. -1 <= x,y <= 1: optimum at (1,-1)...
     but (y+1)² pushes y to -1 which is on the boundary. Interior-point
     converges to the boundary within gap tolerance. *)
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = [| -6.0; 2.0 |] in
  let lins = box_constraints [| -1.0; -1.0 |] [| 1.0; 1.0 |] in
  let problem = Socp.problem ~p ~q ~lins 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  checkf 1e-3 "x at bound" 1.0 sol.Socp.x.(0);
  checkf 1e-3 "y at bound" (-1.0) sol.Socp.x.(1);
  checkb "feasible" true (Socp.is_feasible ~tol:1e-7 problem sol.Socp.x)

let test_socp_unconstrained () =
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = [| -2.0; -4.0 |] in
  let problem = Socp.problem ~p ~q 2 in
  (* No constraint, no barrier ladder: refused rather than returned
     from one Newton solve. *)
  checkb "unconstrained problem raises" true
    (match Socp.solve problem ~start:[| 0.0; 0.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_socp_cone_projection () =
  (* min ||x - c||² s.t. ||x|| <= 1 with c outside the ball: optimum is
     the radial projection c/||c||. *)
  let c = [| 2.0; 2.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  let problem = Socp.problem ~p ~q ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  let expected = Vec.scale (1.0 /. Vec.norm2 c) c in
  checkb "radial projection" true
    (Vec.approx_equal ~tol:1e-4 expected sol.Socp.x)

let test_socp_lower_bound_certificate () =
  (* The solver's objective minus gap must lower-bound the true optimum:
     check against the analytic cone projection value. *)
  let c = [| 3.0; 0.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  let problem = Socp.problem ~p ~q ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  (* true optimum of x² - 6x at x = 1 (cone boundary): 1 - 6 = -5 *)
  let true_min = -5.0 in
  checkb "obj >= true min" true (sol.Socp.objective >= true_min -. 1e-9);
  checkb "obj - gap <= true min" true
    (sol.Socp.objective -. sol.Socp.gap_bound <= true_min +. 1e-6)

let test_socp_certificate_analytic () =
  (* Independent dual certificate on the analytic cone projection: the
     verified dual value must lower-bound the true optimum (-5) and,
     from a healthy solve, sit close beneath it. *)
  let c = [| 3.0; 0.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  (* A box around the ball: the residual-absorption step needs bounded
     coordinates (every LDA-FP relaxation has its weight box). *)
  let lins = box_constraints [| -2.0; -2.0 |] [| 2.0; 2.0 |] in
  let problem = Socp.problem ~p ~q ~lins ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  let true_min = -5.0 in
  match Socp.certify_lower_bound problem sol with
  | Error f -> Alcotest.fail (Socp.describe_cert_failure f)
  | Ok cert ->
      checkb "dual value is a true lower bound" true
        (cert.Socp.dual_value <= true_min +. 1e-9);
      checkb "and a tight one" true (cert.Socp.dual_value >= true_min -. 1e-2);
      checkf 1e-9 "slack is objective - dual_value"
        (sol.Socp.objective -. cert.Socp.dual_value)
        cert.Socp.slack;
      (* The outward rounding takes fixed steps in a fixed order. *)
      Alcotest.(check string) "dual value bits" "c014001bf8896ab2"
        (Printf.sprintf "%Lx" (Int64.bits_of_float cert.Socp.dual_value))

let test_socp_certificate_survives_corrupt_primal () =
  (* The regression the certificate layer exists for: a corrupted primal
     solve.  The trusting formula [objective - 2 gap_bound] follows the
     corruption upward and would let B&B prune the optimum; the
     certificate either still reports a true lower bound or refuses
     outright — it never follows the lie. *)
  let c = [| 3.0; 0.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  let lins = box_constraints [| -2.0; -2.0 |] [| 2.0; 2.0 |] in
  let problem = Socp.problem ~p ~q ~lins ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  let true_min = -5.0 in
  (* Corrupt the reported objective: the trusting bound overstates. *)
  let lied = { sol with Socp.objective = sol.Socp.objective +. 10.0 } in
  checkb "trusting bound follows the corruption" true
    (lied.Socp.objective -. (2.0 *. lied.Socp.gap_bound) > true_min +. 1.0);
  (match Socp.certify_lower_bound problem lied with
  | Ok cert ->
      checkb "certified bound ignores the lie" true
        (cert.Socp.dual_value <= true_min +. 1e-9)
  | Error (Socp.Cert_gap_excessive _) -> () (* refusing is equally sound *)
  | Error f -> Alcotest.fail (Socp.describe_cert_failure f));
  (* Corrupt the iterate itself: multipliers extracted from a garbage
     point still get repaired onto the dual-feasible set, so any Ok
     verdict is still a true bound (just a loose one). *)
  let garbage = { sol with Socp.x = [| 7.0; -3.0 |] } in
  match Socp.certify_lower_bound ~max_rel_slack:1e6 problem garbage with
  | Ok cert ->
      checkb "garbage-point certificate still valid" true
        (cert.Socp.dual_value <= true_min +. 1e-9)
  | Error (Socp.Cert_gap_excessive _) -> ()
  | Error f -> Alcotest.fail (Socp.describe_cert_failure f)

(* The certificate property: on random box QPs with a cone, the repaired
   dual value never exceeds a high-accuracy reference solve of the same
   problem (weak duality made checkable).  The reference objective
   upper-bounds the true optimum, so [dual_value <= reference] is the
   observable half of [dual_value <= true optimum]. *)
let prop_cert_lower_bounds_reference =
  QCheck.Test.make
    ~name:"repaired dual certificate lower-bounds a reference solve"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let base =
        Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let p =
        Mat.add_scaled_identity (0.5 *. float_of_int n)
          (Mat.mul base (Mat.transpose base))
      in
      let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let with_cone = Stats.Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.5 in
      let socs =
        if with_cone then
          let radius = Stats.Rng.uniform rng ~lo:1.0 ~hi:4.0 in
          [ { Socp.l = Mat.identity n; g = Vec.zeros n; c = Vec.zeros n;
              d = radius } ]
        else []
      in
      let pb = Socp.problem ~p ~q ~lins:(box_constraints lo hi) ~socs n in
      match Socp.find_strictly_feasible pb ~start:(Vec.zeros n) with
      | Socp.Infeasible _ | Socp.Unknown _ ->
          false (* origin is always feasible here *)
      | Socp.Strictly_feasible x0 -> (
          let sol = Socp.solve pb ~start:x0 in
          let reference =
            Socp.solve
              ~params:{ Socp.default_params with Socp.gap_tol = 1e-10 }
              pb ~start:sol.Socp.x
          in
          match Socp.certify_lower_bound pb sol with
          | Error f ->
              QCheck.Test.fail_reportf "certificate failed: %s"
                (Socp.describe_cert_failure f)
          | Ok cert ->
              if
                cert.Socp.dual_value
                > reference.Socp.objective
                  +. (1e-9 *. (1.0 +. Float.abs reference.Socp.objective))
              then
                QCheck.Test.fail_reportf
                  "dual value %.12g above reference optimum %.12g"
                  cert.Socp.dual_value reference.Socp.objective
              else true))

let test_socp_rejects_infeasible_start () =
  let lins = box_constraints [| 0.0 |] [| 1.0 |] in
  let problem = Socp.problem ~lins 1 in
  checkb "raises on outside start" true
    (match Socp.solve problem ~start:[| 5.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_socp_boundary_start_rejected () =
  (* The barrier needs a strictly interior start: one on the constraint
     boundary, one a roundoff past it and one far outside are all
     refused.  Callers repair starts first (prepare_warm_start,
     find_strictly_feasible). *)
  let lins = box_constraints [| 0.0 |] [| 1.0 |] in
  let problem = Socp.problem ~lins 1 in
  List.iter
    (fun (name, x) ->
      checkb (name ^ " raises") true
        (match Socp.solve problem ~start:[| x |] with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ ("boundary start", 1.0); ("roundoff-infeasible start", 1.0 +. 1e-9);
      ("far start", 5.0) ]

let test_phase1_finds_feasible () =
  (* Feasible region: a small box away from the start. *)
  let lins = box_constraints [| 4.0; 4.0 |] [| 5.0; 5.0 |] in
  let problem = Socp.problem ~lins 2 in
  match Socp.find_strictly_feasible problem ~start:[| 0.0; 0.0 |] with
  | Socp.Strictly_feasible x ->
      checkb "strictly inside" true (Socp.max_violation problem x < 0.0)
  | _ -> Alcotest.fail "expected feasible point"

let test_phase1_detects_infeasible () =
  (* x <= 0 and x >= 1 simultaneously: infeasible by margin 1/2. *)
  let lins =
    [
      { Socp.a = [| 1.0 |]; b = 0.0 };
      { Socp.a = [| -1.0 |]; b = -1.0 };
    ]
  in
  let problem = Socp.problem ~lins 1 in
  match Socp.find_strictly_feasible problem ~start:[| 0.5 |] with
  | Socp.Infeasible margin -> checkb "positive margin" true (margin > 0.0)
  | Socp.Strictly_feasible _ -> Alcotest.fail "claimed feasible"
  | Socp.Unknown _ -> Alcotest.fail "should certify infeasibility"

let test_phase1_then_solve () =
  (* min x² over [3, 5] from the infeasible start 0: phase-I must move
     into the box first, then the barrier solve finds the bound. *)
  let p = Mat.scale 2.0 (Mat.identity 1) in
  let lins = box_constraints [| 3.0 |] [| 5.0 |] in
  let problem = Socp.problem ~p ~lins 1 in
  match Socp.find_strictly_feasible problem ~start:[| 0.0 |] with
  | Socp.Strictly_feasible x0 ->
      let sol = Socp.solve problem ~start:x0 in
      checkf 1e-3 "optimum at lower bound" 3.0 sol.Socp.x.(0)
  | Socp.Infeasible _ | Socp.Unknown _ -> Alcotest.fail "expected solution"

let test_socp_dimension_checks () =
  checkb "bad P" true
    (match Socp.problem ~p:(Mat.identity 3) 2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad lin" true
    (match Socp.problem ~lins:[ { Socp.a = [| 1.0 |]; b = 0.0 } ] 2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The Gram build reads rows unchecked once their lengths agree. *)
  checkb "ragged cone" true
    (match
       Socp.problem
         ~socs:
           [
             {
               Socp.l = [| [| 1.0; 0.0 |]; [| 1.0 |] |];
               g = Vec.zeros 2;
               c = Vec.zeros 2;
               d = 1.0;
             };
           ]
         2
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_socp_of_parts_rejects_asymmetric_p () =
  (* The barrier Hessian reads P's lower triangle while the gradient and
     the certificate use P x, so of_parts must refuse a P that is off by
     even one ulp across the diagonal. *)
  let p = [| [| 2.0; 0.3; -0.1 |]; [| 0.3; 1.0; 0.2 |]; [| -0.1; 0.2; 1.5 |] |] in
  let build p =
    Socp.of_parts ~p ~q:(Vec.zeros 3)
      ~lins:(Array.of_list (box_constraints (Vec.make 3 (-1.0)) (Vec.make 3 1.0)))
      ~socs:[||] 3
  in
  checkb "symmetric P accepted" true
    (match build p with _ -> true | exception Invalid_argument _ -> false);
  List.iter
    (fun (i, j) ->
      let p' = Mat.copy p in
      p'.(i).(j) <- Float.succ p'.(i).(j);
      checkb
        (Printf.sprintf "one ulp at %d,%d raises" i j)
        true
        (match build p' with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (0, 1); (2, 0); (1, 2) ]

(* ------------------------------------------------------------------ *)
(* Bnb                                                                 *)
(* ------------------------------------------------------------------ *)

(* Toy problem: minimise a convex quadratic over integers in a range,
   regions are integer intervals, bound is the continuous minimum. *)
let integer_quadratic_oracle target =
  let cost x = (x -. target) ** 2.0 in
  {
    Bnb.bound =
      (fun (lo, hi) ->
        if lo > hi then None
        else
          let cont = Float.max (float_of_int lo) (Float.min (float_of_int hi) target) in
          let lower = cost cont in
          let cand_x = int_of_float (Float.round cont) in
          let cand_x = max lo (min hi cand_x) in
          Some { Bnb.lower; candidate = Some (cand_x, cost (float_of_int cand_x)) });
    branch =
      (fun (lo, hi) ->
        if lo >= hi then []
        else
          (* Floor division: truncating [/] on a negative two-element
             interval returns the upper endpoint, re-creating the parent
             as its own child forever. *)
          let mid = (lo + hi) asr 1 in
          [ (lo, mid); (mid + 1, hi) ]);
  }

let test_bnb_finds_integer_optimum () =
  let r = Bnb.minimize (integer_quadratic_oracle 7.3) (-100, 100) in
  (match r.Bnb.best with
  | Some (x, c) ->
      checki "optimal integer" 7 x;
      checkf 1e-12 "optimal cost" 0.09 c
  | None -> Alcotest.fail "no solution");
  checkb "terminated ok" true
    (match r.Bnb.stop_reason with
    | Bnb.Proved_optimal | Bnb.Gap_reached -> true
    | _ -> false)

let test_bnb_exhaustive_agreement () =
  (* Against brute force on many random targets. *)
  let rng = Stats.Rng.create 99 in
  for _ = 1 to 50 do
    let target = Stats.Rng.uniform rng ~lo:(-20.0) ~hi:20.0 in
    let r = Bnb.minimize (integer_quadratic_oracle target) (-25, 25) in
    let brute = Float.round target in
    let brute = Float.max (-25.0) (Float.min 25.0 brute) in
    match r.Bnb.best with
    | Some (x, _) ->
        checkb
          (Printf.sprintf "agrees with brute force (target %g)" target)
          true
          (Float.abs (float_of_int x -. brute) <= 1.0
          && (float_of_int x -. target) ** 2.0
             <= ((brute -. target) ** 2.0) +. 1e-9)
    | None -> Alcotest.fail "no solution"
  done

let test_bnb_node_budget () =
  (* A deliberately weak bound (always 0 on non-atomic regions) so the
     search cannot prune and must hit the node budget. *)
  let weak_oracle =
    {
      Bnb.bound =
        (fun (lo, hi) ->
          if lo > hi then None
          else if lo = hi then
            let c = (float_of_int lo -. 0.4) ** 2.0 in
            Some { Bnb.lower = c; candidate = Some (lo, c) }
          else
            Some
              { Bnb.lower = 0.0;
                candidate = Some (hi, (float_of_int hi -. 0.4) ** 2.0) });
      branch =
        (fun (lo, hi) ->
          if lo >= hi then []
          else
            let mid = (lo + hi) asr 1 in
            [ (lo, mid); (mid + 1, hi) ]);
    }
  in
  let params =
    { Bnb.default_params with max_nodes = 3; rel_gap = 0.0; abs_gap = 0.0 }
  in
  let r = Bnb.minimize ~params weak_oracle (-1000, 1000) in
  checkb "stopped on budget" true (r.Bnb.stop_reason = Bnb.Node_budget);
  checkb "still has incumbent" true (r.Bnb.best <> None);
  checkb "bound <= incumbent" true
    (match r.Bnb.best with
    | Some (_, c) -> r.Bnb.bound <= c +. 1e-12
    | None -> false);
  checkb "children counted" true (r.Bnb.stats.Bnb.children_generated > 0)

let test_bnb_infeasible_root () =
  let oracle =
    { Bnb.bound = (fun _ -> None); branch = (fun _ -> []) }
  in
  let r = Bnb.minimize oracle () in
  checkb "no solution" true (r.Bnb.best = None);
  checkb "proved" true (r.Bnb.stop_reason = Bnb.Proved_optimal)

let test_bnb_pruning_respects_incumbent () =
  (* A bound oracle that counts calls: once the exact optimum is the
     incumbent, sibling regions with worse bounds must not be explored. *)
  let calls = ref 0 in
  let oracle =
    {
      Bnb.bound =
        (fun (lo, hi) ->
          incr calls;
          if lo > hi then None
          else
            (* cost = x; lower bound = lo; candidate = lo *)
            Some { Bnb.lower = float_of_int lo;
                   candidate = Some (lo, float_of_int lo) });
      branch =
        (fun (lo, hi) ->
          if lo >= hi then []
          else
            let mid = (lo + hi) asr 1 in
            [ (lo, mid); (mid + 1, hi) ]);
    }
  in
  let r = Bnb.minimize oracle (0, 1 lsl 16) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "found 0" 0 x
  | None -> Alcotest.fail "no solution");
  checkb "explored few nodes" true (!calls < 50)

let test_bnb_wall_clock_time_limit () =
  (* The bound oracle sleeps, burning wall time but almost no CPU time:
     [time_limit] must trip on the wall clock.  With the old [Sys.time]
     measurement the clock barely advanced during the sleeps and this
     search ran all the way to its node budget. *)
  let oracle =
    {
      Bnb.bound =
        (fun _ ->
          Unix.sleepf 0.02;
          Some { Bnb.lower = 0.0; candidate = Some ((), 1.0) });
      branch = (fun depth -> [ depth + 1 ]);
    }
  in
  let params =
    {
      Bnb.default_params with
      max_nodes = 25;
      rel_gap = 0.0;
      abs_gap = 0.0;
      time_limit = Some 0.05;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Bnb.minimize ~params oracle 0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "stopped on the wall clock" true
    (r.Bnb.stop_reason = Bnb.Time_budget);
  checkb "stopped promptly" true (elapsed < 0.45)

let test_bnb_parallel_matches_sequential () =
  let seq = Bnb.minimize (integer_quadratic_oracle 7.3) (-100, 100) in
  let seq_cost =
    match seq.Bnb.best with Some (_, c) -> c | None -> Float.nan
  in
  List.iter
    (fun domains ->
      let r =
        Bnb.minimize
          ~params:{ Bnb.default_params with domains }
          (integer_quadratic_oracle 7.3) (-100, 100)
      in
      (match r.Bnb.best with
      | Some (x, c) ->
          checki (Printf.sprintf "optimum on %d domains" domains) 7 x;
          checkf 1e-12 (Printf.sprintf "cost on %d domains" domains) seq_cost c
      | None -> Alcotest.fail "no solution");
      checki "domains_used" domains r.Bnb.stats.Bnb.domains_used;
      checkb "terminated ok" true
        (match r.Bnb.stop_reason with
        | Bnb.Proved_optimal | Bnb.Gap_reached -> true
        | _ -> false))
    [ 2; 4 ]

(* Weighted separable quadratic over the integer points of a 3-D box:
   the bound is the continuous minimum, the candidate its rounding, and
   branching halves the widest side. *)
let box_quadratic_oracle ~weights ~center =
  let cost x =
    let s = ref 0.0 in
    Array.iteri
      (fun i w -> s := !s +. (w *. ((x.(i) -. center.(i)) ** 2.0)))
      weights;
    !s
  in
  {
    Bnb.bound =
      (fun (lo, hi) ->
        let cont =
          Array.mapi
            (fun i c ->
              Float.max (float_of_int lo.(i))
                (Float.min (float_of_int hi.(i)) c))
            center
        in
        let cand =
          Array.mapi
            (fun i c -> max lo.(i) (min hi.(i) (int_of_float (Float.round c))))
            cont
        in
        Some
          {
            Bnb.lower = cost cont;
            candidate = Some (cand, cost (Array.map float_of_int cand));
          });
    branch =
      (fun (lo, hi) ->
        let widest = ref 0 in
        Array.iteri
          (fun i l ->
            if hi.(i) - l > hi.(!widest) - lo.(!widest) then widest := i)
          lo;
        let i = !widest in
        if hi.(i) <= lo.(i) then []
        else
          let mid = (lo.(i) + hi.(i)) asr 1 in
          let hi1 = Array.copy hi and lo2 = Array.copy lo in
          hi1.(i) <- mid;
          lo2.(i) <- mid + 1;
          [ (lo, hi1); (lo2, hi) ]);
  }

(* One-domain searches pinned to the values a plain single-heap
   best-first search produces: node count, stop reason, best cost and
   bound as IEEE bits, and every counting field of [stats] ([counts]
   lists the non-zero integers; every other integer must be 0, and
   [certified_sound] true). *)
let check_pinned name ~nodes ~stop ~cost ~bound ~counts (r_nodes, r_stop,
    r_cost, r_bound, stats) =
  let bits = Alcotest.(check int64) in
  checki (name ^ ": nodes") nodes r_nodes;
  Alcotest.(check string)
    (name ^ ": stop reason") (Bnb.stop_reason_name stop)
    (Bnb.stop_reason_name r_stop);
  bits (name ^ ": cost bits") cost (Int64.bits_of_float r_cost);
  bits (name ^ ": bound bits") bound (Int64.bits_of_float r_bound);
  match Bnb.stats_to_json stats with
  | Obs.Json.Obj fields ->
      List.iter
        (fun (k, v) ->
          let what = Printf.sprintf "%s: %s" name k in
          match v with
          | Obs.Json.Int n ->
              checki what (Option.value ~default:0 (List.assoc_opt k counts)) n
          | Obs.Json.Bool b -> checkb what (k = "certified_sound") b
          | Obs.Json.List (Obs.Json.Int _ :: _) ->
              checkb what true (v = Obs.Json.List [ Obs.Json.Int 0 ])
          | _ -> (* wall-clock times *) ())
        fields
  | _ -> Alcotest.fail "stats_to_json is not an object"

let of_result (r : _ Bnb.result) =
  let cost = match r.Bnb.best with Some (_, c) -> c | None -> Float.nan in
  (r.Bnb.nodes_explored, r.Bnb.stop_reason, cost, r.Bnb.bound, r.Bnb.stats)

let test_bnb_domains_one_pinned () =
  (* (a) A search run to exhaustion. *)
  let exact = { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } in
  check_pinned "exact 1-D" ~nodes:5 ~stop:Bnb.Proved_optimal
    ~cost:0x3fb70a3d70a3d703L ~bound:0x3fb70a3d70a3d703L
    ~counts:
      [ ("bound_pruned", 6); ("incumbent_updates", 1);
        ("children_generated", 10); ("domains_used", 1) ]
    (of_result
       (Bnb.minimize ~params:exact (integer_quadratic_oracle 7.3) (-100, 100)));
  (* (b) A search stopped by the gap tolerance.  It stops after 16 nodes
     only if the gap test reads the frontier minimum exactly: a bound
     that lags low keeps it running to 19 nodes and a drained
     frontier. *)
  let weights =
    [| 0x1.13b5bdb5203fdp+0; 0x1.12449a0d4bcc7p+1; 0x1.a101f94b2669ap+0 |]
  and center =
    [| -0x1.163cf27987e3dp+4; 0x1.098e062fba698p+3; 0x1.7f2779f95fb7cp+3 |]
  in
  check_pinned "gap-stopped 3-D" ~nodes:16 ~stop:Bnb.Gap_reached
    ~cost:0x3fd6c6bb759a809cL ~bound:0x3fd6b4166d58cb02L
    ~counts:
      [ ("bound_pruned", 16); ("incumbent_updates", 1);
        ("children_generated", 32); ("domains_used", 1) ]
    (of_result
       (Bnb.minimize
          ~params:{ exact with rel_gap = 1e-2 }
          (box_quadratic_oracle ~weights ~center)
          (Array.make 3 (-40), Array.make 3 40)));
  (* (c) LDA-FP training at its default tolerance (rel_gap = 1e-3). *)
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:2 in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:200 (Stats.Rng.create 42)
  in
  let prep = Ldafp_core.Pipeline.prepare ~fmt ds in
  let pb =
    Ldafp_core.Ldafp_problem.build ~fmt prep.Ldafp_core.Pipeline.scatter
  in
  match Ldafp_core.Lda_fp.solve pb with
  | None -> Alcotest.fail "LDA-FP found no classifier"
  | Some o ->
      let d = o.Ldafp_core.Lda_fp.diagnostics in
      check_pinned "LDA-FP" ~nodes:30 ~stop:Bnb.Gap_reached
        ~cost:0x3fe2b0359306644fL ~bound:0x3fe2ac2aa414e05eL
        ~counts:
          [ ("infeasible_regions", 1); ("bound_pruned", 26);
            ("incumbent_updates", 1); ("children_generated", 60);
            ("domains_used", 1); ("warm_start_hits", 49);
            ("phase1_skipped", 49); ("warm_pull_ins", 31);
            ("warm_miss_no_parent", 1); ("cert_verified", 50) ]
        ( d.Ldafp_core.Lda_fp.nodes, d.Ldafp_core.Lda_fp.stop_reason,
          o.Ldafp_core.Lda_fp.cost, d.Ldafp_core.Lda_fp.bound,
          d.Ldafp_core.Lda_fp.search )

let test_bnb_progress_line_per_node () =
  (* A binary tree whose bounds grow with depth, run to drain.  With a
     clock that makes the reporter due after every node, the search
     prints exactly one progress line per explored node. *)
  let oracle =
    {
      Bnb.bound =
        (fun n ->
          let lower = float_of_int n in
          let candidate = if n >= 7 then Some (n, 100.0 +. lower) else None in
          Some { Bnb.lower; candidate });
      branch = (fun n -> if n < 7 then [ (2 * n) + 1; (2 * n) + 2 ] else []);
    }
  in
  let params = { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } in
  let path = Filename.temp_file "ldafp_progress" ".txt" in
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Clock.use_monotonic ())
      (fun () ->
        (* Every clock read advances 2 s: the reporter is due after
           every node. *)
        let t = ref 0 in
        Obs.Clock.set_source (fun () ->
            t := !t + 2_000_000_000;
            !t);
        Out_channel.with_open_text path (fun channel ->
            let progress = Obs.Progress.create ~channel () in
            Bnb.minimize ~params ~progress oracle 0))
  in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  checkb "search drained" true (r.Bnb.stop_reason = Bnb.Proved_optimal);
  checki "one progress line per node" r.Bnb.nodes_explored (List.length lines);
  (* The line printed after the last node, once the frontier has
     drained, reports the returned bound (the incumbent), not the empty
     heap's infinity. *)
  let rec printed_bound = function
    | "bound" :: v :: _ -> v
    | _ :: tl -> printed_bound tl
    | [] -> Alcotest.fail "progress line without a bound"
  in
  let last = List.nth lines (List.length lines - 1) in
  Alcotest.(check string)
    "last printed bound = returned bound"
    (Printf.sprintf "%.6g" r.Bnb.bound)
    (printed_bound
       (List.filter (fun w -> w <> "") (String.split_on_char ' ' last)))

(* Watchdog: run the search on a helper domain and poll, so a
   termination bug fails the test instead of hanging the suite (same
   scheme as test_fault.ml). *)
let bnb_with_timeout ~seconds f =
  let result = Atomic.make None in
  let _watched : unit Domain.t =
    Domain.spawn (fun () -> Atomic.set result (Some (f ())))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get result with
    | Some r -> Some r
    | None ->
        if Unix.gettimeofday () -. t0 > seconds then None
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Frontier                                                            *)
(* ------------------------------------------------------------------ *)

(* Worker slots are a calling convention, not thread identity, so one
   thread can play every worker in turn; only the park and stress tests
   need real domains. *)

let test_frontier_basic () =
  let f = Frontier.create ~workers:2 in
  checkb "fresh frontier is drained" true (Frontier.drained f);
  checkf 1e-12 "empty frontier bound" Float.infinity (Frontier.bound f);
  Frontier.push f 3.0 "b";
  Frontier.push f 1.0 "a";
  checki "live counts queued work" 2 (Frontier.live f);
  checkf 1e-12 "bound is the min key" 1.0 (Frontier.bound f);
  (match Frontier.take f ~worker:0 with
  | Some (k, v) ->
      checkf 1e-12 "takes the best key" 1.0 k;
      Alcotest.(check string) "takes the best value" "a" v
  | None -> Alcotest.fail "expected work");
  checki "in-flight work is still live" 2 (Frontier.live f);
  checki "one item queued" 1 (Frontier.queue_length f);
  Frontier.release f ~worker:0;
  checki "release retires one item" 1 (Frontier.live f);
  checkf 1e-12 "bound exact after a release" 3.0 (Frontier.bound f);
  checkb "invalid worker count rejected" true
    (match Frontier.create ~workers:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_frontier_bound_in_flight () =
  let f = Frontier.create ~workers:3 in
  List.iter (fun k -> Frontier.push f k ()) [ 4.0; 2.0; 1.0; 3.0 ];
  for worker = 0 to 2 do
    ignore (Frontier.take f ~worker)
  done;
  (* Keys 1, 2 and 3 are in flight on three workers; only 4 is queued. *)
  checkf 1e-12 "min over three in-flight slots" 1.0 (Frontier.bound f);
  checki "snapshot holds queued and in-flight items" 4
    (List.length (Frontier.snapshot f));
  Frontier.release f ~worker:0;
  checkf 1e-12 "next in-flight key" 2.0 (Frontier.bound f);
  Frontier.push f 1.5 ();
  checkf 1e-12 "a child below every in-flight key" 1.5 (Frontier.bound f);
  Frontier.release f ~worker:1;
  Frontier.release f ~worker:2;
  checkf 1e-12 "queued keys only" 1.5 (Frontier.bound f);
  ignore (Frontier.take f ~worker:1);
  ignore (Frontier.take f ~worker:2);
  checki "heap empty" 0 (Frontier.queue_length f);
  checkf 1e-12 "in-flight keys only" 1.5 (Frontier.bound f);
  Frontier.release f ~worker:1;
  Frontier.release f ~worker:2;
  checkb "drained" true (Frontier.drained f)

(* Poll [cond] for up to 10 s. *)
let eventually cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < 10.0 do
    Unix.sleepf 0.005
  done;
  cond ()

(* Three workers park while worker 0 holds the only live item; [finish]
   then ends the wait, and every parker must return [expected]. *)
let parked_outcomes ~finish ~expected =
  let f = Frontier.create ~workers:4 in
  Frontier.push f 1.0 ();
  ignore (Frontier.take f ~worker:0);
  let outcomes = Array.init 3 (fun _ -> Atomic.make None) in
  let parkers =
    Array.init 3 (fun i ->
        Domain.spawn (fun () ->
            Atomic.set outcomes.(i) (Some (Frontier.park f ~worker:(i + 1)))))
  in
  checkb "three workers parked" true
    (eventually (fun () -> Frontier.idle_wakeups f = 3));
  checkb "no drain while an item is in flight" true
    (Array.for_all (fun o -> Atomic.get o = None) outcomes);
  finish f;
  checkb "every parker woke" true
    (eventually (fun () ->
         Array.for_all (fun o -> Atomic.get o = Some expected) outcomes));
  Array.iter Domain.join parkers

let test_frontier_park () =
  let f = Frontier.create ~workers:2 in
  checkb "empty frontier: drained at once" true (Frontier.park f ~worker:0 = `Drained);
  Frontier.push f 1.0 ();
  checkb "queued work: at once" true (Frontier.park f ~worker:1 = `Work);
  parked_outcomes ~expected:`Drained ~finish:(fun f ->
      Frontier.release f ~worker:0);
  parked_outcomes ~expected:`Closed ~finish:Frontier.close

let test_frontier_prune_live () =
  let f = Frontier.create ~workers:1 in
  for k = 1 to 10 do
    Frontier.push f (float_of_int k) ()
  done;
  ignore (Frontier.take f ~worker:0);
  Frontier.prune f (fun k () -> k < 6.0);
  checki "prune drops 6..10, keeps the in-flight 1" 5 (Frontier.live f);
  checki "queued after prune" 4 (Frontier.queue_length f);
  Frontier.prune f (fun k () -> k < 4.0);
  checki "live after a second prune" 3 (Frontier.live f);
  Frontier.prune f (fun k () -> k < 4.0);
  checki "a prune that drops nothing keeps live" 3 (Frontier.live f);
  checkf 1e-12 "bound still covers the in-flight key" 1.0 (Frontier.bound f);
  Frontier.release f ~worker:0;
  let rec drain n =
    match Frontier.take f ~worker:0 with
    | Some _ ->
        Frontier.release f ~worker:0;
        drain (n + 1)
    | None -> n
  in
  checki "exactly the live items remain" 2 (drain 0);
  checkb "drained" true (Frontier.drained f)

(* Four domains push, take and release at random.  While a worker holds
   an item in flight that item is live, so every bound it reads must be
   at or below the item's key. *)
let test_frontier_stress () =
  let workers = 4 and steps = 3000 in
  let f = Frontier.create ~workers in
  for k = 0 to 15 do
    Frontier.push f (float_of_int k) ()
  done;
  let pushed = Atomic.make 16 and released = Atomic.make 0 in
  let run worker () =
    let state = ref (worker + 1) in
    let rand n =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod n
    in
    let held = ref None and bad = ref None in
    let check () =
      match !held with
      | Some k ->
          let b = Frontier.bound f in
          if b > k && !bad = None then bad := Some (b, k)
      | None -> ()
    in
    for _ = 1 to steps do
      (match (rand 3, !held) with
      | 0, _ ->
          Frontier.push f (float_of_int (rand 100)) ();
          Atomic.incr pushed
      | 1, None -> held := Option.map fst (Frontier.take f ~worker)
      | _, Some _ ->
          check ();
          Frontier.release f ~worker;
          Atomic.incr released;
          held := None
      | _ -> ());
      check ()
    done;
    if !held <> None then begin
      Frontier.release f ~worker;
      Atomic.incr released
    end;
    !bad
  in
  let ds = Array.init (workers - 1) (fun i -> Domain.spawn (run (i + 1))) in
  let results = run 0 () :: Array.to_list (Array.map Domain.join ds) in
  List.iter
    (function
      | Some (b, k) -> Alcotest.failf "bound %g above an in-flight key %g" b k
      | None -> ())
    results;
  checki "live = pushed - released" (Atomic.get pushed - Atomic.get released)
    (Frontier.live f);
  checki "nothing in flight at quiescence" (Frontier.live f)
    (Frontier.queue_length f);
  let b = Frontier.bound f in
  match Frontier.take f ~worker:0 with
  | Some (k, ()) -> checkf 0.0 "quiescent bound is the heap minimum" k b
  | None -> checkf 0.0 "empty frontier" Float.infinity b

let test_bnb_chain_termination () =
  (* A degenerate tree with exactly one live node at every instant: a
     chain of single-child nodes.  Four workers fight over that node —
     maximal park/wake/drain churn — and the search must still
     terminate with the deepest node as incumbent.  Three workers park
     while the fourth holds the only node, so a drain declared at an
     empty heap instead of at live = 0 would end the search early. *)
  let depth = 2000 in
  let fdepth = float_of_int depth in
  let oracle =
    {
      Bnb.bound =
        (fun d ->
          let fd = float_of_int d /. fdepth in
          Some { Bnb.lower = fd; candidate = Some (d, 2.0 -. fd) });
      branch = (fun d -> if d < depth then [ d + 1 ] else []);
    }
  in
  let params =
    {
      Bnb.default_params with
      max_nodes = 10 * depth;
      rel_gap = 0.0;
      abs_gap = 0.0;
      domains = 4;
    }
  in
  match
    bnb_with_timeout ~seconds:60.0 (fun () -> Bnb.minimize ~params oracle 0)
  with
  | None -> Alcotest.fail "parallel chain search hung (termination bug)"
  | Some r ->
      checkb "terminated by proof, not budget" true
        (match r.Bnb.stop_reason with
        | Bnb.Proved_optimal | Bnb.Gap_reached -> true
        | _ -> false);
      (match r.Bnb.best with
      | Some (d, c) ->
          checki "deepest node wins" depth d;
          checkf 1e-12 "its cost" 1.0 c
      | None -> Alcotest.fail "no incumbent")

let test_bnb_parallel_checkpoint_resume () =
  (* A checkpoint written after every node of a 4-domain search stopped
     by a 2-node budget must resume to the same optimum as an
     uninterrupted run. *)
  let target = 7.3 in
  let path = Filename.temp_file "ldafp_parallel" ".ck" in
  let exact = { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } in
  let full =
    Bnb.minimize ~params:exact (integer_quadratic_oracle target) (-100, 100)
  in
  let params = { exact with Bnb.domains = 4; max_nodes = 2 } in
  let ck = Bnb.checkpointing ~every_nodes:1 ~fingerprint:"parallel-ck" path in
  let sliced =
    Bnb.minimize ~params ~checkpointing:ck (integer_quadratic_oracle target)
      (-100, 100)
  in
  checkb "budget tripped" true (sliced.Bnb.stop_reason = Bnb.Node_budget);
  let state =
    (Checkpoint.load ~fingerprint:"parallel-ck" ~path
      : (int * int, int) Bnb.snapshot)
  in
  let resumed =
    Bnb.resume
      ~params:{ params with Bnb.max_nodes = exact.Bnb.max_nodes }
      ~checkpointing:ck
      (integer_quadratic_oracle target)
      state
  in
  Sys.remove path;
  checkb "resumed run completes" true
    (match resumed.Bnb.stop_reason with
    | Bnb.Proved_optimal | Bnb.Gap_reached -> true
    | _ -> false);
  match (full.Bnb.best, resumed.Bnb.best) with
  | Some (_, cf), Some (_, cr) ->
      checkf 0.0 "resumed run reaches the uninterrupted optimum" cf cr
  | _ -> Alcotest.fail "expected incumbents on both runs"

let prop_bnb_parallel_incumbent =
  QCheck.Test.make ~name:"parallel B&B matches sequential incumbent"
    ~count:25
    QCheck.(pair (float_range (-20.0) 20.0) (int_range 2 4))
    (fun (target, domains) ->
      let seq = Bnb.minimize (integer_quadratic_oracle target) (-25, 25) in
      let par =
        Bnb.minimize
          ~params:{ Bnb.default_params with domains }
          (integer_quadratic_oracle target) (-25, 25)
      in
      let ok_stop r =
        match r.Bnb.stop_reason with
        | Bnb.Proved_optimal | Bnb.Gap_reached -> true
        | _ -> false
      in
      match (seq.Bnb.best, par.Bnb.best) with
      | Some (_, cs), Some (_, cp) ->
          ok_stop seq && ok_stop par
          && Float.abs (cs -. cp) <= 1e-9 *. (1.0 +. Float.abs cs)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Gradcheck on the barrier calculus                                   *)
(* ------------------------------------------------------------------ *)

(* Toy barrier problem over 3 variables: box rows (single-nonzero
   half-spaces), one dense half-space, a cone with its own 2 × 3 [l] and
   two cones sharing one 6 × 3 [l] with exact zeros (rows ≠ n).  The
   shared [l] is large enough that its Gram dominates the Hessian at
   small tau, so a last-bit change in [LᵀL] shows in the bitwise test
   (summing its rows in reverse order does). *)
let oracle_toy_problem () =
  let rng = Stats.Rng.create 77 in
  let n = 3 in
  let u () = Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
  let p =
    let b = Mat.init n n (fun _ _ -> u ()) in
    Mat.add_scaled_identity 1.0 (Mat.mul b (Mat.transpose b))
  in
  let q = Array.init n (fun _ -> u ()) in
  let lins =
    box_constraints (Vec.make n (-2.0)) (Vec.make n 2.0)
    @ [ { Socp.a = [| 0.3; -0.2; 0.1 |]; b = 1.5 };
        { Socp.a = [| 0.0; -0.4; 0.7 |]; b = 1.2 } ]
  in
  let shared =
    Mat.init 6 n (fun i j -> if (i + j) mod 4 = 3 then 0.0 else 3.0 *. u ())
  in
  let socs =
    [
      {
        Socp.l = Mat.init 2 n (fun i j -> if i = j then 0.5 else 0.1);
        g = [| 0.05; -0.05 |];
        c = Vec.make n 0.2;
        d = 1.5;
      };
      { Socp.l = shared; g = Vec.zeros 6; c = Vec.zeros n; d = 1.2 };
      {
        Socp.l = shared;
        g = [| 0.0; 0.1; 0.0; -0.1; 0.05; 0.0 |];
        c = [| -0.1; 0.2; 0.0 |];
        d = 2.0;
      };
    ]
  in
  Socp.problem ~p ~q ~lins ~socs n

let interior_point problem =
  match Socp.find_strictly_feasible problem ~start:(Vec.zeros problem.Socp.n) with
  | Socp.Strictly_feasible x -> x
  | Socp.Unknown _ | Socp.Infeasible _ -> Alcotest.fail "toy problem is feasible"

(* [problem] with coordinate [j] folded onto a new last variable s,
   x_j = v·s, the others kept: x = M·x' for M = [kept unit columns |
   v·e_j], so P' = MᵀPM, q' = Mᵀq, a' = Mᵀa, l' = lM, c' = Mᵀc, as a
   node program's pinned coordinates fold into z. *)
let fold_toy problem ~j ~v =
  let n = problem.Socp.n in
  let keep = Array.of_list (List.filter (( <> ) j) (List.init n Fun.id)) in
  let nk = Array.length keep in
  let src i = if i < nk then keep.(i) else j in
  let f i = if i < nk then 1.0 else v in
  let mt a = Vec.init (nk + 1) (fun i -> f i *. a.(src i)) in
  let p =
    Mat.init (nk + 1) (nk + 1) (fun i k ->
        f i *. f k *. problem.Socp.p.(src i).(src k))
  in
  let lins =
    Array.map (fun { Socp.a; b } -> { Socp.a = mt a; b }) problem.Socp.lins
  in
  let socs =
    Array.map
      (fun { Socp.l; g; c; d } -> { Socp.l = Array.map mt l; g; c = mt c; d })
      problem.Socp.socs
  in
  Socp.of_parts ~p ~q:(mt problem.Socp.q) ~lins ~socs (nk + 1)

(* The toy problem with coordinate 1 folded at its interior value, and
   the folded interior point (s = 1). *)
let folded_toy problem x0 =
  ( fold_toy problem ~j:1 ~v:x0.(1),
    [| x0.(0); x0.(2); 1.0 |] )

(* The split centering oracle as one call, the Hessian's upper triangle
   mirrored from the lower one: what the derivative tests compare. *)
let centering_oracle pb tau : Newton.oracle =
 fun x ->
  let oracle = Socp.centering_for_tests pb tau in
  match oracle.Newton.value x with
  | None -> None
  | Some value ->
      let n = pb.Socp.n in
      let grad = Vec.zeros n and hess = Mat.zeros n n in
      oracle.Newton.derivs ~grad ~hess;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          hess.(i).(j) <- hess.(j).(i)
        done
      done;
      Some (value, grad, hess)

let test_socp_barrier_derivatives () =
  (* The hand-derived gradient/Hessian of the log-barrier (half-spaces +
     second-order cones) against finite differences, via the centering
     oracle at tau = 1 — on the full problem and on a fold of it.
     This is the calculus every Newton step relies on. *)
  let problem = oracle_toy_problem () in
  let x0 = interior_point problem in
  let check label pb x =
    let oracle = centering_oracle pb 1.0 in
    match Gradcheck.check_oracle oracle x with
    | None -> Alcotest.fail (label ^ ": interior point rejected by the oracle")
    | Some r ->
        checkb
          (Printf.sprintf "%s: barrier gradient matches FD (err %.2e)" label
             r.Gradcheck.max_grad_error)
          true
          (r.Gradcheck.max_grad_error < 1e-5);
        checkb
          (Printf.sprintf "%s: barrier hessian matches FD (err %.2e)" label
             r.Gradcheck.max_hess_error)
          true
          (r.Gradcheck.max_hess_error < 1e-4)
  in
  check "full" problem x0;
  let reduced, y0 = folded_toy problem x0 in
  check "folded" reduced y0

(* The centering oracle as it was before cone Grams were precomputed:
   every half-space through the dense loop, and LᵀL re-formed entry by
   entry from the problem's own [l], r ascending. *)
let reference_centering pb tau x =
  let n = pb.Socp.n in
  let s_obj = tau in
  let px = Mat.mul_vec pb.Socp.p x in
  let fx = (0.5 *. Vec.dot x px) +. Vec.dot pb.Socp.q x in
  let grad = Array.init n (fun i -> s_obj *. (px.(i) +. pb.Socp.q.(i))) in
  let hess = Mat.init n n (fun i j -> s_obj *. pb.Socp.p.(i).(j)) in
  let value = ref (s_obj *. fx) in
  Array.iter
    (fun { Socp.a; b } ->
      let s = b -. Vec.dot a x in
      value := !value -. log s;
      let inv_s = 1.0 /. s in
      for i = 0 to n - 1 do
        grad.(i) <- grad.(i) +. (a.(i) *. inv_s);
        if a.(i) <> 0.0 then
          for j = 0 to n - 1 do
            hess.(i).(j) <- hess.(i).(j) +. (a.(i) *. a.(j) *. inv_s *. inv_s)
          done
      done)
    pb.Socp.lins;
  Array.iter
    (fun { Socp.l; g; c; d } ->
      let u = Vec.dot c x +. d in
      let rows = Mat.rows l in
      let v = Array.init rows (fun r -> Vec.dot l.(r) x +. g.(r)) in
      let h = (u *. u) -. Vec.dot v v in
      value := !value -. log h;
      let ltv = Vec.zeros n in
      for r = 0 to rows - 1 do
        if v.(r) <> 0.0 then
          for j = 0 to n - 1 do
            ltv.(j) <- ltv.(j) +. (v.(r) *. l.(r).(j))
          done
      done;
      let gh = Array.init n (fun i -> (2.0 *. u *. c.(i)) -. (2.0 *. ltv.(i))) in
      let inv_h = 1.0 /. h in
      for i = 0 to n - 1 do
        grad.(i) <- grad.(i) -. (gh.(i) *. inv_h)
      done;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let ltl = ref 0.0 in
          for r = 0 to rows - 1 do
            ltl := !ltl +. (l.(r).(i) *. l.(r).(j))
          done;
          hess.(i).(j) <-
            hess.(i).(j)
            +. (gh.(i) *. gh.(j) *. inv_h *. inv_h)
            -. (((2.0 *. c.(i) *. c.(j)) -. (2.0 *. !ltl)) *. inv_h)
        done
      done)
    pb.Socp.socs;
  (!value, grad, hess)

(* A node program of the Table-1 synthetic problem (seed 42, 200 per
   class, Q2.4): the root box with coordinate 0 pinned to the end that
   raises dᵀw, so its cones' [l] carry a nonzero folded z column, and a
   strictly interior point of it. *)
let table1_node () =
  let module P = Ldafp_core.Ldafp_problem in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:4 in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:200 (Stats.Rng.create 42)
  in
  let pb =
    P.build ~fmt (Ldafp_core.Pipeline.prepare ~fmt ds).Ldafp_core.Pipeline.scatter
  in
  let wbox = Array.copy pb.P.elem_box in
  let lo = Fixedpoint.Fx_interval.lo wbox.(0)
  and hi = Fixedpoint.Fx_interval.hi wbox.(0) in
  let v = if pb.P.d.(0) >= 0.0 then hi else lo in
  wbox.(0) <- Fixedpoint.Fx_interval.of_values fmt ~lo:v ~hi:v;
  let z_cap = Float.infinity in
  match P.relaxation pb ~wbox ~z_cap ~cones:P.all_cones with
  | None -> Alcotest.fail "the pinned Table-1 box has no relaxation"
  | Some r -> (
      let node = r.P.socp in
      let start = P.project r (P.center_point pb ~wbox ~z_cap) in
      match Socp.find_strictly_feasible node ~start with
      | Socp.Strictly_feasible x -> (node, x)
      | Socp.Unknown _ | Socp.Infeasible _ ->
          Alcotest.fail "the pinned Table-1 node program is feasible")

let test_socp_oracle_bitwise () =
  (* The oracle reads each cone's Gram, formed once by the problem's
     constructor (padded with the slack's zero row and column in a
     phase-I problem), and takes an O(1) path for single-nonzero
     half-spaces.  Neither may move a bit, on the toy problem, its
     fold, a real node program with a pin and their phase-I problems. *)
  let problem = oracle_toy_problem () in
  let x0 = interior_point problem in
  let reduced, y0 = folded_toy problem x0 in
  let phase1 = Socp.phase1_problem_for_tests problem in
  let phase1_r = Socp.phase1_problem_for_tests reduced in
  let node, xn = table1_node () in
  checkb "the pin folds into z's column of every cone" true
    (Array.for_all
       (fun { Socp.l; _ } -> Array.exists (fun lr -> lr.(node.Socp.n - 1) <> 0.0) l)
       node.Socp.socs);
  let phase1_n = Socp.phase1_problem_for_tests node in
  let bits = Int64.bits_of_float in
  let same label a b = checkb label true (bits a = bits b) in
  (* The split oracle the solver runs: the value pass alone, then the
     derivative pass into NaN-filled buffers — its gradient and lower
     triangle against the symmetrised reference, its upper triangle
     never written. *)
  let check_split label pb x tau =
    let rvalue, rgrad, rhess = reference_centering pb tau x in
    let tag what = Printf.sprintf "%s, tau %g, split: %s" label tau what in
    let oracle = Socp.centering_for_tests pb tau in
    match oracle.Newton.value x with
    | None -> Alcotest.fail (tag "point rejected by the value pass")
    | Some value ->
        same (tag "value") rvalue value;
        let n = pb.Socp.n in
        let grad = Vec.make n Float.nan and hess = Mat.make n n Float.nan in
        oracle.Newton.derivs ~grad ~hess;
        Array.iteri
          (fun i g -> same (tag (Printf.sprintf "grad %d" i)) rgrad.(i) g)
          grad;
        let rsym = Mat.symmetrize rhess in
        for i = 0 to n - 1 do
          for j = 0 to i do
            same (tag (Printf.sprintf "hess %d,%d" i j)) rsym.(i).(j)
              hess.(i).(j)
          done;
          for j = i + 1 to n - 1 do
            checkb
              (tag (Printf.sprintf "upper %d,%d untouched" i j))
              true
              (Float.is_nan hess.(i).(j))
          done
        done
  in
  let check label pb x =
    List.iter
      (fun tau ->
        (match centering_oracle pb tau x with
        | None -> Alcotest.fail (label ^ ": interior point rejected")
        | Some (value, grad, hess) ->
            let rvalue, rgrad, rhess = reference_centering pb tau x in
            let tag what = Printf.sprintf "%s, tau %g: %s" label tau what in
            same (tag "value") rvalue value;
            Array.iteri
              (fun i g -> same (tag (Printf.sprintf "grad %d" i)) rgrad.(i) g)
              grad;
            Array.iteri
              (fun i row ->
                Array.iteri
                  (fun j h ->
                    same (tag (Printf.sprintf "hess %d,%d" i j)) rhess.(i).(j) h)
                  row)
              hess);
        check_split label pb x tau)
      [ 1e-6; 1.0; 37.5 ]
  in
  check "full" problem x0;
  check "folded" reduced y0;
  check "phase-I" phase1 (Array.append x0 [| 0.5 |]);
  check "folded phase-I" phase1_r (Array.append y0 [| 0.5 |]);
  check "Table-1 node" node xn;
  check "Table-1 node phase-I" phase1_n (Array.append xn [| 0.5 |])

(* The first-order rounding scale of the value pass at [y] (Higham's
   γ_k = kε/(1 − kε) argument): the magnitudes every term of f is summed
   from, plus each slack's condition number, its data's magnitude over
   the slack, so that kε·scale bounds the value pass's error with k the
   longest sum in it. *)
let value_rounding_scale pb tau y =
  let open Socp in
  let absdot a y = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i ai -> Float.abs (ai *. y.(i))) a) in
  let ay = Array.map Float.abs y in
  let quad = 0.5 *. Vec.dot ay (Mat.mul_vec (Array.map (Array.map Float.abs) pb.p) ay) in
  let scale = ref (tau *. (quad +. absdot pb.q y)) in
  Array.iter
    (fun { a; b } ->
      let s = b -. Vec.dot a y in
      scale := !scale +. Float.abs (log s) +. ((Float.abs b +. absdot a y) /. s))
    pb.lins;
  Array.iter
    (fun { l; g; c; d } ->
      let u = Vec.dot c y +. d in
      let eu = absdot c y +. Float.abs d in
      let vv = ref 0.0 and ev = ref 0.0 in
      Array.iteri
        (fun r lr ->
          let vr = Vec.dot lr y +. g.(r) in
          vv := !vv +. (vr *. vr);
          ev := !ev +. (Float.abs vr *. (absdot lr y +. Float.abs g.(r))))
        l;
      let h = (u *. u) -. !vv in
      scale :=
        !scale +. Float.abs (log h)
        +. (((2.0 *. Float.abs u *. eu) +. (2.0 *. !ev) +. (u *. u) +. !vv) /. h))
    pb.socs;
  !scale

let test_socp_ray_decrease () =
  (* The ray's trial evaluator against the value pass, on the bitwise
     test's problems (box rows, a dense half-space, cones sharing one [l]
     with and without one [g]), the pinned node program and the phase-I
     problems, along the Newton direction and two random directions, at
     step lengths from 16 down to 2⁻³⁰: Δ(t) is f(x + t·d) − f(x) within
     the value passes' own rounding, and the two agree on the domain
     wherever every slack clears a 1e-8 relative margin. *)
  let problem = oracle_toy_problem () in
  let x0 = interior_point problem in
  let reduced, y0 = folded_toy problem x0 in
  let node, xn = table1_node () in
  let rng = Stats.Rng.create 5 in
  let eps = epsilon_float in
  let checked = ref 0 and outside = ref 0 in
  let check label pb x tau =
    let n = pb.Socp.n in
    let oracle = Socp.centering_for_tests pb tau in
    let f0 =
      match oracle.Newton.value x with
      | Some f -> f
      | None -> Alcotest.fail (label ^ ": interior point rejected")
    in
    let grad = Vec.zeros n and hess = Mat.zeros n n in
    oracle.Newton.derivs ~grad ~hess;
    let newton_dir =
      (* the solver's own jittered factorisation of the lower triangle *)
      let chol = Mat.zeros n n in
      ignore (Cholesky.factor_jittered_into hess ~dst:chol);
      Cholesky.solve_factored chol (Vec.neg grad)
    in
    let random_dir () =
      let d = Vec.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      Vec.scale (0.5 *. (1.0 +. Vec.norm2 x) /. Vec.norm2 d) d
    in
    (* the longest sum in a value pass, and the ray's own few ulps *)
    let k = float_of_int (n + Array.length pb.Socp.lins + Array.length pb.Socp.socs + 16) in
    List.iteri
      (fun di d ->
        (* the ray reads the value pass's caches at its base *)
        ignore (oracle.Newton.value x);
        let trial = oracle.Newton.ray x d in
        for e = -30 to 4 do
          let t = Float.ldexp 1.0 e in
          let y = Vec.init n (fun i -> x.(i) +. (t *. d.(i))) in
          let tag what = Printf.sprintf "%s, tau %g, dir %d, t 2^%d: %s" label tau di e what in
          let by_ray = trial t in
          let by_value = oracle.Newton.value y in
          if Socp.is_strictly_interior ~margin:1e-8 pb y then begin
            incr checked;
            match (by_ray, by_value) with
            | Some dt, Some fy ->
                let bound =
                  2.0 *. k *. eps
                  *. (value_rounding_scale pb tau x +. value_rounding_scale pb tau y)
                in
                let err = Float.abs (dt -. (fy -. f0)) in
                if err > bound then
                  Alcotest.failf "%s" (tag (Printf.sprintf "|Δ − diff| = %.3g > %.3g" err bound))
            | _ -> Alcotest.fail (tag "inside, but a pass says outside")
          end
          else if not (Socp.is_strictly_interior ~margin:(-1e-8) pb y) then begin
            incr outside;
            checkb (tag "outside: the ray says so") true (by_ray = None);
            checkb (tag "outside: the value pass says so") true (by_value = None)
          end
        done)
      [ newton_dir; random_dir (); random_dir () ]
  in
  List.iter
    (fun (label, pb, x) ->
      List.iter (fun tau -> check label pb x tau) [ 1e-6; 1.0; 37.5 ])
    [
      ("full", problem, x0);
      ("folded", reduced, y0);
      ("phase-I", Socp.phase1_problem_for_tests problem, Array.append x0 [| 0.5 |]);
      ("folded phase-I", Socp.phase1_problem_for_tests reduced, Array.append y0 [| 0.5 |]);
      ("Table-1 node", node, xn);
      ("Table-1 node phase-I", Socp.phase1_problem_for_tests node, Array.append xn [| 0.5 |]);
    ];
  checkb "points inside compared" true (!checked > 100);
  checkb "points outside compared" true (!outside > 20)

(* The ECoG WL 6 root program (Ecog_sim seed 7, all trials) with every
   cone of eq. 20, z capped by the seeded incumbent, and a strictly
   interior start. *)
let ecog_root () =
  let module P = Ldafp_core.Ldafp_problem in
  let fmt = Fixedpoint.Format_policy.default 6 in
  let ds = Datasets.Ecog_sim.generate (Stats.Rng.create 7) in
  let pb =
    P.build ~fmt (Ldafp_core.Pipeline.prepare ~fmt ds).Ldafp_core.Pipeline.scatter
  in
  let theta =
    match
      Ldafp_core.Ldafp_heuristics.seed_incumbent
        ~steps:Ldafp_core.Lda_fp.default_config.Ldafp_core.Lda_fp.sweep_steps
        ~max_rounds:4 pb
    with
    | Some (_, c) -> c
    | None -> Alcotest.fail "no ECoG seed incumbent"
  in
  let wbox = pb.P.elem_box and z_cap = P.z_cap pb ~theta in
  match P.relaxation pb ~wbox ~z_cap ~cones:P.all_cones with
  | None -> Alcotest.fail "the ECoG root box has no relaxation"
  | Some r -> (
      let root = r.P.socp in
      match
        Socp.find_strictly_feasible root
          ~start:(P.project r (P.center_point pb ~wbox ~z_cap))
      with
      | Socp.Strictly_feasible x -> (root, x)
      | Socp.Unknown _ | Socp.Infeasible _ ->
          Alcotest.fail "the ECoG root program is feasible")

let test_socp_trials_per_step () =
  (* The ECoG WL 6 root program under the solver's default parameters
     ends its τ ladder at τ ≈ 2.6e9, where the barrier's value is ≈ 1e9
     and a Newton decrease of 1e-10 is below its ulp.  A line search
     testing f(x + t·d) <= f(x) + ¼t·gᵀd halved its steps on rounding
     noise there: the last rung ran into the 80-iteration cap at 14.5
     trials per iteration.  The ray's difference converges in a few.
     The test reruns the solve's ladder (factor 15 per rung) with the
     same Newton parameters, checks that it lands on the solve's own
     point, and counts the last rung's trials per Newton iteration. *)
  let root, start = ecog_root () in
  let params = Socp.default_params in
  let sol = Socp.solve ~params root ~start in
  let ws = Newton.workspace root.Socp.n in
  let center tau x =
    Newton.minimize_into ~params:params.Socp.newton ws
      (Socp.centering_for_tests root tau) x
  in
  let x = ref start and tau = ref params.Socp.tau0 in
  for _ = 2 to sol.Socp.outer_iterations do
    x := (center !tau !x).Newton.x;
    tau := 15.0 *. !tau
  done;
  checkb "the ladder reaches the solve's final tau" true
    (Int64.bits_of_float !tau = Int64.bits_of_float sol.Socp.tau_final);
  let r = center !tau !x in
  checkb "the last rung lands on the solve's point" true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       r.Newton.x sol.Socp.x);
  checkb "the last rung converges" true (r.Newton.status = Newton.Converged);
  let per_iteration =
    float_of_int r.Newton.trials /. float_of_int r.Newton.iterations
  in
  checkb
    (Printf.sprintf "trials per Newton iteration at the final tau: %.2f <= 2"
       per_iteration)
    true (per_iteration <= 2.0)

(* ------------------------------------------------------------------ *)
(* Admm_qp                                                             *)
(* ------------------------------------------------------------------ *)

let test_admm_unconstrained_like () =
  (* min (x-3)² with -10 <= x <= 10: optimum interior at 3. *)
  let pb =
    Admm_qp.box_problem
      ~p:(Mat.scale 2.0 (Mat.identity 1))
      ~q:[| -6.0 |] ~lo:[| -10.0 |] ~hi:[| 10.0 |] ()
  in
  let s = Admm_qp.solve pb in
  checkb "solved" true (s.Admm_qp.status = Admm_qp.Solved);
  checkf 1e-5 "interior optimum" 3.0 s.Admm_qp.x.(0)

let test_admm_active_bound () =
  (* min (x-3)² with x <= 1: bound active. *)
  let pb =
    Admm_qp.box_problem
      ~p:(Mat.scale 2.0 (Mat.identity 1))
      ~q:[| -6.0 |] ~lo:[| -1.0 |] ~hi:[| 1.0 |] ()
  in
  let s = Admm_qp.solve pb in
  checkf 1e-5 "clipped optimum" 1.0 s.Admm_qp.x.(0)

let test_admm_general_constraints () =
  (* min x² + y² s.t. x + y >= 2: optimum (1,1). *)
  let pb =
    Admm_qp.problem
      ~p:(Mat.scale 2.0 (Mat.identity 2))
      ~a:[| [| 1.0; 1.0 |] |]
      ~l:[| 2.0 |] ~u:[| Float.infinity |] ()
  in
  let s = Admm_qp.solve pb in
  checkf 1e-4 "x" 1.0 s.Admm_qp.x.(0);
  checkf 1e-4 "y" 1.0 s.Admm_qp.x.(1)

let test_admm_validation () =
  checkb "l > u rejected" true
    (match
       Admm_qp.box_problem ~lo:[| 1.0 |] ~hi:[| 0.0 |] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Cross-validation of the two independent convex solvers on random
   box QPs: the barrier method and ADMM must agree. *)
let prop_admm_agrees_with_barrier =
  QCheck.Test.make ~name:"ADMM and barrier agree on random box QPs"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let base =
        Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let p =
        Mat.add_scaled_identity (0.5 *. float_of_int n)
          (Mat.mul base (Mat.transpose base))
      in
      let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let admm = Admm_qp.solve (Admm_qp.box_problem ~p ~q ~lo ~hi ()) in
      let socp =
        Socp.solve
          (Socp.problem ~p ~q ~lins:(box_constraints lo hi) n)
          ~start:(Vec.zeros n)
      in
      Float.abs (admm.Admm_qp.objective -. socp.Socp.objective)
      <= 1e-4 *. (1.0 +. Float.abs socp.Socp.objective))

(* Warm-started barrier solves (schedule advance from a near-optimal
   start) must return the same certified answer as a cold solve: random
   box QPs with a cone, solved cold from scratch and then warm from the
   cold optimum with [warm_start_params] on the cold solve's terminal
   tau. *)
let prop_warm_start_agrees_with_cold =
  QCheck.Test.make ~name:"warm-started barrier agrees with cold solve"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let base =
        Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let p =
        Mat.add_scaled_identity (0.5 *. float_of_int n)
          (Mat.mul base (Mat.transpose base))
      in
      let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let radius = Stats.Rng.uniform rng ~lo:1.0 ~hi:4.0 in
      let cone =
        { Socp.l = Mat.identity n; g = Vec.zeros n; c = Vec.zeros n;
          d = radius }
      in
      let pb =
        Socp.problem ~p ~q ~lins:(box_constraints lo hi) ~socs:[ cone ] n
      in
      match Socp.find_strictly_feasible pb ~start:(Vec.zeros n) with
      | Socp.Infeasible _ | Socp.Unknown _ ->
          false (* origin is always feasible here *)
      | Socp.Strictly_feasible x0 ->
          let cold = Socp.solve pb ~start:x0 in
          QCheck.assume (Socp.is_strictly_interior pb cold.Socp.x);
          let warm =
            Socp.solve
              ~params:
                (Socp.warm_start_params Socp.default_params
                   ~tau_final:cold.Socp.tau_final)
              pb ~start:cold.Socp.x
          in
          Socp.is_feasible ~tol:1e-7 pb warm.Socp.x
          && Float.abs (warm.Socp.objective -. cold.Socp.objective)
             <= cold.Socp.gap_bound +. warm.Socp.gap_bound
                +. (1e-7 *. (1.0 +. Float.abs cold.Socp.objective)))

let test_warm_start_params () =
  let p = Socp.default_params in
  (* A start from a solve that ended 6.5 rungs up the ladder skips 5,
     keeping one centering rung below the producing solve's tau. *)
  let w =
    Socp.warm_start_params p ~tau_final:(p.Socp.tau0 *. (15.0 ** 6.5))
  in
  checkf 1e-9 "tau0 advanced 5 levels" (p.Socp.tau0 *. (15.0 ** 5.0))
    w.Socp.tau0;
  checkf 1e-12 "gap_tol unchanged" p.Socp.gap_tol w.Socp.gap_tol;
  let skipped tau_final = (Socp.warm_start_params p ~tau_final).Socp.tau0 in
  checkf 0.0 "no ladder ran: nothing skipped" p.Socp.tau0 (skipped Float.nan);
  checkf 0.0 "below tau0: nothing skipped" p.Socp.tau0 (skipped 0.5);
  checkf 0.0 "one rung: nothing skipped" p.Socp.tau0
    (skipped (p.Socp.tau0 *. 15.0 *. 1.5))

(* A shared 3-variable test problem: coupled quadratic, unit box, and a
   ball of radius 2 around the origin. *)
let fold_test_problem () =
  let p =
    [| [| 2.0; 1.0; 0.0 |]; [| 1.0; 2.0; 0.0 |]; [| 0.0; 0.0; 2.0 |] |]
  in
  let q = [| -1.0; 0.5; -2.0 |] in
  let lins = box_constraints (Vec.make 3 (-1.0)) (Vec.make 3 1.0) in
  let ball =
    { Socp.l = Mat.identity 3; g = Vec.zeros 3; c = Vec.zeros 3; d = 2.0 }
  in
  Socp.problem ~p ~q ~lins ~socs:[ ball ] 3

let test_socp_fold_substitution () =
  let pb = fold_test_problem () in
  let v = 0.25 in
  let folded = fold_toy pb ~j:1 ~v in
  let embed y = [| y.(0); v *. y.(2); y.(1) |] in
  (* The fold is exact: the folded objective at any point equals the full
     objective at its image, and so do the constraint slacks. *)
  let rng = Stats.Rng.create 5 in
  for _ = 1 to 25 do
    let y = Vec.init 3 (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
    checkf 1e-10 "objective identity"
      (Socp.objective_value pb (embed y))
      (Socp.objective_value folded y);
    checkf 1e-10 "violation identity"
      (Socp.max_violation pb (embed y))
      (Socp.max_violation folded y)
  done;
  (* At s = 1 the folded problem is the slice x_1 = v: its optimum maps
     to a full-space feasible point on the slice. *)
  let slice =
    Socp.of_parts ~p:folded.Socp.p ~q:folded.Socp.q
      ~lins:
        (Array.append folded.Socp.lins
           [| { Socp.a = [| 0.0; 0.0; 1.0 |]; b = 1.0 +. 1e-6 };
              { Socp.a = [| 0.0; 0.0; -1.0 |]; b = -1.0 +. 1e-6 } |])
      ~socs:folded.Socp.socs 3
  in
  match Socp.find_strictly_feasible slice ~start:[| 0.0; 0.0; 1.0 |] with
  | Socp.Strictly_feasible y0 ->
      let sol = Socp.solve slice ~start:y0 in
      let x = embed sol.Socp.x in
      checkb "embedded optimum feasible" true (Socp.is_feasible ~tol:1e-5 pb x);
      checkf 1e-5 "embedded optimum on the slice" v x.(1)
  | Socp.Infeasible _ | Socp.Unknown _ ->
      Alcotest.fail "the slice has an interior"

(* The tentpole property: pulling a clipped parent optimum toward a
   strictly interior target always lands certifiably inside — on random
   box-and-ball problems with the start pushed onto a random box face,
   exactly how branch-cut clipping places inherited points. *)
let prop_pull_in_strictly_interior =
  QCheck.Test.make ~name:"pull-in always lands strictly interior"
    ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let radius = Stats.Rng.uniform rng ~lo:1.0 ~hi:4.0 in
      let cone =
        { Socp.l = Mat.identity n; g = Vec.zeros n; c = Vec.zeros n;
          d = radius }
      in
      let pb = Socp.problem ~lins:(box_constraints lo hi) ~socs:[ cone ] n in
      let x0 =
        Array.init n (fun i -> Stats.Rng.uniform rng ~lo:lo.(i) ~hi:hi.(i))
      in
      let j = Stats.Rng.int rng n in
      x0.(j) <- (if Stats.Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.5 then lo.(j)
                 else hi.(j));
      (* The origin is strictly interior by construction (box spans it,
         ball slack = radius >= 1), so the pull-in must succeed... *)
      match Socp.pull_to_interior pb ~target:(Vec.zeros n) x0 with
      | None -> QCheck.Test.fail_report "pull-in failed with interior target"
      | Some y ->
          (* ...and certifiably: strictly positive relative slack on
             every constraint, not just epsilon-feasibility. *)
          if Socp.min_relative_slack pb y <= 0.0 then
            QCheck.Test.fail_reportf "pulled point has slack %.3g"
              (Socp.min_relative_slack pb y)
          else begin
            match Socp.prepare_warm_start pb x0 ~target:(Vec.zeros n) with
            | None ->
                QCheck.Test.fail_report "prepare refused a repairable point"
            | Some (z, _) -> Socp.min_relative_slack pb z > 0.0
          end)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pqueue_sorted;
      prop_pqueue_filter_heap;
      prop_cert_lower_bounds_reference;
      prop_admm_agrees_with_barrier;
      prop_warm_start_agrees_with_cold;
      prop_pull_in_strictly_interior;
      prop_bnb_parallel_incumbent;
    ]

let () =
  Alcotest.run "optim"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "directed rounding" `Quick
            test_interval_directed_rounding;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "filter" `Quick test_pqueue_filter;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "filter releases dropped values" `Quick
            test_pqueue_filter_releases_dropped;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "push/take/release" `Quick test_frontier_basic;
          Alcotest.test_case "bound covers in-flight keys" `Quick
            test_frontier_bound_in_flight;
          Alcotest.test_case "park, drain and close" `Quick
            test_frontier_park;
          Alcotest.test_case "prune keeps live exact" `Quick
            test_frontier_prune_live;
          Alcotest.test_case "4-domain bound stress" `Quick
            test_frontier_stress;
        ] );
      ( "newton",
        [
          Alcotest.test_case "quadratic" `Quick test_newton_quadratic;
          Alcotest.test_case "log barrier 1d" `Quick
            test_newton_log_barrier_1d;
          Alcotest.test_case "infeasible start" `Quick
            test_newton_rejects_infeasible_start;
          Alcotest.test_case "NaN decrement diverges" `Quick
            test_newton_nan_decrement_is_diverged;
          Alcotest.test_case "split oracle: derivs at accepted points only"
            `Quick test_newton_split_oracle_calls;
        ] );
      ( "socp",
        [
          Alcotest.test_case "box QP" `Quick test_socp_box_qp;
          Alcotest.test_case "unconstrained" `Quick test_socp_unconstrained;
          Alcotest.test_case "cone projection" `Quick
            test_socp_cone_projection;
          Alcotest.test_case "lower bound certificate" `Quick
            test_socp_lower_bound_certificate;
          Alcotest.test_case "dual certificate (analytic)" `Quick
            test_socp_certificate_analytic;
          Alcotest.test_case "dual certificate survives corrupt primal"
            `Quick test_socp_certificate_survives_corrupt_primal;
          Alcotest.test_case "rejects infeasible start" `Quick
            test_socp_rejects_infeasible_start;
          Alcotest.test_case "boundary start rejected" `Quick
            test_socp_boundary_start_rejected;
          Alcotest.test_case "phase1 feasible" `Quick
            test_phase1_finds_feasible;
          Alcotest.test_case "phase1 infeasible" `Quick
            test_phase1_detects_infeasible;
          Alcotest.test_case "phase-I then solve" `Quick test_phase1_then_solve;
          Alcotest.test_case "warm-start params" `Quick test_warm_start_params;
          Alcotest.test_case "restrict substitutes exactly" `Quick
            test_socp_fold_substitution;
          Alcotest.test_case "dimension checks" `Quick
            test_socp_dimension_checks;
          Alcotest.test_case "of_parts rejects asymmetric P" `Quick
            test_socp_of_parts_rejects_asymmetric_p;
        ] );
      ( "gradcheck",
        [
          Alcotest.test_case "SOC barrier derivatives" `Quick
            test_socp_barrier_derivatives;
          Alcotest.test_case "SOC oracle bitwise vs per-call LᵀL" `Quick
            test_socp_oracle_bitwise;
          Alcotest.test_case "ray decrease matches the value difference" `Quick
            test_socp_ray_decrease;
          Alcotest.test_case "ECoG root: trials per Newton iteration" `Quick
            test_socp_trials_per_step;
        ] );
      ( "admm",
        [
          Alcotest.test_case "interior optimum" `Quick
            test_admm_unconstrained_like;
          Alcotest.test_case "active bound" `Quick test_admm_active_bound;
          Alcotest.test_case "general constraints" `Quick
            test_admm_general_constraints;
          Alcotest.test_case "validation" `Quick test_admm_validation;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "integer optimum" `Quick
            test_bnb_finds_integer_optimum;
          Alcotest.test_case "matches brute force" `Quick
            test_bnb_exhaustive_agreement;
          Alcotest.test_case "node budget" `Quick test_bnb_node_budget;
          Alcotest.test_case "infeasible root" `Quick test_bnb_infeasible_root;
          Alcotest.test_case "pruning" `Quick
            test_bnb_pruning_respects_incumbent;
          Alcotest.test_case "wall-clock time limit" `Quick
            test_bnb_wall_clock_time_limit;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_bnb_parallel_matches_sequential;
          Alcotest.test_case "domains=1 pinned search" `Quick
            test_bnb_domains_one_pinned;
          Alcotest.test_case "single-chain termination on 4 domains" `Quick
            test_bnb_chain_termination;
          Alcotest.test_case "4-domain checkpoint resumes" `Quick
            test_bnb_parallel_checkpoint_resume;
          Alcotest.test_case "progress line per node" `Quick
            test_bnb_progress_line_per_node;
        ] );
      ("properties", qcheck_tests);
    ]
