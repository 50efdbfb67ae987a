(* Tests for the statistics substrate. *)

open Stats

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  checkb "different streams" true (!same < 5)

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    checkb "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 8 in
  let n = 20_000 in
  let s = ref 0.0 in
  for _ = 1 to n do
    s := !s +. Rng.uniform rng ~lo:2.0 ~hi:4.0
  done;
  checkf 0.05 "mean about 3" 3.0 (!s /. float_of_int n)

let test_rng_int_bounds () =
  let rng = Rng.create 9 in
  let seen = Array.make 7 0 in
  for _ = 1 to 7000 do
    let v = Rng.int rng 7 in
    checkb "in range" true (v >= 0 && v < 7);
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i c -> checkb (Printf.sprintf "bucket %d populated" i) true (c > 700))
    seen

let test_rng_permutation () =
  let rng = Rng.create 10 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 100 (fun i -> i))
    sorted

let test_rng_split_independent () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 parent = Rng.int64 child then incr same
  done;
  checkb "split streams differ" true (!same < 5)

(* ------------------------------------------------------------------ *)
(* Gaussian                                                            *)
(* ------------------------------------------------------------------ *)

let test_gaussian_cdf_known_values () =
  checkf 1e-12 "cdf(0)" 0.5 (Gaussian.cdf 0.0);
  checkf 1e-9 "cdf(1.96)" 0.9750021048517795 (Gaussian.cdf 1.96);
  checkf 1e-9 "cdf(-1.96)" 0.024997895148220428 (Gaussian.cdf (-1.96));
  checkf 1e-10 "cdf(1)" 0.8413447460685429 (Gaussian.cdf 1.0);
  checkf 1e-12 "cdf symmetric" 1.0 (Gaussian.cdf 0.7 +. Gaussian.cdf (-0.7))

let test_gaussian_pdf () =
  checkf 1e-12 "pdf(0)" 0.3989422804014327 (Gaussian.pdf 0.0);
  checkf 1e-12 "pdf symmetric" (Gaussian.pdf 1.3) (Gaussian.pdf (-1.3))

let test_gaussian_inv_cdf_known () =
  checkf 1e-10 "probit(0.5)" 0.0 (Gaussian.inv_cdf 0.5);
  checkf 1e-8 "probit(0.975)" 1.959963984540054 (Gaussian.inv_cdf 0.975);
  checkf 1e-8 "probit(0.995)" 2.5758293035489004 (Gaussian.inv_cdf 0.995);
  checkf 1e-7 "probit(1e-6)" (-4.753424308822899) (Gaussian.inv_cdf 1e-6)

let test_gaussian_inv_cdf_domain () =
  checkb "0 rejected" true
    (match Gaussian.inv_cdf 0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "1 rejected" true
    (match Gaussian.inv_cdf 1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_beta_of_confidence () =
  (* eq. 16: beta = probit(0.5 + rho/2). rho = 0.99 -> 2.576. *)
  checkf 1e-6 "rho 0.99" 2.5758293035489004 (Gaussian.beta_of_confidence 0.99);
  checkf 1e-6 "rho 0.95" 1.959963984540054 (Gaussian.beta_of_confidence 0.95);
  checkf 1e-12 "rho 0" 0.0 (Gaussian.beta_of_confidence 0.0)

let test_erf_known () =
  checkf 1e-12 "erf(0)" 0.0 (Gaussian.erf 0.0);
  checkf 1e-10 "erf(1)" 0.8427007929497149 (Gaussian.erf 1.0);
  checkf 1e-10 "erf(2)" 0.9953222650189527 (Gaussian.erf 2.0);
  checkf 1e-12 "erf odd" (-.Gaussian.erf 0.8) (Gaussian.erf (-0.8));
  checkf 1e-10 "erfc(3)" 2.2090496998585441e-05 (Gaussian.erfc 3.0)

let test_tail_probability () =
  checkf 1e-10 "one sigma tail" (1.0 -. Gaussian.cdf 1.0)
    (Gaussian.tail_probability ~mean:5.0 ~sigma:2.0 7.0);
  checkf 1e-12 "degenerate above" 0.0
    (Gaussian.tail_probability ~mean:1.0 ~sigma:0.0 2.0);
  checkf 1e-12 "degenerate below" 1.0
    (Gaussian.tail_probability ~mean:1.0 ~sigma:0.0 0.0)

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_std_normal_moments () =
  let rng = Rng.create 20 in
  let n = 50_000 in
  let s = ref 0.0 and s2 = ref 0.0 in
  for _ = 1 to n do
    let x = Sampler.std_normal rng in
    s := !s +. x;
    s2 := !s2 +. (x *. x)
  done;
  let mean = !s /. float_of_int n in
  let var = (!s2 /. float_of_int n) -. (mean *. mean) in
  checkf 0.02 "mean 0" 0.0 mean;
  checkf 0.05 "var 1" 1.0 var

let test_mvn_moments () =
  let mean = [| 1.0; -2.0 |] in
  let cov = [| [| 2.0; 0.8 |]; [| 0.8; 1.0 |] |] in
  let sampler = Sampler.mvn ~mean ~cov in
  let rng = Rng.create 21 in
  let draws = Sampler.mvn_draws sampler rng 40_000 in
  let mu = Moments.mean draws in
  let c = Moments.covariance draws in
  checkf 0.05 "mean 0" 1.0 mu.(0);
  checkf 0.05 "mean 1" (-2.0) mu.(1);
  checkf 0.08 "cov 00" 2.0 c.(0).(0);
  checkf 0.06 "cov 01" 0.8 c.(0).(1);
  checkf 0.05 "cov 11" 1.0 c.(1).(1)

let test_mvn_wrong_dimension () =
  checkb "rejects mismatch" true
    (match Sampler.mvn ~mean:[| 0.0 |] ~cov:(Linalg.Mat.identity 2) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Moments                                                             *)
(* ------------------------------------------------------------------ *)

let test_moments_exact () =
  let x = [| [| 1.0; 2.0 |]; [| 3.0; 6.0 |] |] in
  Alcotest.(check (array (float 1e-12)))
    "mean" [| 2.0; 4.0 |] (Moments.mean x);
  let c = Moments.covariance x in
  (* centered rows (±1, ±2): cov = [[1,2],[2,4]] with 1/N *)
  checkf 1e-12 "c00" 1.0 c.(0).(0);
  checkf 1e-12 "c01" 2.0 c.(0).(1);
  checkf 1e-12 "c11" 4.0 c.(1).(1);
  let cu = Moments.covariance_unbiased x in
  checkf 1e-12 "unbiased doubles" 2.0 cu.(0).(0);
  Alcotest.(check (array (float 1e-12)))
    "variances" [| 1.0; 4.0 |] (Moments.variances x);
  Alcotest.(check (array (float 1e-12)))
    "column min" [| 1.0; 2.0 |] (Moments.column_min x);
  Alcotest.(check (array (float 1e-12)))
    "column max" [| 3.0; 6.0 |] (Moments.column_max x)

let test_moments_empty () =
  checkb "empty rejected" true
    (match Moments.mean [||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "unbiased needs 2" true
    (match Moments.covariance_unbiased [| [| 1.0 |] |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Scatter                                                             *)
(* ------------------------------------------------------------------ *)

let two_class_data () =
  let a = [| [| 1.0; 0.0 |]; [| 2.0; 1.0 |]; [| 3.0; -1.0 |] |] in
  let b = [| [| -1.0; 0.5 |]; [| -2.0; -0.5 |] |] in
  Scatter.of_data a b

let test_scatter_means () =
  let s = two_class_data () in
  Alcotest.(check (array (float 1e-12)))
    "mu_a" [| 2.0; 0.0 |] s.Scatter.mu_a;
  Alcotest.(check (array (float 1e-12)))
    "mu_b" [| -1.5; 0.0 |] s.Scatter.mu_b;
  Alcotest.(check (array (float 1e-12)))
    "mean difference" [| 3.5; 0.0 |]
    (Scatter.mean_difference s);
  Alcotest.(check (array (float 1e-12)))
    "pooled mean" [| 0.25; 0.0 |] (Scatter.pooled_mean s)

let test_scatter_between_class_rank_one () =
  let s = two_class_data () in
  let sb = Scatter.between_class s in
  (* S_B = d dᵀ: rank one, d = (3.5, 0) *)
  checkf 1e-12 "sb00" 12.25 sb.(0).(0);
  checkf 1e-12 "sb01" 0.0 sb.(0).(1);
  checkf 1e-12 "sb11" 0.0 sb.(1).(1)

let test_scatter_within_class_psd () =
  let s = two_class_data () in
  let sw = Scatter.within_class s in
  checkb "symmetric" true (Linalg.Mat.is_symmetric sw);
  (* S + tol·I factorises only if λ_min(S) > −tol. *)
  checkb "psd" true
    (Linalg.Cholesky.is_positive_definite
       (Linalg.Mat.add_scaled_identity 1e-12 sw))

let test_fisher_ratio () =
  let s = two_class_data () in
  (* along e2 the mean difference is 0 -> infinite ratio *)
  checkb "degenerate direction infinite" true
    (Scatter.fisher_ratio s [| 0.0; 1.0 |] = Float.infinity);
  let r = Scatter.fisher_ratio s [| 1.0; 0.0 |] in
  (* S_W along e1: (2/3 + 1/4)/2 = 11/24; t = 3.5 -> r = (11/24)/12.25 *)
  checkf 1e-12 "analytic ratio" (11.0 /. 24.0 /. 12.25) r;
  (* scale invariance *)
  checkf 1e-12 "scale invariant" r (Scatter.fisher_ratio s [| 2.0; 0.0 |])

let test_projected_stats_and_error () =
  let s = two_class_data () in
  let (ma, _), (mb, _) = Scatter.projected_stats s [| 1.0; 0.0 |] in
  checkf 1e-12 "proj mean a" 2.0 ma;
  checkf 1e-12 "proj mean b" (-1.5) mb;
  let e = Scatter.theoretical_error s [| 1.0; 0.0 |] in
  checkb "error in (0, 0.5)" true (e > 0.0 && e < 0.5);
  checkf 1e-12 "equal means give 0.5" 0.5
    (Scatter.theoretical_error s [| 0.0; 1.0 |])

(* ------------------------------------------------------------------ *)
(* Confusion                                                           *)
(* ------------------------------------------------------------------ *)

let test_confusion_counting () =
  let truth = [| true; true; false; false; true |] in
  let predicted = [| true; false; false; true; true |] in
  let c = Confusion.of_predictions ~truth ~predicted in
  checki "tp" 2 c.Confusion.tp;
  checki "fn" 1 c.Confusion.fn;
  checki "fp" 1 c.Confusion.fp;
  checki "tn" 1 c.Confusion.tn;
  checkf 1e-12 "error rate" 0.4 (Confusion.error_rate c);
  checkf 1e-12 "accuracy" 0.6 (Confusion.accuracy c);
  checkf 1e-12 "sensitivity" (2.0 /. 3.0) (Confusion.sensitivity c);
  checkf 1e-12 "specificity" 0.5 (Confusion.specificity c)

let test_confusion_merge () =
  let a = Confusion.add Confusion.empty ~truth:true ~predicted:true in
  let b = Confusion.add Confusion.empty ~truth:false ~predicted:true in
  let m = Confusion.merge a b in
  checki "total" 2 (Confusion.total m);
  checki "errors" 1 (Confusion.errors m)

let test_confusion_empty_error () =
  checkb "empty error rate raises" true
    (match Confusion.error_rate Confusion.empty with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_binning () =
  let h =
    Histogram.of_values ~lo:0.0 ~hi:1.0 ~bins:4 [| 0.1; 0.3; 0.3; 0.9; 1.5; -0.2 |]
  in
  checki "total includes out of range" 6 (Histogram.total h);
  checki "underflow" 1 h.Histogram.underflow;
  checki "overflow" 1 h.Histogram.overflow;
  checki "bin 1 holds the pair" 2 h.Histogram.counts.(1);
  checki "mode" 1 (Histogram.mode_bin h);
  checkf 1e-12 "bin center" 0.375 (Histogram.bin_center h 1);
  checkb "upper edge overflows" true (Histogram.bin_of h 1.0 = `Overflow)

let test_histogram_mean_estimate () =
  let h = Histogram.of_values ~lo:0.0 ~hi:10.0 ~bins:10 [| 2.5; 2.5; 7.5 |] in
  (* bin centers 2.5 and 7.5: mean = (2.5+2.5+7.5)/3 *)
  checkf 1e-12 "mean" (12.5 /. 3.0) (Histogram.mean_estimate h)

let test_histogram_render () =
  let h = Histogram.of_values ~lo:0.0 ~hi:1.0 ~bins:2 [| 0.25; 0.25; 0.75 |] in
  let s = Histogram.render ~width:10 h in
  checkb "renders bars" true (String.length s > 0);
  checkb "contains counts" true
    (String.split_on_char '\n' s
    |> List.exists (fun line -> String.length line > 0))

let test_histogram_validation () =
  checkb "lo >= hi" true
    (match Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "zero bins" true
    (match Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_of_counts () =
  let h = Histogram.of_counts ~lo:0.0 ~hi:4.0 ~underflow:2 [| 1; 0; 3; 0 |] in
  checki "total" 6 (Histogram.total h);
  checki "underflow kept" 2 h.Histogram.underflow;
  checki "bin 2" 3 h.Histogram.counts.(2);
  (* The counts array is copied, not aliased. *)
  let src = [| 5 |] in
  let h2 = Histogram.of_counts ~lo:0.0 ~hi:1.0 src in
  src.(0) <- 0;
  checki "copied counts" 5 h2.Histogram.counts.(0);
  checkb "negative count rejected" true
    (match Histogram.of_counts ~lo:0.0 ~hi:1.0 [| -1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "empty counts rejected" true
    (match Histogram.of_counts ~lo:0.0 ~hi:1.0 [||] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_merge () =
  let a = Histogram.of_values ~lo:0.0 ~hi:1.0 ~bins:4 [| 0.1; 0.6; 1.5 |] in
  let b = Histogram.of_values ~lo:0.0 ~hi:1.0 ~bins:4 [| 0.1; -0.5 |] in
  let m = Histogram.merge a b in
  checki "merged total" 5 (Histogram.total m);
  checki "merged bin 0" 2 m.Histogram.counts.(0);
  checki "merged underflow" 1 m.Histogram.underflow;
  checki "merged overflow" 1 m.Histogram.overflow;
  let c = Histogram.of_values ~lo:0.0 ~hi:2.0 ~bins:4 [| 0.1 |] in
  checkb "layout mismatch rejected" true
    (match Histogram.merge a c with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_quantile () =
  (* 100 values uniform over bin edges: quantiles interpolate linearly,
     so p maps back to (roughly) lo + p * (hi - lo). *)
  let values = Array.init 100 (fun i -> float_of_int i /. 100.0) in
  let h = Histogram.of_values ~lo:0.0 ~hi:1.0 ~bins:10 values in
  checkf 0.05 "p50 near midpoint" 0.5 (Histogram.quantile h 0.5);
  checkf 0.05 "p90" 0.9 (Histogram.quantile h 0.9);
  checkf 1e-12 "p0 is lo" 0.0 (Histogram.quantile h 0.0);
  checkf 1e-12 "p1 is hi" 1.0 (Histogram.quantile h 1.0);
  (* Tails have no position: quantiles landing there clamp to the
     edges. *)
  let tails =
    Histogram.of_counts ~lo:1.0 ~hi:2.0 ~underflow:10 ~overflow:10 [| 0; 0 |]
  in
  checkf 1e-12 "underflow tail reports lo" 1.0 (Histogram.quantile tails 0.2);
  checkf 1e-12 "overflow tail reports hi" 2.0 (Histogram.quantile tails 0.9);
  checkb "empty rejected" true
    (match Histogram.quantile (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2) 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "p out of range rejected" true
    (match Histogram.quantile h 1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* McNemar                                                             *)
(* ------------------------------------------------------------------ *)

let test_mcnemar_counts () =
  let truth = [| true; true; false; false; true |] in
  let a = [| true; true; false; true; false |] in
  let b = [| true; false; true; true; false |] in
  let r = Mcnemar.compare ~truth ~a ~b in
  checki "both right" 1 r.Mcnemar.both;
  checki "a only" 2 r.Mcnemar.a_only;
  checki "b only" 0 r.Mcnemar.b_only;
  checki "neither" 2 r.Mcnemar.neither;
  checkb "direction" true (r.Mcnemar.better = `A)

let test_mcnemar_identical_classifiers () =
  let truth = [| true; false; true |] in
  let a = [| true; false; false |] in
  let r = Mcnemar.compare ~truth ~a ~b:a in
  checkf 1e-12 "no discordant pairs -> p = 1" 1.0 r.Mcnemar.p_value;
  checkb "tie" true (r.Mcnemar.better = `Tie)

let test_mcnemar_exact_small_case () =
  (* 5 discordant pairs all won by A: p = 2 * P(Bin(5, 1/2) <= 0)
     = 2/32 = 0.0625. *)
  let truth = Array.make 5 true in
  let a = Array.make 5 true in
  let b = Array.make 5 false in
  let r = Mcnemar.compare ~truth ~a ~b in
  checkf 1e-12 "exact binomial" 0.0625 r.Mcnemar.p_value;
  checkb "not significant at 5 pairs" true (not (Mcnemar.significant r));
  (* 8 pairs all won by A: p = 2/256 < 0.05 *)
  let truth = Array.make 8 true in
  let r =
    Mcnemar.compare ~truth ~a:(Array.make 8 true) ~b:(Array.make 8 false)
  in
  checkf 1e-12 "8 wins" (2.0 /. 256.0) r.Mcnemar.p_value;
  checkb "significant" true (Mcnemar.significant r)

let test_mcnemar_null_calibration () =
  (* Under the null (both classifiers fair coins), the p-value should not
     be small too often: check the 5% rejection rate loosely. *)
  let rng = Rng.create 60 in
  let rejections = ref 0 in
  let trials = 400 in
  for _ = 1 to trials do
    let n = 60 in
    let truth = Array.init n (fun _ -> Rng.bool rng) in
    let a = Array.init n (fun _ -> Rng.bool rng) in
    let b = Array.init n (fun _ -> Rng.bool rng) in
    if Mcnemar.significant (Mcnemar.compare ~truth ~a ~b) then
      incr rejections
  done;
  let rate = float_of_int !rejections /. float_of_int trials in
  checkb (Printf.sprintf "null rejection rate %.3f near alpha" rate) true
    (rate < 0.09)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf monotone" ~count:300
    QCheck.(pair (float_range (-6.0) 6.0) (float_range (-6.0) 6.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Gaussian.cdf lo <= Gaussian.cdf hi +. 1e-15)

let prop_inv_cdf_roundtrip =
  QCheck.Test.make ~name:"cdf (inv_cdf p) = p" ~count:300
    QCheck.(float_range 1e-8 (1.0 -. 1e-8))
    (fun p ->
      let x = Gaussian.inv_cdf p in
      Float.abs (Gaussian.cdf x -. p) < 1e-9)

let prop_erf_erfc_complementary =
  QCheck.Test.make ~name:"erf + erfc = 1" ~count:300
    QCheck.(float_range (-6.0) 6.0)
    (fun x -> Float.abs (Gaussian.erf x +. Gaussian.erfc x -. 1.0) < 1e-12)

let prop_covariance_psd =
  QCheck.Test.make ~name:"sample covariance is PSD" ~count:100
    QCheck.(pair (int_range 2 20) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let x =
        Array.init n (fun _ ->
            Array.init 4 (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0))
      in
      Linalg.Cholesky.is_positive_definite
        (Linalg.Mat.add_scaled_identity 1e-9 (Moments.covariance x)))

let prop_fisher_scale_invariant =
  QCheck.Test.make ~name:"fisher ratio scale invariant" ~count:200
    QCheck.(pair (float_range 0.1 10.0) (int_range 0 1_000_000))
    (fun (lambda, seed) ->
      let rng = Rng.create seed in
      let gen () =
        Array.init 8 (fun _ ->
            Array.init 3 (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0))
      in
      let s = Scatter.of_data (gen ()) (gen ()) in
      let w = Array.init 3 (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let r1 = Scatter.fisher_ratio s w in
      let r2 = Scatter.fisher_ratio s (Linalg.Vec.scale lambda w) in
      QCheck.assume (Float.is_finite r1 && r1 > 1e-12);
      Float.abs (r1 -. r2) /. r1 < 1e-9)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cdf_monotone;
      prop_inv_cdf_roundtrip;
      prop_erf_erfc_complementary;
      prop_covariance_psd;
      prop_fisher_scale_invariant;
    ]

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "gaussian",
        [
          Alcotest.test_case "cdf known values" `Quick
            test_gaussian_cdf_known_values;
          Alcotest.test_case "pdf" `Quick test_gaussian_pdf;
          Alcotest.test_case "inv_cdf known" `Quick test_gaussian_inv_cdf_known;
          Alcotest.test_case "inv_cdf domain" `Quick
            test_gaussian_inv_cdf_domain;
          Alcotest.test_case "beta of confidence (eq 16)" `Quick
            test_beta_of_confidence;
          Alcotest.test_case "erf known" `Quick test_erf_known;
          Alcotest.test_case "tail probability" `Quick test_tail_probability;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "std normal moments" `Slow
            test_std_normal_moments;
          Alcotest.test_case "mvn moments" `Slow test_mvn_moments;
          Alcotest.test_case "mvn dim mismatch" `Quick test_mvn_wrong_dimension;
        ] );
      ( "moments",
        [
          Alcotest.test_case "exact" `Quick test_moments_exact;
          Alcotest.test_case "empty" `Quick test_moments_empty;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "means" `Quick test_scatter_means;
          Alcotest.test_case "between-class rank one" `Quick
            test_scatter_between_class_rank_one;
          Alcotest.test_case "within-class psd" `Quick
            test_scatter_within_class_psd;
          Alcotest.test_case "fisher ratio" `Quick test_fisher_ratio;
          Alcotest.test_case "projected stats" `Quick
            test_projected_stats_and_error;
        ] );
      ( "confusion",
        [
          Alcotest.test_case "counting" `Quick test_confusion_counting;
          Alcotest.test_case "merge" `Quick test_confusion_merge;
          Alcotest.test_case "empty" `Quick test_confusion_empty_error;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "mean estimate" `Quick
            test_histogram_mean_estimate;
          Alcotest.test_case "render" `Quick test_histogram_render;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
          Alcotest.test_case "of_counts" `Quick test_histogram_of_counts;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "quantile" `Quick test_histogram_quantile;
        ] );
      ( "mcnemar",
        [
          Alcotest.test_case "counts" `Quick test_mcnemar_counts;
          Alcotest.test_case "identical classifiers" `Quick
            test_mcnemar_identical_classifiers;
          Alcotest.test_case "exact small case" `Quick
            test_mcnemar_exact_small_case;
          Alcotest.test_case "null calibration" `Slow
            test_mcnemar_null_calibration;
        ] );
      ("properties", qcheck_tests);
    ]
