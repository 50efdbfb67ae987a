(* Tests for the extension modules: greedy sequential rounding,
   logistic regression, quantisation analysis, ROC analysis. *)

open Ldafp_core
open Fixedpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

module Gradcheck_helpers = struct
  let check_grad ~f ~grad x =
    (Gradcheck.check ~f ~grad x).Gradcheck.max_grad_error
end

let easy_dataset seed n =
  let rng = Stats.Rng.create seed in
  let gen offset =
    Array.init n (fun _ ->
        [|
          offset +. (0.3 *. Stats.Sampler.std_normal rng);
          0.2 *. Stats.Sampler.std_normal rng;
        |])
  in
  Datasets.Dataset.of_class_matrices ~name:"easy" ~a:(gen 1.0) ~b:(gen (-1.0))

(* ------------------------------------------------------------------ *)
(* Greedy_round                                                        *)
(* ------------------------------------------------------------------ *)

let small_scatter () =
  let a =
    [| [| 0.5; 0.1 |]; [| 0.7; -0.1 |]; [| 0.6; 0.2 |]; [| 0.4; -0.2 |] |]
  in
  let b =
    [| [| -0.5; 0.15 |]; [| -0.7; -0.15 |]; [| -0.6; 0.1 |]; [| -0.4; -0.1 |] |]
  in
  Stats.Scatter.of_data a b

let test_greedy_produces_feasible () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:3) (small_scatter ()) in
  match Greedy_round.train pb with
  | None -> Alcotest.fail "greedy found nothing"
  | Some (w, c) ->
      checkb "feasible" true (Ldafp_problem.feasible pb w);
      checkf 1e-12 "cost consistent" c (Ldafp_problem.cost pb w)

let test_greedy_never_worse_than_chance_on_easy_data () =
  let ds = easy_dataset 21 200 in
  let fmt = Qformat.make ~k:2 ~f:3 in
  match Greedy_round.train_classifier ~fmt ds with
  | None -> Alcotest.fail "no classifier"
  | Some clf -> checkb "separates easy data" true (Eval.error_fixed clf ds < 0.05)

let test_greedy_between_conventional_and_optimal () =
  (* On the paper's synthetic task at a short word length the greedy
     baseline must beat blind rounding (which collapses to 50%). *)
  let rng = Stats.Rng.create 42 in
  let train = Datasets.Synthetic.generate ~n_per_class:600 rng in
  let test = Datasets.Synthetic.generate ~n_per_class:3000 rng in
  let fmt = Qformat.make ~k:2 ~f:2 in
  let conv = Pipeline.train_conventional ~fmt train in
  match Greedy_round.train_classifier ~fmt train with
  | None -> Alcotest.fail "no greedy classifier"
  | Some g ->
      let e_conv = Eval.error_fixed conv test in
      let e_greedy = Eval.error_fixed g test in
      checkb
        (Printf.sprintf "greedy (%.3f) beats conventional (%.3f)" e_greedy
           e_conv)
        true (e_greedy < e_conv -. 0.05)

let test_greedy_weights_on_grid () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:4) (small_scatter ()) in
  match Greedy_round.train pb with
  | None -> Alcotest.fail "nothing"
  | Some (w, _) -> checkb "on grid" true (Ldafp_problem.on_grid pb w)

(* ------------------------------------------------------------------ *)
(* ROC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_roc_perfect_separation () =
  let scores = [| 0.9; 0.8; 0.7; 0.2; 0.1 |] in
  let labels = [| true; true; true; false; false |] in
  let roc = Eval.roc_of_scores ~scores ~labels in
  checkf 1e-12 "perfect AUC" 1.0 roc.Eval.auc

let test_roc_reversed () =
  let scores = [| 0.1; 0.2; 0.8; 0.9 |] in
  let labels = [| true; true; false; false |] in
  let roc = Eval.roc_of_scores ~scores ~labels in
  checkf 1e-12 "worst AUC" 0.0 roc.Eval.auc

let test_roc_random_is_half () =
  (* All scores tied: single diagonal segment, AUC = 1/2. *)
  let scores = [| 0.5; 0.5; 0.5; 0.5 |] in
  let labels = [| true; false; true; false |] in
  let roc = Eval.roc_of_scores ~scores ~labels in
  checkf 1e-12 "tied AUC" 0.5 roc.Eval.auc;
  checki "two points" 2 (Array.length roc.Eval.points)

let test_roc_endpoints_and_monotonicity () =
  let rng = Stats.Rng.create 33 in
  let n = 200 in
  let labels = Array.init n (fun _ -> Stats.Rng.bool rng) in
  let scores =
    Array.mapi
      (fun _ l ->
        (if l then 0.3 else 0.0) +. Stats.Sampler.std_normal rng)
      labels
  in
  let roc = Eval.roc_of_scores ~scores ~labels in
  let k = Array.length roc.Eval.points in
  checkb "starts at origin" true (roc.Eval.points.(0) = (0.0, 0.0));
  checkb "ends at (1,1)" true (roc.Eval.points.(k - 1) = (1.0, 1.0));
  for i = 1 to k - 1 do
    let x0, y0 = roc.Eval.points.(i - 1) and x1, y1 = roc.Eval.points.(i) in
    checkb "monotone" true (x1 >= x0 && y1 >= y0)
  done;
  checkb "informative scores beat chance" true (roc.Eval.auc > 0.5)

let test_roc_fixed_classifier () =
  let ds = easy_dataset 34 200 in
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf = Pipeline.train_conventional ~fmt ds in
  let roc = Eval.roc_fixed clf ds in
  checkb "near-perfect AUC on easy data" true (roc.Eval.auc > 0.98)

let test_roc_validation () =
  checkb "single class rejected" true
    (match
       Eval.roc_of_scores ~scores:[| 1.0; 2.0 |] ~labels:[| true; true |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "mismatch rejected" true
    (match Eval.roc_of_scores ~scores:[| 1.0 |] ~labels:[| true; false |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_margin_sign_matches_predict () =
  let rng = Stats.Rng.create 35 in
  let fmt = Qformat.make ~k:2 ~f:4 in
  List.iter
    (fun polarity ->
      let clf =
        Fixed_classifier.of_weights ~polarity ~fmt
          ~scaling:(Scaling.identity 2) ~weights:[| 0.75; -0.5 |]
          ~threshold:0.125 ()
      in
      for _ = 1 to 200 do
        let x =
          Array.init 2 (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
        in
        checkb "margin >= 0 iff predict" (Fixed_classifier.predict clf x)
          (Fixed_classifier.margin clf x >= 0.0)
      done)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Gradcheck + Logreg                                                  *)
(* ------------------------------------------------------------------ *)

let test_gradcheck_catches_wrong_gradient () =
  let f x = x.(0) *. x.(0) in
  let good = Gradcheck_helpers.check_grad ~f ~grad:(fun x -> [| 2.0 *. x.(0) |]) [| 1.5 |] in
  checkb "correct gradient passes" true (good < 1e-6);
  let bad = Gradcheck_helpers.check_grad ~f ~grad:(fun x -> [| x.(0) |]) [| 1.5 |] in
  checkb "wrong gradient flagged" true (bad > 1e-2)

let test_logreg_loss_oracle_derivatives () =
  (* Finite-difference the hand-derived gradient and Hessian. *)
  let rng = Stats.Rng.create 50 in
  let n = 12 and m = 3 in
  let features =
    Array.init n (fun _ ->
        Array.init m (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
  in
  let labels = Array.init n (fun i -> i mod 2 = 0) in
  let oracle = Logreg.loss_oracle ~lambda:0.3 features labels in
  let theta =
    Array.init (m + 1) (fun _ -> Stats.Rng.uniform rng ~lo:(-0.5) ~hi:0.5)
  in
  match Gradcheck.check_oracle oracle theta with
  | None -> Alcotest.fail "oracle rejected interior point"
  | Some r ->
      checkb "gradient matches finite differences" true
        (r.Gradcheck.max_grad_error < 1e-6);
      checkb "hessian matches finite differences" true
        (r.Gradcheck.max_hess_error < 1e-5)

let test_logreg_separates_easy_data () =
  let ds = easy_dataset 51 200 in
  let a, b = Datasets.Dataset.class_split ds in
  let model = Logreg.train a b in
  let errors = ref 0 in
  Array.iteri
    (fun i row ->
      if Logreg.predict model row <> ds.Datasets.Dataset.labels.(i) then
        incr errors)
    ds.Datasets.Dataset.features;
  checkb "near zero error" true (!errors < 5)

let test_logreg_loss_decreases_with_training () =
  let ds = easy_dataset 52 100 in
  let a, b = Datasets.Dataset.class_split ds in
  let trained = Logreg.train a b in
  let untrained = Logreg.train ~max_iter:0 a b in
  checkb "training lowers the loss" true
    (Logreg.loss trained a b < Logreg.loss untrained a b)

let test_logreg_fixed_pipeline () =
  let ds = easy_dataset 53 150 in
  let fmt = Qformat.make ~k:2 ~f:4 in
  let plain = Logreg.train_pipeline ~fmt ~swept:false ds in
  let swept = Logreg.train_pipeline ~fmt ~swept:true ds in
  checkb "plain rounding works on easy data" true
    (Eval.error_fixed plain ds < 0.05);
  checkb "swept no worse than plain on training data" true
    (Eval.error_fixed swept ds <= Eval.error_fixed plain ds +. 1e-9)

let test_logreg_regularisation_shrinks () =
  let ds = easy_dataset 54 100 in
  let a, b = Datasets.Dataset.class_split ds in
  let light = Logreg.train ~lambda:1e-4 a b in
  let heavy = Logreg.train ~lambda:10.0 a b in
  checkb "heavier lambda gives smaller weights" true
    (Linalg.Vec.norm2 heavy.Logreg.w < Linalg.Vec.norm2 light.Logreg.w)

(* ------------------------------------------------------------------ *)
(* Quant_analysis                                                      *)
(* ------------------------------------------------------------------ *)

let test_quant_analysis_scaling_in_q () =
  (* Both noise terms are linear in the ulp: halving F doubles them. *)
  let scatter = small_scatter () in
  let w = [| 1.0; -0.5 |] in
  let r6 = Quant_analysis.analyze ~scatter ~fmt:(Qformat.make ~k:2 ~f:6) w in
  let r5 = Quant_analysis.analyze ~scatter ~fmt:(Qformat.make ~k:2 ~f:5) w in
  checkf 1e-12 "input rms doubles" (2.0 *. r6.Quant_analysis.input_noise_rms)
    r5.Quant_analysis.input_noise_rms;
  checkf 1e-12 "product worst doubles"
    (2.0 *. r6.Quant_analysis.product_noise_worst)
    r5.Quant_analysis.product_noise_worst;
  checkb "sqnr halves-ish" true
    (r5.Quant_analysis.sqnr < r6.Quant_analysis.sqnr)

let test_quant_analysis_formulas () =
  let scatter = small_scatter () in
  let fmt = Qformat.make ~k:2 ~f:4 in
  let q = Qformat.ulp fmt in
  let w = [| 3.0; -4.0 |] in
  let r = Quant_analysis.analyze ~scatter ~fmt w in
  checkf 1e-12 "input worst = |w|_1 q/2" (7.0 *. q /. 2.0)
    r.Quant_analysis.input_noise_worst;
  checkf 1e-12 "input rms = |w|_2 q/sqrt12" (5.0 *. q /. sqrt 12.0)
    r.Quant_analysis.input_noise_rms;
  checkf 1e-12 "product worst = M q/2" (2.0 *. q /. 2.0)
    r.Quant_analysis.product_noise_worst;
  checkb "extra error nonnegative" true
    (r.Quant_analysis.predicted_extra_error >= 0.0)

let test_quant_analysis_predicts_more_error_for_big_weights () =
  (* The paper's mechanism: same direction, bigger norm relative to the
     separation = lower SQNR. Compare w against 10w with a separation
     artificially fixed by scaling the scatter means... simpler: compare
     an aligned weight vector to one dominated by a cancelling pair. *)
  let scatter = small_scatter () in
  let fmt = Qformat.make ~k:2 ~f:4 in
  let aligned = Quant_analysis.analyze ~scatter ~fmt [| 1.0; 0.0 |] in
  let cancelling = Quant_analysis.analyze ~scatter ~fmt [| 0.05; 1.9 |] in
  checkb "cancelling direction has worse sqnr" true
    (cancelling.Quant_analysis.sqnr < aligned.Quant_analysis.sqnr)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_greedy_feasible =
  QCheck.Test.make ~name:"greedy rounding always feasible or None" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let gen off =
        Array.init 10 (fun _ ->
            [|
              off +. Stats.Sampler.std_normal rng;
              0.7 *. Stats.Sampler.std_normal rng;
              0.4 *. Stats.Sampler.std_normal rng;
            |])
      in
      let scatter = Stats.Scatter.of_data (gen 1.0) (gen (-1.0)) in
      let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:3) scatter in
      match Greedy_round.train pb with
      | None -> true
      | Some (w, c) ->
          Ldafp_problem.feasible pb w
          && Float.abs (c -. Ldafp_problem.cost pb w) < 1e-9)

let prop_auc_invariant_to_monotone_transform =
  QCheck.Test.make ~name:"AUC invariant under monotone score transforms"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let n = 30 in
      let labels = Array.init n (fun i -> i mod 2 = 0) in
      let scores =
        Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let roc1 = Eval.roc_of_scores ~scores ~labels in
      let transformed = Array.map (fun s -> exp (2.0 *. s) +. 5.0) scores in
      let roc2 = Eval.roc_of_scores ~scores:transformed ~labels in
      Float.abs (roc1.Eval.auc -. roc2.Eval.auc) < 1e-12)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_greedy_feasible; prop_auc_invariant_to_monotone_transform ]

let () =
  Alcotest.run "extensions"
    [
      ( "greedy_round",
        [
          Alcotest.test_case "feasible" `Quick test_greedy_produces_feasible;
          Alcotest.test_case "easy data" `Quick
            test_greedy_never_worse_than_chance_on_easy_data;
          Alcotest.test_case "beats conventional at 4 bits" `Slow
            test_greedy_between_conventional_and_optimal;
          Alcotest.test_case "on grid" `Quick test_greedy_weights_on_grid;
        ] );
      ( "gradcheck/logreg",
        [
          Alcotest.test_case "gradcheck discriminates" `Quick
            test_gradcheck_catches_wrong_gradient;
          Alcotest.test_case "loss oracle derivatives" `Quick
            test_logreg_loss_oracle_derivatives;
          Alcotest.test_case "separates easy data" `Quick
            test_logreg_separates_easy_data;
          Alcotest.test_case "loss decreases" `Quick
            test_logreg_loss_decreases_with_training;
          Alcotest.test_case "fixed pipeline" `Quick test_logreg_fixed_pipeline;
          Alcotest.test_case "regularisation shrinks" `Quick
            test_logreg_regularisation_shrinks;
        ] );
      ( "quant_analysis",
        [
          Alcotest.test_case "linear in q" `Quick
            test_quant_analysis_scaling_in_q;
          Alcotest.test_case "closed forms" `Quick test_quant_analysis_formulas;
          Alcotest.test_case "cancelling weights hurt" `Quick
            test_quant_analysis_predicts_more_error_for_big_weights;
        ] );
      ( "roc",
        [
          Alcotest.test_case "perfect" `Quick test_roc_perfect_separation;
          Alcotest.test_case "reversed" `Quick test_roc_reversed;
          Alcotest.test_case "ties" `Quick test_roc_random_is_half;
          Alcotest.test_case "endpoints/monotone" `Quick
            test_roc_endpoints_and_monotonicity;
          Alcotest.test_case "fixed classifier" `Quick
            test_roc_fixed_classifier;
          Alcotest.test_case "validation" `Quick test_roc_validation;
          Alcotest.test_case "margin sign" `Quick
            test_margin_sign_matches_predict;
        ] );
      ("properties", qcheck_tests);
    ]
