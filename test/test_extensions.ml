(* Tests for the extension modules: greedy sequential rounding,
   word-length selection, multi-class voting, ROC analysis. *)

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
(* Wordlength                                                          *)
(* ------------------------------------------------------------------ *)

let fake_frontier () =
  (* Build classifier stubs cheaply. *)
  let clf wl =
    let fmt = Qformat.make ~k:2 ~f:(wl - 2) in
    Fixed_classifier.of_weights ~fmt ~scaling:(Scaling.identity 1)
      ~weights:[| 1.0 |] ~threshold:0.0 ()
  in
  List.map
    (fun (wl, error) ->
      {
        Wordlength.wl;
        classifier = clf wl;
        error;
        power = Hw.Power_model.quadratic_relative ~word_length:wl;
      })
    [ (4, 0.30); (6, 0.22); (8, 0.21); (10, 0.23); (12, 0.205) ]

let test_wordlength_minimal () =
  let f = fake_frontier () in
  (match Wordlength.minimal_word_length ~slack:0.02 f with
  | Some p -> checki "first within slack of best (0.205)" 6 p.Wordlength.wl
  | None -> Alcotest.fail "none");
  match Wordlength.minimal_word_length ~slack:0.0 f with
  | Some p -> checki "exact best" 12 p.Wordlength.wl
  | None -> Alcotest.fail "none"

let test_wordlength_cheapest_within () =
  let f = fake_frontier () in
  (match Wordlength.cheapest_within ~max_error:0.25 f with
  | Some p -> checki "cheapest under budget" 6 p.Wordlength.wl
  | None -> Alcotest.fail "none");
  checkb "impossible budget" true
    (Wordlength.cheapest_within ~max_error:0.01 f = None)

let test_wordlength_reduction () =
  let baseline =
    List.map
      (fun p ->
        { p with Wordlength.error = (if p.Wordlength.wl >= 12 then 0.2 else 0.5) })
      (fake_frontier ())
  in
  let improved =
    List.map
      (fun p -> { p with Wordlength.error = 0.2 })
      (fake_frontier ())
  in
  match Wordlength.word_length_reduction ~baseline ~improved () with
  | Some (b, i, ratio) ->
      checki "baseline needs 12" 12 b;
      checki "improved needs 4" 4 i;
      checkf 1e-9 "power ratio 9x" 9.0 ratio
  | None -> Alcotest.fail "none"

let test_wordlength_sweep_end_to_end () =
  let ds = easy_dataset 22 120 in
  let frontier =
    Wordlength.sweep ~wls:[ 4; 6; 8 ]
      ~policy:Fixedpoint.Format_policy.default
      ~train:(fun ~fmt d -> Some (Pipeline.train_conventional ~fmt d))
      ~validate:(fun clf -> Eval.error_fixed clf ds)
      ds
  in
  checki "all word lengths trained" 3 (List.length frontier);
  List.iter
    (fun p -> checkb "low error on easy data" true (p.Wordlength.error < 0.1))
    frontier;
  (* ascending order and power monotone *)
  let wls = List.map (fun p -> p.Wordlength.wl) frontier in
  checkb "sorted" true (wls = List.sort compare wls)

(* ------------------------------------------------------------------ *)
(* Multiclass                                                          *)
(* ------------------------------------------------------------------ *)

let three_class_dataset seed n =
  let rng = Stats.Rng.create seed in
  let centers = [| (1.2, 0.0); (-0.6, 1.0); (-0.6, -1.0) |] in
  let features = ref [] and labels = ref [] in
  Array.iteri
    (fun c (cx, cy) ->
      for _ = 1 to n do
        features :=
          [|
            cx +. (0.3 *. Stats.Sampler.std_normal rng);
            cy +. (0.3 *. Stats.Sampler.std_normal rng);
          |]
          :: !features;
        labels := c :: !labels
      done)
    centers;
  Multiclass.create ~name:"three"
    ~features:(Array.of_list (List.rev !features))
    ~labels:(Array.of_list (List.rev !labels))

let test_multiclass_create_validation () =
  checkb "negative label" true
    (match
       Multiclass.create ~name:"x" ~features:[| [| 1.0 |] |] ~labels:[| -1 |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "empty class" true
    (match
       Multiclass.create ~name:"x"
         ~features:[| [| 1.0 |]; [| 2.0 |] |]
         ~labels:[| 0; 2 |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_multiclass_pairwise () =
  let ds = three_class_dataset 30 5 in
  let pair = Multiclass.pairwise ds ~a:0 ~b:2 in
  checki "10 trials" 10 (Datasets.Dataset.n_trials pair);
  let na, nb = Datasets.Dataset.class_counts pair in
  checki "5 as A" 5 na;
  checki "5 as B" 5 nb

let test_multiclass_train_predict () =
  let ds = three_class_dataset 31 40 in
  let fmt = Qformat.make ~k:2 ~f:4 in
  match
    Multiclass.train
      ~train:(fun d -> Some (Pipeline.train_conventional ~fmt d))
      ds
  with
  | None -> Alcotest.fail "training failed"
  | Some mc ->
      checki "three machines for three classes" 3
        (List.length mc.Multiclass.machines);
      checkb "low training error" true (Multiclass.error mc ds < 0.05);
      (* votes sum to K(K-1)/2 *)
      let v = Multiclass.votes mc [| 1.2; 0.0 |] in
      checki "votes total" 3 (Array.fold_left ( + ) 0 v);
      checki "center of class 0 predicted 0" 0 (Multiclass.predict mc [| 1.2; 0.0 |]);
      checki "center of class 1 predicted 1" 1 (Multiclass.predict mc [| -0.6; 1.0 |]);
      checki "center of class 2 predicted 2" 2
        (Multiclass.predict mc [| -0.6; -1.0 |]);
      let m = Multiclass.confusion_matrix mc ds in
      let total =
        Array.fold_left
          (fun acc row -> Array.fold_left ( + ) acc row)
          0 m
      in
      checki "confusion totals trials" (Multiclass.n_trials ds) total

let test_multiclass_training_failure_propagates () =
  let ds = three_class_dataset 32 10 in
  checkb "failure propagates" true
    (Multiclass.train ~train:(fun _ -> None) ds = None)

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
(* Hetero_classifier / Bit_alloc                                       *)
(* ------------------------------------------------------------------ *)

let test_hetero_of_uniform_equivalent () =
  (* Embedding a uniform classifier must be behaviourally identical. *)
  let rng = Stats.Rng.create 40 in
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf =
    Fixed_classifier.of_weights ~fmt ~scaling:(Scaling.of_exponents [| 1; 0; 2 |])
      ~weights:[| 0.75; -1.25; 0.5 |] ~threshold:0.125 ()
  in
  let h = Hetero_classifier.of_uniform clf in
  for _ = 1 to 300 do
    let x = Array.init 3 (fun _ -> Stats.Rng.uniform rng ~lo:(-4.0) ~hi:4.0) in
    checkb "same prediction" (Fixed_classifier.predict clf x)
      (Hetero_classifier.predict h x);
    checkb "same projection" true
      (Fixedpoint.Fx.equal
         (Fixed_classifier.project clf x)
         (Hetero_classifier.project h x))
  done

let test_hetero_narrow_weight_quantizes () =
  (* A weight stored with fewer fractional bits must behave as its
     coarser rounding. *)
  let acc_fmt = Qformat.make ~k:2 ~f:6 in
  let narrow = Qformat.make ~k:2 ~f:1 in
  let h =
    Hetero_classifier.create ~acc_fmt
      ~formats:[| narrow |]
      ~weights:[| 0.8 |] (* rounds to 1.0 on the f=1 grid *)
      ~threshold:0.0 ~scaling:(Scaling.identity 1) ()
  in
  Alcotest.(check (array (float 1e-12)))
    "coarse value" [| 1.0 |] (Hetero_classifier.weights h);
  Alcotest.(check (array int)) "bits" [| 3 |] (Hetero_classifier.weight_bits h);
  checki "total bits" 3 (Hetero_classifier.total_weight_bits h);
  (* projection of x = 0.5: 1.0 * 0.5 = 0.5 in the accumulator format *)
  checkf 1e-12 "projection" 0.5
    (Fixedpoint.Fx.to_float (Hetero_classifier.project h [| 0.5 |]))

let test_hetero_multiplier_cost () =
  let acc_fmt = Qformat.make ~k:2 ~f:6 in
  let h =
    Hetero_classifier.create ~acc_fmt
      ~formats:[| Qformat.make ~k:2 ~f:2; Qformat.make ~k:2 ~f:6 |]
      ~weights:[| 0.5; 0.5 |] ~threshold:0.0 ~scaling:(Scaling.identity 2) ()
  in
  (* (4 + 8) * 8 = 96 partial products *)
  checkf 1e-12 "multiplier cost" 96.0 (Hetero_classifier.multiplier_cost h)

let test_bit_alloc_saves_bits_and_respects_tolerance () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:6) (small_scatter ()) in
  match Lda_fp.solve ~config:Lda_fp.quick_config pb with
  | None -> Alcotest.fail "no solver outcome"
  | Some o -> (
      match Bit_alloc.allocate ~max_cost_increase:0.10 pb o.Lda_fp.w with
      | None -> Alcotest.fail "allocation failed on a feasible start"
      | Some a ->
          checkb "saves at least one bit" true (a.Bit_alloc.bits_saved > 0);
          checkb "cost within tolerance" true
            (a.Bit_alloc.cost <= a.Bit_alloc.start_cost *. 1.10 +. 1e-12);
          checkb "weights still feasible" true
            (Ldafp_problem.feasible pb a.Bit_alloc.weights);
          (* every assigned format is no wider than the base *)
          Array.iter
            (fun f ->
              checkb "not wider than base" true
                (Qformat.word_length f
                <= Qformat.word_length pb.Ldafp_problem.fmt))
            a.Bit_alloc.formats)

let test_bit_alloc_zero_tolerance_keeps_feasible () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:5) (small_scatter ()) in
  match Ldafp_heuristics.seed_incumbent pb with
  | None -> Alcotest.fail "no seed"
  | Some (w, c) -> (
      match Bit_alloc.allocate ~max_cost_increase:0.0 pb w with
      | None -> Alcotest.fail "allocation failed"
      | Some a ->
          (* zero tolerance: cost must not increase at all *)
          checkb "cost unchanged" true (a.Bit_alloc.cost <= c +. 1e-12))

let test_bit_alloc_rejects_infeasible_start () =
  let pb = Ldafp_problem.build ~fmt:(Qformat.make ~k:2 ~f:4) (small_scatter ()) in
  checkb "off-grid start rejected" true
    (Bit_alloc.allocate pb [| 0.3; 0.3 |] = None)

let test_bit_alloc_classifier_runs () =
  let ds = easy_dataset 41 150 in
  let fmt = Qformat.make ~k:2 ~f:6 in
  let prep = Pipeline.prepare ~fmt ds in
  let pb = Ldafp_problem.build ~fmt prep.Pipeline.scatter in
  match Lda_fp.solve ~config:Lda_fp.quick_config pb with
  | None -> Alcotest.fail "no outcome"
  | Some o -> (
      match Bit_alloc.allocate pb o.Lda_fp.w with
      | None -> Alcotest.fail "no allocation"
      | Some a ->
          let h = Bit_alloc.classifier ~prepared:prep a in
          let errors = ref 0 in
          Array.iteri
            (fun i row ->
              if
                Hetero_classifier.predict h row
                <> ds.Datasets.Dataset.labels.(i)
              then incr errors)
            ds.Datasets.Dataset.features;
          checkb "classifies easy data" true
            (float_of_int !errors
             /. float_of_int (Datasets.Dataset.n_trials ds)
            < 0.05))

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
      ( "wordlength",
        [
          Alcotest.test_case "minimal" `Quick test_wordlength_minimal;
          Alcotest.test_case "cheapest within" `Quick
            test_wordlength_cheapest_within;
          Alcotest.test_case "reduction ratio" `Quick test_wordlength_reduction;
          Alcotest.test_case "sweep end-to-end" `Quick
            test_wordlength_sweep_end_to_end;
        ] );
      ( "multiclass",
        [
          Alcotest.test_case "validation" `Quick
            test_multiclass_create_validation;
          Alcotest.test_case "pairwise" `Quick test_multiclass_pairwise;
          Alcotest.test_case "train/predict" `Quick
            test_multiclass_train_predict;
          Alcotest.test_case "failure propagates" `Quick
            test_multiclass_training_failure_propagates;
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
      ( "hetero/bit_alloc",
        [
          Alcotest.test_case "uniform embedding equivalent" `Quick
            test_hetero_of_uniform_equivalent;
          Alcotest.test_case "narrow weight quantises" `Quick
            test_hetero_narrow_weight_quantizes;
          Alcotest.test_case "multiplier cost" `Quick
            test_hetero_multiplier_cost;
          Alcotest.test_case "allocation saves bits" `Quick
            test_bit_alloc_saves_bits_and_respects_tolerance;
          Alcotest.test_case "zero tolerance" `Quick
            test_bit_alloc_zero_tolerance_keeps_feasible;
          Alcotest.test_case "rejects infeasible" `Quick
            test_bit_alloc_rejects_infeasible_start;
          Alcotest.test_case "classifier runs" `Quick
            test_bit_alloc_classifier_runs;
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
