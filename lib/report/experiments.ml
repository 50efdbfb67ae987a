open Ldafp_core

(* ------------------------------------------------------------------ *)
(* Shared configuration                                                *)
(* ------------------------------------------------------------------ *)

let synthetic_train_per_class quick = if quick then 1000 else 2000
let synthetic_test_per_class quick = if quick then 10_000 else 50_000

let ldafp_config ~max_nodes =
  {
    Lda_fp.default_config with
    bnb_params =
      { Optim.Bnb.default_params with max_nodes; rel_gap = 1e-3 };
  }

let synthetic_nodes quick = if quick then 200 else 1500
let bci_nodes quick = if quick then 12 else 60

let fmt_of_wl wl = Fixedpoint.Format_policy.default wl

(* ------------------------------------------------------------------ *)
(* E1 — Table 1                                                        *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  wl : int;
  lda_err : float;
  ldafp_err : float;
  runtime : float;
  nodes : int;
  paper_lda : float;
  paper_ldafp : float;
  paper_runtime : float;
}

let paper_table1 =
  [
    (4, 0.5000, 0.2704, 0.81);
    (6, 0.5000, 0.2683, 5.87);
    (8, 0.5000, 0.2598, 20.42);
    (10, 0.5000, 0.2262, 29.16);
    (12, 0.2446, 0.1960, 29.11);
    (14, 0.1948, 0.1933, 0.06);
    (16, 0.1933, 0.1933, 0.06);
  ]

let table1 ?(quick = false) ?(seed = 42) () =
  let rng = Stats.Rng.create seed in
  let train =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_train_per_class quick)
      rng
  in
  let test =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_test_per_class quick)
      rng
  in
  let config = ldafp_config ~max_nodes:(synthetic_nodes quick) in
  List.map
    (fun (wl, paper_lda, paper_ldafp, paper_runtime) ->
      let fmt = fmt_of_wl wl in
      let conv = Pipeline.train_conventional ~fmt train in
      let lda_err = Eval.error_fixed conv test in
      match Pipeline.train_ldafp ~config ~fmt train with
      | None ->
          {
            wl; lda_err; ldafp_err = Float.nan; runtime = 0.0; nodes = 0;
            paper_lda; paper_ldafp; paper_runtime;
          }
      | Some r ->
          {
            wl;
            lda_err;
            ldafp_err = Eval.error_fixed r.Pipeline.classifier test;
            runtime = r.Pipeline.outcome.Lda_fp.diagnostics.train_seconds;
            nodes = r.Pipeline.outcome.Lda_fp.diagnostics.nodes;
            paper_lda;
            paper_ldafp;
            paper_runtime;
          })
    paper_table1

let error_columns =
  [
    Table.column "WL";
    Table.column "LDA err";
    Table.column "(paper)";
    Table.column "LDA-FP err";
    Table.column "(paper)";
    Table.column "runtime s";
    Table.column "(paper)";
  ]

let print_table1 rows =
  Table.print
    ~title:
      "Table 1 (E1): synthetic data - classification error and LDA-FP \
       runtime vs word length"
    ~columns:(error_columns @ [ Table.column "nodes" ])
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.wl;
             Table.pct r.lda_err;
             Table.pct r.paper_lda;
             Table.pct r.ldafp_err;
             Table.pct r.paper_ldafp;
             Table.secs r.runtime;
             Table.secs r.paper_runtime;
             string_of_int r.nodes;
           ])
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* E2 — Figure 4                                                       *)
(* ------------------------------------------------------------------ *)

type fig4_row = { wl : int; lda_w : Linalg.Vec.t; ldafp_w : Linalg.Vec.t }

let normalize_or_zero w =
  if Linalg.Vec.norm_inf w = 0.0 then Linalg.Vec.copy w
  else Linalg.Vec.normalize_inf w

let figure4 ?(quick = false) ?(seed = 42) () =
  let rng = Stats.Rng.create seed in
  let train =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_train_per_class quick)
      rng
  in
  let config = ldafp_config ~max_nodes:(synthetic_nodes quick) in
  List.map
    (fun wl ->
      let fmt = fmt_of_wl wl in
      let conv = Pipeline.train_conventional ~fmt train in
      let lda_w = normalize_or_zero (Fixed_classifier.weights conv) in
      let ldafp_w =
        match Pipeline.train_ldafp ~config ~fmt train with
        | Some r -> normalize_or_zero r.Pipeline.outcome.Lda_fp.w
        | None -> Linalg.Vec.zeros 3
      in
      { wl; lda_w; ldafp_w })
    [ 4; 6; 8; 10; 12; 14; 16 ]

let print_figure4 rows =
  Table.print
    ~title:
      "Figure 4 (E2): normalised weight values vs word length (synthetic). \
       The paper's point: LDA rounds w1 to zero at short word lengths; \
       LDA-FP keeps it non-zero."
    ~columns:
      [
        Table.column "WL";
        Table.column "LDA w1";
        Table.column "LDA w2";
        Table.column "LDA w3";
        Table.column "FP w1";
        Table.column "FP w2";
        Table.column "FP w3";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.wl;
             Printf.sprintf "%.4f" r.lda_w.(0);
             Printf.sprintf "%.4f" r.lda_w.(1);
             Printf.sprintf "%.4f" r.lda_w.(2);
             Printf.sprintf "%.4f" r.ldafp_w.(0);
             Printf.sprintf "%.4f" r.ldafp_w.(1);
             Printf.sprintf "%.4f" r.ldafp_w.(2);
           ])
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* E3 — Table 2                                                        *)
(* ------------------------------------------------------------------ *)

type t2_row = {
  wl : int;
  lda_err : float;
  ldafp_err : float;
  runtime : float;
  paper_lda : float;
  paper_ldafp : float;
  paper_runtime : float;
}

let paper_table2 =
  [
    (3, 0.5000, 0.5214, 39.9);
    (4, 0.4643, 0.3717, 219.7);
    (5, 0.4071, 0.3214, 1913.5);
    (6, 0.3214, 0.2071, 2977.0);
    (7, 0.2143, 0.1929, 152.8);
    (8, 0.2071, 0.2000, 221.1);
  ]

let table2 ?(quick = false) ?(seed = 7) () =
  let rng = Stats.Rng.create seed in
  let ds = Datasets.Ecog_sim.generate rng in
  let config = ldafp_config ~max_nodes:(bci_nodes quick) in
  List.map
    (fun (wl, paper_lda, paper_ldafp, paper_runtime) ->
      let fmt = fmt_of_wl wl in
      let cv_rng () = Stats.Rng.create (seed + 1000) in
      let lda_err =
        match
          Eval.kfold_error_fixed ~rng:(cv_rng ()) ~k:5
            ~train:(fun tr -> Some (Pipeline.train_conventional ~fmt tr))
            ds
        with
        | Some e -> e
        | None -> Float.nan
      in
      (* Monotonic wall clock, not [Sys.time]: the multi-domain search
         burns CPU time on every domain, so process CPU seconds
         overstate (and wall seconds are what the paper's Table 2
         reports as training time). *)
      let t0 = Obs.Clock.now () in
      let ldafp_err =
        match
          Eval.kfold_error_fixed ~rng:(cv_rng ()) ~k:5
            ~train:(fun tr ->
              Option.map
                (fun r -> r.Pipeline.classifier)
                (Pipeline.train_ldafp ~config ~fmt tr))
            ds
        with
        | Some e -> e
        | None -> Float.nan
      in
      let runtime = Obs.Clock.now () -. t0 in
      { wl; lda_err; ldafp_err; runtime; paper_lda; paper_ldafp;
        paper_runtime })
    paper_table2

let print_table2 rows =
  Table.print
    ~title:
      "Table 2 (E3): simulated ECoG BCI - 5-fold CV error and LDA-FP \
       training time (all folds) vs word length"
    ~columns:error_columns
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.wl;
             Table.pct r.lda_err;
             Table.pct r.paper_lda;
             Table.pct r.ldafp_err;
             Table.pct r.paper_ldafp;
             Table.secs r.runtime;
             Table.secs r.paper_runtime;
           ])
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* E4 — Figure 2                                                       *)
(* ------------------------------------------------------------------ *)

type fig2_report = {
  wl : int;
  lda_nominal : float;
  lda_worst : float;
  ldafp_nominal : float;
  ldafp_worst : float;
}

(* A 2-D task in the spirit of Figure 2: one discriminative direction,
   one strongly correlated nuisance direction, so the float-LDA boundary
   depends on a delicate weight ratio that rounding perturbs. *)
let figure2_dataset ~n_per_class rng =
  let mean = 0.4 in
  let trial class_a =
    let e1 = Stats.Sampler.std_normal rng in
    let e2 = Stats.Sampler.std_normal rng in
    let m = if class_a then -.mean else mean in
    [| m +. (0.5 *. e1) +. (0.95 *. e2); e2 +. (0.02 *. e1) |]
  in
  let a = Array.init n_per_class (fun _ -> trial true) in
  let b = Array.init n_per_class (fun _ -> trial false) in
  Datasets.Dataset.of_class_matrices ~name:"figure2" ~a ~b

let perturbed_errors clf test = (Robustness.sweep clf test).Robustness.worst

let figure2 ?(quick = false) ?(seed = 11) () =
  let wl = 5 in
  let fmt = fmt_of_wl wl in
  let rng = Stats.Rng.create seed in
  let train =
    figure2_dataset ~n_per_class:(if quick then 1000 else 4000) rng
  in
  let test =
    figure2_dataset ~n_per_class:(if quick then 10_000 else 50_000) rng
  in
  let conv = Pipeline.train_conventional ~fmt train in
  let lda_nominal = Eval.error_fixed conv test in
  let lda_worst = perturbed_errors conv test in
  let config = ldafp_config ~max_nodes:(synthetic_nodes quick) in
  let ldafp_nominal, ldafp_worst =
    match Pipeline.train_ldafp ~config ~fmt train with
    | Some r ->
        ( Eval.error_fixed r.Pipeline.classifier test,
          perturbed_errors r.Pipeline.classifier test )
    | None -> (Float.nan, Float.nan)
  in
  { wl; lda_nominal; lda_worst; ldafp_nominal; ldafp_worst }

let print_figure2 r =
  Table.print
    ~title:
      (Printf.sprintf
         "Figure 2 (E4): boundary robustness at WL=%d - error of the \
          nominal boundary vs the worst +/-1-ulp weight perturbation"
         r.wl)
    ~columns:
      [
        Table.column ~align:Table.Left "classifier";
        Table.column "nominal err";
        Table.column "worst perturbed";
      ]
    ~rows:
      [
        [ "LDA (rounded)"; Table.pct r.lda_nominal; Table.pct r.lda_worst ];
        [ "LDA-FP"; Table.pct r.ldafp_nominal; Table.pct r.ldafp_worst ];
      ]
    ()

(* ------------------------------------------------------------------ *)
(* E5 — power model                                                    *)
(* ------------------------------------------------------------------ *)

type power_row = { wl : int; quadratic : float; gate_based : float }

let power ?(n_features = 42) ?(wls = [ 3; 4; 5; 6; 7; 8; 10; 12; 14; 16 ]) ()
    =
  let ref_wl = 16 in
  let qref = Hw.Power_model.quadratic_relative ~word_length:ref_wl in
  let gref = Hw.Power_model.gate_based ~word_length:ref_wl ~n_features in
  List.map
    (fun wl ->
      {
        wl;
        quadratic = Hw.Power_model.quadratic_relative ~word_length:wl /. qref;
        gate_based =
          Hw.Power_model.gate_based ~word_length:wl ~n_features /. gref;
      })
    wls

let print_power rows =
  Table.print
    ~title:
      "Power model (E5): relative classifier power vs word length \
       (normalised to WL=16)"
    ~columns:
      [
        Table.column "WL";
        Table.column "P ~ WL^2";
        Table.column "gate model";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.wl;
             Printf.sprintf "%.3f" r.quadratic;
             Printf.sprintf "%.3f" r.gate_based;
           ])
         rows)
    ();
  Printf.printf
    "\nHeadline ratios: 12b -> 4b quadratic %.1fx (paper: ~9x for 3x word \
     length); 8b -> 6b quadratic %.2fx (paper: 1.8x)\n"
    (Hw.Power_model.quadratic_ratio ~from_wl:12 ~to_wl:4)
    (Hw.Power_model.quadratic_ratio ~from_wl:8 ~to_wl:6)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

type baseline_row = {
  wl : int;
  conventional : float;
  greedy : float;
  logreg : float;
  ldafp : float;
  float_reference : float;
  p_value : float;
      (* McNemar exact p for conventional-vs-LDA-FP on the shared test set *)
}

let baselines ?(quick = false) ?(seed = 42) () =
  let rng = Stats.Rng.create seed in
  let train =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_train_per_class quick)
      rng
  in
  let test =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_test_per_class quick)
      rng
  in
  let model, scaling = Pipeline.train_float train in
  let float_reference = Eval.error_float model ~scaling test in
  let config = ldafp_config ~max_nodes:(synthetic_nodes quick) in
  List.map
    (fun wl ->
      let fmt = fmt_of_wl wl in
      let conventional =
        Eval.error_fixed (Pipeline.train_conventional ~fmt train) test
      in
      let greedy =
        match Greedy_round.train_classifier ~fmt train with
        | Some clf -> Eval.error_fixed clf test
        | None -> Float.nan
      in
      let conv_clf = Pipeline.train_conventional ~fmt train in
      let logreg =
        Eval.error_fixed (Logreg.train_pipeline ~fmt ~swept:true train) test
      in
      let ldafp, p_value =
        match Pipeline.train_ldafp ~config ~fmt train with
        | Some r ->
            let predictions clf =
              Array.map
                (fun row -> Fixed_classifier.predict clf row)
                test.Datasets.Dataset.features
            in
            let mc =
              Stats.Mcnemar.compare ~truth:test.Datasets.Dataset.labels
                ~a:(predictions r.Pipeline.classifier)
                ~b:(predictions conv_clf)
            in
            (Eval.error_fixed r.Pipeline.classifier test,
             mc.Stats.Mcnemar.p_value)
        | None -> (Float.nan, Float.nan)
      in
      { wl; conventional; greedy; logreg; ldafp; float_reference; p_value })
    [ 4; 6; 8; 10; 12; 14; 16 ]

let print_baselines rows =
  Table.print
    ~title:
      "Baselines: conventional rounding vs greedy sequential rounding vs \
       LDA-FP (synthetic task)"
    ~columns:
      [
        Table.column "WL";
        Table.column "conventional";
        Table.column "greedy";
        Table.column "logreg-swept";
        Table.column "LDA-FP";
        Table.column "float ref";
        Table.column "p (LDA-FP vs conv)";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.wl;
             Table.pct r.conventional;
             Table.pct r.greedy;
             Table.pct r.logreg;
             Table.pct r.ldafp;
             Table.pct r.float_reference;
             (if Float.is_nan r.p_value then "n/a"
              else Printf.sprintf "%.2g" r.p_value);
           ])
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* E9 - ECG                                                            *)
(* ------------------------------------------------------------------ *)

type ecg_row = { wl : int; lda_err : float; ldafp_err : float; energy : float }

let table_ecg ?(quick = false) ?(seed = 99) () =
  let rng = Stats.Rng.create seed in
  let params =
    { Datasets.Ecg_sim.default_params with
      Datasets.Ecg_sim.trials_per_class = (if quick then 200 else 400) }
  in
  let ds = Datasets.Ecg_sim.generate ~params rng in
  let n_features = Datasets.Dataset.n_features ds in
  let config = ldafp_config ~max_nodes:(if quick then 40 else 200) in
  let wls = [ 3; 4; 5; 6; 8; 10 ] in
  let e_max =
    Hw.Power_model.energy_per_classification
      ~word_length:(List.fold_left max 0 wls)
      ~n_features
  in
  List.map
    (fun wl ->
      let fmt = fmt_of_wl wl in
      let cv_rng () = Stats.Rng.create (seed + 5) in
      let lda_err =
        Option.value ~default:Float.nan
          (Eval.kfold_error_fixed ~rng:(cv_rng ()) ~k:5
             ~train:(fun tr -> Some (Pipeline.train_conventional ~fmt tr))
             ds)
      in
      let ldafp_err =
        Option.value ~default:Float.nan
          (Eval.kfold_error_fixed ~rng:(cv_rng ()) ~k:5
             ~train:(fun tr ->
               Option.map
                 (fun r -> r.Pipeline.classifier)
                 (Pipeline.train_ldafp ~config ~fmt tr))
             ds)
      in
      {
        wl;
        lda_err;
        ldafp_err;
        energy =
          Hw.Power_model.energy_per_classification ~word_length:wl ~n_features
          /. e_max;
      })
    wls

let print_table_ecg rows =
  Table.print
    ~title:
      "ECG beat classification (E9): 5-fold CV error and relative energy \
       per beat vs word length"
    ~columns:
      [
        Table.column "WL";
        Table.column "LDA err";
        Table.column "LDA-FP err";
        Table.column "E/beat";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             string_of_int r.wl;
             Table.pct r.lda_err;
             Table.pct r.ldafp_err;
             Printf.sprintf "%.3f" r.energy;
           ])
         rows)
    ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

type ablation_row = {
  label : string;
  wl : int;
  err : float;
  cost : float;
  seconds : float;
}

let run_ablation_case ~label ~wl ~config ~policy train test =
  let fmt = policy wl in
  (* Wall seconds on the monotonic clock (was [Sys.time], i.e. CPU
     seconds — which counted every domain's work N times over on the
     parallel driver and undercounted time blocked in the kernel). *)
  let t0 = Obs.Clock.now () in
  match Pipeline.train_ldafp ~config ~fmt train with
  | None ->
      { label; wl; err = Float.nan; cost = Float.nan;
        seconds = Obs.Clock.now () -. t0 }
  | Some r ->
      {
        label;
        wl;
        err = Eval.error_fixed r.Pipeline.classifier test;
        cost = r.Pipeline.outcome.Lda_fp.cost;
        seconds = Obs.Clock.now () -. t0;
      }

let ablation_kf ?(quick = false) ?(seed = 42) () =
  let rng = Stats.Rng.create seed in
  let train =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_train_per_class quick)
      rng
  in
  let test =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_test_per_class quick)
      rng
  in
  let config = ldafp_config ~max_nodes:(synthetic_nodes quick) in
  List.concat_map
    (fun spec ->
      let policy = Fixedpoint.Format_policy.of_spec spec in
      let label = Fixedpoint.Format_policy.name spec in
      List.map
        (fun wl -> run_ablation_case ~label ~wl ~config ~policy train test)
        [ 6; 10; 14 ])
    [ `Fixed_k 1; `Fixed_k 2; `Fixed_k 3; `Balanced ]

let ablation_solver ?(quick = false) ?(seed = 42) () =
  let rng = Stats.Rng.create seed in
  let train =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_train_per_class quick)
      rng
  in
  let test =
    Datasets.Synthetic.generate
      ~n_per_class:(synthetic_test_per_class quick)
      rng
  in
  let base = ldafp_config ~max_nodes:(synthetic_nodes quick) in
  let policy = Fixedpoint.Format_policy.default in
  List.map
    (fun (label, config) ->
      run_ablation_case ~label ~wl:8 ~config ~policy train test)
    [
      ("full solver", base);
      ("no incumbent seeding (H1/H2)",
       { base with Lda_fp.seed_incumbent = false });
    ]

let print_ablation ~title rows =
  Table.print ~title
    ~columns:
      [
        Table.column ~align:Table.Left "variant";
        Table.column "WL";
        Table.column "test err";
        Table.column "cost";
        Table.column "seconds";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.label;
             string_of_int r.wl;
             Table.pct r.err;
             Table.g4 r.cost;
             Table.secs r.seconds;
           ])
         rows)
    ()
