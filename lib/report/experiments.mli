(** Reproduction harness: one entry per table/figure of the paper
    (experiment index E1–E5 in DESIGN.md).

    Every function returns structured rows carrying both the measured
    value and the paper's reported value, and has a matching printer that
    renders them side by side.  [quick] selects reduced-but-representative
    budgets (smaller test sets, tighter branch-and-bound node limits);
    the default is the full configuration used for EXPERIMENTS.md.
    Everything is deterministic given [seed]. *)

(** {1 E1 — Table 1: synthetic data} *)

type t1_row = {
  wl : int;
  lda_err : float;
  ldafp_err : float;
  runtime : float;  (** LDA-FP training seconds, as in the paper *)
  nodes : int;
  paper_lda : float;
  paper_ldafp : float;
  paper_runtime : float;
}

val table1 : ?quick:bool -> ?seed:int -> unit -> t1_row list
val print_table1 : t1_row list -> unit

(** {1 E2 — Figure 4: weight values vs word length (synthetic)} *)

type fig4_row = {
  wl : int;
  lda_w : Linalg.Vec.t;  (** L∞-normalised quantised LDA weights *)
  ldafp_w : Linalg.Vec.t;  (** L∞-normalised LDA-FP weights *)
}

val figure4 : ?quick:bool -> ?seed:int -> unit -> fig4_row list
val print_figure4 : fig4_row list -> unit

(** {1 E3 — Table 2: brain-computer interface (simulated ECoG)} *)

type t2_row = {
  wl : int;
  lda_err : float;
  ldafp_err : float;
  runtime : float;
  paper_lda : float;
  paper_ldafp : float;
  paper_runtime : float;
}

val table2 : ?quick:bool -> ?seed:int -> unit -> t2_row list
val print_table2 : t2_row list -> unit

(** {1 E4 — Figure 2: boundary robustness to weight perturbation} *)

type fig2_report = {
  wl : int;
  lda_nominal : float;
  lda_worst : float;  (** worst error over all ±1-ulp weight perturbations *)
  ldafp_nominal : float;
  ldafp_worst : float;
}

val figure2 : ?quick:bool -> ?seed:int -> unit -> fig2_report
(** A 2-D Gaussian task at a small word length: enumerates every ±1-ulp
    perturbation of both trained boundaries and reports nominal vs worst
    error — the quantitative version of the paper's Figure 2 sketch. *)

val print_figure2 : fig2_report -> unit

(** {1 E5 — the power claims (§1, §5.1, §5.2)} *)

type power_row = {
  wl : int;
  quadratic : float;  (** P ∝ WL², normalised to WL = 16 *)
  gate_based : float;  (** structural gate model, same normalisation *)
}

val power : ?n_features:int -> ?wls:int list -> unit -> power_row list
val print_power : power_row list -> unit
(** Also prints the paper's two headline ratios (16→~5 bits ≈ 9×,
    8→6 bits ≈ 1.8×) under both models. *)

(** {1 Baselines — conventional vs greedy sequential rounding vs LDA-FP} *)

type baseline_row = {
  wl : int;
  conventional : float;
  greedy : float;  (** {!Ldafp_core.Greedy_round}, NaN if infeasible *)
  logreg : float;
      (** scale-swept rounded logistic regression — a non-LDA float-train/
          round-later control *)
  ldafp : float;
  float_reference : float;  (** unquantised LDA on the same split *)
  p_value : float;
      (** exact McNemar p-value for LDA-FP vs conventional on the shared
          test trials ({!Stats.Mcnemar}) *)
}

val baselines : ?quick:bool -> ?seed:int -> unit -> baseline_row list
(** Synthetic-task test error of all three training methods per word
    length — positions the greedy heuristic between the two paper
    columns. *)

val print_baselines : baseline_row list -> unit

(** {1 E9 — second application: simulated ECG beat classification}

    The paper's introduction motivates wearable ECG monitors before
    settling on the BCI case study; this experiment shows the LDA-FP
    advantage transfers to that workload. *)

type ecg_row = {
  wl : int;
  lda_err : float;
  ldafp_err : float;
  energy : float;  (** per classified beat, relative to the largest WL *)
}

val table_ecg : ?quick:bool -> ?seed:int -> unit -> ecg_row list
(** 5-fold CV on the simulated ECG task. *)

val print_table_ecg : ecg_row list -> unit

(** {1 Ablations (DESIGN.md §5)} *)

type ablation_row = {
  label : string;
  wl : int;
  err : float;
  cost : float;
  seconds : float;
}

val ablation_kf : ?quick:bool -> ?seed:int -> unit -> ablation_row list
(** K/F split policy sweep on the synthetic task. *)

val ablation_solver : ?quick:bool -> ?seed:int -> unit -> ablation_row list
(** Solver ablation on the synthetic task at a mid word length: the
    full solver vs the search without H1/H2 incumbent seeding.  Per-node
    polish is not a switch; EXPERIMENTS.md records what it pays. *)

val print_ablation : title:string -> ablation_row list -> unit
