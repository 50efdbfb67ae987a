(* Benchmark and reproduction harness.

   Default run regenerates every table and figure of the paper (DESIGN.md
   experiments E1-E5) in quick mode and runs the Bechamel solver-kernel
   micro-benchmarks.  Flags select individual experiments; [--full] uses
   the paper-scale budgets recorded in EXPERIMENTS.md. *)

open Report

let usage =
  "usage: main.exe [--table1] [--table2] [--figure2] [--figure4] [--power]\n\
  \                [--baselines] [--ecg] [--ablations] [--micro] [--parallel]\n\
  \                [--scaling] [--deep] [--quick-deep] [--faults] [--infer]\n\
  \                [--quick|--full] [--seed N]\n\
  \                [--trace FILE] [--metrics FILE]\n\
  \                [--telemetry-addr HOST:PORT] [--ledger FILE]\n\
   With no experiment flag, everything runs.\n\
   --deep runs the deep scaling benchmark: an exact run-to-completion\n\
   search of >= 10^5 nodes at 1/2/4 domains (--quick-deep sizes it for\n\
   CI, >= 10^4 nodes) reporting efficiency and seed-phase duration.\n\
   --infer benchmarks the batched fixed-point inference engine\n\
   (lib/infer): scalar vs batched vs multi-domain sharded preds/sec\n\
   plus a >= 10^5-input batched-vs-scalar bit-exactness sweep.\n\
   --trace records a Chrome trace-event timeline of the solver runs\n\
   (load in Perfetto); --metrics exports solver counters/histograms\n\
   (JSON when FILE ends in .json, Prometheus text otherwise).\n\
   --telemetry-addr serves GET /metrics, /metrics.json and /healthz\n\
   over HTTP while the bench runs (port 0 = ephemeral, printed at\n\
   startup); --ledger appends one ldafp-run/1 record with the full\n\
   BENCH_solver.json tree to the JSONL run ledger (see `ldafp runs`)."

type options = {
  mutable table1 : bool;
  mutable table2 : bool;
  mutable figure2 : bool;
  mutable figure4 : bool;
  mutable power : bool;
  mutable baselines : bool;
  mutable ecg : bool;
  mutable ablations : bool;
  mutable micro : bool;
  mutable parallel : bool;
  mutable scaling : bool;
  mutable deep : bool;
  mutable quick_deep : bool;
  mutable faults : bool;
  mutable infer : bool;
  mutable quick : bool;
  mutable seed : int option;
  mutable trace : string option;
  mutable metrics : string option;
  mutable telemetry_addr : string option;
  mutable ledger : string option;
}

let parse_args () =
  let o =
    {
      table1 = false; table2 = false; figure2 = false; figure4 = false;
      power = false; baselines = false; ecg = false; ablations = false;
      micro = false; parallel = false; scaling = false; deep = false;
      quick_deep = false; faults = false; infer = false;
      quick = true; seed = None; trace = None; metrics = None;
      telemetry_addr = None; ledger = None;
    }
  in
  let any = ref false in
  let args = Array.to_list Sys.argv in
  let rec go = function
    | [] -> ()
    | "--table1" :: rest -> any := true; o.table1 <- true; go rest
    | "--table2" :: rest -> any := true; o.table2 <- true; go rest
    | "--figure2" :: rest -> any := true; o.figure2 <- true; go rest
    | "--figure4" :: rest -> any := true; o.figure4 <- true; go rest
    | "--power" :: rest -> any := true; o.power <- true; go rest
    | "--baselines" :: rest -> any := true; o.baselines <- true; go rest
    | "--ecg" :: rest -> any := true; o.ecg <- true; go rest
    | "--ablations" :: rest -> any := true; o.ablations <- true; go rest
    | "--micro" :: rest -> any := true; o.micro <- true; go rest
    | "--parallel" :: rest -> any := true; o.parallel <- true; go rest
    | "--scaling" :: rest -> any := true; o.scaling <- true; go rest
    | "--deep" :: rest -> any := true; o.deep <- true; go rest
    | "--quick-deep" :: rest ->
        any := true;
        o.deep <- true;
        o.quick_deep <- true;
        go rest
    | "--faults" :: rest -> any := true; o.faults <- true; go rest
    | "--infer" :: rest -> any := true; o.infer <- true; go rest
    | "--quick" :: rest -> o.quick <- true; go rest
    | "--full" :: rest -> o.quick <- false; go rest
    | "--seed" :: n :: rest -> o.seed <- Some (int_of_string n); go rest
    | "--trace" :: path :: rest -> o.trace <- Some path; go rest
    | "--metrics" :: path :: rest -> o.metrics <- Some path; go rest
    | "--telemetry-addr" :: addr :: rest ->
        o.telemetry_addr <- Some addr;
        go rest
    | "--ledger" :: path :: rest -> o.ledger <- Some path; go rest
    | "--help" :: _ | "-h" :: _ -> print_endline usage; exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n%s\n" arg usage;
        exit 2
  in
  go (List.tl args);
  if not !any then begin
    o.table1 <- true;
    o.table2 <- true;
    o.figure2 <- true;
    o.figure4 <- true;
    o.power <- true;
    o.baselines <- true;
    o.ecg <- true;
    o.micro <- true;
    o.parallel <- true;
    o.scaling <- true;
    o.infer <- true
  end;
  o

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_solver.json)                        *)
(* ------------------------------------------------------------------ *)

(* The bench used to carry its own minimal JSON emitter; [Obs.Json] has
   the same constructors and [save] signature, plus a parser the
   observability tests use, so the local copy is gone. *)
module Json = Obs.Json

(* Total branch-and-bound nodes explored by the solves below, counted
   explicitly per solve (the BENCH_solver.json tree also contains
   [warm_nodes]/[cold_nodes] duplicates of the same runs, so a recursive
   sum over the JSON would double-count).  CI gates
   [metrics.ldafp_bnb_node_seconds.count == obs.nodes_total]: every
   explored node records exactly one node-seconds observation, so the
   two totals must agree whenever metrics were enabled for the whole
   run. *)
let obs_nodes = ref 0

let count_nodes outcome =
  match outcome with
  | Some o ->
      obs_nodes :=
        !obs_nodes + o.Ldafp_core.Lda_fp.diagnostics.Ldafp_core.Lda_fp.nodes
  | None -> ()

(* Every experiment record carries the environment needed to interpret
   its numbers later: the detected core count (the ROADMAP single-core
   caveat, machine-checkable at last) and a wall/CPU-clock sanity
   triple — cpu_wall_ratio ~ 1 on one busy core, ~ d when d domains
   genuinely ran in parallel, >> 1 when the container time-sliced.
   Keys an experiment already reports (e.g. the scaling runs' own
   [cores_detected]) are left untouched. *)
let with_env f =
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let j = f () in
  let wall = Unix.gettimeofday () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  match j with
  | Json.Obj kvs ->
      let extra =
        [
          ("cores_detected", Json.Int (Domain.recommended_domain_count ()));
          ("wall_seconds_total", Json.Float wall);
          ("cpu_seconds_total", Json.Float cpu);
          ( "cpu_wall_ratio",
            Json.Float (if wall > 0.0 then cpu /. wall else Float.nan) );
        ]
      in
      Json.Obj
        (kvs @ List.filter (fun (k, _) -> not (List.mem_assoc k kvs)) extra)
  | other -> other

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile (p in [0, 100]) — coarse but monotone, which
   is all the slack-distribution report needs. *)
let percentile p xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the solver kernels (E6)                *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let rng = Stats.Rng.create 123 in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:6 in
  let m = 42 in
  let wq =
    Fixedpoint.Fx_vector.of_floats fmt
      (Array.init m (fun _ -> Stats.Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
  in
  let xq =
    Fixedpoint.Fx_vector.of_floats fmt
      (Array.init m (fun _ -> Stats.Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
  in
  let spd =
    let a =
      Linalg.Mat.init m m (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
    in
    Linalg.Mat.add_scaled_identity (float_of_int m)
      (Linalg.Mat.mul a (Linalg.Mat.transpose a))
  in
  let b = Array.init m (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let ecog = Datasets.Ecog_sim.generate (Stats.Rng.create 5) in
  let prep = Ldafp_core.Pipeline.prepare ~fmt ecog in
  let problem = Ldafp_core.Ldafp_problem.build ~fmt prep.scatter in
  let relax =
    Ldafp_core.Ldafp_problem.relaxation problem
      ~wbox:problem.Ldafp_core.Ldafp_problem.elem_box
      ~trange:problem.Ldafp_core.Ldafp_problem.t_root
      ~eta:
        (Optim.Interval.sup_sq problem.Ldafp_core.Ldafp_problem.t_root)
  in
  let start =
    Array.map
      (fun iv -> Fixedpoint.Fx_interval.mid iv)
      problem.Ldafp_core.Ldafp_problem.elem_box
  in
  let synth = Datasets.Synthetic.generate ~n_per_class:500 (Stats.Rng.create 3) in
  let synth_a, synth_b = Datasets.Dataset.class_split synth in
  [
    Test.make ~name:"fx_dot_mac_42 (wrapped MAC, Q2.6)"
      (Staged.stage (fun () -> Fixedpoint.Fx_vector.dot wq xq));
    Test.make ~name:"cholesky_42x42"
      (Staged.stage (fun () -> Linalg.Cholesky.factor spd));
    Test.make ~name:"cholesky_solve_42"
      (Staged.stage (fun () -> Linalg.Cholesky.solve spd b));
    Test.make ~name:"gaussian_inv_cdf"
      (Staged.stage (fun () -> Stats.Gaussian.inv_cdf 0.995));
    Test.make ~name:"lda_train_synthetic"
      (Staged.stage (fun () -> Ldafp_core.Lda.train synth_a synth_b));
    Test.make ~name:"socp_root_relaxation_bci_42"
      (Staged.stage (fun () ->
           Optim.Socp.solve_auto relax ~start:(Array.copy start)));
  ]

let run_micro () =
  let open Bechamel in
  print_newline ();
  print_endline "Micro-benchmarks (E6): solver kernels";
  print_endline "=====================================";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let tests = micro_tests () in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) ->
              Printf.printf "  %-40s %12.1f ns/run\n%!" name t;
              estimates := (name, t) :: !estimates
          | _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
        analyzed)
    (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) tests);
  List.rev !estimates

(* ------------------------------------------------------------------ *)
(* Per-node bound kernel: cold vs warm start (E9)                      *)
(* ------------------------------------------------------------------ *)

(* Reproduces exactly what the branch-and-bound bound oracle does per
   node on the Table-1 synthetic problem: build the child relaxation
   from the shared template, establish strict feasibility, run the
   barrier.  Cold pays a phase-I solve from the box midpoint.  Warm
   replays the search's hot case {e adversarially}: the branching rule
   splits t at the parent optimum's projection, so the inherited point
   lands exactly on the child's branch-cut boundary and must be
   repaired (pulled to the analytic-center proxy, or Newton-corrected)
   before the barrier can run — [Socp.prepare_warm_start], the same
   code path the solver uses.  When the repair fails there is no warm
   timing to report: [warm_median_ms] is null and [warm_hits] is 0,
   never a cold-fallback median dressed up as a warm one.
   Correctness gate: cold and warm must agree on the objective to
   within the sum of their certified gap bounds. *)
let run_bound_kernel ~quick ?seed () =
  let open Ldafp_core in
  let seed = Option.value seed ~default:42 in
  print_newline ();
  print_endline "Per-node bound kernel: cold vs warm start (E9)";
  print_endline "==============================================";
  let rng = Stats.Rng.create seed in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:(if quick then 300 else 1000) rng
  in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:6 in
  let prep = Pipeline.prepare ~fmt ds in
  let pb = Ldafp_problem.build ~fmt prep.Pipeline.scatter in
  let wbox = pb.Ldafp_problem.elem_box in
  let relax trange =
    Ldafp_problem.relaxation pb ~wbox ~trange
      ~eta:(Optim.Interval.sup_sq trange)
  in
  let mid_start () = Array.map Fixedpoint.Fx_interval.mid wbox in
  let root_trange = pb.Ldafp_problem.t_root in
  let root =
    match Optim.Socp.solve_auto (relax root_trange) ~start:(mid_start ()) with
    | Some s -> s
    | None -> failwith "bound-kernel bench: root relaxation infeasible"
  in
  (* One adversarial branch step on t: split exactly where the
     branching rule does — at the root optimum's projection — so the
     inherited point sits on the child's branch-cut half-space with
     zero slack.  The naive is-it-interior test always fails here;
     warm starting must go through the repair pipeline. *)
  let t_opt = Ldafp_problem.t_of pb root.Optim.Socp.x in
  let child_trange, _ = Optim.Interval.split ~at:t_opt root_trange in
  let child = relax child_trange in
  let params = Optim.Socp.default_params in
  let target =
    Ldafp_problem.center_point pb ~wbox ~trange:child_trange
  in
  let prepare () =
    Optim.Socp.prepare_warm_start ~params ~target child root.Optim.Socp.x
  in
  let prep_kind =
    match prepare () with
    | Some (_, Optim.Socp.Warm_interior) -> "interior"
    | Some (_, Optim.Socp.Warm_pulled) -> "pulled_to_interior"
    | Some (_, Optim.Socp.Warm_corrected) -> "newton_corrected"
    | None -> "miss"
  in
  let cold () =
    match Optim.Socp.solve_auto ~params child ~start:(mid_start ()) with
    | Some s -> s
    | None -> failwith "bound-kernel bench: child relaxation infeasible"
  in
  (* The repair runs inside the timed region: its cost is part of the
     per-node warm path the search pays. *)
  let warm () =
    match prepare () with
    | Some (x0, _) ->
        Some
          (Optim.Socp.solve
             ~params:(Optim.Socp.warm_start_params params)
             child ~start:x0)
    | None -> None
  in
  let reps = if quick then 21 else 51 in
  let time_ms f =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        1e3 *. (Unix.gettimeofday () -. t0))
  in
  let cold_sol = cold () in
  let cold_ms = median (time_ms cold) in
  (* Certificate overhead: the independent dual verification every
     pruning bound now pays, as a fraction of the bound solve itself.
     Timed on the same child relaxation/solution pair as the cold
     kernel so the ratio compares like with like. *)
  let cert_ms =
    median
      (time_ms (fun () ->
           match Optim.Socp.certify_lower_bound child cold_sol with
           | Ok _ -> ()
           | Error f ->
               failwith
                 ("bound-kernel bench: certificate failed: "
                 ^ Optim.Socp.describe_cert_failure f)))
  in
  let cert_overhead = cert_ms /. Float.max cold_ms 1e-12 in
  (* Primal-vs-dual slack distribution over a chain of genuinely
     distinct relaxations (split on t at each level's optimum), not the
     same node certified [reps] times. *)
  let cert_slacks =
    let rec walk trange acc k =
      if k = 0 then acc
      else
        let p = relax trange in
        match Optim.Socp.solve_auto ~params p ~start:(mid_start ()) with
        | None -> acc
        | Some s -> (
            match Optim.Socp.certify_lower_bound p s with
            | Error _ -> acc
            | Ok c ->
                let t_opt = Ldafp_problem.t_of pb s.Optim.Socp.x in
                let sub, _ = Optim.Interval.split ~at:t_opt trange in
                walk sub (c.Optim.Socp.slack :: acc) (k - 1))
    in
    Array.of_list (walk root_trange [] (if quick then 6 else 10))
  in
  Printf.printf "  synthetic %s problem, %d reps, warm preparation: %s\n"
    (Fixedpoint.Qformat.to_string fmt)
    reps prep_kind;
  Printf.printf "  cold  (phase-I + barrier):        median %8.3f ms\n" cold_ms;
  Printf.printf
    "  cert  (dual verification):        median %8.3f ms  (%.1f%% of the \
     cold bound)\n"
    cert_ms (100.0 *. cert_overhead);
  Printf.printf
    "  cert slack over %d node(s): p50 %.3g  p90 %.3g  max %.3g\n%!"
    (Array.length cert_slacks)
    (percentile 50.0 cert_slacks)
    (percentile 90.0 cert_slacks)
    (percentile 100.0 cert_slacks);
  let common =
    [
      ("problem", Json.Str (Fixedpoint.Qformat.to_string fmt));
      ("reps", Json.Int reps);
      ("warm_prep", Json.Str prep_kind);
      ("cold_median_ms", Json.Float cold_ms);
      ("cold_objective", Json.Float cold_sol.Optim.Socp.objective);
      ("cert_median_ms", Json.Float cert_ms);
      ("cert_overhead_ratio", Json.Float cert_overhead);
      ("cert_slack_nodes", Json.Int (Array.length cert_slacks));
      ("cert_slack_p50", Json.Float (percentile 50.0 cert_slacks));
      ("cert_slack_p90", Json.Float (percentile 90.0 cert_slacks));
      ("cert_slack_max", Json.Float (percentile 100.0 cert_slacks));
    ]
  in
  match warm () with
  | None ->
      (* No warm hit: publish the absence honestly.  A cold-fallback
         median here would report "warm" timings that never exercised
         the warm path — exactly the artifact that hid the interiority
         regression. *)
      Printf.printf
        "  warm  irreparable (0/%d hits): no warm timing to report\n%!" reps;
      Json.Obj
        (common
        @ [
            ("warm_hits", Json.Int 0);
            ("warm_median_ms", Json.Null);
            ("speedup", Json.Null);
            ("objective_agreement", Json.Bool true);
          ])
  | Some warm_sol ->
      let warm_ms =
        median
          (time_ms (fun () ->
               match warm () with
               | Some _ -> ()
               | None -> failwith "bound-kernel bench: warm repair regressed"))
      in
      let speedup = cold_ms /. Float.max warm_ms 1e-12 in
      let delta =
        Float.abs
          (cold_sol.Optim.Socp.objective -. warm_sol.Optim.Socp.objective)
      in
      let tol =
        cold_sol.Optim.Socp.gap_bound +. warm_sol.Optim.Socp.gap_bound
        +. (1e-9 *. (1.0 +. Float.abs cold_sol.Optim.Socp.objective))
      in
      let agree = delta <= tol in
      Printf.printf
        "  warm  (repair + barrier):         median %8.3f ms  (%d/%d hits)\n"
        warm_ms reps reps;
      Printf.printf
        "  speedup %.2fx   objective agreement %b (|delta| %.3g <= %.3g)\n%!"
        speedup agree delta tol;
      Json.Obj
        (common
        @ [
            ("warm_hits", Json.Int reps);
            ("warm_median_ms", Json.Float warm_ms);
            ("speedup", Json.Float speedup);
            ("warm_objective", Json.Float warm_sol.Optim.Socp.objective);
            ("objective_delta", Json.Float delta);
            ("objective_tolerance", Json.Float tol);
            ("objective_agreement", Json.Bool agree);
          ])

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel branch-and-bound (E7)                        *)
(* ------------------------------------------------------------------ *)

let run_parallel_bnb ~quick ?seed () =
  let open Ldafp_core in
  let seed = Option.value seed ~default:42 in
  print_newline ();
  print_endline "Branch-and-bound: sequential vs parallel (E7)";
  print_endline "=============================================";
  let rng = Stats.Rng.create seed in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:(if quick then 300 else 1000) rng
  in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:(if quick then 4 else 6) in
  let prep = Pipeline.prepare ~fmt ds in
  let pb = Ldafp_problem.build ~fmt prep.Pipeline.scatter in
  let max_nodes = if quick then 150 else 2000 in
  let solve ?(warm_start = true) ?(certify = true) domains =
    let config =
      {
        Lda_fp.default_config with
        bnb_params =
          { Optim.Bnb.default_params with max_nodes; rel_gap = 1e-6; domains };
        warm_start;
        certify;
      }
    in
    let t0 = Unix.gettimeofday () in
    let outcome = Lda_fp.solve ~config pb in
    count_nodes outcome;
    (outcome, Unix.gettimeofday () -. t0)
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "synthetic %s problem, %d-node budget, %d core(s) detected\n"
    (Fixedpoint.Qformat.to_string fmt)
    max_nodes cores;
  let seq, seq_t = solve 1 in
  let report label (outcome, t) =
    match outcome with
    | None -> Printf.printf "  %-12s no feasible solution\n%!" label
    | Some o ->
        let d = o.Lda_fp.diagnostics in
        let s = d.Lda_fp.search in
        let seq_cost =
          match seq with Some s -> s.Lda_fp.cost | None -> Float.nan
        in
        Printf.printf
          "  %-12s cost %.6g  nodes %5d  idle %4d  warm %4d  %6.2fs  \
           speedup %.2fx  (cost ratio vs seq %.6f)\n\
           %!"
          label o.Lda_fp.cost d.Lda_fp.nodes s.Optim.Bnb.idle_wakeups
          s.Optim.Bnb.warm_start_hits t
          (seq_t /. Float.max t 1e-9)
          (o.Lda_fp.cost /. seq_cost)
  in
  (* [vs_seq] says whether the warm sequential run is a meaningful
     scaling baseline for this record.  The cold d=1 ablation exists to
     gate warm/cold agreement, not scaling: normalizing its time
     against the {e warm} run produced a bogus "efficiency" (warm_t /
     cold_t), so that record reports null instead. *)
  let record ?(vs_seq = true) label domains (outcome, t) =
    match outcome with
    | None ->
        Json.Obj
          [
            ("label", Json.Str label);
            ("domains", Json.Int domains);
            ("feasible", Json.Bool false);
            ("seconds", Json.Float t);
          ]
    | Some o ->
        let d = o.Lda_fp.diagnostics in
        let s = d.Lda_fp.search in
        let per_domain = s.Optim.Bnb.domain_oracle_seconds in
        (* Per-domain oracle utilization: each entry is that worker's
           oracle time over the run's wall-clock, so every entry is in
           [0, 1] regardless of domain count — unlike the old summed
           oracle_seconds, which reported 0.27s "inside" a 0.09s run. *)
        let utilization =
          Array.map (fun os -> os /. Float.max t 1e-9) per_domain
        in
        let misses =
          s.Optim.Bnb.warm_miss_no_parent + s.Optim.Bnb.warm_miss_not_interior
          + s.Optim.Bnb.warm_miss_fault_cleared
        in
        Json.Obj
          [
            ("label", Json.Str label);
            ("domains", Json.Int domains);
            ("feasible", Json.Bool true);
            ("seconds", Json.Float t);
            (* T1 / (d * Td): 1.0 = perfect linear scaling. *)
            ( "scaling_efficiency",
              if vs_seq then
                Json.Float
                  (seq_t /. (float_of_int domains *. Float.max t 1e-9))
              else Json.Null );
            ("cost", Json.Float o.Lda_fp.cost);
            ("nodes", Json.Int d.Lda_fp.nodes);
            ("warm_start_hits", Json.Int s.Optim.Bnb.warm_start_hits);
            ("phase1_skipped", Json.Int s.Optim.Bnb.phase1_skipped);
            ( "warm_hit_rate",
              Json.Float
                (float_of_int s.Optim.Bnb.warm_start_hits
                /. float_of_int (max 1 (s.Optim.Bnb.warm_start_hits + misses)))
            );
            ("warm_miss_no_parent", Json.Int s.Optim.Bnb.warm_miss_no_parent);
            ( "warm_miss_not_interior",
              Json.Int s.Optim.Bnb.warm_miss_not_interior );
            ( "warm_miss_fault_cleared",
              Json.Int s.Optim.Bnb.warm_miss_fault_cleared );
            ("warm_pull_ins", Json.Int s.Optim.Bnb.warm_pull_ins);
            ( "warm_newton_corrections",
              Json.Int s.Optim.Bnb.warm_newton_corrections );
            ("stolen_warm", Json.Int s.Optim.Bnb.stolen_warm);
            ( "oracle_seconds_per_domain",
              Json.List
                (Array.to_list (Array.map (fun x -> Json.Float x) per_domain))
            );
            ( "oracle_utilization",
              Json.List
                (Array.to_list (Array.map (fun x -> Json.Float x) utilization))
            );
            ("steals", Json.Int s.Optim.Bnb.steals);
            ("stolen_nodes", Json.Int s.Optim.Bnb.stolen_nodes);
            ("idle_wakeups", Json.Int s.Optim.Bnb.idle_wakeups);
            ("seed_nodes", Json.Int s.Optim.Bnb.seed_nodes);
            ("seed_seconds", Json.Float s.Optim.Bnb.seed_seconds);
            ("targeted_wakeups", Json.Int s.Optim.Bnb.targeted_wakeups);
            ("steals_best_victim", Json.Int s.Optim.Bnb.steals_best_victim);
            ( "first_node_seconds",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun x -> Json.Float x)
                      s.Optim.Bnb.domain_first_node_seconds)) );
            ("cert_verified", Json.Int s.Optim.Bnb.cert_verified);
            ("cert_repaired", Json.Int s.Optim.Bnb.cert_repaired);
            ("cert_fallbacks", Json.Int s.Optim.Bnb.cert_fallbacks);
            ("certified_sound", Json.Bool s.Optim.Bnb.certified_sound);
          ]
  in
  report "domains=1" (seq, seq_t);
  (* Cold ablation at domains=1 — the warm/cold agreement gate CI checks. *)
  let cold, cold_t = solve ~warm_start:false 1 in
  report "cold d=1" (cold, cold_t);
  let records = ref [ record ~vs_seq:false "cold d=1" 1 (cold, cold_t);
                      record "domains=1" 1 (seq, seq_t) ] in
  List.iter
    (fun domains ->
      if domains > 1 then begin
        let label = Printf.sprintf "domains=%d" domains in
        let r = solve domains in
        report label r;
        records := record label domains r :: !records
      end)
    [ 2; 4 ];
  let cost_of = function
    | Some o, _ -> o.Ldafp_core.Lda_fp.cost
    | None, _ -> Float.nan
  in
  let nodes_of = function
    | Some o, _ -> o.Ldafp_core.Lda_fp.diagnostics.Ldafp_core.Lda_fp.nodes
    | None, _ -> -1
  in
  let gap_of = function
    | Some o, _ -> o.Ldafp_core.Lda_fp.diagnostics.Ldafp_core.Lda_fp.gap
    | None, _ -> Float.nan
  in
  let same_incumbent = cost_of (seq, seq_t) = cost_of (cold, cold_t) in
  let same_nodes = nodes_of (seq, seq_t) = nodes_of (cold, cold_t) in
  (* Bitwise equality, deliberately: a repaired warm start changes only
     where the barrier {e starts}, never the ladder it climbs or the
     terminal tau, so the certified gap the search reports must be the
     very same float.  Any divergence means warm starting changed the
     mathematics, not just the wall-clock. *)
  let same_gap = gap_of (seq, seq_t) = gap_of (cold, cold_t) in
  Printf.printf
    "  warm vs cold (domains=1): same incumbent %b, same certified gap %b, \
     same node count %b\n\
     %!"
    same_incumbent same_gap same_nodes;
  (* Certified vs trusting ablation (domains=1): pruning on the verified
     dual certificate must land on the same incumbent as pruning on the
     raw primal objective when the solver is healthy.  Only the
     incumbent is gated — the certified bound is looser than the primal
     one by construction (the dual slack), so gaps and node counts are
     recorded as information, not equality. *)
  let trusting, trusting_t = solve ~certify:false 1 in
  let cert_same_incumbent = cost_of (seq, seq_t) = cost_of (trusting, trusting_t) in
  let stats_of = function
    | Some o, _ ->
        Some o.Ldafp_core.Lda_fp.diagnostics.Ldafp_core.Lda_fp.search
    | None, _ -> None
  in
  let seq_stats = stats_of (seq, seq_t) in
  let certified_sound =
    match seq_stats with Some s -> s.Optim.Bnb.certified_sound | None -> false
  in
  let cert_int f = match seq_stats with Some s -> f s | None -> -1 in
  Printf.printf
    "  certified vs trusting (domains=1): same incumbent %b, certified \
     sound %b, %d verified / %d repaired / %d fallback(s)\n\
     %!"
    cert_same_incumbent certified_sound
    (cert_int (fun s -> s.Optim.Bnb.cert_verified))
    (cert_int (fun s -> s.Optim.Bnb.cert_repaired))
    (cert_int (fun s -> s.Optim.Bnb.cert_fallbacks));
  Json.Obj
    [
      ("experiments", Json.List (List.rev !records));
      ( "warm_vs_cold",
        Json.Obj
          [
            ("same_incumbent", Json.Bool same_incumbent);
            ("same_certified_gap", Json.Bool same_gap);
            (* Node counts are informational: they have matched on every
               run so far, but the contract the search promises is
               incumbent + certified-gap equality. *)
            ("same_nodes", Json.Bool same_nodes);
            ("warm_cost", Json.Float (cost_of (seq, seq_t)));
            ("cold_cost", Json.Float (cost_of (cold, cold_t)));
            ("warm_gap", Json.Float (gap_of (seq, seq_t)));
            ("cold_gap", Json.Float (gap_of (cold, cold_t)));
            ("warm_nodes", Json.Int (nodes_of (seq, seq_t)));
            ("cold_nodes", Json.Int (nodes_of (cold, cold_t)));
          ] );
      ( "certified_vs_trusting",
        Json.Obj
          [
            ("same_incumbent", Json.Bool cert_same_incumbent);
            ("certified_sound", Json.Bool certified_sound);
            ("cert_verified", Json.Int (cert_int (fun s -> s.Optim.Bnb.cert_verified)));
            ("cert_repaired", Json.Int (cert_int (fun s -> s.Optim.Bnb.cert_repaired)));
            ("cert_fallbacks", Json.Int (cert_int (fun s -> s.Optim.Bnb.cert_fallbacks)));
            ("certified_cost", Json.Float (cost_of (seq, seq_t)));
            ("trusting_cost", Json.Float (cost_of (trusting, trusting_t)));
            ("certified_gap", Json.Float (gap_of (seq, seq_t)));
            ("trusting_gap", Json.Float (gap_of (trusting, trusting_t)));
            ("certified_nodes", Json.Int (nodes_of (seq, seq_t)));
            ("trusting_nodes", Json.Int (nodes_of (trusting, trusting_t)));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Work-stealing scaling on a >= 10^3-node search (E10)                *)
(* ------------------------------------------------------------------ *)

(* The E7 comparison runs a 150-node budgeted search — far too small to
   amortize domain spawns, so its timings are startup noise.  This one
   is an exact search (rel_gap = 1e-9, the same tolerance the
   brute-force closure tests use; abs_gap = 0; node budget only as a
   runaway stop) on a problem sized to take >= 10^3 nodes to close
   (Q2.3: ~8.6k nodes).  Run-to-completion is also what makes the
   cross-domain correctness gate sharp: every domain count must prove
   the same optimum, bit for bit, no matter how nodes were stolen.  CI
   gates on that agreement and on the certified gap — never on the
   timings, which depend on the runner's core count (reported here as
   context: on a single hardware core, multi-domain runs can only be
   slower — time-slicing plus cross-domain GC barriers — and the
   efficiency field records exactly that instead of pretending
   otherwise). *)
let stop_name = Optim.Bnb.stop_reason_name

let run_scaling_bnb ~quick ?seed () =
  let open Ldafp_core in
  let seed = Option.value seed ~default:42 in
  print_newline ();
  print_endline "Work-stealing scaling: exact search, >= 10^3 nodes (E10)";
  print_endline "========================================================";
  let rng = Stats.Rng.create seed in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:(if quick then 200 else 600) rng
  in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let prep = Pipeline.prepare ~fmt ds in
  let pb = Ldafp_problem.build ~fmt prep.Pipeline.scatter in
  let solve domains =
    let config =
      {
        Lda_fp.default_config with
        bnb_params =
          {
            Optim.Bnb.default_params with
            max_nodes = 200_000;
            rel_gap = 1e-9;
            abs_gap = 0.0;
            domains;
          };
      }
    in
    let t0 = Unix.gettimeofday () in
    let outcome = Lda_fp.solve ~config pb in
    count_nodes outcome;
    (outcome, Unix.gettimeofday () -. t0)
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "synthetic %s problem, exact search, %d core(s) detected\n%!"
    (Fixedpoint.Qformat.to_string fmt)
    cores;
  let seq, seq_t = solve 1 in
  let seq_cost = match seq with Some o -> o.Lda_fp.cost | None -> Float.nan in
  let seq_nodes =
    match seq with
    | Some o -> o.Lda_fp.diagnostics.Lda_fp.nodes
    | None -> -1
  in
  let one domains (outcome, t) =
    match outcome with
    | None ->
        Printf.printf "  domains=%d  no feasible solution (%.2fs)\n%!" domains
          t;
        Json.Obj
          [
            ("domains", Json.Int domains);
            ("feasible", Json.Bool false);
            ("cost_agrees", Json.Bool false);
            ("seconds", Json.Float t);
          ]
    | Some o ->
        let d = o.Lda_fp.diagnostics in
        let s = d.Lda_fp.search in
        let efficiency = seq_t /. (float_of_int domains *. Float.max t 1e-9) in
        (* Exact searches must land on the same optimum regardless of
           how nodes migrated; the incumbent is a grid point evaluated
           by the same float expression everywhere, so exact equality
           is the right test. *)
        let cost_agrees = o.Lda_fp.cost = seq_cost in
        Printf.printf
          "  domains=%d  cost %.6g  nodes %6d  steals %4d (%5d nodes)  \
           %6.2fs  speedup %.2fx  efficiency %.2f  %s\n\
           %!"
          domains o.Lda_fp.cost d.Lda_fp.nodes s.Optim.Bnb.steals
          s.Optim.Bnb.stolen_nodes t
          (seq_t /. Float.max t 1e-9)
          efficiency
          (stop_name d.Lda_fp.stop_reason);
        Json.Obj
          [
            ("domains", Json.Int domains);
            ("feasible", Json.Bool true);
            ("cost", Json.Float o.Lda_fp.cost);
            ("cost_agrees", Json.Bool cost_agrees);
            ("certified_gap", Json.Float d.Lda_fp.gap);
            ("nodes", Json.Int d.Lda_fp.nodes);
            ("stop_reason", Json.Str (stop_name d.Lda_fp.stop_reason));
            ("seconds", Json.Float t);
            ("scaling_efficiency", Json.Float efficiency);
            ("steals", Json.Int s.Optim.Bnb.steals);
            ("stolen_nodes", Json.Int s.Optim.Bnb.stolen_nodes);
            ("idle_wakeups", Json.Int s.Optim.Bnb.idle_wakeups);
            ("seed_nodes", Json.Int s.Optim.Bnb.seed_nodes);
            ("seed_seconds", Json.Float s.Optim.Bnb.seed_seconds);
            ("targeted_wakeups", Json.Int s.Optim.Bnb.targeted_wakeups);
            ("steals_best_victim", Json.Int s.Optim.Bnb.steals_best_victim);
            ( "first_node_seconds",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun x -> Json.Float x)
                      s.Optim.Bnb.domain_first_node_seconds)) );
            ( "oracle_utilization",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun os -> Json.Float (os /. Float.max t 1e-9))
                      s.Optim.Bnb.domain_oracle_seconds)) );
          ]
  in
  let runs =
    List.map
      (fun domains ->
        if domains = 1 then one 1 (seq, seq_t) else one domains (solve domains))
      [ 1; 2; 4 ]
  in
  if seq_nodes >= 0 && seq_nodes < 1000 then
    Printf.printf
      "  note: sequential search closed in %d nodes (< 1000) — problem \
       smaller than intended for scaling\n\
       %!"
      seq_nodes;
  Json.Obj
    [
      ("problem", Json.Str (Fixedpoint.Qformat.to_string fmt));
      ("cores_detected", Json.Int cores);
      ("sequential_nodes", Json.Int seq_nodes);
      ("runs", Json.List runs);
    ]

(* ------------------------------------------------------------------ *)
(* Deep scaling: exact run-to-completion search, >= 10^5 nodes (E11)   *)
(* ------------------------------------------------------------------ *)

(* The E10 search closes in ~10^4 nodes — deep enough to amortize domain
   spawns but still dominated by the single-frontier warm-up before the
   first steals.  This experiment is the scaling benchmark proper: an
   exact run-to-drain search (rel_gap = abs_gap = 0: the frontier is
   explored until it is empty, so the certified gap is exactly 0.0 and
   the incumbent/gap comparison across domain counts is bitwise) sized
   to >= 10^5 nodes (--quick-deep: >= 10^4, the CI size).  Alongside the
   efficiency it reports what the seeding phase did (nodes, seconds) and
   the hot-path scheduler counters (targeted wakeups, best-victim
   steals, per-domain time to first expansion) so a scaling regression
   can be attributed.  CI gates only correctness and seed-field
   consistency — the timings depend on the runner's core count, which
   is recorded as context in [cores_detected]. *)
let run_scaling_deep ~quick_deep ?seed () =
  let open Ldafp_core in
  let seed = Option.value seed ~default:42 in
  let target_nodes = if quick_deep then 10_000 else 100_000 in
  print_newline ();
  Printf.printf
    "Deep scaling: exact run-to-drain search, >= 10^%d nodes (E11)\n"
    (if quick_deep then 4 else 5);
  print_endline "=============================================================";
  let rng = Stats.Rng.create seed in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:(if quick_deep then 200 else 300)
      rng
  in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:(if quick_deep then 5 else 7) in
  let prep = Pipeline.prepare ~fmt ds in
  let pb = Ldafp_problem.build ~fmt prep.Pipeline.scatter in
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
    let t0 = Unix.gettimeofday () in
    let outcome = Lda_fp.solve ~config pb in
    count_nodes outcome;
    (outcome, Unix.gettimeofday () -. t0)
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "synthetic %s problem, exact run-to-drain, %d core(s) detected\n%!"
    (Fixedpoint.Qformat.to_string fmt)
    cores;
  let seq, seq_t = solve 1 in
  let seq_cost = match seq with Some o -> o.Lda_fp.cost | None -> Float.nan in
  let seq_gap =
    match seq with
    | Some o -> o.Lda_fp.diagnostics.Lda_fp.gap
    | None -> Float.nan
  in
  let seq_nodes =
    match seq with
    | Some o -> o.Lda_fp.diagnostics.Lda_fp.nodes
    | None -> -1
  in
  let one domains (outcome, t) =
    match outcome with
    | None ->
        Printf.printf "  domains=%d  no feasible solution (%.2fs)\n%!" domains
          t;
        Json.Obj
          [
            ("domains", Json.Int domains);
            ("feasible", Json.Bool false);
            ("cost_agrees", Json.Bool false);
            ("gap_agrees", Json.Bool false);
            ("seconds", Json.Float t);
          ]
    | Some o ->
        let d = o.Lda_fp.diagnostics in
        let s = d.Lda_fp.search in
        let efficiency = seq_t /. (float_of_int domains *. Float.max t 1e-9) in
        (* Run-to-drain: every domain count proves the same optimum with
           the same (zero) certified gap, so exact float equality is the
           right comparison on both. *)
        let cost_agrees = o.Lda_fp.cost = seq_cost in
        let gap_agrees = d.Lda_fp.gap = seq_gap in
        Printf.printf
          "  domains=%d  cost %.6g  nodes %6d  seed %5d/%.3fs  steals %4d  \
           %7.2fs  efficiency %.2f  %s\n\
           %!"
          domains o.Lda_fp.cost d.Lda_fp.nodes s.Optim.Bnb.seed_nodes
          s.Optim.Bnb.seed_seconds s.Optim.Bnb.steals t efficiency
          (stop_name d.Lda_fp.stop_reason);
        Json.Obj
          [
            ("domains", Json.Int domains);
            ("feasible", Json.Bool true);
            ("cost", Json.Float o.Lda_fp.cost);
            ("cost_agrees", Json.Bool cost_agrees);
            ("certified_gap", Json.Float d.Lda_fp.gap);
            ("gap_agrees", Json.Bool gap_agrees);
            ("certified_sound", Json.Bool s.Optim.Bnb.certified_sound);
            ("cert_fallbacks", Json.Int s.Optim.Bnb.cert_fallbacks);
            ("nodes", Json.Int d.Lda_fp.nodes);
            ("stop_reason", Json.Str (stop_name d.Lda_fp.stop_reason));
            ("seconds", Json.Float t);
            ("scaling_efficiency", Json.Float efficiency);
            ("seed_nodes", Json.Int s.Optim.Bnb.seed_nodes);
            ("seed_seconds", Json.Float s.Optim.Bnb.seed_seconds);
            ("steals", Json.Int s.Optim.Bnb.steals);
            ("stolen_nodes", Json.Int s.Optim.Bnb.stolen_nodes);
            ("idle_wakeups", Json.Int s.Optim.Bnb.idle_wakeups);
            ("targeted_wakeups", Json.Int s.Optim.Bnb.targeted_wakeups);
            ("steals_best_victim", Json.Int s.Optim.Bnb.steals_best_victim);
            ( "first_node_seconds",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun x -> Json.Float x)
                      s.Optim.Bnb.domain_first_node_seconds)) );
          ]
  in
  let runs =
    List.map
      (fun domains ->
        if domains = 1 then one 1 (seq, seq_t) else one domains (solve domains))
      [ 1; 2; 4 ]
  in
  if seq_nodes >= 0 && seq_nodes < target_nodes then
    Printf.printf
      "  note: sequential search closed in %d nodes (< %d) — problem \
       smaller than intended for deep scaling\n\
       %!"
      seq_nodes target_nodes;
  Json.Obj
    [
      ("problem", Json.Str (Fixedpoint.Qformat.to_string fmt));
      ("mode", Json.Str (if quick_deep then "quick-deep" else "deep"));
      ("cores_detected", Json.Int cores);
      ("target_nodes", Json.Int target_nodes);
      ("sequential_nodes", Json.Int seq_nodes);
      ("runs", Json.List runs);
    ]

(* ------------------------------------------------------------------ *)
(* Fault tolerance: solve quality and overhead under injected faults   *)
(* ------------------------------------------------------------------ *)

let run_fault_tolerance ~quick ?seed () =
  let open Ldafp_core in
  let seed = Option.value seed ~default:42 in
  print_newline ();
  print_endline "Branch-and-bound under injected oracle faults (E8)";
  print_endline "==================================================";
  let rng = Stats.Rng.create seed in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:(if quick then 300 else 1000) rng
  in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:4 in
  let prep = Pipeline.prepare ~fmt ds in
  let pb = Ldafp_problem.build ~fmt prep.Pipeline.scatter in
  let max_nodes = if quick then 120 else 1000 in
  let solve ~rate ~domains =
    let inject =
      if rate = 0.0 then None
      else
        Some
          (Optim.Fault_inject.config ~seed ~bound_exn_prob:(rate /. 2.0)
             ~bound_nan_prob:(rate /. 2.0) ())
    in
    let config =
      {
        Lda_fp.default_config with
        bnb_params =
          { Optim.Bnb.default_params with max_nodes; rel_gap = 1e-6; domains };
        inject_faults = inject;
      }
    in
    let t0 = Unix.gettimeofday () in
    let outcome = Lda_fp.solve ~config pb in
    (outcome, Unix.gettimeofday () -. t0)
  in
  Printf.printf "synthetic %s problem, %d-node budget\n"
    (Fixedpoint.Qformat.to_string fmt)
    max_nodes;
  Printf.printf "  %-22s %-10s %-6s %s\n" "" "cost" "time"
    "failures/retries/degraded/dropped";
  List.iter
    (fun (rate, domains) ->
      let label = Printf.sprintf "faults=%2.0f%% domains=%d" (100.0 *. rate) domains in
      match solve ~rate ~domains with
      | None, t -> Printf.printf "  %-22s no feasible solution (%.2fs)\n%!" label t
      | Some o, t ->
          let s = o.Lda_fp.diagnostics.Lda_fp.search in
          Printf.printf "  %-22s %-10.6g %5.2fs %d/%d/%d/%d\n%!" label
            o.Lda_fp.cost t s.Optim.Bnb.oracle_failures s.Optim.Bnb.retries
            s.Optim.Bnb.degraded_bounds s.Optim.Bnb.dropped_regions)
    [ (0.0, 1); (0.05, 1); (0.20, 1); (0.0, 4); (0.05, 4); (0.20, 4) ]

(* ------------------------------------------------------------------ *)
(* Batched fixed-point inference engine (lib/infer)                    *)
(* ------------------------------------------------------------------ *)

(* Throughput of the batched C-kernel datapath vs the scalar
   [Fixed_classifier] reference, plus a >= 10^5-input bit-exactness
   sweep (the CI gate checks [batch_vs_scalar_agreement] and
   [agreement_inputs], never the timings).  The scalar and batched
   figures run on pre-quantised inputs: steady-state MAC + threshold
   throughput.  [load_preds_per_sec] is the same engine end to end, from
   floats through the front-end quantiser ([load_rows]) to verdicts. *)
let run_infer ~quick ?seed () =
  let seed = Option.value seed ~default:42 in
  print_newline ();
  print_endline "Batched fixed-point inference (E10)";
  print_endline "===================================";
  let rng = Stats.Rng.create seed in
  let ds =
    Datasets.Synthetic.generate ~n_per_class:(if quick then 300 else 1000) rng
  in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:6 in
  let clf = Ldafp_core.Pipeline.train_conventional ~fmt ds in
  let m = Ldafp_core.Fixed_classifier.n_features clf in
  let batch_cap = 256 in
  let engine = Infer.Engine.of_fixed ~capacity:batch_cap clf in
  let batch = Infer.Engine.make_batch engine in
  let out = Bytes.create batch_cap in
  let cols = Array.init batch_cap (fun _ -> Array.make m 0.0) in
  let fresh_cols () =
    Array.iter
      (fun col ->
        Array.iteri
          (fun j _ ->
            col.(j) <-
              (* Mostly in-range magnitudes, with a heavy tail that
                 saturates the front end — the regime where batched and
                 scalar rounding could plausibly diverge. *)
              (match Stats.Rng.int rng 10 with
              | 0 -> Stats.Rng.uniform rng ~lo:(-64.0) ~hi:64.0
              | 1 -> Stats.Rng.uniform rng ~lo:(-8.0) ~hi:8.0
              | _ -> Stats.Rng.uniform rng ~lo:(-2.5) ~hi:2.5))
          col)
      cols
  in
  (* Bit-exactness sweep: >= 100_000 randomised raw inputs, batched
     verdict vs scalar [predict] on the identical floats. *)
  let rounds = (100_000 + batch_cap - 1) / batch_cap in
  let agreement_inputs = rounds * batch_cap in
  let mismatches = ref 0 in
  for _ = 1 to rounds do
    fresh_cols ();
    ignore (Infer.Engine.load_rows engine batch cols : int);
    Infer.Engine.predict_into engine batch out;
    Array.iteri
      (fun c col ->
        let scalar = Ldafp_core.Fixed_classifier.predict clf col in
        let batched = Bytes.get out c = '\001' in
        if scalar <> batched then incr mismatches)
      cols
  done;
  Printf.printf
    "bit-exactness: %d randomised inputs, %d mismatch(es) (%s %s model, %d \
     features)\n%!"
    agreement_inputs !mismatches
    (Fixedpoint.Qformat.to_string fmt)
    "conventional" m;
  (* Throughput.  Each timed closure serves [batch_cap] predictions per
     call so the clock reads amortise identically across paths. *)
  let min_s = if quick then 0.2 else 1.0 in
  let throughput f =
    f ();
    let t0 = Unix.gettimeofday () in
    let stop = t0 +. min_s in
    let iters = ref 0 in
    while Unix.gettimeofday () < stop do
      f ();
      incr iters
    done;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (!iters * batch_cap) /. dt
  in
  let quantized =
    Array.map (fun col -> Ldafp_core.Fixed_classifier.quantize_input clf col) cols
  in
  let sink = ref 0 in
  let scalar_pps =
    throughput (fun () ->
        Array.iter
          (fun qx ->
            if Ldafp_core.Fixed_classifier.predict_quantized clf qx then
              incr sink)
          quantized)
  in
  let batched_pps =
    throughput (fun () -> Infer.Engine.predict_into engine batch out)
  in
  let load_pps =
    throughput (fun () ->
        ignore (Infer.Engine.load_rows engine batch cols : int);
        Infer.Engine.predict_into engine batch out)
  in
  (* Sharded: independent engines chewing the same batch shape on 2 and
     4 domains — aggregate preds/sec over the joint wall time. *)
  let shard domains =
    let t0 = Unix.gettimeofday () in
    let workers =
      List.init domains (fun _ ->
          Domain.spawn (fun () ->
              let e = Infer.Engine.of_fixed ~capacity:batch_cap clf in
              let b = Infer.Engine.make_batch e in
              let o = Bytes.create batch_cap in
              ignore (Infer.Engine.load_rows e b cols : int);
              Infer.Engine.predict_into e b o;
              let stop = Unix.gettimeofday () +. min_s in
              let iters = ref 0 in
              while Unix.gettimeofday () < stop do
                Infer.Engine.predict_into e b o;
                incr iters
              done;
              !iters * batch_cap))
    in
    let total = List.fold_left (fun acc w -> acc + Domain.join w) 0 workers in
    float_of_int total /. (Unix.gettimeofday () -. t0)
  in
  let sharded = List.map (fun d -> (d, shard d)) [ 2; 4 ] in
  Printf.printf "  %-28s %12.3g preds/sec\n" "scalar (predict_quantized)"
    scalar_pps;
  Printf.printf "  %-28s %12.3g preds/sec  (%.2fx scalar)\n" "batched (C MAC)"
    batched_pps (batched_pps /. scalar_pps);
  Printf.printf "  %-28s %12.3g preds/sec\n" "batched from floats (load)"
    load_pps;
  List.iter
    (fun (d, pps) ->
      Printf.printf "  %-28s %12.3g preds/sec\n"
        (Printf.sprintf "sharded x%d domains" d)
        pps)
    sharded;
  flush stdout;
  Json.Obj
    [
      ("problem", Json.Str "synthetic");
      ("format", Json.Str (Fixedpoint.Qformat.to_string fmt));
      ("features", Json.Int m);
      ("batch", Json.Int batch_cap);
      ("agreement_inputs", Json.Int agreement_inputs);
      ("mismatches", Json.Int !mismatches);
      ("batch_vs_scalar_agreement", Json.Bool (!mismatches = 0));
      ("scalar_preds_per_sec", Json.Float scalar_pps);
      ("batched_preds_per_sec", Json.Float batched_pps);
      ("speedup", Json.Float (batched_pps /. scalar_pps));
      ("load_preds_per_sec", Json.Float load_pps);
      ( "sharded",
        Json.List
          (List.map
             (fun (d, pps) ->
               Json.Obj
                 [ ("domains", Json.Int d); ("preds_per_sec", Json.Float pps) ])
             sharded) );
    ]

let () =
  let o = parse_args () in
  let seed = o.seed in
  let quick = o.quick in
  Printf.printf "LDA-FP reproduction harness (%s mode)\n"
    (if quick then "quick" else "full");
  let collector =
    Option.map
      (fun _ ->
        let c = Obs.Trace.create () in
        Obs.Trace.install c;
        c)
      o.trace
  in
  if o.metrics <> None then Obs.Metrics.set_enabled true;
  let telemetry =
    Option.bind o.telemetry_addr (fun addr ->
        match Obs.Telemetry.start ~addr () with
        | Ok srv ->
            Obs.Metrics.set_enabled true;
            Printf.printf
              "telemetry: serving /metrics, /metrics.json and /healthz on \
               %s\n\
               %!"
              (Obs.Telemetry.addr srv);
            Some srv
        | Error msg ->
            Printf.eprintf "warning: %s — continuing without telemetry\n%!"
              msg;
            None)
  in
  if o.table1 then begin
    let t0 = Sys.time () in
    let rows = Experiments.table1 ~quick ?seed () in
    Experiments.print_table1 rows;
    Printf.printf "[table1 total %.1fs]\n%!" (Sys.time () -. t0)
  end;
  if o.figure4 then begin
    let rows = Experiments.figure4 ~quick ?seed () in
    Experiments.print_figure4 rows
  end;
  if o.table2 then begin
    let t0 = Sys.time () in
    let rows = Experiments.table2 ~quick ?seed () in
    Experiments.print_table2 rows;
    Printf.printf "[table2 total %.1fs]\n%!" (Sys.time () -. t0)
  end;
  if o.figure2 then Experiments.print_figure2 (Experiments.figure2 ~quick ?seed ());
  if o.power then Experiments.print_power (Experiments.power ());
  if o.baselines then
    Experiments.print_baselines (Experiments.baselines ~quick ?seed ());
  if o.ecg then
    Experiments.print_table_ecg (Experiments.table_ecg ~quick ?seed ());
  if o.ablations then begin
    Experiments.print_ablation ~title:"Ablation: K/F split policy (synthetic)"
      (Experiments.ablation_kf ~quick ?seed ());
    Experiments.print_ablation ~title:"Ablation: solver features (synthetic, WL=8)"
      (Experiments.ablation_solver ~quick ?seed ())
  end;
  let micro_json = ref Json.Null in
  let kernel_json = ref Json.Null in
  let parallel_json = ref Json.Null in
  let scaling_json = ref Json.Null in
  let scaling_deep_json = ref Json.Null in
  let infer_json = ref Json.Null in
  if o.micro then begin
    micro_json :=
      with_env (fun () ->
          let estimates = run_micro () in
          Json.Obj
            [
              ( "estimates",
                Json.List
                  (List.map
                     (fun (name, ns) ->
                       Json.Obj
                         [
                           ("name", Json.Str name);
                           ("ns_per_run", Json.Float ns);
                         ])
                     estimates) );
            ]);
    kernel_json := with_env (fun () -> run_bound_kernel ~quick ?seed ())
  end;
  if o.parallel then
    parallel_json := with_env (fun () -> run_parallel_bnb ~quick ?seed ());
  if o.scaling then
    scaling_json := with_env (fun () -> run_scaling_bnb ~quick ?seed ());
  if o.deep then
    scaling_deep_json :=
      with_env (fun () -> run_scaling_deep ~quick_deep:o.quick_deep ?seed ());
  if o.faults then run_fault_tolerance ~quick ?seed ();
  if o.infer then infer_json := with_env (fun () -> run_infer ~quick ?seed ());
  (* The scrape endpoint outlives the experiments only until here: stop
     (and join) it before the exports so they read quiescent state. *)
  Option.iter Obs.Telemetry.stop telemetry;
  (* Observability export comes first: all solver domains are joined by
     now, so ring/shard state is quiescent and safe to read. *)
  (match (o.trace, collector) with
  | Some path, Some c ->
      Obs.Trace.uninstall ();
      Obs.Trace.save c path;
      Printf.printf "\nwrote %s (%d events, %d dropped)\n%!" path
        (List.length (Obs.Trace.events c))
        (Obs.Trace.dropped c)
  | _ -> ());
  (match o.metrics with
  | Some path ->
      Obs.Metrics.set_enabled false;
      if Filename.check_suffix path ".json" then
        Obs.Metrics.save_json Obs.Metrics.default path
      else Obs.Metrics.save_prometheus Obs.Metrics.default path;
      Printf.printf "wrote %s\n%!" path
  | None -> ());
  let bench_json =
    Json.Obj
      [
        ("schema", Json.Str "ldafp-bench-solver/1");
        ("mode", Json.Str (if quick then "quick" else "full"));
        ("seed", Json.Int (Option.value seed ~default:42));
        ("micro", !micro_json);
        ("bound_kernel", !kernel_json);
        ("parallel", !parallel_json);
        ("scaling", !scaling_json);
        ("scaling_deep", !scaling_deep_json);
        ("infer", !infer_json);
        (* Explicit per-solve node total — the denominator of the CI
           metrics gate (see obs_nodes above). *)
        ("obs", Json.Obj [ ("nodes_total", Json.Int !obs_nodes) ]);
      ]
  in
  if o.micro || o.parallel || o.scaling || o.deep || o.infer then begin
    let path = "BENCH_solver.json" in
    Json.save path bench_json;
    Printf.printf "\nwrote %s\n%!" path
  end;
  match o.ledger with
  | None -> ()
  | Some path -> (
      match
        Obs.Run_ledger.append ~path
          (Obs.Run_ledger.record ~kind:"bench" [ ("bench", bench_json) ])
      with
      | Ok () -> Printf.printf "appended bench record to %s\n%!" path
      | Error msg -> Printf.eprintf "warning: %s\n%!" msg)
