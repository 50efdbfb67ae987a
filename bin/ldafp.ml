(* ldafp — command-line interface to the LDA-FP training system.

   Subcommands: generate, train, eval, classify, sweep, rtl, analyze,
   info, runs (list, show, diff). *)

open Cmdliner
open Ldafp_core

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* A file the command cannot open, read or write (a directory, a
   missing parent, no permission) ends it with one line naming the file
   and exit 1.  [open_in]/[open_out] errors already start with the path;
   read errors do not. *)
let file_error path msg =
  if String.starts_with ~prefix:path msg then Fmt.epr "%s@." msg
  else Fmt.epr "%s: %s@." path msg;
  exit 1

(* [reading path load] loads an input file.  A malformed or unreadable
   one is the user's error, so it ends the command with one line naming
   the file and exit 1, not cmdliner's "internal error, uncaught
   exception" (exit 125). *)
let reading path load =
  try load path with
  | Model_io.Parse_error msg ->
      Fmt.epr "%s: %s@." path msg;
      exit 1
  | Datasets.Dataset_io.Parse_error { line; message } ->
      Fmt.epr "%s:%d: %s@." path line message;
      exit 1
  | Sys_error msg -> file_error path msg

(* [writing path save] writes an output file, with the same one-line
   exit 1 when [path] cannot be written. *)
let writing path save =
  try save path with Sys_error msg -> file_error path msg

(* [writable path] fails like [writing] when [path] cannot be opened for
   writing, and leaves the file system as it found it: an existing file
   is opened without truncation, a new one is created and removed.  For
   outputs written only after a long run, checked before it starts. *)
let writable path =
  writing path (fun path ->
      if Sys.file_exists path then
        close_out (open_out_gen [ Open_wronly ] 0 path)
      else begin
        close_out
          (open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 path);
        Sys.remove path
      end)

(* [check_features ~model clf ~data ?line n] accepts rows of [data] with
   [n] features only if the model [clf] takes [n].  A mismatch is
   malformed input like any other: one line naming the data file (and
   the row, when [line] is given) and exit 1, never
   [Scaling.apply_vec]'s Invalid_argument. *)
let check_features ~model clf ~data ?line n =
  let m = Fixed_classifier.n_features clf in
  if n <> m then begin
    let where =
      match line with Some l -> Printf.sprintf "%s:%d" data l | None -> data
    in
    Fmt.epr "%s: expected %d features (model %s), found %d@." where m model n;
    exit 1
  end

(* [load_for ~model clf data] loads the dataset [clf] is run on. *)
let load_for ~model clf data =
  let ds = reading data Datasets.Dataset_io.load in
  check_features ~model clf ~data (Datasets.Dataset.n_features ds);
  ds

(* [check_classes ~data ?fold ds] and [check_trainable ~data ?fold ds]
   accept a dataset only if it has trials of both classes and, to be
   trained on, class means that differ and some feature varying within
   a class: LDA is undefined otherwise.  LDA-FP trains on the data
   quantised to its format, so [~fmts] checks those too, in each
   format.  Anything else is malformed input too: one line naming the
   file (and the cross-validation fold) and exit 1, before any work. *)
let reject ~data ?fold reason =
  (match fold with
  | Some (i, k) -> Fmt.epr "%s (fold %d of %d): %s@." data i k reason
  | None -> Fmt.epr "%s: %s@." data reason);
  exit 1

let check_classes ~data ?fold ds =
  let na, nb = Datasets.Dataset.class_counts ds in
  if na = 0 || nb = 0 then
    reject ~data ?fold
      (Printf.sprintf "needs trials of both classes, found A=%d, B=%d" na nb)

let check_trainable ~data ?fold ?(fmts = []) ds =
  check_classes ~data ?fold ds;
  let check s ~what =
    if Array.for_all (( = ) 0.0) (Stats.Scatter.mean_difference s) then
      reject ~data ?fold ("the two classes have identical feature means" ^ what)
    else if Linalg.Mat.max_abs (Stats.Scatter.within_class s) = 0.0 then
      reject ~data ?fold ("no feature varies within a class" ^ what)
  in
  let a, b = Datasets.Dataset.class_split ds in
  check (Stats.Scatter.of_data a b) ~what:"";
  List.iter
    (fun fmt ->
      check (Pipeline.prepare ~fmt ds).Pipeline.scatter
        ~what:(" once quantised to " ^ Fixedpoint.Qformat.to_string fmt))
    fmts

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let seed_arg =
  Arg.(
    value
    & opt int 42
    & info [ "seed" ] ~docv:"N" ~doc:"Random seed (all runs deterministic).")

let wl_arg =
  Arg.(
    value
    & opt int 6
    & info [ "wl"; "word-length" ] ~docv:"BITS"
        ~doc:"Total fixed-point word length $(docv) = K + F.")

let k_arg =
  Arg.(
    value
    & opt int 2
    & info [ "k" ] ~docv:"BITS"
        ~doc:"Integer bits (including sign) of the QK.F format.")

(* The QK.F format of a word length ([flag], default [--wl]) and [-k].
   The two are only valid together (1 <= k < wl <= 62), so a bad pair is
   a usage error checked here, before any work starts: one line, exit
   2. *)
let fmt_of ?(flag = "--wl") ~wl ~k () =
  if k < 1 || wl <= k || wl > 62 then begin
    Fmt.epr "%s %d with -k %d: need 1 <= k < wl <= 62@." flag wl k;
    exit 2
  end;
  Fixedpoint.Format_policy.fixed_k ~k wl

(* Single-flag ranges: a value outside one is a usage error (cmdliner's
   exit 124) before any work starts. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nodes_arg =
  Arg.(
    value
    & opt (int_at_least 0) 500
    & info [ "nodes" ] ~docv:"N"
        ~doc:"Branch-and-bound node budget for LDA-FP training.")

(* A confidence level in [0, 1); NaN is outside every range. *)
let confidence =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r < 1.0 -> Ok r
    | _ -> Error (`Msg (Printf.sprintf "expected a number in [0, 1), got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let rho_arg =
  Arg.(
    value
    & opt confidence 0.99
    & info [ "rho" ] ~docv:"RHO"
        ~doc:
          "Confidence level of the overflow constraints (eq. 16), in \
           [0, 1).")

let domains_arg =
  Arg.(
    value
    & opt (int_at_least 1) 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the branch-and-bound search (OCaml 5 \
           multicore); 1 = sequential.")

let no_warm_start_arg =
  Arg.(
    value
    & flag
    & info [ "no-warm-start" ]
        ~doc:
          "Disable warm-starting the per-node relaxation solves from the \
           parent's optimum (cold phase-I on every node; slower, same \
           certified bounds).")

let telemetry_addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-addr" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve live telemetry over HTTP while the command runs: \
           $(b,GET /metrics) (Prometheus text exposition), \
           $(b,/metrics.json) and $(b,/healthz) (search phase, nodes, \
           incumbent, certified gap).  $(docv) may be $(b,:PORT) for \
           all interfaces; port 0 binds an ephemeral port (printed at \
           startup).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one $(b,ldafp-run/1) JSON record (config, \
           environment, search statistics, metrics snapshot) to the \
           JSONL run ledger at $(docv) — atomically, so a crash never \
           corrupts prior records.  Inspect with $(b,ldafp runs).")

(* Start the telemetry endpoint, or explain why not and carry on: a bad
   --telemetry-addr must not kill a training run before it starts. *)
let start_telemetry addr =
  Option.bind addr (fun addr ->
      match Obs.Telemetry.start ~addr () with
      | Ok srv ->
          Obs.Metrics.set_enabled true;
          Fmt.pr "telemetry: serving /metrics, /metrics.json and /healthz \
                  on %s@."
            (Obs.Telemetry.addr srv);
          Some srv
      | Error msg ->
          Fmt.epr "warning: %s — continuing without telemetry@." msg;
          None)

let append_ledger ~kind ~path sections =
  match Obs.Run_ledger.append ~path (Obs.Run_ledger.record ~kind sections) with
  | Ok () -> Fmt.pr "appended %s record to %s@." kind path
  | Error msg -> Fmt.epr "warning: %s@." msg

let config_of_nodes ?(domains = 1) ?(warm_start = true) ?checkpoint ?progress
    nodes =
  {
    Lda_fp.default_config with
    bnb_params =
      { Optim.Bnb.default_params with max_nodes = nodes; rel_gap = 1e-3;
        domains };
    warm_start;
    checkpoint;
    progress;
  }

(* SIGINT/SIGTERM flip an atomic flag the search polls between nodes, so
   a Ctrl-C snapshots the frontier (when checkpointing) and returns the
   incumbent instead of killing the process mid-node.  A second signal
   falls through to the default behaviour via [exit]. *)
let interrupt_on_signals () =
  let flag = Atomic.make false in
  let handle signal =
    Sys.set_signal signal
      (Sys.Signal_handle
         (fun _ ->
           if Atomic.get flag then exit 130 else Atomic.set flag true))
  in
  (try handle Sys.sigint with Invalid_argument _ | Sys_error _ -> ());
  (try handle Sys.sigterm with Invalid_argument _ | Sys_error _ -> ());
  fun () -> Atomic.get flag

(* ---------------- generate ---------------- *)

let generate_cmd =
  let dataset =
    Arg.(
      value
      & opt (enum [ ("synthetic", `Synthetic); ("ecog", `Ecog) ]) `Synthetic
      & info [ "dataset" ] ~docv:"NAME"
          ~doc:"Which generator: $(b,synthetic) (paper 5.1) or $(b,ecog) \
                (paper 5.2 substitution).")
  in
  let n =
    Arg.(
      value
      & opt (int_at_least 1) 1000
      & info [ "trials"; "n" ] ~docv:"N"
          ~doc:"Trials per class (synthetic only).")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  let run verbose seed dataset n out =
    setup_logs verbose;
    let rng = Stats.Rng.create seed in
    let ds =
      match dataset with
      | `Synthetic -> Datasets.Synthetic.generate ~n_per_class:n rng
      | `Ecog -> Datasets.Ecog_sim.generate rng
    in
    writing out (fun path -> Datasets.Dataset_io.save path ds);
    Fmt.pr "wrote %a to %s@." Datasets.Dataset.pp_summary ds out
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a dataset CSV.")
    Term.(const run $ verbose_arg $ seed_arg $ dataset $ n $ out)

(* ---------------- train ---------------- *)

let data_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "data" ] ~docv:"CSV" ~doc:"Training dataset (CSV).")

let train_cmd =
  let method_ =
    Arg.(
      value
      & opt (enum [ ("ldafp", `Ldafp); ("lda", `Lda) ]) `Ldafp
      & info [ "method" ] ~docv:"M"
          ~doc:"$(b,ldafp) (branch-and-bound, eq. 21) or $(b,lda) \
                (conventional: solve eq. 11 and round).")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output model path.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Snapshot the branch-and-bound frontier to $(docv) \
             (atomically) so an interrupted training can be resumed with \
             $(b,--resume).")
  in
  let checkpoint_every_arg =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Also snapshot every $(docv) explored nodes (0 = only when \
             stopping on a budget or interrupt).")
  in
  let resume_arg =
    Arg.(
      value
      & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the $(b,--checkpoint) file instead of \
             starting from scratch (no-op when the file does not exist \
             yet).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a Chrome trace-event timeline of the search \
             (branch-and-bound nodes, relaxation solves, scheduler \
             parks, checkpoints) and write it to $(docv) — load it in \
             $(b,https://ui.perfetto.dev) or $(b,chrome://tracing).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Export solver metrics (counters and latency histograms) to \
             $(docv) after training: JSON when the name ends in \
             $(b,.json), Prometheus text exposition otherwise.")
  in
  let progress_arg =
    Arg.(
      value
      & flag
      & info [ "progress" ]
          ~doc:
            "Print a throttled (at most one line per second) progress \
             line to stderr: incumbent, certified bound, gap, node \
             rate and oracle utilisation.")
  in
  let run verbose data wl k method_ nodes domains no_warm_start rho checkpoint
      checkpoint_every resume trace metrics progress telemetry_addr ledger out =
    setup_logs verbose;
    let fmt = fmt_of ~wl ~k () in
    List.iter writable (out :: List.filter_map Fun.id [ metrics; trace; ledger ]);
    let ds = reading data Datasets.Dataset_io.load in
    check_trainable ~data ~fmts:(if method_ = `Ldafp then [ fmt ] else []) ds;
    if resume && checkpoint = None then begin
      Fmt.epr "--resume requires --checkpoint@.";
      exit 2
    end;
    let checkpoint =
      Option.map
        (fun path ->
          Lda_fp.checkpoint_spec ~every_nodes:checkpoint_every ~resume path)
        checkpoint
    in
    let collector =
      Option.map
        (fun _ ->
          let c = Obs.Trace.create () in
          Obs.Trace.install c;
          c)
        trace
    in
    if metrics <> None then Obs.Metrics.set_enabled true;
    let telemetry = start_telemetry telemetry_addr in
    let progress = if progress then Some (Obs.Progress.create ()) else None in
    (* Export sinks once the search is done (worker domains joined, so
       reading ring/shard state without synchronisation is sound). *)
    let export_observability () =
      (match (trace, collector) with
      | Some path, Some c ->
          Obs.Trace.uninstall ();
          writing path (Obs.Trace.save c);
          Fmt.pr "wrote trace to %s (%d events, %d dropped)@." path
            (List.length (Obs.Trace.events c))
            (Obs.Trace.dropped c)
      | _ -> ());
      match metrics with
      | Some path ->
          Obs.Metrics.set_enabled false;
          writing path
            (if Filename.check_suffix path ".json" then
               Obs.Metrics.save_json Obs.Metrics.default
             else Obs.Metrics.save_prometheus Obs.Metrics.default);
          Fmt.pr "wrote metrics to %s@." path
      | None -> ()
    in
    (* Captured for the run-ledger record, which is written after the
       final prints (and after the telemetry server is stopped). *)
    let ledger_search = ref None in
    let clf =
      match method_ with
      | `Lda -> Some (Pipeline.train_conventional ~fmt ds)
      | `Ldafp ->
          let interrupt = interrupt_on_signals () in
          let train () =
            Pipeline.train_ldafp
              ~config:
                (config_of_nodes ~domains ~warm_start:(not no_warm_start)
                   ?checkpoint ?progress nodes)
              ~interrupt ~rho ~fmt ds
          in
          let outcome =
            try train ()
            with Optim.Checkpoint.Corrupt msg ->
              Fmt.epr "cannot resume: %s@." msg;
              exit 2
          in
          Option.map
            (fun r ->
              let d = r.Pipeline.outcome.Lda_fp.diagnostics in
              ledger_search := Some (r.Pipeline.outcome.Lda_fp.cost, d);
              let cost = r.Pipeline.outcome.Lda_fp.cost in
              (* The stop rule tests the gap relative to the cost. *)
              Fmt.pr
                "LDA-FP: cost %.6g, %d nodes, gap %.3g (relative %.2e), \
                 %.2fs on %d domain(s) (%s)@."
                cost d.Lda_fp.nodes d.Lda_fp.gap
                (d.Lda_fp.gap /. Float.abs cost)
                d.Lda_fp.train_seconds
                d.Lda_fp.search.Optim.Bnb.domains_used
                (match d.Lda_fp.stop_reason with
                | Optim.Bnb.Proved_optimal -> "proved optimal"
                | Optim.Bnb.Gap_reached -> "gap tolerance"
                | Optim.Bnb.Node_budget -> "node budget"
                | Optim.Bnb.Time_budget -> "time budget"
                | Optim.Bnb.Interrupted -> "interrupted"
                | Optim.Bnb.Exhausted -> "exhausted: regions dropped");
              let s = d.Lda_fp.search in
              let misses =
                s.Optim.Bnb.warm_miss_no_parent
                + s.Optim.Bnb.warm_miss_not_interior
                + s.Optim.Bnb.warm_miss_fault_cleared
              in
              if s.Optim.Bnb.warm_start_hits > 0 || misses > 0 then begin
                Fmt.pr
                  "warm starts: %d hit(s), %d phase-I solve(s) skipped, %d \
                   pull-in(s), %.2fs in the bound oracle@."
                  s.Optim.Bnb.warm_start_hits s.Optim.Bnb.phase1_skipped
                  s.Optim.Bnb.warm_pull_ins s.Optim.Bnb.oracle_seconds;
                Fmt.pr
                  "warm misses: %d (no parent point %d, irreparably not \
                   interior %d, cleared after fault %d)@."
                  misses s.Optim.Bnb.warm_miss_no_parent
                  s.Optim.Bnb.warm_miss_not_interior
                  s.Optim.Bnb.warm_miss_fault_cleared
              end;
              if s.Optim.Bnb.cone_resolves > 0 then
                Fmt.pr "cones added at %d node(s), each solved again@."
                  s.Optim.Bnb.cone_resolves;
              if s.Optim.Bnb.domains_used > 1 then
                Fmt.pr
                  "scheduler: %d domains shared one frontier heap, %d idle \
                   wakeup(s)@."
                  s.Optim.Bnb.domains_used s.Optim.Bnb.idle_wakeups;
              if s.Optim.Bnb.oracle_failures > 0 then
                Fmt.pr
                  "oracle faults: %d failure(s), %d retried, %d degraded \
                   to interval bound, %d dropped@."
                  s.Optim.Bnb.oracle_failures s.Optim.Bnb.retries
                  s.Optim.Bnb.degraded_bounds s.Optim.Bnb.dropped_regions;
              if
                s.Optim.Bnb.cert_verified > 0
                || s.Optim.Bnb.cert_repaired > 0
                || s.Optim.Bnb.cert_fallbacks > 0
              then
                Fmt.pr
                  "certificates: %d verified (%d needed dual repair), %d \
                   fallback(s) to the interval bound@."
                  s.Optim.Bnb.cert_verified s.Optim.Bnb.cert_repaired
                  s.Optim.Bnb.cert_fallbacks;
              r.Pipeline.classifier)
            outcome
    in
    export_observability ();
    Option.iter Obs.Telemetry.stop telemetry;
    match clf with
    | None ->
        Fmt.epr "no feasible fixed-point classifier found@.";
        exit 1
    | Some clf ->
        writing out (fun path -> Model_io.save path clf);
        let train_error = Eval.error_fixed clf ds in
        Fmt.pr "trained %a classifier on %a; training error %.2f%%; saved \
                to %s@."
          Fixedpoint.Qformat.pp
          (Fixed_classifier.format clf)
          Datasets.Dataset.pp_summary ds
          (100.0 *. train_error)
          out;
        Option.iter
          (fun path ->
            let open Obs.Json in
            let config =
              Obj
                [
                  ("data", Str data);
                  ("out", Str out);
                  ("wl", Int wl);
                  ("k", Int k);
                  ( "method",
                    Str (match method_ with `Ldafp -> "ldafp" | `Lda -> "lda")
                  );
                  ("nodes", Int nodes);
                  ("domains", Int domains);
                  ("warm_start", Bool (not no_warm_start));
                  ("rho", Float rho);
                ]
            in
            let search =
              match !ledger_search with
              | None -> []
              | Some (cost, d) ->
                  let s = d.Lda_fp.search in
                  let hits = s.Optim.Bnb.warm_start_hits in
                  let misses =
                    s.Optim.Bnb.warm_miss_no_parent
                    + s.Optim.Bnb.warm_miss_not_interior
                    + s.Optim.Bnb.warm_miss_fault_cleared
                  in
                  let result =
                    [
                      ("cost", Float cost);
                      ("nodes", Int d.Lda_fp.nodes);
                      ("gap", Float d.Lda_fp.gap);
                      ("train_seconds", Float d.Lda_fp.train_seconds);
                      ( "stop_reason",
                        Str (Optim.Bnb.stop_reason_name d.Lda_fp.stop_reason)
                      );
                      ("training_error", Float train_error);
                    ]
                    @
                    if hits + misses > 0 then
                      [
                        ( "warm_hit_rate",
                          Float
                            (float_of_int hits
                            /. float_of_int (hits + misses)) );
                      ]
                    else []
                  in
                  [
                    ("result", Obj result);
                    ("stats", Optim.Bnb.stats_to_json s);
                  ]
            in
            append_ledger ~kind:"train" ~path
              ([ ("config", config) ] @ search
              @ [ ("metrics", Obs.Metrics.to_json Obs.Metrics.default) ]))
          ledger
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train a fixed-point classifier.")
    Term.(
      const run $ verbose_arg $ data_arg $ wl_arg $ k_arg $ method_
      $ nodes_arg $ domains_arg $ no_warm_start_arg $ rho_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg $ trace_arg $ metrics_arg
      $ progress_arg $ telemetry_addr_arg $ ledger_arg $ out)

(* ---------------- eval ---------------- *)

let model_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "model" ] ~docv:"FILE" ~doc:"Trained model file.")

let eval_cmd =
  let run verbose model data =
    setup_logs verbose;
    let clf = reading model Model_io.load in
    let ds = load_for ~model clf data in
    let confusion = Eval.confusion_fixed clf ds in
    Fmt.pr "%a on %a@.error rate: %.2f%%  (sensitivity %.2f%%, specificity \
            %.2f%%)@."
      Fixedpoint.Qformat.pp
      (Fixed_classifier.format clf)
      Datasets.Dataset.pp_summary ds
      (100.0 *. Stats.Confusion.error_rate confusion)
      (100.0 *. Stats.Confusion.sensitivity confusion)
      (100.0 *. Stats.Confusion.specificity confusion)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a model on a dataset.")
    Term.(const run $ verbose_arg $ model_arg $ data_arg)

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let wls =
    Arg.(
      value
      & opt (list int) [ 3; 4; 5; 6; 7; 8 ]
      & info [ "wls" ] ~docv:"LIST" ~doc:"Word lengths to sweep.")
  in
  let folds =
    Arg.(
      value
      & opt (int_at_least 2) 5
      & info [ "folds" ] ~docv:"K" ~doc:"Cross-validation folds (>= 2).")
  in
  let run verbose seed data k wls nodes domains folds =
    setup_logs verbose;
    let fmts = List.map (fun wl -> (wl, fmt_of ~flag:"--wls" ~wl ~k ())) wls in
    let ds = reading data Datasets.Dataset_io.load in
    check_trainable ~data ds;
    let na, nb = Datasets.Dataset.class_counts ds in
    if na < folds || nb < folds then begin
      Fmt.epr "--folds %d: %s has a class with fewer than %d trials@." folds
        data folds;
      exit 2
    end;
    (* Eval.kfold_error_fixed deals these same folds from this rng. *)
    let cv_rng () = Stats.Rng.create (seed + 1) in
    Array.iteri
      (fun i (train, _) ->
        check_trainable ~data ~fold:(i + 1, folds) ~fmts:(List.map snd fmts) train)
      (Datasets.Dataset.stratified_folds (cv_rng ()) ~k:folds ds);
    let config = config_of_nodes ~domains nodes in
    let rows =
      List.map
        (fun (wl, fmt) ->
          let lda =
            Eval.kfold_error_fixed ~rng:(cv_rng ()) ~k:folds
              ~train:(fun tr -> Some (Pipeline.train_conventional ~fmt tr))
              ds
          in
          let ldafp =
            Eval.kfold_error_fixed ~rng:(cv_rng ()) ~k:folds
              ~train:(fun tr ->
                Option.map
                  (fun r -> r.Pipeline.classifier)
                  (Pipeline.train_ldafp ~config ~fmt tr))
              ds
          in
          let cell = function
            | Some e -> Report.Table.pct e
            | None -> "n/a"
          in
          [ string_of_int wl; cell lda; cell ldafp ])
        fmts
    in
    Report.Table.print
      ~title:(Printf.sprintf "%d-fold CV error vs word length (K=%d)" folds k)
      ~columns:
        [
          Report.Table.column "WL";
          Report.Table.column "LDA";
          Report.Table.column "LDA-FP";
        ]
      ~rows ()
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Word-length sweep with cross-validation.")
    Term.(
      const run $ verbose_arg $ seed_arg $ data_arg $ k_arg $ wls $ nodes_arg
      $ domains_arg $ folds)

(* ---------------- rtl ---------------- *)

let rtl_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output Verilog path.")
  in
  let testbench =
    Arg.(
      value
      & opt (some string) None
      & info [ "testbench" ] ~docv:"FILE"
          ~doc:"Also emit a self-checking testbench built from --data.")
  in
  let data_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "data" ] ~docv:"CSV" ~doc:"Vectors for the testbench.")
  in
  let c_header =
    Arg.(
      value
      & opt (some string) None
      & info [ "c-header" ] ~docv:"FILE"
          ~doc:
            "Also emit a self-contained C model header \
             ($(b,lda_model_fixed.h) style): the same baked tables as the \
             Verilog plus $(b,static inline) predict functions \
             reproducing the datapath bit-for-bit.")
  in
  let run verbose model out testbench data c_header =
    setup_logs verbose;
    let clf = reading model Model_io.load in
    (* The stimulus is read and checked before any output is written. *)
    let stimulus =
      match (testbench, data) with
      | Some tb_path, Some data_path ->
          Some (tb_path, load_for ~model clf data_path)
      | Some _, None ->
          Fmt.epr "--testbench requires --data for stimulus vectors@.";
          exit 1
      | None, _ -> None
    in
    Option.iter
      (fun path ->
        writing path (fun path -> Model_io.save_c_header path clf);
        Fmt.pr "wrote %s@." path)
      c_header;
    let spec =
      {
        Hw.Verilog_gen.module_name = "ldafp_classifier";
        fmt = Fixed_classifier.format clf;
        weights = clf.Fixed_classifier.w;
        threshold = clf.Fixed_classifier.threshold;
        polarity = clf.Fixed_classifier.polarity;
      }
    in
    let write path text =
      writing path (fun path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc text))
    in
    write out (Hw.Verilog_gen.module_source spec);
    Fmt.pr "wrote %s@." out;
    Option.iter
      (fun (tb_path, ds) ->
        let vectors =
          List.init
            (min 16 (Datasets.Dataset.n_trials ds))
            (fun i ->
              let x = ds.Datasets.Dataset.features.(i) in
              {
                Hw.Verilog_gen.inputs = Fixed_classifier.quantize_input clf x;
                expected = Fixed_classifier.predict clf x;
              })
        in
        write tb_path (Hw.Verilog_gen.testbench_source spec vectors);
        Fmt.pr "wrote %s (%d vectors)@." tb_path (List.length vectors))
      stimulus
  in
  Cmd.v
    (Cmd.info "rtl" ~doc:"Emit synthesizable Verilog for a trained model.")
    Term.(
      const run $ verbose_arg $ model_arg $ out $ testbench $ data_opt
      $ c_header)

(* ---------------- classify ---------------- *)

let classify_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write one prediction per input row ($(b,A)/$(b,B), input \
             order) to $(docv).")
  in
  let batch =
    Arg.(
      value
      & opt (int_at_least 1) 1024
      & info [ "batch" ] ~docv:"N"
          ~doc:"Rows streamed through the engine per batched MAC call.")
  in
  let run verbose model data batch ledger out =
    setup_logs verbose;
    Option.iter writable ledger;
    Option.iter writable out;
    let clf = reading model Model_io.load in
    let engine = Infer.Engine.of_fixed ~capacity:batch clf in
    let b = Infer.Engine.make_batch engine in
    let preds = Bytes.create batch in
    let truths = Array.make batch false in
    let confusion = ref Stats.Confusion.empty in
    let pending = ref 0 in
    let ic = reading data open_in in
    (* Predictions go to FILE.tmp, renamed over FILE only once the run
       has succeeded: a run that exits 1 on a bad row leaves an earlier
       FILE as it was. *)
    let tmp path = path ^ ".tmp" in
    let out =
      Option.map
        (fun path ->
          at_exit (fun () -> try Sys.remove (tmp path) with Sys_error _ -> ());
          (path, writing (tmp path) open_out))
        out
    in
    let flush () =
      let n = !pending in
      if n > 0 then begin
        Infer.Batch.set_length b n;
        Infer.Engine.predict_into engine b preds;
        for i = 0 to n - 1 do
          let p = Bytes.get preds i = '\001' in
          confusion := Stats.Confusion.add !confusion ~truth:truths.(i)
              ~predicted:p;
          Option.iter
            (fun (_, oc) -> output_string oc (if p then "A\n" else "B\n"))
            out
        done;
        pending := 0
      end
    in
    let classify () =
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           match Datasets.Dataset_io.parse_row !lineno line with
           | None -> ()
           | Some (label, feats) ->
               check_features ~model clf ~data ~line:!lineno
                 (Array.length feats);
               Infer.Engine.load engine b ~col:!pending feats;
               truths.(!pending) <- label;
               incr pending;
               if !pending = batch then flush ()
         done
       with End_of_file -> ());
      flush ()
    in
    let finish () =
      close_in_noerr ic;
      Option.iter
        (fun (path, oc) -> writing (tmp path) (fun _ -> close_out oc))
        out
    in
    reading data (fun _ -> classify ());
    finish ();
    let c = !confusion in
    if Stats.Confusion.total c = 0 then begin
      Fmt.epr "%s: no data rows@." data;
      exit 1
    end;
    Option.iter
      (fun (path, _) -> writing path (fun path -> Sys.rename (tmp path) path))
      out;
    Fmt.pr "classified %d row(s) with the %a model: %d predicted A, %d \
            predicted B@."
      (Stats.Confusion.total c) Fixedpoint.Qformat.pp
      (Fixed_classifier.format clf)
      (c.Stats.Confusion.tp + c.Stats.Confusion.fp)
      (c.Stats.Confusion.tn + c.Stats.Confusion.fn);
    Fmt.pr
      "against the labels: error rate %.2f%% (sensitivity %.2f%%, \
       specificity %.2f%%)@."
      (100.0 *. Stats.Confusion.error_rate c)
      (100.0 *. Stats.Confusion.sensitivity c)
      (100.0 *. Stats.Confusion.specificity c);
    Option.iter
      (fun path ->
        let open Obs.Json in
        append_ledger ~kind:"classify" ~path
          [
            ( "config",
              Obj
                [
                  ("model", Str model);
                  ("data", Str data);
                  ("batch", Int batch);
                ] );
            ( "result",
              Obj
                [
                  ("rows", Int (Stats.Confusion.total c));
                  ("error_rate", Float (Stats.Confusion.error_rate c));
                  ("sensitivity", Float (Stats.Confusion.sensitivity c));
                  ("specificity", Float (Stats.Confusion.specificity c));
                ] );
          ])
      ledger
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Stream a CSV through a trained model at full batch speed and \
          report predictions plus a confusion summary.")
    Term.(
      const run $ verbose_arg $ model_arg $ data_arg $ batch $ ledger_arg
      $ out)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run verbose model data =
    setup_logs verbose;
    let clf = reading model Model_io.load in
    let ds = load_for ~model clf data in
    check_classes ~data ds;
    let fmt = Fixed_classifier.format clf in
    (* Quantisation-noise accounting against the dataset's statistics in
       the classifier's own scaled space. *)
    let prep_scatter =
      let a, b = Datasets.Dataset.class_split ds in
      let scale rows =
        Array.map
          (fun row ->
            Array.map
              (fun x ->
                Fixedpoint.Fx.to_float
                  (Fixedpoint.Fx.of_float ~ov:Fixedpoint.Rounding.Saturate fmt
                     x))
              (Scaling.apply_vec clf.Fixed_classifier.scaling row))
          rows
      in
      Stats.Scatter.of_data (scale a) (scale b)
    in
    Fmt.pr "%a@."
      Quant_analysis.pp
      (Quant_analysis.analyze ~scatter:prep_scatter ~fmt
         (Fixed_classifier.weights clf));
    let rob = Robustness.sweep clf ds in
    Fmt.pr
      "robustness (+/-1 ulp on every weight, %s %d patterns): nominal \
       %.2f%%, mean %.2f%%, worst %.2f%%@."
      (if rob.Robustness.exhaustive then "exhaustive" else "sampled")
      rob.Robustness.evaluated
      (100.0 *. rob.Robustness.nominal)
      (100.0 *. rob.Robustness.mean)
      (100.0 *. rob.Robustness.worst);
    let roc = Eval.roc_fixed clf ds in
    Fmt.pr "ROC AUC of the fixed-point margin: %.4f@." roc.Eval.auc
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Quantisation-noise, robustness and ROC analysis of a trained \
          model on a dataset.")
    Term.(const run $ verbose_arg $ model_arg $ data_arg)

(* ---------------- info ---------------- *)

let info_cmd =
  let run verbose data wl k =
    setup_logs verbose;
    let fmt = fmt_of ~wl ~k () in
    let ds = reading data Datasets.Dataset_io.load in
    check_trainable ~data ~fmts:[ fmt ] ds;
    Fmt.pr "%a@." Datasets.Dataset.pp_summary ds;
    let a, b = Datasets.Dataset.class_split ds in
    let scatter = Stats.Scatter.of_data a b in
    let model = Lda.train_scatter scatter in
    Fmt.pr "float LDA training error: %.2f%%@."
      (100.0
      *. Stats.Confusion.error_rate
           (Eval.confusion_float model
              ~scaling:(Scaling.identity (Datasets.Dataset.n_features ds))
              ds));
    Fmt.pr "fisher cost of the float direction: %.6g@."
      (Lda.fisher_cost scatter model)
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Summarise a dataset; it must be trainable at the $(b,--wl) format.")
    Term.(const run $ verbose_arg $ data_arg $ wl_arg $ k_arg)

(* ---------------- runs ---------------- *)

let ledger_file_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "ledger" ] ~docv:"FILE" ~doc:"Run-ledger JSONL file.")

(* Exit 2 on unreadable ledgers (usage/IO), so CI can tell "regression"
   (1) from "the artifact is missing" (2). *)
let load_ledger path =
  match Obs.Run_ledger.load ~path with
  | Error msg ->
      Fmt.epr "%s@." msg;
      exit 2
  | Ok (records, malformed) ->
      if malformed > 0 then
        Fmt.epr "warning: %s: skipped %d malformed line(s)@." path malformed;
      records

let nth_record records i =
  let n = List.length records in
  if i < 1 || i > n then begin
    Fmt.epr "record %d out of range (ledger holds %d record(s))@." i n;
    exit 2
  end;
  List.nth records (i - 1)

let record_field key record =
  match Obs.Json.member key record with
  | Some (Obs.Json.Str s) -> s
  | Some j -> Obs.Json.to_string j
  | None -> "?"

let runs_list_cmd =
  let json =
    Arg.(
      value
      & flag
      & info [ "json" ] ~doc:"Print the records as a JSON array.")
  in
  let run verbose ledger json =
    setup_logs verbose;
    let records = load_ledger ledger in
    if json then print_endline (Obs.Json.to_string (Obs.Json.List records))
    else
      List.iteri
        (fun i r ->
          let cores =
            match Obs.Json.member "environment" r with
            | Some env -> record_field "cores_detected" env
            | None -> "?"
          in
          Fmt.pr "#%-3d %s  %-8s cores=%s@." (i + 1)
            (record_field "timestamp_utc" r)
            (record_field "kind" r) cores)
        records
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the records of a run ledger.")
    Term.(const run $ verbose_arg $ ledger_file_arg $ json)

let runs_show_cmd =
  let index =
    Arg.(
      value
      & opt (some int) None
      & info [ "index" ] ~docv:"N"
          ~doc:"1-based record to show (default: the last).")
  in
  let run verbose ledger index =
    setup_logs verbose;
    let records = load_ledger ledger in
    if records = [] then begin
      Fmt.epr "%s: empty ledger@." ledger;
      exit 2
    end;
    let i = Option.value index ~default:(List.length records) in
    print_endline (Obs.Json.to_string (nth_record records i))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print one ledger record as JSON.")
    Term.(const run $ verbose_arg $ ledger_file_arg $ index)

let runs_diff_cmd =
  let baseline =
    Arg.(
      value
      & opt (some int) None
      & info [ "baseline" ] ~docv:"N"
          ~doc:"1-based baseline record (default: second to last).")
  in
  let candidate =
    Arg.(
      value
      & opt (some int) None
      & info [ "candidate" ] ~docv:"N"
          ~doc:"1-based candidate record (default: the last).")
  in
  let run verbose ledger baseline candidate =
    setup_logs verbose;
    let records = load_ledger ledger in
    let n = List.length records in
    if n < 2 && (baseline = None || candidate = None) then begin
      Fmt.epr
        "%s: need at least two records to diff (ledger holds %d)@." ledger n;
      exit 2
    end;
    let bi = Option.value baseline ~default:(n - 1) in
    let ci = Option.value candidate ~default:n in
    let b = nth_record records bi and c = nth_record records ci in
    let findings = Obs.Run_ledger.diff ~baseline:b ~candidate:c in
    (* Machine-readable JSON on stdout (what CI parses); the human
       summary goes to stderr. *)
    print_endline
      (Obs.Json.to_string (Obs.Run_ledger.findings_json findings));
    List.iter
      (fun f ->
        Fmt.epr "correctness: %s: %s@." f.Obs.Run_ledger.path
          f.Obs.Run_ledger.message)
      findings;
    if findings <> [] then begin
      Fmt.epr "regression: certified invariants changed (#%d vs #%d)@." bi ci;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two ledger records and flag regressions of the \
          certified invariants (certified_sound, cert_fallbacks, \
          warm_hit_rate dropping by more than 0.1); any exits non-zero.")
    Term.(
      const run $ verbose_arg $ ledger_file_arg $ baseline $ candidate)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs"
       ~doc:
         "Inspect and regression-diff the durable run ledger written by \
          $(b,--ledger).")
    [ runs_list_cmd; runs_show_cmd; runs_diff_cmd ]

let () =
  let doc = "LDA-FP: train fixed-point classifiers for on-chip low power" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ldafp" ~version:"1.0.0" ~doc)
          [
            generate_cmd; train_cmd; eval_cmd; classify_cmd; sweep_cmd;
            rtl_cmd; analyze_cmd; info_cmd; runs_cmd;
          ]))
