(* The four workloads.  Each one generates its inputs from the seed, makes
   the program's set-up calls once, takes an untimed reference pass that
   checks every output, and then times reps of set-up calls and of a
   unit of work with the bench clock around calls into the library.
   Traced reps also split the unit into layers (see
   Harness.leaf_layers). *)

open Ldafp_core
module H = Harness
module D = Datasets
module J = Obs.Json

type result = {
  tally : H.tally;
  gen_s : float;  (** the bench's own input generation *)
  m : H.measured;
  info : (string * J.t) list;
}

type t = { name : string; why : string; run : H.ctx -> result }

let sprintf = Printf.sprintf
let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Training                                                            *)
(* ------------------------------------------------------------------ *)

(* Training workloads solve fixed problem instances.  Across draws of
   the same generator the exact search's tree size spans 2.8k-11.5k
   nodes and the ECoG folds' solve time varies by 2x, which would swamp
   any code change; a fixed instance keeps the run-to-run spread at the
   machine's noise.  Both run on one domain: the reference machine has
   two shared vCPUs, so a second domain would time the host's scheduler. *)

(* The Table-1 reproduction's training set (seed 42, 2000 trials per
   class), solved exactly at Q2.5. *)
let synth_data ctx =
  let n = if ctx.H.smoke then 200 else 2000 in
  let base = D.Synthetic.generate ~n_per_class:n (Stats.Rng.create 42) in
  D.Dataset.shuffle (Stats.Rng.create ctx.H.seed) base

let synth_fmt ctx = Fixedpoint.Qformat.make ~k:2 ~f:(if ctx.H.smoke then 2 else 5)

(* Run-to-drain: the frontier is explored until empty, so the certified
   gap is exactly 0 and cost and gap compare bitwise across solves. *)
let exact_config =
  {
    Lda_fp.default_config with
    bnb_params =
      {
        Optim.Bnb.default_params with
        max_nodes = 5_000_000 (* runaway stop only *);
        rel_gap = 0.0;
        abs_gap = 0.0;
      };
  }

(* The front end and problem build: the training set-up calls. *)
let train_setup ~fmt ds =
  let prep, prepare_s = H.time (fun () -> Pipeline.prepare ~fmt ds) in
  let pb, build_s =
    H.time (fun () -> Ldafp_problem.build ~fmt prep.Pipeline.scatter)
  in
  ((prep, pb), prepare_s, build_s)

(* The same seeding call [Lda_fp.solve] makes, replayed on the problem
   to time the heuristics layer from outside. *)
let replay_seed pb =
  let c = Lda_fp.default_config in
  Ldafp_heuristics.seed_incumbent ~steps:c.Lda_fp.sweep_steps
    ~max_rounds:(max 4 c.Lda_fp.polish_rounds) pb

(* [None] when the solve passed every check. *)
let solve_problem ~exact ?reference (o : Lda_fp.outcome option) =
  match o with
  | None -> Some "no feasible classifier"
  | Some o -> (
      let d = o.Lda_fp.diagnostics in
      let s = d.Lda_fp.search in
      if not s.Optim.Bnb.certified_sound then Some "search not certified sound"
      else if s.Optim.Bnb.dropped_regions > 0 then
        Some (sprintf "%d regions dropped" s.Optim.Bnb.dropped_regions)
      else if
        exact && (d.Lda_fp.stop_reason <> Optim.Bnb.Proved_optimal || d.Lda_fp.gap <> 0.0)
      then
        Some
          (sprintf "not drained: %s, gap %h"
             (Optim.Bnb.stop_reason_name d.Lda_fp.stop_reason)
             d.Lda_fp.gap)
      else
        match reference with
        | Some (cost, gap)
          when bits o.Lda_fp.cost <> bits cost || bits d.Lda_fp.gap <> bits gap ->
            Some
              (sprintf "cost %h / gap %h differ from the reference %h / %h"
                 o.Lda_fp.cost d.Lda_fp.gap cost gap)
        | _ -> None)

let cost_gap (o : Lda_fp.outcome) = (o.Lda_fp.cost, o.Lda_fp.diagnostics.Lda_fp.gap)

(* Search statistics of one traced rep, summed over its solves. *)
type sums = { mutable search_s : float; mutable oracle_s : float }

let account r sums (o : Lda_fp.outcome) =
  let d = o.Lda_fp.diagnostics in
  let s = d.Lda_fp.search in
  let open Optim.Bnb in
  sums.search_s <- sums.search_s +. s.wall_seconds;
  sums.oracle_s <-
    sums.oracle_s +. Array.fold_left ( +. ) 0.0 s.domain_oracle_seconds;
  let c name v = H.add_count r name (float_of_int v) in
  c "bnb.nodes" d.Lda_fp.nodes;
  c "bnb.pruned" s.bound_pruned;
  c "bnb.infeasible" s.infeasible_regions;
  c "bnb.incumbent_updates" s.incumbent_updates;
  c "warm.hits" s.warm_start_hits;
  c "warm.misses"
    (s.warm_miss_no_parent + s.warm_miss_not_interior
   + s.warm_miss_fault_cleared);
  c "warm.phase1_skipped" s.phase1_skipped;
  c "cert.verified" s.cert_verified;
  c "cert.repaired" s.cert_repaired;
  c "cert.fallbacks" s.cert_fallbacks;
  c "fault.oracle_failures" s.oracle_failures;
  c "fault.retries" s.retries;
  c "fault.dropped" s.dropped_regions

(* A field of a registry metric (histogram [count]/[sum]). *)
let registry_value snapshot name field =
  match Option.bind (J.member "metrics" snapshot) (J.member name) with
  | None -> 0.0
  | Some m -> (
      match J.member field m with
      | Some (J.Float f) -> f
      | Some (J.Int i) -> float_of_int i
      | _ -> 0.0)

(* Split the rep's search time into layers. *)
let finish_training r sums =
  let snapshot = Obs.Metrics.to_json Obs.Metrics.default in
  let v = registry_value snapshot in
  let socp = v "ldafp_socp_solve_seconds" "sum" in
  H.add_layer r "socp.solve" socp;
  H.add_layer r "oracle.non_socp" (sums.oracle_s -. socp);
  H.add_layer r "bnb.driver" (sums.search_s -. sums.oracle_s);
  H.set_count r "socp.solves" (v "ldafp_socp_solve_seconds" "count");
  H.set_count r "socp.newton_iters" (v "ldafp_socp_newton_iterations" "sum");
  if sums.search_s > 0.0 then
    H.set_count r "bnb.oracle_util" (sums.oracle_s /. sums.search_s)

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

type words = { mutable load_w : float; mutable parse_w : float }

let tally_batch confusion preds truth ~start n =
  let c = ref confusion in
  for i = 0 to n - 1 do
    c :=
      Stats.Confusion.add !c ~truth:truth.(start + i)
        ~predicted:(Bytes.get preds i = '\001')
  done;
  !c

(* Rows -> verdicts -> confusion through [Engine.load_rows] and
   [predict_into], in batches of the engine's capacity: the in-memory
   inference path.  Per batch, the load / MAC / tally intervals are
   layer time and spans. *)
let verdict r ~parent engine b preds rows labels =
  let n = Array.length rows in
  let confusion = ref Stats.Confusion.empty in
  let words = { load_w = 0.0; parse_w = 0.0 } in
  let load = ref 0 and mac = ref 0 and tally = ref 0 in
  let start = ref 0 in
  while !start < n do
    let t0 = H.now_ns () in
    let w0 = Gc.minor_words () in
    let k = Infer.Engine.load_rows engine b ~start:!start rows in
    words.load_w <- words.load_w +. (Gc.minor_words () -. w0);
    let t1 = H.now_ns () in
    Infer.Engine.predict_into engine b preds;
    let t2 = H.now_ns () in
    confusion := tally_batch !confusion preds labels ~start:!start k;
    let t3 = H.now_ns () in
    load := !load + (t1 - t0);
    mac := !mac + (t2 - t1);
    tally := !tally + (t3 - t2);
    if r.H.traced then begin
      let id = H.fresh_id true in
      H.push_span ~id ~parent ~rep:r.H.index "batch" t0 t3;
      H.span r ~parent:id "engine.load" t0 t1;
      H.span r ~parent:id "engine.mac" t1 t2;
      H.span r ~parent:id "stats.tally" t2 t3
    end;
    start := !start + k
  done;
  let m = Infer.Engine.n_features engine in
  H.add_layer r "engine.load" (H.seconds_of_ns !load);
  H.add_layer r "engine.mac" (H.seconds_of_ns !mac);
  H.add_layer r "stats.tally" (H.seconds_of_ns !tally);
  H.add_count r "rows" (float_of_int n);
  H.add_count r "engine.load_words" words.load_w;
  H.add_count r "engine.mac_ops" (float_of_int (n * m));
  H.add_count r "engine.mac_bytes" (float_of_int (n * m * 8));
  !confusion

(* Untimed check of a batch of rows: every batched verdict against
   scalar [Fixed_classifier.predict], and the batched confusion against
   [Eval.confusion_fixed].  Returns the batched confusion. *)
let verify_rows tally clf engine b rows labels =
  let cap = Infer.Batch.capacity b in
  let preds = Bytes.create cap in
  let confusion = ref Stats.Confusion.empty in
  let start = ref 0 in
  while !start < Array.length rows do
    let k = Infer.Engine.load_rows engine b ~start:!start rows in
    Infer.Engine.predict_into engine b preds;
    let mismatched = ref 0 in
    for i = 0 to k - 1 do
      let batched = Bytes.get preds i = '\001' in
      if batched <> Fixed_classifier.predict clf rows.(!start + i) then
        incr mismatched
    done;
    H.check tally ~n:k
      (if !mismatched = 0 then None
       else Some (sprintf "%d verdicts differ from scalar predict" !mismatched));
    confusion := tally_batch !confusion preds labels ~start:!start k;
    start := !start + k
  done;
  let scalar =
    Eval.confusion_fixed clf (D.Dataset.create ~name:"verify" ~features:rows ~labels)
  in
  H.check tally
    (if scalar = !confusion then None
     else Some "batched confusion differs from Eval.confusion_fixed");
  !confusion

(* Model_io.load + Engine.of_fixed + make_batch: the inference set-up
   calls, with the seconds of each part. *)
let inference_setup model_path () =
  let clf, load_s = H.time (fun () -> Model_io.load model_path) in
  let (engine, b), create_s =
    H.time (fun () ->
        let engine = Infer.Engine.of_fixed ~capacity:1024 clf in
        (engine, Infer.Engine.make_batch engine))
  in
  ((clf, engine, b), [ ("model.load", load_s); ("engine.create", create_s) ])

let same_confusion tally ?(n = 1) ~expected c =
  H.check tally ~n
    (if c = expected then None
     else Some "confusion differs from the verified pass")

(* ------------------------------------------------------------------ *)
(* synth_exact                                                         *)
(* ------------------------------------------------------------------ *)

let synth_exact ctx =
  let tally = H.tally () in
  let ds, gen_s = H.time (fun () -> synth_data ctx) in
  let fmt = synth_fmt ctx in
  let setup () =
    let x, prepare_s, build_s = train_setup ~fmt ds in
    (x, [ ("lda.prepare", prepare_s); ("lda.build", build_s) ])
  in
  let _, pb = fst (setup ()) in
  let reference = Lda_fp.solve ~config:exact_config pb in
  H.check tally (solve_problem ~exact:true reference);
  let m =
    H.measure ctx ~min_reps:5 ~setup:(fun () -> snd (setup ())) (fun r ->
        let o = H.clocked r "lda.solve" (fun _ -> Lda_fp.solve ~config:exact_config pb) in
        H.check tally
          (solve_problem ~exact:true ?reference:(Option.map cost_gap reference) o);
        match o with
        | Some o when r.H.traced ->
            let sums = { search_s = 0.0; oracle_s = 0.0 } in
            account r sums o;
            H.add_layer r "lda.seed" (H.aside r "lda.seed.replay" (fun () -> replay_seed pb));
            finish_training r sums
        | _ -> ())
  in
  let info =
    match reference with
    | None -> []
    | Some o ->
        let d = o.Lda_fp.diagnostics in
        [
          ("format", J.Str (Fixedpoint.Qformat.to_string fmt));
          ("trials", J.Int (D.Dataset.n_trials ds));
          ("cost", J.Float o.Lda_fp.cost);
          ("cost_bits", J.Str (sprintf "%Lx" (bits o.Lda_fp.cost)));
          ("gap", J.Float d.Lda_fp.gap);
          ("rel_gap", J.Float (d.Lda_fp.gap /. Float.abs o.Lda_fp.cost));
          ("reference_nodes", J.Int d.Lda_fp.nodes);
        ]
  in
  { tally; gen_s; m; info }

(* ------------------------------------------------------------------ *)
(* ecog_cv                                                             *)
(* ------------------------------------------------------------------ *)

let ecog_params ctx =
  let p = D.Ecog_sim.default_params in
  if ctx.H.smoke then
    {
      p with
      n_channels = 2;
      channel_noise = Array.sub p.D.Ecog_sim.channel_noise 0 2;
      effect = List.filter (fun (c, _, _) -> c < 2) p.D.Ecog_sim.effect;
    }
  else p

(* The Table-2 reproduction's draw (seed 7) and folds (seed 1007).  The
   seed shuffles only the test trials: reordering a 42-feature training
   fold changes its statistics in the last bits, and that alone moved
   the per-solve time of the same search (same nodes, same SOCP count)
   by up to 2.5x across seeds. *)
let ecog_folds ctx =
  let base = D.Ecog_sim.generate ~params:(ecog_params ctx) (Stats.Rng.create 7) in
  let folds = D.Dataset.stratified_folds (Stats.Rng.create 1007) ~k:5 base in
  let rng = Stats.Rng.create ctx.H.seed in
  Array.map (fun (train, test) -> (train, D.Dataset.shuffle rng test)) folds

let ecog_nodes_per_fold ctx = if ctx.H.smoke then 1 else 2

let ecog_cv ctx =
  let tally = H.tally () in
  let folds, gen_s = H.time (fun () -> ecog_folds ctx) in
  let fmt = Fixedpoint.Format_policy.default 6 in
  let setup () =
    let parts = Array.map (fun (train, _) -> train_setup ~fmt train) folds in
    let total f = Array.fold_left (fun a p -> a +. f p) 0.0 parts in
    ( Array.map (fun (x, _, _) -> x) parts,
      [
        ("lda.prepare", total (fun (_, p, _) -> p));
        ("lda.build", total (fun (_, _, b) -> b));
      ] )
  in
  let problems = fst (setup ()) in
  let config =
    {
      Lda_fp.default_config with
      bnb_params =
        {
          Optim.Bnb.default_params with
          max_nodes = ecog_nodes_per_fold ctx;
          rel_gap = 1e-3;
        };
    }
  in
  let test i = snd folds.(i) in
  let engine_for clf rows =
    let engine =
      Infer.Engine.of_fixed ~capacity:(max 1 (Array.length rows)) clf
    in
    (engine, Infer.Engine.make_batch engine)
  in
  (* Reference pass: every fold's cost and gap, and its test-fold
     confusion verified against the scalar path. *)
  let reference =
    Array.mapi
      (fun i (prep, pb) ->
        let o = Lda_fp.solve ~config pb in
        H.check tally (solve_problem ~exact:false o);
        Option.map
          (fun o ->
            let clf = Pipeline.classifier_of_weights prep o.Lda_fp.w in
            let t = test i in
            let rows = t.D.Dataset.features in
            let engine, b = engine_for clf rows in
            (cost_gap o, verify_rows tally clf engine b rows t.D.Dataset.labels))
          o)
      problems
  in
  let m =
    H.measure ctx ~min_reps:3 ~setup:(fun () -> snd (setup ())) (fun r ->
        let sums = { search_s = 0.0; oracle_s = 0.0 } in
        Array.iteri
          (fun i (prep, pb) ->
            let w0 = r.H.wall_ns in
            let o = H.clocked r "lda.solve" (fun _ -> Lda_fp.solve ~config pb) in
            H.add_count r "train_s" (H.seconds_of_ns (r.H.wall_ns - w0));
            let expected = reference.(i) in
            H.check tally
              (solve_problem ~exact:false
                 ?reference:(Option.map fst expected)
                 o);
            match (o, expected) with
            | Some o, Some (_, expected) ->
                let t = test i in
                let c =
                  H.clocked r "verdict" (fun id ->
                      let clf = Pipeline.classifier_of_weights prep o.Lda_fp.w in
                      let rows = t.D.Dataset.features in
                      let engine, b = engine_for clf rows in
                      let preds = Bytes.create (Infer.Batch.capacity b) in
                      verdict r ~parent:id engine b preds rows t.D.Dataset.labels)
                in
                same_confusion tally ~expected c;
                if r.H.traced then begin
                  account r sums o;
                  H.add_layer r "lda.seed"
                    (H.aside r "lda.seed.replay" (fun () -> replay_seed pb))
                end
            | _ -> ())
          problems;
        if r.H.traced then finish_training r sums)
  in
  let info =
    if Array.exists Option.is_none reference then []
    else
      let refs = Array.map Option.get reference in
      let errors, total =
        Array.fold_left
          (fun (e, n) (_, c) ->
            (e + Stats.Confusion.errors c, n + Stats.Confusion.total c))
          (0, 0) refs
      in
      [
        ("format", J.Str (Fixedpoint.Qformat.to_string fmt));
        ("features", J.Int (D.Dataset.n_features (test 0)));
        ("nodes_per_fold", J.Int (ecog_nodes_per_fold ctx));
        ("cv_error", J.Float (float_of_int errors /. float_of_int total));
        ( "rel_gap",
          J.Float
            (Array.fold_left
               (fun m ((cost, gap), _) -> Float.max m (gap /. Float.abs cost))
               0.0 refs) );
        ( "fold_cost_bits",
          J.List
            (Array.to_list
               (Array.map
                  (fun ((cost, _), _) -> J.Str (sprintf "%Lx" (bits cost)))
                  refs)) );
        ( "train_s",
          J.Float
            (H.median
               (List.map
                  (fun r -> Option.value (Hashtbl.find_opt r.H.counts "train_s") ~default:0.0)
                  m.H.untraced_reps)) );
      ]
  in
  { tally; gen_s; m; info }

(* ------------------------------------------------------------------ *)
(* classify_csv                                                        *)
(* ------------------------------------------------------------------ *)

let classify_rows ctx = if ctx.H.smoke then 4_000 else 1_000_000

(* A WL-8 LDA-FP model trained on a fresh Table-1 draw, and a CSV of
   fresh draws written in the format [ldafp classify] reads. *)
let classify_gen ctx ~model_path ~csv_path =
  let rng = Stats.Rng.create ctx.H.seed in
  let train = D.Synthetic.generate ~n_per_class:500 (Stats.Rng.split rng) in
  let fmt = Fixedpoint.Format_policy.default 8 in
  (match Pipeline.train_ldafp ~config:Lda_fp.quick_config ~fmt train with
  | Some r -> Model_io.save model_path r.Pipeline.classifier
  | None -> failwith "classify_csv: no feasible model");
  let rows = classify_rows ctx in
  Out_channel.with_open_text csv_path (fun oc ->
      let written = ref 0 in
      while !written < rows do
        let k = min 10_000 (rows - !written) in
        let ds =
          D.Dataset.shuffle rng (D.Synthetic.generate ~n_per_class:(k / 2) rng)
        in
        List.iteri
          (fun i line ->
            if i > 0 || !written = 0 then begin
              output_string oc line;
              output_char oc '\n'
            end)
          (D.Dataset_io.to_lines ds);
        written := !written + k
      done)

(* Stream the CSV through the model in chunks, checking every verdict
   (parse errors count as failed rows). *)
let classify_verify tally clf engine b csv_path =
  let chunk = 8192 in
  let rows = Array.make chunk [||] and labels = Array.make chunk false in
  let pending = ref 0 in
  let confusion = ref Stats.Confusion.empty in
  let flush () =
    if !pending > 0 then begin
      let c =
        verify_rows tally clf engine b (Array.sub rows 0 !pending)
          (Array.sub labels 0 !pending)
      in
      confusion := Stats.Confusion.merge !confusion c;
      pending := 0
    end
  in
  In_channel.with_open_text csv_path (fun ic ->
      let lineno = ref 0 in
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            incr lineno;
            (match D.Dataset_io.parse_row !lineno line with
            | exception D.Dataset_io.Parse_error { line; message } ->
                H.check tally (Some (sprintf "line %d: %s" line message))
            | None -> ()
            | Some (label, feats) ->
                rows.(!pending) <- feats;
                labels.(!pending) <- label;
                incr pending;
                if !pending = chunk then flush ());
            loop ()
      in
      loop ());
  flush ();
  !confusion

(* One [ldafp classify] pass: input_line -> parse_row -> Engine.load ->
   predict_into -> Confusion.add.  Traced passes read the clock around
   every per-row call; the batch's MAC and tally intervals are spans. *)
let classify_pass r ~parent engine b preds truths csv_path =
  let traced = r.H.traced in
  let m = Infer.Engine.n_features engine in
  let cap = Infer.Batch.capacity b in
  let confusion = ref Stats.Confusion.empty in
  let pending = ref 0 and rows = ref 0 in
  let read = ref 0 and parse = ref 0 and load = ref 0 in
  let mac = ref 0 and tally = ref 0 in
  let words = { load_w = 0.0; parse_w = 0.0 } in
  let batch_t0 = ref (H.now_ns ()) in
  let flush () =
    let n = !pending in
    if n > 0 then begin
      let t0 = if traced then H.now_ns () else 0 in
      Infer.Batch.set_length b n;
      Infer.Engine.predict_into engine b preds;
      let t1 = if traced then H.now_ns () else 0 in
      confusion := tally_batch !confusion preds truths ~start:0 n;
      if traced then begin
        let t2 = H.now_ns () in
        mac := !mac + (t1 - t0);
        tally := !tally + (t2 - t1);
        let id = H.fresh_id true in
        H.push_span ~id ~parent ~rep:r.H.index "batch" !batch_t0 t2;
        H.span r ~parent:id "engine.mac" t0 t1;
        H.span r ~parent:id "stats.tally" t1 t2;
        batch_t0 := t2
      end;
      rows := !rows + n;
      pending := 0
    end
  in
  In_channel.with_open_text csv_path (fun ic ->
      let lineno = ref 0 in
      let rec loop () =
        let t0 = if traced then H.now_ns () else 0 in
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            incr lineno;
            let t1 = if traced then H.now_ns () else 0 in
            let w0 = if traced then Gc.minor_words () else 0.0 in
            let row = D.Dataset_io.parse_row !lineno line in
            if traced then words.parse_w <- words.parse_w +. (Gc.minor_words () -. w0);
            let t2 = if traced then H.now_ns () else 0 in
            (match row with
            | None -> ()
            | Some (label, feats) ->
                if Array.length feats <> m then
                  raise
                    (D.Dataset_io.Parse_error
                       {
                         line = !lineno;
                         message =
                           sprintf "expected %d features, found %d" m
                             (Array.length feats);
                       });
                let w1 = if traced then Gc.minor_words () else 0.0 in
                Infer.Engine.load engine b ~col:!pending feats;
                if traced then
                  words.load_w <- words.load_w +. (Gc.minor_words () -. w1);
                truths.(!pending) <- label;
                incr pending;
                if !pending = cap then flush ());
            if traced then begin
              let t3 = H.now_ns () in
              read := !read + (t1 - t0);
              parse := !parse + (t2 - t1);
              load := !load + (t3 - t2)
            end;
            loop ()
      in
      loop ());
  flush ();
  if traced then begin
    (* [load] spans each row's engine load and, on full batches, the
       flush it triggers; take the flushes back out. *)
    H.add_layer r "csv.read" (H.seconds_of_ns !read);
    H.add_layer r "csv.parse" (H.seconds_of_ns !parse);
    H.add_layer r "engine.load" (H.seconds_of_ns (!load - !mac - !tally));
    H.add_layer r "engine.mac" (H.seconds_of_ns !mac);
    H.add_layer r "stats.tally" (H.seconds_of_ns !tally);
    H.add_count r "csv.parse_words" words.parse_w;
    H.add_count r "engine.load_words" words.load_w;
    H.add_count r "engine.mac_ops" (float_of_int (!rows * m));
    H.add_count r "engine.mac_bytes" (float_of_int (!rows * m * 8))
  end;
  H.add_count r "rows" (float_of_int !rows);
  !confusion

let classify_csv ctx =
  let tally = H.tally () in
  let model_path = Filename.concat ctx.H.work_dir "classify.model" in
  let csv_path = Filename.concat ctx.H.work_dir "classify.csv" in
  let (), gen_s = H.time (fun () -> classify_gen ctx ~model_path ~csv_path) in
  let clf, engine, b = fst (inference_setup model_path ()) in
  let expected = classify_verify tally clf engine b csv_path in
  let rows = Stats.Confusion.total expected in
  let cap = Infer.Batch.capacity b in
  let preds = Bytes.create cap and truths = Array.make cap false in
  let m =
    H.measure ctx ~min_reps:5 ~setup:(fun () -> snd (inference_setup model_path ()))
      (fun r ->
        match
          H.clocked r "classify" (fun id ->
              classify_pass r ~parent:id engine b preds truths csv_path)
        with
        | c -> same_confusion tally ~n:rows ~expected c
        | exception D.Dataset_io.Parse_error { line; message } ->
            H.check tally ~n:rows (Some (sprintf "line %d: %s" line message)))
  in
  let median_unit = H.median (List.map H.wall m.H.untraced_reps) in
  Sys.remove csv_path;
  Sys.remove model_path;
  let info =
    [
      ("rows", J.Int rows);
      ("features", J.Int (Infer.Engine.n_features engine));
      ("batch", J.Int cap);
      ("format", J.Str (Fixedpoint.Qformat.to_string (Infer.Engine.format engine)));
      ("rows_per_s", J.Float (float_of_int rows /. median_unit));
      ("error_rate", J.Float (Stats.Confusion.error_rate expected));
    ]
  in
  { tally; gen_s; m; info }

(* ------------------------------------------------------------------ *)
(* infer_wide                                                          *)
(* ------------------------------------------------------------------ *)

let wide_rows ctx = if ctx.H.smoke then 2048 else 1 lsl 17
let wide_passes ctx = if ctx.H.smoke then 1 else 4

(* A WL-8 LDA-FP model of a fresh ECoG draw (H1/H2 seed plus the root
   node), and 2^17 fresh raw rows held in memory, drawn in chunks to
   keep the generator's temporaries out of the peak RSS. *)
let wide_gen ctx ~model_path =
  let params = ecog_params ctx in
  let rng = Stats.Rng.create ctx.H.seed in
  let train = D.Ecog_sim.generate ~params (Stats.Rng.split rng) in
  let config =
    {
      Lda_fp.quick_config with
      bnb_params = { Lda_fp.quick_config.Lda_fp.bnb_params with max_nodes = 1 };
    }
  in
  (match
     Pipeline.train_ldafp ~config ~fmt:(Fixedpoint.Format_policy.default 8) train
   with
  | Some r -> Model_io.save model_path r.Pipeline.classifier
  | None -> failwith "infer_wide: no feasible model");
  let chunk = min 8192 (wide_rows ctx) in
  let chunks =
    List.init (wide_rows ctx / chunk) (fun _ ->
        let ds =
          D.Ecog_sim.generate
            ~params:{ params with trials_per_class = chunk / 2 }
            rng
        in
        (ds.D.Dataset.features, ds.D.Dataset.labels))
  in
  (Array.concat (List.map fst chunks), Array.concat (List.map snd chunks))

let infer_wide ctx =
  let tally = H.tally () in
  let model_path = Filename.concat ctx.H.work_dir "wide.model" in
  let (rows, labels), gen_s = H.time (fun () -> wide_gen ctx ~model_path) in
  let clf, engine, b = fst (inference_setup model_path ()) in
  let expected = verify_rows tally clf engine b rows labels in
  let preds = Bytes.create (Infer.Batch.capacity b) in
  let passes = wide_passes ctx in
  let m =
    H.measure ctx ~min_reps:5 ~setup:(fun () -> snd (inference_setup model_path ()))
      (fun r ->
        for _ = 1 to passes do
          let c =
            H.clocked r "pass" (fun id -> verdict r ~parent:id engine b preds rows labels)
          in
          same_confusion tally ~n:(Array.length rows) ~expected c
        done)
  in
  Sys.remove model_path;
  let n = passes * Array.length rows in
  let info =
    [
      ("rows", J.Int (Array.length rows));
      ("passes", J.Int passes);
      ("features", J.Int (Infer.Engine.n_features engine));
      ("format", J.Str (Fixedpoint.Qformat.to_string (Infer.Engine.format engine)));
      ( "rows_per_s",
        J.Float (float_of_int n /. H.median (List.map H.wall m.H.untraced_reps)) );
      ("error_rate", J.Float (Stats.Confusion.error_rate expected));
    ]
  in
  { tally; gen_s; m; info }

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "synth_exact";
      why =
        "exact run-to-drain on the Table-1 synthetic: tiny SOCPs, so B&B \
         driver, warm start and certification are the largest share";
      run = synth_exact;
    };
    {
      name = "ecog_cv";
      why =
        "Table-2 ECoG 5-fold CV at WL 6 on a node budget: 42-dim SOCP \
         solves dominate, so solver-kernel changes show and driver changes \
         do not";
      run = ecog_cv;
    };
    {
      name = "classify_csv";
      why =
        "the ldafp classify loop over 10^6 CSV rows: parsing dominates, so a \
         parser change shows here";
      run = classify_csv;
    };
    {
      name = "infer_wide";
      why =
        "2^17 in-memory 42-feature rows through load_rows + predict_into, no \
         parsing: quantise and MAC only";
      run = infer_wide;
    };
  ]
