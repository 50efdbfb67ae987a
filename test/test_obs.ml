(* Observability layer: monotonic clock (real and mocked), per-domain
   trace rings (wraparound, concurrent emission, Chrome trace-event
   round-trip), metric export (Prometheus escaping, cumulative le
   buckets), the zero-allocation disabled path of every declared probe,
   progress throttling, an end-to-end solve that must leave events from
   every instrumented layer in the trace, trace / metrics / Bnb.stats
   agreement on fault-heavy solves, and the observability page naming
   every declared event and metric. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  checkb "now_ns non-decreasing" true (b >= a);
  checkb "now_ns is positive" true (a > 0);
  let s0 = Obs.Clock.now () in
  let s1 = Obs.Clock.now () in
  checkb "now non-decreasing" true (s1 >= s0)

let test_clock_mock () =
  Fun.protect
    ~finally:(fun () -> Obs.Clock.use_monotonic ())
    (fun () ->
      let t = ref 1_000 in
      Obs.Clock.set_source (fun () -> !t);
      checki "mock ns" 1_000 (Obs.Clock.now_ns ());
      t := 2_500_000_000;
      checki "mock advances" 2_500_000_000 (Obs.Clock.now_ns ());
      checkf 1e-9 "now scales to seconds" 2.5 (Obs.Clock.now ()));
  (* Restored source reads the real clock again. *)
  checkb "restored" true (Obs.Clock.now_ns () <> 2_500_000_000)

(* ------------------------------------------------------------------ *)
(* Trace rings                                                         *)
(* ------------------------------------------------------------------ *)

let with_collector ?capacity f =
  let c = Obs.Trace.create ?capacity () in
  Obs.Trace.install c;
  Fun.protect ~finally:(fun () -> Obs.Trace.uninstall ()) (fun () -> f c)

let test_ring_wraparound () =
  with_collector ~capacity:4 (fun c ->
      for i = 0 to 9 do
        Obs.Trace.instant ~cat:"test" (Printf.sprintf "e%d" i)
      done;
      let evs = Obs.Trace.events c in
      checki "ring keeps capacity events" 4 (List.length evs);
      checki "drop count" 6 (Obs.Trace.dropped c);
      (* The survivors are the newest four, oldest first. *)
      Alcotest.(check (list string))
        "oldest overwritten first"
        [ "e6"; "e7"; "e8"; "e9" ]
        (List.map (fun e -> e.Obs.Trace.name) evs))

let member_exn key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing JSON key %S" key)

let test_concurrent_emission_round_trip () =
  let per_domain = 100 in
  with_collector (fun c ->
      let worker () =
        for i = 0 to per_domain - 1 do
          let t0 = Obs.Clock.now_ns () in
          Obs.Trace.complete ~cat:"test" "span" ~t0_ns:t0
            ~dur_ns:(i mod 7)
            ~args:[ ("i", Obs.Trace.Int i) ]
        done
      in
      let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
      Array.iter Domain.join domains;
      (* Round-trip through the writer and the parser: what we exported
         is what a Chrome-trace consumer will read back. *)
      let parsed =
        match Obs.Json.parse (Obs.Json.to_string (Obs.Trace.to_json c)) with
        | Ok j -> j
        | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e)
      in
      let events =
        match member_exn "traceEvents" parsed with
        | Obs.Json.List evs -> evs
        | _ -> Alcotest.fail "traceEvents is not a list"
      in
      checki "all events exported" (4 * per_domain) (List.length events);
      let tids = Hashtbl.create 8 in
      let last_ts = ref neg_infinity in
      List.iter
        (fun ev ->
          (match member_exn "ph" ev with
          | Obs.Json.Str "X" -> ()
          | _ -> Alcotest.fail "expected complete (ph = X) events");
          (match member_exn "pid" ev with
          | Obs.Json.Int 1 -> ()
          | _ -> Alcotest.fail "pid must be 1");
          checkb "has a duration" true (Obs.Json.member "dur" ev <> None);
          (match member_exn "tid" ev with
          | Obs.Json.Int tid -> Hashtbl.replace tids tid ()
          | _ -> Alcotest.fail "tid must be an int");
          (* %.17g prints integral microsecond stamps without a decimal
             point, so they parse back as Int — both are valid JSON
             numbers. *)
          match member_exn "ts" ev with
          | Obs.Json.Float ts ->
              checkb "timestamps sorted" true (ts >= !last_ts);
              last_ts := ts
          | Obs.Json.Int ts ->
              let ts = float_of_int ts in
              checkb "timestamps sorted" true (ts >= !last_ts);
              last_ts := ts
          | _ -> Alcotest.fail "ts must be a number")
        events;
      checki "one lane per emitting domain" 4 (Hashtbl.length tids);
      checki "nothing dropped" 0 (Obs.Trace.dropped c))

(* ------------------------------------------------------------------ *)
(* Disabled path                                                       *)
(* ------------------------------------------------------------------ *)

(* Every declared production probe, every emitter shape, all sinks
   off.  [emit] is one closure allocated before the measurement; the
   calls it makes pass only ints and statically allocated values, as a
   disabled hot site does. *)
let test_disabled_path_no_alloc () =
  Obs.Trace.uninstall ();
  Obs.Metrics.set_enabled false;
  checkb "every sink off" false (Obs.Probe.on ());
  let probes = Obs.Probe.declared () in
  checkb "production probes declared" true (List.length probes >= 18);
  let before_metrics = Obs.Metrics.to_prometheus Obs.Metrics.default in
  let rec emit i = function
    | [] -> ()
    | p :: rest ->
        Obs.Probe.hit p;
        Obs.Probe.hit_int p "i" i;
        Obs.Probe.add p i;
        Obs.Probe.span p ~t0_ns:i ~dur_ns:i;
        emit i rest
  in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    emit i probes
  done;
  let delta = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "disabled probes allocate nothing (%.0f words)" delta)
    true (delta < 256.0);
  Alcotest.(check string)
    "no metric moved" before_metrics
    (Obs.Metrics.to_prometheus Obs.Metrics.default)

(* A probe name is a new "cat.event"; a bad one is refused before
   anything is registered. *)
let test_probe_names () =
  let declared = List.length (Obs.Probe.declared ()) in
  List.iter
    (fun name ->
      checkb (Printf.sprintf "%S refused" name) true
        (match Obs.Probe.v ~count:"never registered" name with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "nodot"; ".event"; "cat."; "bnb.node" ];
  checki "nothing declared" declared (List.length (Obs.Probe.declared ()))

(* ------------------------------------------------------------------ *)
(* Metrics export                                                      *)
(* ------------------------------------------------------------------ *)

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

let test_prometheus_escaping_and_buckets () =
  let reg = Obs.Metrics.create () in
  let c =
    Obs.Metrics.counter reg ~help:"line one\nline two" "test_requests_total"
  in
  let (_ : Obs.Metrics.gauge) =
    Obs.Metrics.gauge reg ~labels:[ ("path", "a\\b\"c\nd") ] "test_labelled"
  in
  let h =
    Obs.Metrics.histogram reg ~lo:1e-3 ~hi:10.0 "test_latency_seconds"
  in
  with_metrics (fun () ->
      Obs.Metrics.incr c;
      List.iter (Obs.Metrics.observe h)
        [ 1e-4 (* underflow *); 0.01; 0.1; 1.0; 100.0 (* overflow *) ]);
  checki "count includes tails" 5 (Obs.Metrics.histogram_count h);
  (match Obs.Metrics.histogram_quantile h 0.5 with
  | Some q -> checkb "p50 within recorded range" true (q >= 1e-3 && q <= 10.0)
  | None -> Alcotest.fail "quantile on non-empty histogram");
  let text = Obs.Metrics.to_prometheus reg in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  (* Backslash, quote and newline in a label value must be escaped per
     the text exposition format. *)
  checkb "label value escaped" true
    (contains "path=\"a\\\\b\\\"c\\nd\"");
  checkb "help newline escaped" true (contains "# HELP test_requests_total line one\\nline two");
  checkb "counter typed" true (contains "# TYPE test_requests_total counter");
  checkb "histogram typed" true (contains "# TYPE test_latency_seconds histogram");
  (* Bucket series: cumulative, ending in +Inf == _count. *)
  let bucket_counts =
    let prefix = "test_latency_seconds_bucket{" in
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if
             String.length line >= String.length prefix
             && String.sub line 0 (String.length prefix) = prefix
           then
             match String.rindex_opt line ' ' with
             | Some i ->
                 int_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
             | None -> None
           else None)
  in
  checki "24 finite buckets plus +Inf" 25 (List.length bucket_counts);
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  checkb "buckets cumulative" true (non_decreasing bucket_counts);
  checkb "+Inf bucket equals count" true
    (match List.rev bucket_counts with
    | last :: _ -> last = 5
    | [] -> false);
  checkb "first bucket holds the underflow" true
    (match bucket_counts with n :: _ -> n >= 1 | [] -> false);
  checkb "+Inf series present" true (contains "le=\"+Inf\"} 5");
  checkb "_count series" true (contains "test_latency_seconds_count 5")

let test_metrics_json_schema () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg ~lo:1e-3 ~hi:10.0 "test_h" in
  let g = Obs.Metrics.gauge reg "test_g" in
  with_metrics (fun () ->
      Obs.Metrics.set g 0.5;
      List.iter (Obs.Metrics.observe h) [ 0.01; 0.1; 1.0 ]);
  let parsed =
    match Obs.Json.parse (Obs.Json.to_string (Obs.Metrics.to_json reg)) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)
  in
  (match member_exn "schema" parsed with
  | Obs.Json.Str "ldafp-metrics/1" -> ()
  | _ -> Alcotest.fail "schema tag");
  let metrics = member_exn "metrics" parsed in
  let hj = member_exn "test_h" metrics in
  (match member_exn "count" hj with
  | Obs.Json.Int 3 -> ()
  | _ -> Alcotest.fail "histogram count in JSON");
  (match member_exn "buckets" hj with
  | Obs.Json.List buckets ->
      checki "bucket entries" 24 (List.length buckets);
      List.iter
        (fun b ->
          checkb "bucket has le" true (Obs.Json.member "le" b <> None);
          checkb "bucket has count" true (Obs.Json.member "count" b <> None))
        buckets
  | _ -> Alcotest.fail "buckets list");
  match member_exn "value" (member_exn "test_g" metrics) with
  | Obs.Json.Float v -> checkf 1e-12 "gauge value" 0.5 v
  | _ -> Alcotest.fail "gauge value"

(* ------------------------------------------------------------------ *)
(* Progress throttling                                                 *)
(* ------------------------------------------------------------------ *)

let test_progress_throttle () =
  Fun.protect
    ~finally:(fun () -> Obs.Clock.use_monotonic ())
    (fun () ->
      let t = ref 10_000_000_000 in
      Obs.Clock.set_source (fun () -> !t);
      (* interval below the floor is clamped to 1 s. *)
      let p = Obs.Progress.create ~interval:0.01 () in
      checkb "first poll fires" true (Obs.Progress.due p);
      checkb "second poll throttled" false (Obs.Progress.due p);
      t := !t + 500_000_000;
      checkb "0.5s later still throttled" false (Obs.Progress.due p);
      t := !t + 600_000_000;
      checkb "1.1s later fires" true (Obs.Progress.due p);
      checkb "and only once" false (Obs.Progress.due p))

(* ------------------------------------------------------------------ *)
(* End to end: every instrumented layer shows up in one trace          *)
(* ------------------------------------------------------------------ *)

let small_scatter () =
  let a =
    [| [| 0.5; 0.1 |]; [| 0.7; -0.1 |]; [| 0.6; 0.2 |]; [| 0.4; -0.2 |] |]
  in
  let b =
    [| [| -0.5; 0.15 |]; [| -0.7; -0.15 |]; [| -0.6; 0.1 |]; [| -0.4; -0.1 |] |]
  in
  Stats.Scatter.of_data a b

let test_solve_traces_all_layers () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let path = Filename.temp_file "ldafp-test-obs" ".bnb" in
  Fun.protect
    ~finally:(fun () -> (try Sys.remove path with Sys_error _ -> ()))
    (fun () ->
      let config =
        {
          Lda_fp.quick_config with
          bnb_params =
            {
              Optim.Bnb.default_params with
              max_nodes = 4000;
              rel_gap = 0.0;
              abs_gap = 0.0;
              domains = 2;
            };
          checkpoint = Some (Lda_fp.checkpoint_spec ~every_nodes:5 path);
        }
      in
      with_collector (fun c ->
          let stats =
            match Lda_fp.solve ~config pb with
            | Some o -> o.Lda_fp.diagnostics.Lda_fp.search
            | None -> Alcotest.fail "solve found no solution"
          in
          let events = Obs.Trace.events c in
          checki "trace dropped nothing" 0 (Obs.Trace.dropped c);
          let cats = Hashtbl.create 8 in
          List.iter (fun e -> Hashtbl.replace cats e.Obs.Trace.cat ()) events;
          List.iter
            (fun cat ->
              checkb (Printf.sprintf "trace has %s events" cat) true
                (Hashtbl.mem cats cat))
            [ "bnb"; "socp"; "ckpt" ];
          (* Scheduler events fire only when a worker finds the heap
             empty, which a 2-domain search need not do at all — so match
             them against the driver's own counts instead of requiring
             any. *)
          let count name =
            List.length
              (List.filter (fun e -> e.Obs.Trace.name = name) events)
          in
          checki "one sched.park instant per idle wakeup"
            stats.Optim.Bnb.idle_wakeups (count "sched.park")))

(* ------------------------------------------------------------------ *)
(* Cross-sink consistency                                              *)
(* ------------------------------------------------------------------ *)

(* A counter's value or a histogram's count in the default registry. *)
let metric_count name =
  let metrics = member_exn "metrics" (Obs.Metrics.to_json Obs.Metrics.default) in
  match Obs.Json.member name metrics with
  | None -> None
  | Some m -> (
      match (Obs.Json.member "value" m, Obs.Json.member "count" m) with
      | Some (Obs.Json.Int v), _ | _, Some (Obs.Json.Int v) -> Some v
      | _ -> Alcotest.failf "metric %s has no integer count" name)

let metric_of_probe p suffix =
  "ldafp_"
  ^ String.map (function '.' -> '_' | c -> c) (Obs.Probe.name p)
  ^ suffix

let events_named events name =
  List.filter (fun e -> e.Obs.Trace.name = name) events

(* A 2-domain LDA-FP solve tuned so every containment path fires:
   injected bound faults (a failing retry degrades its region), with
   [branch_faults] injected branch faults too (a failing retry drops
   the region), and a barrier tolerance loose enough that some dual
   certificates fail.  [killed] first runs 12 nodes and checkpoints,
   then resumes. *)
let fault_heavy_solve ~branch_faults ~killed =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let path = Filename.temp_file "ldafp-test-obs" ".ck" in
  Sys.remove path;
  let solve ~max_nodes =
    let config =
      {
        Lda_fp.quick_config with
        bnb_params =
          {
            Optim.Bnb.default_params with
            max_nodes;
            rel_gap = 0.0;
            abs_gap = 0.0;
            domains = 2;
          };
        socp_params = { Optim.Socp.default_params with gap_tol = 0.05 };
        checkpoint =
          (if killed then Some (Lda_fp.checkpoint_spec ~resume:true path)
           else None);
      }
    in
    let inject =
      Fault_inject.config ~seed:5 ~bound_exn_prob:0.3 ~bound_nan_prob:0.1
        ~branch_exn_prob:(if branch_faults then 0.3 else 0.0)
        ()
    in
    match
      Lda_fp.solve ~config
        ~wrap_oracle:(fun o -> fst (Fault_inject.wrap inject o))
        pb
    with
    | Some o -> o.Lda_fp.diagnostics
    | None -> Alcotest.fail "fault-heavy solve found no solution"
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      if killed then ignore (solve ~max_nodes:12);
      solve ~max_nodes:400)

(* Each row: the quantity, its probe, and its [Bnb.stats] value. *)
let stats_rows (d : Ldafp_core.Lda_fp.diagnostics) =
  let s = d.Ldafp_core.Lda_fp.search in
  Optim.Bnb.
    [
      ("nodes", "bnb.node", d.Ldafp_core.Lda_fp.nodes);
      ("incumbents", "bnb.incumbent", s.incumbent_updates);
      ("parks", "sched.park", s.idle_wakeups);
      ("retries", "fault.retry", s.retries);
      ("degrades", "fault.degrade", s.degraded_bounds);
      ("drops", "fault.drop", s.dropped_regions);
      ("cert fallbacks", "fault.cert_fallback", s.cert_fallbacks);
      ("warm pulls", "socp.warm_pull", s.warm_pull_ins);
      ("cone re-solves", "lda.cones", s.cone_resolves);
    ]

(* What a probe's metric says happened: its counter, else its
   histogram's count; [None] for a trace-only probe. *)
let probe_metric p =
  match metric_count (metric_of_probe p "_total") with
  | Some v -> Some v
  | None -> metric_count (metric_of_probe p "_seconds")

let probe_named name =
  match List.find_opt (fun p -> Obs.Probe.name p = name) (Obs.Probe.declared ()) with
  | Some p -> p
  | None -> Alcotest.failf "no probe %s declared" name

(* The trace's count of an event: instants and spans. *)
let trace_count events name = List.length (events_named events name)

let test_cross_sink_consistency () =
  let fired = Hashtbl.create 16 in
  List.iter
    (fun (branch_faults, killed) ->
      Obs.Metrics.reset Obs.Metrics.default;
      Obs.Metrics.set_enabled true;
      let d, events =
        Fun.protect
          ~finally:(fun () -> Obs.Metrics.set_enabled false)
          (fun () ->
            with_collector (fun c ->
                let d = fault_heavy_solve ~branch_faults ~killed in
                checki "trace dropped nothing" 0 (Obs.Trace.dropped c);
                (d, Obs.Trace.events c)))
      in
      (* Trace against metrics, for every declared probe. *)
      List.iter
        (fun p ->
          match probe_metric p with
          | None -> ()
          | Some m ->
              checki
                (Printf.sprintf "%s: trace = metric" (Obs.Probe.name p))
                m
                (trace_count events (Obs.Probe.name p)))
        (Obs.Probe.declared ());
      (* Trace and metric against the driver's own counts. *)
      List.iter
        (fun (what, name, stat) ->
          let tag =
            Printf.sprintf "%s (branch_faults=%b, killed=%b)" what
              branch_faults killed
          in
          checki (tag ^ ": trace = stats") stat (trace_count events name);
          Option.iter
            (checki (tag ^ ": metric = stats") stat)
            (probe_metric (probe_named name));
          if stat > 0 then Hashtbl.replace fired what ())
        (stats_rows d);
      (* Node programs: a span for every relaxation built (at least one
         per program solved: warm hits and misses partition those), each
         inside its bound-oracle call and apart from every solve on its
         domain, so [lda.program] time is never also [socp.solve] time. *)
      let programs = events_named events "lda.program" in
      let s = d.Ldafp_core.Lda_fp.search in
      let solved =
        Optim.Bnb.(
          s.warm_start_hits + s.warm_miss_no_parent + s.warm_miss_not_interior
          + s.warm_miss_fault_cleared)
      in
      checkb "programs solved" true (solved > 0);
      checkb "a program span per program solved" true (List.length programs >= solved);
      let on_tid (p : Obs.Trace.event) name =
        List.filter (fun (e : Obs.Trace.event) -> e.tid = p.tid) (events_named events name)
      in
      let stop (e : Obs.Trace.event) = e.ts_ns + e.dur_ns in
      List.iter
        (fun (p : Obs.Trace.event) ->
          checkb "program inside a bound call" true
            (List.exists
               (fun (b : Obs.Trace.event) -> b.ts_ns <= p.ts_ns && stop p <= stop b)
               (on_tid p "bnb.bound"));
          checkb "program apart from the solves" true
            (List.for_all
               (fun (e : Obs.Trace.event) -> e.ts_ns >= stop p || stop e <= p.ts_ns)
               (on_tid p "socp.solve" @ on_tid p "socp.phase1")))
        programs;
      (* Line-search trials: the histogram's sum is the trials the
         socp.solve spans count. *)
      let traced_trials =
        List.fold_left
          (fun n e ->
            match List.assoc_opt "trials" e.Obs.Trace.args with
            | Some (Obs.Trace.Int t) -> n + t
            | _ -> Alcotest.fail "a socp.solve span without its trials")
          0 (events_named events "socp.solve")
      in
      checkb "solves made line-search trials" true (traced_trials > 0);
      (match
         Obs.Json.member "ldafp_socp_line_search_trials"
           (member_exn "metrics" (Obs.Metrics.to_json Obs.Metrics.default))
       with
      | Some h -> (
          match Obs.Json.member "sum" h with
          | Some (Obs.Json.Float sum) ->
              checkf 0.0 "trials histogram sum = trials over the spans"
                (float_of_int traced_trials) sum
          | _ -> Alcotest.fail "trials histogram has no sum")
      | None -> Alcotest.fail "no trials histogram"))
    [ (false, false); (true, false); (false, true) ];
  List.iter
    (fun what ->
      checkb (Printf.sprintf "%s fired" what) true (Hashtbl.mem fired what))
    [
      "retries"; "degrades"; "drops"; "cert fallbacks"; "warm pulls";
    ]

(* A node whose optimum violates an eq. 20 cone its program left out is
   solved again with that cone.  On an ECoG-WL-3-like instance (five
   ECoG features at Q2.1, where the cones bind) some re-solves fire, and
   the trace, the metric and the stats field count the same ones.  The
   warm-start hits and misses partition the solves, a re-solve counted
   as one more: no program of this search is empty, so each program
   built is one solve. *)
let test_cone_resolves_across_sinks () =
  let open Ldafp_core in
  let pb, _ = Ecog_subset.problem [| 0; 1; 2; 3; 4 |] in
  let config =
    { Lda_fp.default_config with
      bnb_params = { Optim.Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } }
  in
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Metrics.set_enabled true;
  let s, events =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled false)
      (fun () ->
        with_collector (fun c ->
            match Lda_fp.solve ~config pb with
            | None -> Alcotest.fail "no model"
            | Some o -> (o.Lda_fp.diagnostics.Lda_fp.search, Obs.Trace.events c)))
  in
  let resolves = s.Optim.Bnb.cone_resolves in
  checkb "cone re-solves fired" true (resolves > 0);
  checki "trace = stats" resolves (trace_count events "lda.cones");
  checki "metric = stats" resolves (Option.get (probe_metric (probe_named "lda.cones")));
  checki "hits and misses: one per program built, re-solves included"
    (trace_count events "lda.program")
    Optim.Bnb.(
      s.warm_start_hits + s.warm_miss_no_parent + s.warm_miss_not_interior
      + s.warm_miss_fault_cleared)

let test_one_sink_at_a_time () =
  (* Only tracing: no metric moves. *)
  Obs.Metrics.set_enabled false;
  let before = Obs.Metrics.to_prometheus Obs.Metrics.default in
  let traced =
    with_collector (fun c ->
        ignore (fault_heavy_solve ~branch_faults:false ~killed:false);
        List.length (Obs.Trace.events c))
  in
  checkb "tracing alone wrote events" true (traced > 0);
  Alcotest.(check string)
    "tracing alone moves no metric" before
    (Obs.Metrics.to_prometheus Obs.Metrics.default);
  (* Only metrics: no event is written, and the metrics still agree
     with the driver's counts. *)
  let c = with_collector Fun.id in
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Metrics.set_enabled true;
  let d =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled false)
      (fun () -> fault_heavy_solve ~branch_faults:false ~killed:false)
  in
  checki "metrics alone write no event" 0 (List.length (Obs.Trace.events c));
  List.iter
    (fun (what, name, stat) ->
      Option.iter
        (checki (what ^ ": metric = stats, metrics alone") stat)
        (probe_metric (probe_named name)))
    (stats_rows d)

(* ------------------------------------------------------------------ *)
(* Docs match declarations                                             *)
(* ------------------------------------------------------------------ *)

(* Referenced so the inference engine, and its probe, is linked in. *)
let _ = Infer.Engine.of_fixed

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Every declared event and every registered metric is named, in
   brackets, in the observability page. *)
(* dune runtest runs in _build/default/test, where the deps are staged;
   dune exec runs from the workspace root. *)
let read_staged paths =
  In_channel.with_open_bin (List.find Sys.file_exists paths)
    In_channel.input_all

let test_docs_match_declarations () =
  let doc = read_staged [ "../doc/observability.mld"; "doc/observability.mld" ] in
  let probes = List.map Obs.Probe.name (Obs.Probe.declared ()) in
  checkb "inference probe linked" true (List.mem "infer.batch" probes);
  let metrics =
    String.split_on_char '\n' (Obs.Metrics.to_prometheus Obs.Metrics.default)
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ "#"; "TYPE"; name; _ ] -> Some name
           | _ -> None)
  in
  List.iter
    (fun name ->
      checkb (name ^ " documented") true (contains ~sub:("[" ^ name ^ "]") doc))
    (probes @ metrics)

(* Declaring events as probes renamed no metric and changed no help
   text: the sorted HELP/TYPE lines match the registry before probes. *)
let test_metric_help_unchanged () =
  let lines =
    String.split_on_char '\n' (Obs.Metrics.to_prometheus Obs.Metrics.default)
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '#')
    |> List.sort compare
  in
  let golden =
    read_staged
      [ "golden/metrics_help.txt.golden"; "test/golden/metrics_help.txt.golden" ]
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "HELP/TYPE lines" golden lines

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "mock source" `Quick test_clock_mock;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "concurrent emission round-trip" `Quick
            test_concurrent_emission_round_trip;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_no_alloc;
          Alcotest.test_case "probe names" `Quick test_probe_names;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "prometheus escaping and buckets" `Quick
            test_prometheus_escaping_and_buckets;
          Alcotest.test_case "json schema" `Quick test_metrics_json_schema;
        ] );
      ( "progress",
        [ Alcotest.test_case "throttle" `Quick test_progress_throttle ] );
      ( "docs",
        [
          Alcotest.test_case "docs match declarations" `Quick
            test_docs_match_declarations;
          Alcotest.test_case "metric help unchanged" `Quick
            test_metric_help_unchanged;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "solve traces all layers" `Quick
            test_solve_traces_all_layers;
          Alcotest.test_case "cross-sink consistency" `Quick
            test_cross_sink_consistency;
          Alcotest.test_case "cone re-solves across sinks" `Quick
            test_cone_resolves_across_sinks;
          Alcotest.test_case "one sink at a time" `Quick
            test_one_sink_at_a_time;
        ] );
    ]
