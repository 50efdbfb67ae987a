(* Observability layer: monotonic clock (real and mocked), per-domain
   trace rings (wraparound, concurrent emission, Chrome trace-event
   round-trip), metric export (Prometheus escaping, cumulative le
   buckets), the zero-allocation disabled path, progress throttling,
   and an end-to-end solve that must leave events from every
   instrumented layer in the trace. *)

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

let test_disabled_path_no_alloc () =
  Obs.Trace.uninstall ();
  Obs.Metrics.set_enabled false;
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg ~lo:1e-6 ~hi:1.0 "test_disabled_seconds" in
  let cnt = Obs.Metrics.counter reg "test_disabled_total" in
  (* The production guard pattern: one enabled check, arguments built
     only behind it.  1000 iterations must stay within noise of zero
     minor-heap words (a handful for the Gc.minor_words probes
     themselves). *)
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~cat:"test" "never"
        ~args:[ ("i", Obs.Trace.Int i) ];
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.incr cnt;
      Obs.Metrics.observe h (float_of_int i *. 1e-6)
    end
  done;
  let delta = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "disabled path allocates nothing (%.0f words)" delta)
    true (delta < 256.0);
  checki "counter untouched" 0 (Obs.Metrics.counter_value cnt);
  checki "histogram untouched" 0 (Obs.Metrics.histogram_count h)

(* ------------------------------------------------------------------ *)
(* Metrics export                                                      *)
(* ------------------------------------------------------------------ *)

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

let test_prometheus_escaping_and_buckets () =
  let reg = Obs.Metrics.create () in
  let c =
    Obs.Metrics.counter reg ~help:"line one\nline two"
      ~labels:[ ("path", "a\\b\"c\nd") ]
      "test_requests_total"
  in
  let h =
    Obs.Metrics.histogram reg ~lo:1e-3 ~hi:10.0 ~bins:8
      "test_latency_seconds"
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
  checki "8 finite buckets plus +Inf" 9 (List.length bucket_counts);
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
  let h = Obs.Metrics.histogram reg ~lo:1e-3 ~hi:10.0 ~bins:4 "test_h" in
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
      checki "bucket entries" 4 (List.length buckets);
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
          (* Scheduler events fire only when a worker runs dry, which a
             2-domain search need not do at all — so match them against
             the driver's own counts instead of requiring any. *)
          let count name =
            List.length
              (List.filter (fun e -> e.Obs.Trace.name = name) events)
          in
          checki "one sched.steal span per steal" stats.Optim.Bnb.steals
            (count "sched.steal");
          checki "one sched.park instant per idle wakeup"
            stats.Optim.Bnb.idle_wakeups (count "sched.park")))

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
        ] );
      ( "metrics",
        [
          Alcotest.test_case "prometheus escaping and buckets" `Quick
            test_prometheus_escaping_and_buckets;
          Alcotest.test_case "json schema" `Quick test_metrics_json_schema;
        ] );
      ( "progress",
        [ Alcotest.test_case "throttle" `Quick test_progress_throttle ] );
      ( "end-to-end",
        [
          Alcotest.test_case "solve traces all layers" `Quick
            test_solve_traces_all_layers;
        ] );
    ]
