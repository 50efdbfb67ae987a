(* Live telemetry endpoint and durable run ledger: HTTP routing
   (socket-free via [handle_request]), a real server scraped over raw
   Unix sockets while a 2-domain solve mutates every gauge, health
   setters, stop idempotence, the zero-allocation disabled path, ledger
   append/load round-trips, crash-truncated tails, and the regression
   diff on hand-crafted record pairs. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let json_str = function
  | Obs.Json.Str s -> s
  | j -> Alcotest.failf "expected string, got %s" (Obs.Json.to_string j)

let member_exn name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S in %s" name (Obs.Json.to_string j)

let parse_exn s =
  match Obs.Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "JSON parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* Routing (no socket)                                                 *)
(* ------------------------------------------------------------------ *)

let split_response r =
  match
    let rec find i =
      if i + 3 >= String.length r then None
      else if String.sub r i 4 = "\r\n\r\n" then Some i
      else find (i + 1)
    in
    find 0
  with
  | Some i ->
      (String.sub r 0 i, String.sub r (i + 4) (String.length r - i - 4))
  | None -> Alcotest.failf "no header/body separator in %S" r

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let test_routes () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let g = Obs.Metrics.gauge reg ~help:"test gauge" "ldafp_test_gauge" in
      Obs.Metrics.set g 7.0;
      let hdr, body =
        split_response (Obs.Telemetry.handle_request reg "GET /metrics HTTP/1.0")
      in
      checkb "metrics is 200" true (contains ~sub:"HTTP/1.0 200" hdr);
      checkb "metrics content-type" true
        (contains ~sub:"text/plain; version=0.0.4" hdr);
      checkb "metrics body has gauge" true (contains ~sub:"ldafp_test_gauge 7" body);
      let hdr, body =
        split_response
          (Obs.Telemetry.handle_request reg "GET /metrics.json HTTP/1.0")
      in
      checkb "metrics.json is 200" true (contains ~sub:"200 OK" hdr);
      let j = parse_exn body in
      Alcotest.(check string)
        "metrics.json schema" "ldafp-metrics/1"
        (json_str (member_exn "schema" j));
      (* Query strings are stripped before routing. *)
      let hdr, body =
        split_response
          (Obs.Telemetry.handle_request reg "GET /healthz?verbose=1 HTTP/1.0")
      in
      checkb "healthz is 200" true (contains ~sub:"200 OK" hdr);
      let h = parse_exn body in
      Alcotest.(check string) "healthz status" "ok" (json_str (member_exn "status" h));
      checkb "healthz has phase" true (Obs.Json.member "phase" h <> None);
      checkb "healthz has nodes_expanded" true
        (Obs.Json.member "nodes_expanded" h <> None);
      checkb "healthz has uptime" true
        (Obs.Json.member "uptime_seconds" h <> None);
      let hdr, _ =
        split_response (Obs.Telemetry.handle_request reg "GET /nope HTTP/1.0")
      in
      checkb "unknown path is 404" true (contains ~sub:"404" hdr);
      let hdr, _ =
        split_response (Obs.Telemetry.handle_request reg "POST /metrics HTTP/1.0")
      in
      checkb "non-GET is 405" true (contains ~sub:"405" hdr))

(* The setters are no-ops with no server running, so they are
   exercised under one (the server itself is not scraped here). *)
let test_health_setters () =
  match Obs.Telemetry.start ~addr:"127.0.0.1:0" () with
  | Error e -> Alcotest.failf "start failed: %s" e
  | Ok srv ->
      Fun.protect
        ~finally:(fun () ->
          Obs.Telemetry.set_phase "idle";
          Obs.Telemetry.set_nodes 0;
          Obs.Telemetry.set_incumbent Float.infinity;
          Obs.Telemetry.set_gap Float.infinity;
          Obs.Telemetry.stop srv)
        (fun () ->
          Obs.Telemetry.set_phase "searching";
          Obs.Telemetry.set_nodes 42;
          Obs.Telemetry.set_incumbent 1.5;
          Obs.Telemetry.set_gap 0.25;
          let h = Obs.Telemetry.health_json () in
          Alcotest.(check string)
            "phase" "searching"
            (json_str (member_exn "phase" h));
          (match member_exn "nodes_expanded" h with
          | Obs.Json.Int 42 -> ()
          | j -> Alcotest.failf "nodes_expanded = %s" (Obs.Json.to_string j));
          (match member_exn "incumbent" h with
          | Obs.Json.Float f ->
              checkb "incumbent" true (abs_float (f -. 1.5) < 1e-12)
          | j -> Alcotest.failf "incumbent = %s" (Obs.Json.to_string j));
          (* A non-finite gap must render as null in the serialised body. *)
          Obs.Telemetry.set_gap Float.infinity;
          let s = Obs.Json.to_string (Obs.Telemetry.health_json ()) in
          checkb "non-finite gap renders null" true
            (contains ~sub:"\"certified_gap\":null" s);
          checkb "non-finite relative gap renders null" true
            (contains ~sub:"\"certified_rel_gap\":null" s))

(* ------------------------------------------------------------------ *)
(* Live server over real sockets                                       *)
(* ------------------------------------------------------------------ *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let b = Bytes.of_string req in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Bytes.create 65536 in
      let acc = Buffer.create 4096 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 | (exception Unix.Unix_error _) -> ()
        | n ->
            Buffer.add_subbytes acc buf 0 n;
            drain ()
      in
      drain ();
      Buffer.contents acc)

let with_server f =
  match Obs.Telemetry.start ~addr:"127.0.0.1:0" () with
  | Error e -> Alcotest.failf "start failed: %s" e
  | Ok srv ->
      Fun.protect ~finally:(fun () -> Obs.Telemetry.stop srv) (fun () -> f srv)

let test_live_server () =
  with_server (fun srv ->
      checkb "enabled while running" true (Obs.Telemetry.enabled ());
      checkb "ephemeral port read back" true (Obs.Telemetry.port srv > 0);
      checkb "addr carries port" true
        (contains
           ~sub:(string_of_int (Obs.Telemetry.port srv))
           (Obs.Telemetry.addr srv));
      let r = http_get (Obs.Telemetry.port srv) "/healthz" in
      let hdr, body = split_response r in
      checkb "live healthz 200" true (contains ~sub:"HTTP/1.0 200" hdr);
      let h = parse_exn body in
      Alcotest.(check string) "live status ok" "ok"
        (json_str (member_exn "status" h));
      let r = http_get (Obs.Telemetry.port srv) "/metrics" in
      let hdr, body = split_response r in
      checkb "live metrics 200" true (contains ~sub:"200 OK" hdr);
      checkb "live metrics has build_info" true
        (contains ~sub:"ldafp_build_info{" body);
      checkb "live metrics has uptime" true
        (contains ~sub:"\nldafp_uptime_seconds " body))

(* /healthz after a search equals that search's result, whatever an
   earlier search left behind: a search stopped on its node budget, a
   seeded search whose root is pruned (0 nodes, gap 0), and a resumed
   search whose incumbent was restored rather than found. *)
let test_healthz_matches_result () =
  let target = 7.3 in
  let cost x = (float_of_int x -. target) ** 2.0 in
  let oracle =
    {
      Optim.Bnb.bound =
        (fun (lo, hi) ->
          let cont =
            Float.max (float_of_int lo) (Float.min (float_of_int hi) target)
          in
          let x = max lo (min hi (int_of_float (Float.round cont))) in
          Some
            {
              Optim.Bnb.lower = (cont -. target) ** 2.0;
              candidate = Some (x, cost x);
            });
      branch =
        (fun (lo, hi) ->
          if lo >= hi then []
          else
            let mid = (lo + hi) asr 1 in
            [ (lo, mid); (mid + 1, hi) ]);
    }
  in
  let check name (r : int Optim.Bnb.result) =
    let h = Obs.Telemetry.health_json () in
    let number k =
      match member_exn k h with
      | Obs.Json.Float f -> f
      | j -> Alcotest.failf "%s: %s = %s" name k (Obs.Json.to_string j)
    in
    (match member_exn "nodes_expanded" h with
    | Obs.Json.Int n -> checki (name ^ ": nodes") r.Optim.Bnb.nodes_explored n
    | j -> Alcotest.failf "%s: nodes_expanded = %s" name (Obs.Json.to_string j));
    let best =
      match r.Optim.Bnb.best with Some (_, c) -> c | None -> Float.infinity
    in
    checkb (name ^ ": incumbent") true (number "incumbent" = best);
    checkb (name ^ ": gap") true (number "certified_gap" = r.Optim.Bnb.gap);
    (* The relative gap is the one [train]'s summary and the ledger's
       [rel_gap] print, from the same helper. *)
    checkb (name ^ ": relative gap") true
      (Int64.bits_of_float (number "certified_rel_gap")
      = Int64.bits_of_float
          (Optim.Bnb.relative_gap ~gap:r.Optim.Bnb.gap ~incumbent:best));
    Alcotest.(check string)
      (name ^ ": phase")
      ("done:" ^ Optim.Bnb.stop_reason_name r.Optim.Bnb.stop_reason)
      (json_str (member_exn "phase" h))
  in
  with_server (fun _ ->
      Fun.protect
        ~finally:(fun () ->
          Obs.Telemetry.set_phase "idle";
          Obs.Telemetry.set_nodes 0;
          Obs.Telemetry.set_incumbent Float.infinity;
          Obs.Telemetry.set_gap Float.infinity)
        (fun () ->
          let budget = { Optim.Bnb.default_params with max_nodes = 1 } in
          let first = Optim.Bnb.minimize ~params:budget oracle (-25, 25) in
          checkb "the first search leaves a gap" true (first.Optim.Bnb.gap > 0.0);
          check "budget-stopped" first;
          (* Over [9, 25] the seed x = 9 meets the root's bound. *)
          let seeded = Optim.Bnb.minimize ~incumbent:(9, cost 9) oracle (9, 25) in
          checki "seeded root pruned" 0 seeded.Optim.Bnb.nodes_explored;
          check "seeded" seeded;
          (* As in a fresh process: no incumbent published yet. *)
          Obs.Telemetry.set_incumbent Float.infinity;
          let resumed =
            Optim.Bnb.resume ~params:budget oracle
              {
                Optim.Bnb.frontier = [| (0.0, (1, 25)) |];
                incumbent = Some (0, cost 0);
                nodes_explored = 1;
                stats = first.Optim.Bnb.stats;
              }
          in
          checkb "restored incumbent kept" true
            (resumed.Optim.Bnb.best = Some (0, cost 0));
          check "resumed" resumed))

let test_stop_idempotent () =
  match Obs.Telemetry.start ~addr:"127.0.0.1:0" () with
  | Error e -> Alcotest.failf "start failed: %s" e
  | Ok srv ->
      Obs.Telemetry.stop srv;
      checkb "disabled after stop" false (Obs.Telemetry.enabled ());
      (* Second stop must be a no-op, not a crash or double-join. *)
      Obs.Telemetry.stop srv;
      checkb "still disabled" false (Obs.Telemetry.enabled ())

let test_bad_addr () =
  (match Obs.Telemetry.start ~addr:"not-a-port" () with
  | Error _ -> ()
  | Ok srv ->
      Obs.Telemetry.stop srv;
      Alcotest.fail "bad addr accepted");
  match Obs.Telemetry.start ~addr:"127.0.0.1:70000" () with
  | Error _ -> ()
  | Ok srv ->
      Obs.Telemetry.stop srv;
      Alcotest.fail "out-of-range port accepted"

(* Scrape the endpoint from a second domain while a real 2-domain
   search mutates counters, gauges and the health snapshot underneath
   it.  Every response must be well-formed even mid-mutation. *)

let small_scatter () =
  let a =
    [| [| 0.5; 0.1 |]; [| 0.7; -0.1 |]; [| 0.6; 0.2 |]; [| 0.4; -0.2 |] |]
  in
  let b =
    [| [| -0.5; 0.15 |]; [| -0.7; -0.15 |]; [| -0.6; 0.1 |]; [| -0.4; -0.1 |] |]
  in
  Stats.Scatter.of_data a b

let test_concurrent_scrapes () =
  let open Ldafp_core in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      with_server (fun srv ->
          let port = Obs.Telemetry.port srv in
          let solving = Atomic.make true in
          let scrapes = Atomic.make 0 in
          let failures = Atomic.make 0 in
          let scraper =
            Domain.spawn (fun () ->
                while Atomic.get solving do
                  List.iter
                    (fun path ->
                      match split_response (http_get port path) with
                      | hdr, body ->
                          Atomic.incr scrapes;
                          if not (contains ~sub:"200 OK" hdr) then
                            Atomic.incr failures;
                          if path = "/healthz" then (
                            match Obs.Json.parse body with
                            | Ok _ -> ()
                            | Error _ -> Atomic.incr failures)
                      | exception _ -> Atomic.incr failures)
                    [ "/healthz"; "/metrics"; "/metrics.json" ]
                done)
          in
          let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
          let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
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
            }
          in
          (match Lda_fp.solve ~config pb with
          | Some _ -> ()
          | None -> Alcotest.fail "solve found no solution");
          (* One more scrape after the search so at least one response
             is guaranteed even if the solve finished instantly. *)
          Atomic.set solving false;
          Domain.join scraper;
          let r = http_get port "/healthz" in
          let _, body = split_response r in
          let h = parse_exn body in
          let phase = json_str (member_exn "phase" h) in
          checkb "phase reached done:*" true
            (String.length phase >= 5 && String.sub phase 0 5 = "done:");
          (match member_exn "nodes_expanded" h with
          | Obs.Json.Int n -> checkb "nodes were published" true (n > 0)
          | j -> Alcotest.failf "nodes_expanded = %s" (Obs.Json.to_string j));
          checki "no malformed scrape" 0 (Atomic.get failures);
          checkb "scraped at least once" true (Atomic.get scrapes >= 0)))

(* ------------------------------------------------------------------ *)
(* Disabled path allocates nothing                                     *)
(* ------------------------------------------------------------------ *)

(* With no server the setters check the sink mask themselves: calling
   them allocates nothing and changes nothing. *)
let test_disabled_setters_no_alloc () =
  checkb "telemetry off" false (Obs.Telemetry.enabled ());
  let health () =
    let h = Obs.Telemetry.health_json () in
    List.map
      (fun k -> Obs.Json.to_string (member_exn k h))
      [
        "phase"; "nodes_expanded"; "incumbent"; "certified_gap";
        "certified_rel_gap";
      ]
  in
  let before_health = health () in
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    Obs.Telemetry.set_nodes i;
    Obs.Telemetry.set_incumbent 0.5;
    Obs.Telemetry.set_gap 0.25;
    Obs.Telemetry.set_phase "searching"
  done;
  let delta = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "disabled setters allocate nothing (delta=%.0f)" delta)
    true (delta < 256.0);
  Alcotest.(check (list string))
    "disabled setters change nothing" before_health (health ())

(* ------------------------------------------------------------------ *)
(* Run ledger: append / load                                           *)
(* ------------------------------------------------------------------ *)

let with_temp_ledger f =
  let path = Filename.temp_file "ldafp-test-ledger" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f path)

let load_exn path =
  match Obs.Run_ledger.load ~path with
  | Ok (records, malformed) -> (records, malformed)
  | Error e -> Alcotest.failf "load failed: %s" e

let test_ledger_round_trip () =
  with_temp_ledger (fun path ->
      let r1 =
        Obs.Run_ledger.record ~kind:"train" ~argv:[ "ldafp"; "train" ]
          [ ("result", Obs.Json.Obj [ ("cost", Obs.Json.Float 0.5) ]) ]
      in
      let r2 =
        Obs.Run_ledger.record ~kind:"bench" ~argv:[ "bench" ]
          [ ("bench", Obs.Json.Obj [ ("ok", Obs.Json.Bool true) ]) ]
      in
      (match Obs.Run_ledger.append ~path r1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append 1: %s" e);
      (match Obs.Run_ledger.append ~path r2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append 2: %s" e);
      let records, malformed = load_exn path in
      checki "two records" 2 (List.length records);
      checki "no malformed lines" 0 malformed;
      let first = List.nth records 0 in
      Alcotest.(check string)
        "schema stamped" Obs.Run_ledger.schema
        (json_str (member_exn "schema" first));
      Alcotest.(check string) "kind kept" "train" (json_str (member_exn "kind" first));
      let env = member_exn "environment" first in
      (match member_exn "cores_detected" env with
      | Obs.Json.Int n -> checkb "cores >= 1" true (n >= 1)
      | j -> Alcotest.failf "cores_detected = %s" (Obs.Json.to_string j));
      checkb "timestamp present" true
        (Obs.Json.member "timestamp_utc" first <> None);
      let second = List.nth records 1 in
      Alcotest.(check string) "order preserved" "bench"
        (json_str (member_exn "kind" second)))

let test_ledger_torn_tail () =
  with_temp_ledger (fun path ->
      let rec_n i =
        Obs.Run_ledger.record ~kind:"train" ~argv:[ "t" ]
          [ ("result", Obs.Json.Obj [ ("n", Obs.Json.Int i) ]) ]
      in
      (match Obs.Run_ledger.append ~path (rec_n 1) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" e);
      (match Obs.Run_ledger.append ~path (rec_n 2) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" e);
      (* Simulate a crash mid-write by some non-atomic writer: a torn,
         unterminated half-record at the tail. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema\": \"ldafp-run/1\", \"kind\": \"tr";
      close_out oc;
      let records, malformed = load_exn path in
      checki "prior records stay readable" 2 (List.length records);
      checki "torn tail counted" 1 malformed;
      (* A subsequent append must not fuse the new record into the torn
         line: the repaired ledger gains exactly one parseable record. *)
      (match Obs.Run_ledger.append ~path (rec_n 3) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append onto torn file: %s" e);
      let records, malformed = load_exn path in
      checki "new record readable after torn tail" 3 (List.length records);
      checki "torn line still isolated" 1 malformed)

let test_ledger_missing_file () =
  (* A ledger that does not exist yet is an empty ledger, not an error:
     the first CLI run of a fresh checkout appends to a missing file. *)
  match Obs.Run_ledger.load ~path:"/nonexistent/ldafp-nope.jsonl" with
  | Ok (records, malformed) ->
      checki "missing file is empty" 0 (List.length records);
      checki "and clean" 0 malformed
  | Error e -> Alcotest.failf "missing file errored: %s" e

(* A directory given as the ledger: loading and appending both fail
   with the reason a user can act on, not the EOVERFLOW that sizing a
   directory gives, and the append leaves no record anywhere. *)
let test_ledger_directory () =
  let dir = Filename.temp_file "ldafp-test-ledger" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      let is_a_directory what = function
        | Error e ->
            let sub = "Is a directory" in
            let n = String.length sub in
            checkb (what ^ ": " ^ e) true
              (List.exists
                 (fun i -> String.sub e i n = sub)
                 (List.init (max 0 (String.length e - n + 1)) Fun.id))
        | Ok _ -> Alcotest.failf "%s: a directory was accepted" what
      in
      is_a_directory "load" (Obs.Run_ledger.load ~path:dir);
      is_a_directory "append"
        (Obs.Run_ledger.append ~path:dir
           (Obs.Run_ledger.record ~kind:"train" ~argv:[ "t" ] []));
      checkb "nothing written" true (Sys.readdir dir = [||]))

(* Every byte of one ledger line XORed with every mask 0x01..0xff: the
   flipped ledger must load, and diffing each record it yields against
   the unflipped record must return findings; no exception may escape.
   [load] parses each line on its own, so the 255 variants of one
   offset share one ledger file, one per line. *)
(* [ldafp train --ledger] alone, with neither --metrics nor
   --telemetry-addr: the record's metrics snapshot counts the same
   certificates as its own search statistics, not zero.  The CLI is
   staged beside the tests under dune runtest and under _build from the
   workspace root. *)
let test_train_ledger_metrics () =
  let exe =
    match List.find_opt Sys.file_exists [ "../bin/ldafp.exe"; "_build/default/bin/ldafp.exe" ] with
    | Some exe -> exe
    | None -> Alcotest.fail "ldafp.exe not built"
  in
  let csv = Filename.temp_file "ldafp-test-train" ".csv" in
  let model = Filename.temp_file "ldafp-test-train" ".model" in
  with_temp_ledger (fun ledger ->
      Fun.protect
        ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ csv; model ])
        (fun () ->
          let run args =
            let cmd = Filename.quote_command exe ~stdout:Filename.null args in
            checki cmd 0 (Sys.command cmd)
          in
          run [ "generate"; "-n"; "200"; "--seed"; "3"; "--out"; csv ];
          run [ "train"; "--data"; csv; "--wl"; "3"; "-k"; "1"; "--nodes"; "60";
                "--ledger"; ledger; "--out"; model ];
          let record =
            match load_exn ledger with
            | [ r ], 0 -> r
            | rs, bad -> Alcotest.failf "%d record(s), %d malformed" (List.length rs) bad
          in
          let int = function
            | Obs.Json.Int n -> n
            | Obs.Json.Float f -> int_of_float f
            | j -> Alcotest.failf "not a count: %s" (Obs.Json.to_string j)
          in
          let stat name = int (member_exn name (member_exn "stats" record)) in
          let metric name =
            int (member_exn "value" (member_exn name (member_exn "metrics" (member_exn "metrics" record))))
          in
          checki "no oracle failure" 0 (stat "oracle_failures");
          let certs = stat "cert_verified" + stat "cert_repaired" in
          checkb "certificates counted" true (certs > 1);
          checki "ldafp_socp_cert_total = stats certificates" certs (metric "ldafp_socp_cert_total");
          let build_info = member_exn "ldafp_build_info" (member_exn "metrics" (member_exn "metrics" record)) in
          Alcotest.(check string) "the record names the kernel body"
            Linalg.Kernels.(name dispatched)
            (json_str (member_exn "linalg" (member_exn "labels" build_info)))))

(* [ldafp_build_info]'s [linalg] label is the body the Newton-step
   kernels report running, in the exposition and in the JSON export;
   and that body is the one they accept: AVX2 can be forced only when
   it is the dispatched body. *)
let test_build_info_linalg () =
  let body = Linalg.Kernels.(name dispatched) in
  checkb (Printf.sprintf "body %s is avx2 or portable" body) true
    (body = "avx2" || body = "portable");
  checkb "exposition label" true
    (contains
       ~sub:(Printf.sprintf "linalg=\"%s\"" body)
       (Obs.Metrics.to_prometheus Obs.Metrics.default));
  let labels =
    member_exn "labels"
      (member_exn "ldafp_build_info"
         (member_exn "metrics" (Obs.Metrics.to_json Obs.Metrics.default)))
  in
  Alcotest.(check string) "JSON label" body (json_str (member_exn "linalg" labels));
  checkb "AVX2 can be forced iff it is dispatched" (body = "avx2")
    (match Linalg.Kernels.(with_body_for_tests Avx2 (fun () -> ())) with
    | () -> true
    | exception Invalid_argument _ -> false)

let test_ledger_byte_flips () =
  let line =
    {|{"schema":"ldafp-run/1","kind":"train","argv":["ldafp","train"],"stats":{"certified_sound":true,"cert_fallbacks":0,"warm_hit_rate":0.9,"oracle_seconds":1.5e2,"wall_seconds":-2.5e6,"sharded":[{"domains":2},null]}}|}
  in
  let good =
    match Obs.Json.parse line with
    | Ok j -> j
    | Error e -> Alcotest.failf "unflipped line: %s" e
  in
  with_temp_ledger (fun path ->
      for i = 0 to String.length line - 1 do
        let oc = open_out_bin path in
        for mask = 1 to 255 do
          let b = Bytes.of_string line in
          Bytes.set b i (Char.chr (Char.code line.[i] lxor mask));
          output_bytes oc b;
          output_char oc '\n'
        done;
        close_out oc;
        match Obs.Run_ledger.load ~path with
        | exception e ->
            Alcotest.failf "offset %d: load raised %s" i (Printexc.to_string e)
        | Error e -> Alcotest.failf "offset %d: %s" i e
        | Ok (records, _) ->
            List.iter
              (fun r ->
                match
                  Obs.Run_ledger.findings_json
                    (Obs.Run_ledger.diff ~baseline:good ~candidate:r)
                with
                | exception e ->
                    Alcotest.failf "offset %d: diff raised %s" i
                      (Printexc.to_string e)
                | (_ : Obs.Json.t) -> ())
              records
      done)

(* ------------------------------------------------------------------ *)
(* Regression diff                                                     *)
(* ------------------------------------------------------------------ *)

let mk_record leaves = Obs.Json.Obj [ ("stats", Obs.Json.Obj leaves) ]

let base_leaves =
  [
    ("certified_sound", Obs.Json.Bool true);
    ("cert_fallbacks", Obs.Json.Int 0);
    ("warm_hit_rate", Obs.Json.Float 0.9);
  ]

let with_leaf name v =
  List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) base_leaves

let diff_records cand_leaves =
  Obs.Run_ledger.diff ~baseline:(mk_record base_leaves)
    ~candidate:(mk_record cand_leaves)

let paths fs = List.map (fun f -> f.Obs.Run_ledger.path) fs

let test_diff_certified_sound () =
  let fs = diff_records (with_leaf "certified_sound" (Obs.Json.Bool false)) in
  Alcotest.(check (list string)) "one finding" [ "stats.certified_sound" ]
    (paths fs)

let test_diff_cert_fallbacks () =
  let fs = diff_records (with_leaf "cert_fallbacks" (Obs.Json.Int 3)) in
  Alcotest.(check (list string)) "one finding" [ "stats.cert_fallbacks" ]
    (paths fs)

let test_diff_warm_hit_rate () =
  let fs = diff_records (with_leaf "warm_hit_rate" (Obs.Json.Float 0.5)) in
  Alcotest.(check (list string)) "big drop flags" [ "stats.warm_hit_rate" ]
    (paths fs);
  let fs = diff_records (with_leaf "warm_hit_rate" (Obs.Json.Float 0.85)) in
  checki "small drop within 0.1 is clean" 0 (List.length fs)

let test_diff_ordering_and_json () =
  let cand =
    List.map
      (fun (k, v) ->
        match k with
        | "certified_sound" -> (k, Obs.Json.Bool false)
        | "warm_hit_rate" -> (k, Obs.Json.Float 0.3)
        | _ -> (k, v))
      base_leaves
  in
  let fs = diff_records cand in
  Alcotest.(check (list string))
    "findings in the candidate's leaf order"
    [ "stats.certified_sound"; "stats.warm_hit_rate" ]
    (paths fs);
  let j = Obs.Run_ledger.findings_json fs in
  Alcotest.(check string) "diff schema" "ldafp-diff/1"
    (json_str (member_exn "schema" j));
  (match member_exn "correctness_regressions" j with
  | Obs.Json.Int 2 -> ()
  | x -> Alcotest.failf "correctness_regressions = %s" (Obs.Json.to_string x));
  match member_exn "findings" j with
  | Obs.Json.List l -> checki "findings listed" 2 (List.length l)
  | x -> Alcotest.failf "findings = %s" (Obs.Json.to_string x)

let test_diff_missing_leaf_ignored () =
  (* Schemas may grow: a leaf present on only one side is not a
     regression. *)
  let cand = List.filter (fun (k, _) -> k <> "warm_hit_rate") base_leaves in
  checki "dropped leaf ignored" 0 (List.length (diff_records cand));
  let cand = ("new_counter", Obs.Json.Int 5) :: base_leaves in
  checki "added leaf ignored" 0 (List.length (diff_records cand))

let test_diff_self_clean () =
  checki "identical records have no findings" 0
    (List.length (diff_records base_leaves))

let () =
  Alcotest.run "telemetry"
    [
      ( "http",
        [
          Alcotest.test_case "routes" `Quick test_routes;
          Alcotest.test_case "health setters" `Quick test_health_setters;
          Alcotest.test_case "live server" `Quick test_live_server;
          Alcotest.test_case "stop idempotent" `Quick test_stop_idempotent;
          Alcotest.test_case "healthz matches the result" `Quick
            test_healthz_matches_result;
          Alcotest.test_case "bad addr rejected" `Quick test_bad_addr;
          Alcotest.test_case "concurrent scrapes during solve" `Quick
            test_concurrent_scrapes;
          Alcotest.test_case "disabled setters allocate nothing" `Quick
            test_disabled_setters_no_alloc;
          Alcotest.test_case "build_info names the kernel body" `Quick
            test_build_info_linalg;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "append/load round-trip" `Quick
            test_ledger_round_trip;
          Alcotest.test_case "torn tail stays readable" `Quick
            test_ledger_torn_tail;
          Alcotest.test_case "missing file errors" `Quick
            test_ledger_missing_file;
          Alcotest.test_case "directory refused with its reason" `Quick
            test_ledger_directory;
          Alcotest.test_case "every byte flip" `Quick test_ledger_byte_flips;
          Alcotest.test_case "train ledger metrics match its stats" `Quick
            test_train_ledger_metrics;
        ] );
      ( "diff",
        [
          Alcotest.test_case "certified_sound flip" `Quick
            test_diff_certified_sound;
          Alcotest.test_case "cert_fallbacks increase" `Quick
            test_diff_cert_fallbacks;
          Alcotest.test_case "warm_hit_rate drop" `Quick test_diff_warm_hit_rate;
          Alcotest.test_case "ordering and findings_json" `Quick
            test_diff_ordering_and_json;
          Alcotest.test_case "missing leaf ignored" `Quick
            test_diff_missing_leaf_ignored;
          Alcotest.test_case "self diff clean" `Quick test_diff_self_clean;
        ] );
    ]
