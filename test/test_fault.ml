(* Fault tolerance of the branch-and-bound driver: oracle failure
   containment, checkpoint/resume, fault injection, and the deadlock
   regressions.  The QCheck iteration counts scale with the
   LDAFP_FAULT_COUNT environment variable so CI can run a heavier pass
   than the default developer loop. *)

open Optim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

let qcheck_count default =
  match Sys.getenv_opt "LDAFP_FAULT_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Same toy problem as the core Bnb tests: minimise a convex quadratic
   over an integer interval; the bound is the continuous minimum, so the
   search is exact and small enough to brute-force. *)
let integer_quadratic_oracle target =
  let cost x = (x -. target) ** 2.0 in
  {
    Bnb.bound =
      (fun (lo, hi) ->
        if lo > hi then None
        else
          let cont =
            Float.max (float_of_int lo) (Float.min (float_of_int hi) target)
          in
          let lower = cost cont in
          let cand_x = int_of_float (Float.round cont) in
          let cand_x = max lo (min hi cand_x) in
          Some
            { Bnb.lower; candidate = Some (cand_x, cost (float_of_int cand_x)) });
    branch =
      (fun (lo, hi) ->
        if lo >= hi then []
        else
          let mid = (lo + hi) asr 1 in
          [ (lo, mid); (mid + 1, hi) ]);
  }

let cost_of target x = (float_of_int x -. target) ** 2.0

(* Fallback lower bound for the toy problem: the cost is a square, so 0
   is always certified.  Deliberately weak — exactly the role the
   interval-arithmetic fallback plays for the LDA-FP oracle. *)
let weak_fallback _region = 0.0

let retrying_faults =
  { Bnb.default_faults with fallback_bound = Some weak_fallback }

(* Run [f] on a helper domain and poll for completion: if the search
   deadlocks, the test fails after [seconds] instead of hanging the
   suite (the stuck domain is killed when the test process exits). *)
let run_with_timeout ~seconds f =
  let result = Atomic.make None in
  let _watched : unit Domain.t =
    Domain.spawn (fun () -> Atomic.set result (Some (f ())))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get result with
    | Some r -> Some r
    | None ->
        if Unix.gettimeofday () -. t0 > seconds then None
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
  in
  wait ()

let temp_checkpoint () =
  Filename.temp_file "ldafp-test-checkpoint" ".bnb"

(* ------------------------------------------------------------------ *)
(* Containment in the driver                                           *)
(* ------------------------------------------------------------------ *)

(* Poison exactly one region of the toy search tree. *)
let poisoned_oracle ~poison ~mode target =
  let base = integer_quadratic_oracle target in
  {
    base with
    Bnb.bound =
      (fun region ->
        if region = poison then
          match mode with
          | `Raise -> failwith "poisoned region"
          | `Nan -> Some { Bnb.lower = Float.nan; candidate = None }
        else base.Bnb.bound region);
  }

let test_contained_exception_still_optimal () =
  (* The poisoned region (1, 13) sits on the best-first path to the
     optimum at 7 (regions off that path are pruned before their bound
     is ever called).  It is retried (same failure), then degraded to
     the weak fallback — the search must still reach the true optimum
     by branching the degraded region. *)
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode:`Raise 7.3 in
  let r = Bnb.minimize ~faults:retrying_faults oracle (-25, 25) in
  (match r.Bnb.best with
  | Some (x, c) ->
      checki "optimal integer" 7 x;
      checkf 1e-12 "optimal cost" (cost_of 7.3 7) c
  | None -> Alcotest.fail "no incumbent");
  checkb "failures recorded" true (r.Bnb.stats.Bnb.oracle_failures >= 2);
  checki "degraded once" 1 r.Bnb.stats.Bnb.degraded_bounds;
  checki "retried once" 1 r.Bnb.stats.Bnb.retries;
  checki "nothing dropped" 0 r.Bnb.stats.Bnb.dropped_regions

let test_nan_bound_degraded () =
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode:`Nan 7.3 in
  let r = Bnb.minimize ~faults:retrying_faults oracle (-25, 25) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "optimal integer" 7 x
  | None -> Alcotest.fail "no incumbent");
  checki "degraded once" 1 r.Bnb.stats.Bnb.degraded_bounds

let test_drop_counts () =
  (* No fallback: the poisoned region fails, is retried (and fails
     again), then is dropped, and the search continues on the rest of
     the tree.  The optimum lives at 7, far from the poisoned leaf, so
     it must still be found. *)
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode:`Raise 7.3 in
  let r = Bnb.minimize oracle (-25, 25) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "optimal integer" 7 x
  | None -> Alcotest.fail "no incumbent");
  checki "dropped once" 1 r.Bnb.stats.Bnb.dropped_regions;
  checki "retried once" 1 r.Bnb.stats.Bnb.retries;
  checki "two failures" 2 r.Bnb.stats.Bnb.oracle_failures;
  (* The drop lost part of (1, 25), whose key is 0: the drained search
     proves nothing below that, so it is exhausted, not proved. *)
  Alcotest.(check string) "stop reason" "exhausted"
    (Bnb.stop_reason_name r.Bnb.stop_reason);
  checkf 0.0 "bound is the dropped parent's key" 0.0 r.Bnb.bound;
  checkf 0.0 "dropped_bound" 0.0 r.Bnb.stats.Bnb.dropped_bound

(* A dropped region must cap the certified bound.  The cost (x-5)^2 + 1
   over the integers [0, 15]; the region [0, 7], which holds the
   optimum x = 5, always raises and there is no fallback.  What is left
   finds x = 8 at cost 10, but the search may only claim the root's
   key, 1: bound 1, gap 9, exhausted. *)
let test_drop_caps_bound () =
  let cost x = ((float_of_int x -. 5.0) ** 2.0) +. 1.0 in
  let oracle =
    {
      Bnb.bound =
        (fun (lo, hi) ->
          if (lo, hi) = (0, 7) then failwith "poisoned"
          else
            (* Candidates come from single points only. *)
            let x = max lo (min hi 5) in
            Some
              {
                Bnb.lower = cost x;
                candidate = (if lo = hi then Some (lo, cost lo) else None);
              });
      branch =
        (fun (lo, hi) ->
          if lo >= hi then []
          else
            let mid = (lo + hi) asr 1 in
            [ (lo, mid); (mid + 1, hi) ]);
    }
  in
  let r = Bnb.minimize oracle (0, 15) in
  (match r.Bnb.best with
  | Some (x, c) ->
      checki "incumbent x" 8 x;
      checkf 0.0 "incumbent cost" 10.0 c
  | None -> Alcotest.fail "no incumbent");
  checkf 0.0 "bound" 1.0 r.Bnb.bound;
  checkf 0.0 "gap" 9.0 r.Bnb.gap;
  Alcotest.(check string) "stop reason" "exhausted"
    (Bnb.stop_reason_name r.Bnb.stop_reason);
  checki "dropped once" 1 r.Bnb.stats.Bnb.dropped_regions;
  (* A dropped root leaves no bound at all. *)
  let r = Bnb.minimize oracle (0, 7) in
  checkb "dropped root: bound -inf" true (r.Bnb.bound = Float.neg_infinity);
  checkb "dropped root: exhausted" true (r.Bnb.stop_reason = Bnb.Exhausted)

(* Resource exhaustion and interrupts escape the search; anything else
   an oracle raises is contained. *)
let test_containable () =
  let raising e =
    let base = integer_quadratic_oracle 7.3 in
    {
      base with
      Bnb.bound =
        (fun region -> if region = (1, 13) then raise e else base.Bnb.bound region);
    }
  in
  List.iter
    (fun (name, e) ->
      checkb (name ^ " escapes") true
        (match Bnb.minimize ~faults:retrying_faults (raising e) (-25, 25) with
        | exception e' -> e' == e
        | _ -> false))
    [ ("Stack_overflow", Stack_overflow); ("Out_of_memory", Out_of_memory);
      ("Sys.Break", Sys.Break) ];
  List.iter
    (fun (name, e) ->
      let r = Bnb.minimize ~faults:retrying_faults (raising e) (-25, 25) in
      checki (name ^ " contained: failures") 2 r.Bnb.stats.Bnb.oracle_failures;
      checki (name ^ " contained: degraded") 1 r.Bnb.stats.Bnb.degraded_bounds)
    [ ("Failure", Failure "solver"); ("Invalid_argument", Invalid_argument "x") ]

let test_branch_failure_contained () =
  let base = integer_quadratic_oracle 7.3 in
  let oracle =
    {
      base with
      Bnb.branch =
        (fun region ->
          if region = (1, 13) then failwith "poisoned branch"
          else base.Bnb.branch region);
    }
  in
  (* Branch failures cannot be degraded (there is no fallback split);
     the region is treated as atomic.  Its own candidate (the rounded
     continuous minimiser) was already surfaced by [bound], so the
     optimum survives. *)
  let r = Bnb.minimize ~faults:retrying_faults oracle (-25, 25) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "optimal integer" 7 x
  | None -> Alcotest.fail "no incumbent");
  checkb "failures recorded" true (r.Bnb.stats.Bnb.oracle_failures >= 1)

(* ------------------------------------------------------------------ *)
(* Certified vs trusting pruning                                       *)
(* ------------------------------------------------------------------ *)

(* A toy oracle whose candidates are deliberately poor (the region's hi
   endpoint, never the rounded minimiser): finding the optimum requires
   actually descending into its region, so a mispruned region means a
   wrong answer — unlike [integer_quadratic_oracle], whose every bound
   call hands back a near-optimal candidate for free. *)
let endpoint_candidate_oracle target =
  let cost x = (x -. target) ** 2.0 in
  {
    Bnb.bound =
      (fun (lo, hi) ->
        if lo > hi then None
        else
          let cont =
            Float.max (float_of_int lo) (Float.min (float_of_int hi) target)
          in
          Some
            {
              Bnb.lower = cost cont;
              candidate = Some (hi, cost (float_of_int hi));
            });
    branch =
      (fun (lo, hi) ->
        if lo >= hi then []
        else
          let mid = (lo + hi) asr 1 in
          [ (lo, mid); (mid + 1, hi) ]);
  }

let test_corrupt_primal_trusting_misprunes () =
  let target = 7.3 in
  let base = endpoint_candidate_oracle target in
  let poison = (1, 13) in
  (* A corrupted solver: for the region holding the optimum it reports a
     wildly inflated lower bound, exactly what a stalled primal solve
     whose objective is taken on faith produces. *)
  let lying =
    {
      base with
      Bnb.bound =
        (fun region ->
          if region = poison then
            Some { Bnb.lower = 1e6; candidate = None }
          else base.Bnb.bound region);
    }
  in
  let trusting = Bnb.minimize lying (-25, 25) in
  (match trusting.Bnb.best with
  | Some (x, c) ->
      checkb "trusting search mispruned the optimum" true (x <> 7);
      checkb "and pays for it in cost" true (c > cost_of target 7 +. 1.0)
  | None -> ());
  (* The certified path refuses to hand the driver a bound it could not
     verify: the failure is classified as a certificate fault, degraded
     to the (weak but true) fallback, and the region survives to be
     branched — the optimum is recovered. *)
  let certified =
    {
      base with
      Bnb.bound =
        (fun region ->
          if region = poison then
            raise (Bnb.Certificate_error "primal-dual slack excessive")
          else base.Bnb.bound region);
    }
  in
  let r = Bnb.minimize ~faults:retrying_faults certified (-25, 25) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "certified search finds the optimum" 7 x
  | None -> Alcotest.fail "certified search found no incumbent");
  checkb "certificate fallback counted" true
    (r.Bnb.stats.Bnb.cert_fallbacks >= 1);
  checkb "degrading to a certified fallback stays sound" true
    r.Bnb.stats.Bnb.certified_sound

(* ------------------------------------------------------------------ *)
(* Deadlock regressions (parallel driver)                              *)
(* ------------------------------------------------------------------ *)

(* Before containment, an oracle exception killed the worker domain
   without releasing its in-flight slot: the three sibling domains then
   waited forever on a condition variable nobody would ever signal.
   Both failure shapes (exception and NaN bound) must return within the
   watchdog budget at domains = 4. *)
let deadlock_regression mode () =
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode 7.3 in
  match
    run_with_timeout ~seconds:30.0 (fun () ->
        Bnb.minimize
          ~params:{ Bnb.default_params with domains = 4 }
          ~faults:retrying_faults oracle (-25, 25))
  with
  | None -> Alcotest.fail "parallel search deadlocked on a poisoned region"
  | Some r -> (
      match r.Bnb.best with
      | Some (x, _) -> checki "optimal integer" 7 x
      | None -> Alcotest.fail "no incumbent")

let test_deadlock_regression_exception () = deadlock_regression `Raise ()
let test_deadlock_regression_nan () = deadlock_regression `Nan ()

(* ------------------------------------------------------------------ *)
(* Checkpoint file format                                              *)
(* ------------------------------------------------------------------ *)

(* Every field of the snapshot holds a distinct value (oracle time in
   whole microseconds, as it is restored), so a dropped or swapped
   counter changes the record.  The per-run fields describe a 3-domain
   run, which a resume on one domain must not report as its own. *)
let sample_snapshot () : (int * int, int) Bnb.snapshot =
  {
    Bnb.frontier = [| (1.5, (0, 10)); (2.5, (11, 20)) |];
    incumbent = Some (7, 9.5);
    nodes_explored = 12;
    stats =
      {
        Bnb.infeasible_regions = 1;
        bound_pruned = 2;
        stale_pops = 3;
        incumbent_updates = 4;
        children_generated = 5;
        domains_used = 3;
        idle_wakeups = 6;
        domain_first_node_seconds = [| 0.5; 1.5; -1.0 |];
        oracle_failures = 8;
        retries = 9;
        degraded_bounds = 10;
        dropped_regions = 11;
        dropped_bound = 1.25;
        warm_start_hits = 14;
        phase1_skipped = 14;
        warm_pull_ins = 16;
        warm_miss_no_parent = 18;
        warm_miss_not_interior = 19;
        warm_miss_fault_cleared = 20;
        warm_miss_stalled = 25;
        cone_resolves = 17;
        cert_verified = 22;
        cert_repaired = 23;
        cert_fallbacks = 24;
        certified_sound = false;
        oracle_seconds = 21e-6;
        domain_oracle_seconds = [| 0.125; 0.0625; 0.0 |];
        wall_seconds = 0.25;
      };
  }

let load_sample ~fingerprint path : (int * int, int) Bnb.snapshot =
  Checkpoint.load ~fingerprint ~path

let raises_corrupt f =
  match f () with exception Checkpoint.Corrupt _ -> true | _ -> false

let test_checkpoint_roundtrip () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let snapshot = sample_snapshot () in
      Checkpoint.save ~path ~fingerprint:"fp-test" snapshot;
      let loaded = load_sample ~fingerprint:"fp-test" path in
      checkb "every field survives" true (loaded = snapshot))

let test_checkpoint_rejects_fingerprint_mismatch () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save ~path ~fingerprint:"fp-test" (sample_snapshot ());
      checkb "mismatched fingerprint rejected" true
        (raises_corrupt (fun () -> load_sample ~fingerprint:"other-problem" path)))

let test_checkpoint_rejects_garbage () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "not a checkpoint at all\n");
      checkb "garbage rejected" true
        (raises_corrupt (fun () -> load_sample ~fingerprint:"fp-test" path)))

(* There is one schema: a file under any other format version — here the
   v1 layout, with the right fingerprint and a well-formed payload — is
   refused rather than migrated.  A v2, v3, v4, v5 or v6 file (the
   snapshot layouts before the scheduler's seed counters, then the
   frontier-cap and warm-correction fields, were dropped, before the
   search region lost its t-interval, before the snapshot stored
   [Bnb.stats] itself, and before the stats carried [dropped_bound]), a
   v7 file (whose frontier a search without certificates may have
   keyed), a v8 file (whose regions carried no cone mask and whose
   stats had no [cone_resolves]) or a v9 file (whose stats had no
   [warm_miss_stalled]) is complete and digest-valid, so only the
   header can refuse it: it must, rather than unmarshal into the v10
   type. *)
let test_checkpoint_rejects_old_version () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "ldafp-bnb-checkpoint v1\nfp-test\n";
          Marshal.to_channel oc (sample_snapshot ()) []);
      checkb "v1 header rejected" true
        (raises_corrupt (fun () -> load_sample ~fingerprint:"fp-test" path));
      let payload = Marshal.to_string (sample_snapshot ()) [] in
      let digest =
        Digest.to_hex (Digest.string ("fp-test\n" ^ Digest.string payload))
      in
      List.iter
        (fun version ->
          Out_channel.with_open_bin path (fun oc ->
              List.iter (output_string oc)
                [ "ldafp-bnb-checkpoint " ^ version ^ "\nfp-test\n"; digest;
                  "\n"; payload ]);
          match load_sample ~fingerprint:"fp-test" path with
          | exception Checkpoint.Corrupt msg ->
              checkb (version ^ " refused at the header") true
                (String.starts_with ~prefix:(path ^ ": bad header") msg)
          | _ -> Alcotest.failf "a %s checkpoint was loaded" version)
        [ "v2"; "v3"; "v4"; "v5"; "v6"; "v7"; "v8"; "v9" ])

let test_checkpoint_rejects_truncation () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save ~path ~fingerprint:"fp-test" (sample_snapshot ());
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub bytes 0 (String.length bytes - 7)));
      checkb "truncated payload rejected" true
        (raises_corrupt (fun () -> load_sample ~fingerprint:"fp-test" path)))

let test_checkpoint_missing_file () =
  checkb "missing file raises Corrupt" true
    (raises_corrupt (fun () ->
         load_sample ~fingerprint:"fp-test" "/nonexistent/dir/ck.bnb"))

(* A path that exists but cannot be read as a file is a bad checkpoint,
   not a [Sys_error] escaping to the caller. *)
let test_checkpoint_directory () =
  let dir = Filename.temp_dir "ldafp-test-checkpoint" ".d" in
  Fun.protect
    ~finally:(fun () -> try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      match load_sample ~fingerprint:"fp-test" dir with
      | exception Checkpoint.Corrupt msg ->
          checkb "message names the path" true
            (String.starts_with ~prefix:dir msg)
      | exception e ->
          Alcotest.failf "directory raised %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "a directory loaded as a checkpoint")

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume through the driver                                *)
(* ------------------------------------------------------------------ *)

let test_bnb_kill_and_resume () =
  (* A wide root keeps the uninterrupted search deep enough that the
     node budget genuinely kills it mid-tree. *)
  let target = 713.3 in
  let root = (-2000, 2000) in
  let exact_params =
    { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 }
  in
  let uninterrupted =
    Bnb.minimize ~params:exact_params (integer_quadratic_oracle target) root
  in
  let kill_at = uninterrupted.Bnb.nodes_explored / 2 in
  checkb "search is deep enough to kill" true (kill_at >= 1);
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      (* Phase 1: kill via the node budget mid-search. *)
      let killed =
        Bnb.minimize
          ~params:{ exact_params with max_nodes = kill_at }
          ~checkpointing:(Bnb.checkpointing ~fingerprint:"toy-713.3" path)
          (integer_quadratic_oracle target)
          root
      in
      checkb "stopped on the node budget" true
        (killed.Bnb.stop_reason = Bnb.Node_budget);
      checkb "checkpoint written on stop" true (Sys.file_exists path);
      (* Phase 2: resume with the full budget. *)
      let state : ((int * int), int) Bnb.snapshot =
        Checkpoint.load ~fingerprint:"toy-713.3" ~path
      in
      checki "nodes restored" kill_at state.Bnb.nodes_explored;
      let resumed =
        Bnb.resume ~params:exact_params (integer_quadratic_oracle target) state
      in
      checkb "resumed run completes" true
        (match resumed.Bnb.stop_reason with
        | Bnb.Proved_optimal | Bnb.Gap_reached -> true
        | _ -> false);
      checkb "node budget spans the restart" true
        (resumed.Bnb.nodes_explored > kill_at);
      match (uninterrupted.Bnb.best, resumed.Bnb.best) with
      | Some (xu, cu), Some (xr, cr) ->
          checki "same incumbent" xu xr;
          checkf 1e-12 "same cost" cu cr
      | _ -> Alcotest.fail "missing incumbent")

(* [resume] carries every cumulative field of the snapshot forward: a
   resumed search whose node budget is already spent saves a snapshot
   equal to the one it started from (up to frontier order, the clock and
   the per-run fields), so no counter is dropped or crossed with
   another.  [certified_sound] is not restored: the driver builds it
   [true], whatever the snapshot holds. *)
let test_bnb_resume_restores_every_field () =
  let snapshot = sample_snapshot () in
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r =
        Bnb.resume
          ~params:
            { Bnb.default_params with
              max_nodes = snapshot.Bnb.nodes_explored }
          ~checkpointing:(Bnb.checkpointing ~fingerprint:"fp-test" path)
          (integer_quadratic_oracle 3.3)
          snapshot
      in
      checkb "stopped before expanding a node" true
        (r.Bnb.stop_reason = Bnb.Node_budget
        && r.Bnb.nodes_explored = snapshot.Bnb.nodes_explored);
      let saved = load_sample ~fingerprint:"fp-test" path in
      let s = saved.Bnb.stats and s0 = snapshot.Bnb.stats in
      checkb "clock carried forward" true
        (s.Bnb.wall_seconds >= s0.Bnb.wall_seconds);
      let sorted f = List.sort compare (Array.to_list f) in
      checkb "same frontier" true
        (sorted saved.Bnb.frontier = sorted snapshot.Bnb.frontier);
      checkb "per-run fields describe the resumed run" true
        (s.Bnb.domains_used = 1
        && s.Bnb.domain_first_node_seconds = [| -1.0 |]
        && s.Bnb.domain_oracle_seconds = [| 0.0 |]);
      checkb "the result reports the saved stats" true
        ({ r.Bnb.stats with Bnb.wall_seconds = s.Bnb.wall_seconds } = s);
      checkb "every other field unchanged" true
        ({ saved with
           Bnb.frontier = snapshot.Bnb.frontier;
           stats =
             { s with
               Bnb.wall_seconds = s0.Bnb.wall_seconds;
               domains_used = s0.Bnb.domains_used;
               domain_first_node_seconds = s0.Bnb.domain_first_node_seconds;
               domain_oracle_seconds = s0.Bnb.domain_oracle_seconds;
             };
         }
        = { snapshot with Bnb.stats = { s0 with Bnb.certified_sound = true } }))

let test_bnb_periodic_checkpoint () =
  (* [every_nodes = 2] on a search run to completion: a proved-optimal
     stop never snapshots, so the file it leaves is the last periodic
     snapshot, taken mid-tree. *)
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let r =
        Bnb.minimize
          ~params:{ Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 }
          ~checkpointing:
            (Bnb.checkpointing ~every_nodes:2 ~fingerprint:"periodic" path)
          (integer_quadratic_oracle 3.3)
          (-25, 25)
      in
      checkb "search ran to completion" true
        (r.Bnb.stop_reason = Bnb.Proved_optimal);
      checkb "periodic snapshot written" true (Sys.file_exists path);
      let state : ((int * int), int) Bnb.snapshot =
        Checkpoint.load ~fingerprint:"periodic" ~path
      in
      checkb "snapshot from mid-search" true
        (state.Bnb.nodes_explored <= r.Bnb.nodes_explored);
      checkb "snapshot cadence respected" true
        (state.Bnb.nodes_explored mod 2 = 0))

let test_bnb_interrupt_stops_and_saves () =
  let calls = Atomic.make 0 in
  let interrupt () = Atomic.fetch_and_add calls 1 >= 1 in
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let r =
        Bnb.minimize
          ~params:{ Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 }
          ~checkpointing:(Bnb.checkpointing ~fingerprint:"intr" path)
          ~interrupt
          (integer_quadratic_oracle 713.3)
          (-2000, 2000)
      in
      checkb "stop reason is Interrupted" true
        (r.Bnb.stop_reason = Bnb.Interrupted);
      checkb "interrupt snapshot written" true (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* LDA-FP level checkpoint/resume                                      *)
(* ------------------------------------------------------------------ *)

let small_scatter () =
  let a =
    [| [| 0.5; 0.1 |]; [| 0.7; -0.1 |]; [| 0.6; 0.2 |]; [| 0.4; -0.2 |] |]
  in
  let b =
    [| [| -0.5; 0.15 |]; [| -0.7; -0.15 |]; [| -0.6; 0.1 |]; [| -0.4; -0.1 |] |]
  in
  Stats.Scatter.of_data a b

let exact_lda_config max_nodes =
  let open Ldafp_core in
  {
    Lda_fp.quick_config with
    bnb_params =
      { Optim.Bnb.default_params with max_nodes; rel_gap = 0.0; abs_gap = 0.0 };
  }

(* The instance of the tests that stop a search on a small node budget:
   [small_scatter] at Q2.4 drains in 13 nodes, so a 6-node slice stops
   on the budget with a frontier to save (at Q2.3 it drains in 6). *)
let sliced_problem () =
  Ldafp_core.Ldafp_problem.build ~fmt:(Fixedpoint.Qformat.make ~k:2 ~f:4) (small_scatter ())

let test_ldafp_kill_and_resume () =
  let open Ldafp_core in
  let pb = sliced_problem () in
  let uninterrupted =
    match Lda_fp.solve ~config:(exact_lda_config 4000) pb with
    | Some o -> o
    | None -> Alcotest.fail "uninterrupted run found no solution"
  in
  checkb "uninterrupted run completed" true
    (uninterrupted.Lda_fp.diagnostics.Lda_fp.stop_reason
     = Optim.Bnb.Proved_optimal);
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let sliced_config budget =
        { (exact_lda_config budget) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path) }
      in
      (* First invocation: no file yet, trains from scratch, killed by
         the tiny node budget, snapshots.  Each restart raises the
         budget by another slice ([max_nodes] counts the restored nodes
         too — the budget spans the whole search) and continues where
         the previous run was killed, until the search completes. *)
      let kills = ref 0 in
      let rec train_in_slices budget guard =
        if guard = 0 then Alcotest.fail "resume loop did not converge"
        else
          match Lda_fp.solve ~config:(sliced_config budget) pb with
          | None -> Alcotest.fail "killed run lost the incumbent"
          | Some o
            when o.Lda_fp.diagnostics.Lda_fp.stop_reason
                 = Optim.Bnb.Node_budget ->
              checkb "checkpoint written on budget stop" true
                (Sys.file_exists path);
              incr kills;
              train_in_slices (budget + 6) (guard - 1)
          | Some o -> o
      in
      let resumed = train_in_slices 6 2000 in
      checkb "the chain was killed and resumed" true (!kills > 0);
      checkb "resumed run completed" true
        (resumed.Lda_fp.diagnostics.Lda_fp.stop_reason
         = Optim.Bnb.Proved_optimal);
      checkf 1e-12 "same incumbent cost across kill/resume chain"
        uninterrupted.Lda_fp.cost resumed.Lda_fp.cost)

let test_ldafp_resume_rejects_other_problem () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:4 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let other = Ldafp_problem.build ~rho:0.95 ~fmt (small_scatter ()) in
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let config =
        { (exact_lda_config 6) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path) }
      in
      ignore (Lda_fp.solve ~config pb);
      checkb "checkpoint written" true (Sys.file_exists path);
      checkb "resume against a different problem is rejected" true
        (match Lda_fp.solve ~config other with
        | exception Optim.Checkpoint.Corrupt _ -> true
        | _ -> false))

(* Warm starts under contained faults.  The retry hook invalidates any
   point cached on a node whose solve failed, so a retried bound is a
   deterministic cold solve — with the same injection seed, a warm and
   a cold search must therefore still coincide exactly.  If a stale
   warm start leaked into a retry, the two searches would diverge. *)
let test_ldafp_faults_invalidate_warm_starts () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let solve warm_start =
    let inject =
      Fault_inject.config ~seed:11 ~bound_exn_prob:0.10 ~bound_nan_prob:0.10 ()
    in
    Lda_fp.solve
      ~config:{ (exact_lda_config 400) with Lda_fp.warm_start }
      ~wrap_oracle:(fun o -> fst (Fault_inject.wrap inject o))
      pb
  in
  match (solve true, solve false) with
  | Some warm, Some cold ->
      let ws = warm.Lda_fp.diagnostics.Lda_fp.search in
      let cs = cold.Lda_fp.diagnostics.Lda_fp.search in
      checkb "faults actually injected" true (ws.Bnb.oracle_failures > 0);
      checkb "warm starts actually used" true (ws.Bnb.warm_start_hits > 0);
      checkf 1e-12 "same incumbent under identical injection"
        cold.Lda_fp.cost warm.Lda_fp.cost;
      checki "same node count under identical injection"
        cold.Lda_fp.diagnostics.Lda_fp.nodes
        warm.Lda_fp.diagnostics.Lda_fp.nodes;
      checki "same failure count" cs.Bnb.oracle_failures
        ws.Bnb.oracle_failures;
      checkb "solution feasible" true (Ldafp_problem.feasible pb warm.Lda_fp.w)
  | _ -> Alcotest.fail "a faulty solve found nothing"

(* Warm-start counters are part of the search statistics and must
   survive a checkpoint/resume chain as fields of the snapshot. *)
let test_ldafp_warm_counters_survive_resume () =
  let open Ldafp_core in
  let pb = sliced_problem () in
  let full =
    match Lda_fp.solve ~config:(exact_lda_config 4000) pb with
    | Some o -> o
    | None -> Alcotest.fail "uninterrupted run found no solution"
  in
  let full_hits =
    full.Lda_fp.diagnostics.Lda_fp.search.Bnb.warm_start_hits
  in
  checkb "reference run warm-starts" true (full_hits > 0);
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let sliced_config budget =
        { (exact_lda_config budget) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path) }
      in
      let rec train_in_slices budget guard =
        if guard = 0 then Alcotest.fail "resume loop did not converge"
        else
          match Lda_fp.solve ~config:(sliced_config budget) pb with
          | None -> Alcotest.fail "killed run lost the incumbent"
          | Some o
            when o.Lda_fp.diagnostics.Lda_fp.stop_reason = Bnb.Node_budget ->
              train_in_slices (budget + 6) (guard - 1)
          | Some o -> o
      in
      let resumed = train_in_slices 6 2000 in
      checkf 1e-12 "same incumbent cost" full.Lda_fp.cost resumed.Lda_fp.cost;
      (* The chain explores the same tree, so the cumulative counters
         must match the uninterrupted run's. *)
      checki "warm hits survive the chain" full_hits
        resumed.Lda_fp.diagnostics.Lda_fp.search.Bnb.warm_start_hits;
      checki "phase-I skips survive the chain"
        full.Lda_fp.diagnostics.Lda_fp.search.Bnb.phase1_skipped
        resumed.Lda_fp.diagnostics.Lda_fp.search.Bnb.phase1_skipped)

(* A node's cone mask rides the checkpoint with it: on an
   ECoG-WL-3-like instance (ECoG features 10–14 at Q2.1, where the
   eq. 20 cones bind and the snapshots hold regions with masks) a chain
   killed every 3 nodes re-solves the same nodes with cones as the
   uninterrupted run and ends on the same incumbent, bound and node
   count.  A frontier restored without its masks would solve its regions
   cone-free again and re-solve them (15 re-solves instead of 3). *)
let test_ldafp_cone_masks_survive_resume () =
  let open Ldafp_core in
  let pb, _ = Ecog_subset.problem [| 10; 11; 12; 13; 14 |] in
  let full =
    match Lda_fp.solve ~config:(exact_lda_config 4000) pb with
    | Some o -> o
    | None -> Alcotest.fail "uninterrupted run found no solution"
  in
  let fd = full.Lda_fp.diagnostics in
  checkb "reference run re-solves with cones" true
    (fd.Lda_fp.search.Bnb.cone_resolves > 0);
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let sliced_config budget =
        { (exact_lda_config budget) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path) }
      in
      let rec train_in_slices budget guard =
        if guard = 0 then Alcotest.fail "resume loop did not converge"
        else
          match Lda_fp.solve ~config:(sliced_config budget) pb with
          | None -> Alcotest.fail "killed run lost the incumbent"
          | Some o
            when o.Lda_fp.diagnostics.Lda_fp.stop_reason = Bnb.Node_budget ->
              train_in_slices (budget + 3) (guard - 1)
          | Some o -> o
      in
      let resumed = train_in_slices 3 2000 in
      let rd = resumed.Lda_fp.diagnostics in
      let bits = Int64.bits_of_float in
      checkb "same incumbent bits" true (bits full.Lda_fp.cost = bits resumed.Lda_fp.cost);
      checkb "same bound bits" true (bits fd.Lda_fp.bound = bits rd.Lda_fp.bound);
      checki "same node count" fd.Lda_fp.nodes rd.Lda_fp.nodes;
      checki "same cone re-solves" fd.Lda_fp.search.Bnb.cone_resolves
        rd.Lda_fp.search.Bnb.cone_resolves)

(* Certificate counters (and the soundness flag) ride the same
   checkpoint schema: a kill/resume chain must report the same
   cumulative certificate accounting as the uninterrupted run, still
   marked sound. *)
let test_ldafp_cert_counters_survive_resume () =
  let open Ldafp_core in
  let pb = sliced_problem () in
  let full =
    match Lda_fp.solve ~config:(exact_lda_config 4000) pb with
    | Some o -> o
    | None -> Alcotest.fail "uninterrupted run found no solution"
  in
  let fs = full.Lda_fp.diagnostics.Lda_fp.search in
  checkb "reference run certifies its bounds" true (fs.Bnb.cert_verified > 0);
  checkb "reference run is sound" true fs.Bnb.certified_sound;
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let sliced_config budget =
        { (exact_lda_config budget) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path) }
      in
      let rec train_in_slices budget guard =
        if guard = 0 then Alcotest.fail "resume loop did not converge"
        else
          match Lda_fp.solve ~config:(sliced_config budget) pb with
          | None -> Alcotest.fail "killed run lost the incumbent"
          | Some o
            when o.Lda_fp.diagnostics.Lda_fp.stop_reason = Bnb.Node_budget ->
              train_in_slices (budget + 6) (guard - 1)
          | Some o -> o
      in
      let resumed = train_in_slices 6 2000 in
      let rs = resumed.Lda_fp.diagnostics.Lda_fp.search in
      checkf 1e-12 "same incumbent cost" full.Lda_fp.cost resumed.Lda_fp.cost;
      checki "cert_verified survives the chain" fs.Bnb.cert_verified
        rs.Bnb.cert_verified;
      checki "cert_fallbacks survives the chain" fs.Bnb.cert_fallbacks
        rs.Bnb.cert_fallbacks;
      checkb "chain stays certified sound" true rs.Bnb.certified_sound)

(* A real LDA-FP snapshot with any single byte damaged must fail with
   [Corrupt] — never a crash inside the unmarshaller, never a resume of
   an ill-typed frontier.  Every offset, with one bit and with all eight
   bits flipped. *)
let test_checkpoint_every_byte_flip () =
  let open Ldafp_core in
  let pb = sliced_problem () in
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let config =
        {
          (exact_lda_config 6) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec path);
        }
      in
      (match Lda_fp.solve ~config pb with
      | Some o ->
          checkb "stopped on the node budget" true
            (o.Lda_fp.diagnostics.Lda_fp.stop_reason = Bnb.Node_budget)
      | None -> Alcotest.fail "slice found no incumbent");
      let fingerprint = Ldafp_problem.fingerprint pb in
      let good = In_channel.with_open_bin path In_channel.input_all in
      let load () =
        (Checkpoint.load ~fingerprint ~path
          : (_, Linalg.Vec.t) Bnb.snapshot)
      in
      checkb "intact snapshot loads" true
        ((load ()).Bnb.nodes_explored >= 6);
      let survivors = ref [] in
      List.iter
        (fun mask ->
          for i = 0 to String.length good - 1 do
            let bad = Bytes.of_string good in
            Bytes.set bad i (Char.chr (Char.code good.[i] lxor mask));
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_bytes oc bad);
            if not (raises_corrupt load) then
              survivors := (i, mask) :: !survivors
          done)
        [ 0x01; 0xff ];
      checki "offsets that loaded despite the flip" 0
        (List.length !survivors))

(* Certificates under injected faults and a kill/resume chain: whatever
   the injection does, a run that ends with [certified_sound] must have
   certified (or certifiably degraded) every pruning decision, and the
   incumbent must match the fault-free reference. *)
let test_ldafp_cert_with_faults_and_resume () =
  let open Ldafp_core in
  let pb = sliced_problem () in
  let reference =
    match Lda_fp.solve ~config:(exact_lda_config 4000) pb with
    | Some o -> o
    | None -> Alcotest.fail "reference run found no solution"
  in
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let faulty budget =
        {
          (exact_lda_config budget) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path);
        }
      in
      let inject =
        Fault_inject.config ~seed:23 ~bound_exn_prob:0.08 ~bound_nan_prob:0.08 ()
      in
      let rec train_in_slices budget guard =
        if guard = 0 then Alcotest.fail "resume loop did not converge"
        else
          match
            Lda_fp.solve ~config:(faulty budget)
              ~wrap_oracle:(fun o -> fst (Fault_inject.wrap inject o))
              pb
          with
          | None -> Alcotest.fail "killed run lost the incumbent"
          | Some o
            when o.Lda_fp.diagnostics.Lda_fp.stop_reason = Bnb.Node_budget ->
              train_in_slices (budget + 6) (guard - 1)
          | Some o -> o
      in
      let resumed = train_in_slices 6 2000 in
      let rs = resumed.Lda_fp.diagnostics.Lda_fp.search in
      checkb "faults actually injected" true (rs.Bnb.oracle_failures > 0);
      checkb "faulty chain stays certified sound" true rs.Bnb.certified_sound;
      checkf 1e-12 "incumbent matches the fault-free reference"
        reference.Lda_fp.cost resumed.Lda_fp.cost)

(* The warm-start contract: a repaired start changes where the barrier
   starts, never what the search concludes.  Warm and cold runs of the
   same budgeted search must pick the identical incumbent — across
   domain counts (any worker may take a child and its inherited point), under
   injected bound faults, and through a kill/resume chain. *)
let prop_ldafp_warm_cold_agree =
  QCheck.Test.make
    ~name:"warm and cold LDA searches pick the same incumbent"
    ~count:(qcheck_count 10)
    QCheck.(quad (int_range 0 1_000_000) (oneofl [ 1; 2; 4 ]) bool bool)
    (fun (seed, domains, inject, resume) ->
      let open Ldafp_core in
      let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
      let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
      let budget = 250 in
      let base warm_start =
        let c = exact_lda_config budget in
        {
          c with
          Lda_fp.warm_start;
          bnb_params = { c.Lda_fp.bnb_params with Bnb.domains };
        }
      in
      (* injection seeds are per-run, so a killed/resumed chain would see
         a different fault sequence than the reference — keep the two
         dimensions separate *)
      let wrap_oracle o =
        if inject && not resume then
          fst
            (Fault_inject.wrap
               (Fault_inject.config ~seed ~bound_exn_prob:0.05
                  ~bound_nan_prob:0.05 ())
               o)
        else o
      in
      let cold = Lda_fp.solve ~config:(base false) ~wrap_oracle pb in
      let warm =
        if not resume then Lda_fp.solve ~config:(base true) ~wrap_oracle pb
        else begin
          let path = temp_checkpoint () in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              Sys.remove path;
              let with_ck budget =
                let c = base true in
                {
                  c with
                  Lda_fp.bnb_params =
                    { c.Lda_fp.bnb_params with Bnb.max_nodes = budget };
                  checkpoint =
                    Some (Lda_fp.checkpoint_spec ~resume:true path);
                }
              in
              (* Kill the warm run mid-search, then resume to the same
                 cumulative budget as the uninterrupted cold one. *)
              ignore (Lda_fp.solve ~config:(with_ck (20 + (seed mod 60))) pb);
              Lda_fp.solve ~config:(with_ck budget) pb)
        end
      in
      match (warm, cold) with
      | Some w, Some c ->
          let wd = w.Lda_fp.diagnostics and cd = c.Lda_fp.diagnostics in
          if w.Lda_fp.cost <> c.Lda_fp.cost then
            QCheck.Test.fail_reportf "warm incumbent %.17g <> cold %.17g"
              w.Lda_fp.cost c.Lda_fp.cost
          else if
            Float.abs (wd.Lda_fp.gap -. cd.Lda_fp.gap)
            > 1e-9 *. (1.0 +. Float.abs cd.Lda_fp.gap)
          then
            QCheck.Test.fail_reportf
              "certified gaps diverge: warm %.17g cold %.17g" wd.Lda_fp.gap
              cd.Lda_fp.gap
          else true
      | None, None -> true
      | _ -> QCheck.Test.fail_report "only one of the runs found an incumbent")

let test_ldafp_interval_fallback_is_conservative () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let wbox = pb.Ldafp_problem.elem_box in
  let lb = Ldafp_problem.interval_lower_bound pb ~wbox in
  checkb "finite and >= 0" true (lb >= 0.0 && Float.is_finite lb);
  (* Conservativeness: no feasible grid point in the box may beat it. *)
  let rng = Stats.Rng.create 7 in
  for _ = 1 to 200 do
    let w =
      Array.map
        (fun iv ->
          let lo = Fixedpoint.Fx_interval.lo iv
          and hi = Fixedpoint.Fx_interval.hi iv in
          Fixedpoint.Qformat.nearest_on_grid fmt
            (Stats.Rng.uniform rng ~lo ~hi))
        wbox
    in
    if Ldafp_problem.t_of pb w > 0.0 then
      checkb "fallback below every sampled cost" true
        (lb <= Ldafp_problem.cost pb w +. 1e-9)
  done

(* ------------------------------------------------------------------ *)
(* Fault-injection properties                                          *)
(* ------------------------------------------------------------------ *)

let fault_rate_gen =
  QCheck.Gen.(
    map2
      (fun rate seed -> (rate, seed))
      (float_bound_inclusive 0.20)
      (int_bound 1_000_000))

let arb_fault_run =
  QCheck.make
    ~print:(fun (rate, seed, domains, target) ->
      Printf.sprintf "rate=%.3f seed=%d domains=%d target=%.2f" rate seed
        domains target)
    QCheck.Gen.(
      map2
        (fun (rate, seed) (domains, target) -> (rate, seed, domains, target))
        fault_rate_gen
        (pair (oneofl [ 1; 2; 4 ]) (float_range (-20.0) 20.0)))

let prop_faulty_search_terminates =
  QCheck.Test.make ~name:"faulty search terminates with consistent stats"
    ~count:(qcheck_count 30) arb_fault_run
    (fun (rate, seed, domains, target) ->
      let cfg =
        Fault_inject.config ~seed ~bound_exn_prob:(rate /. 3.0)
          ~bound_nan_prob:(rate /. 3.0) ~branch_exn_prob:(rate /. 3.0)
          ~delay_prob:0.05 ~delay_seconds:5e-4 ()
      in
      let oracle, injected =
        Fault_inject.wrap cfg (integer_quadratic_oracle target)
      in
      match
        run_with_timeout ~seconds:60.0 (fun () ->
            Bnb.minimize
              ~params:{ Bnb.default_params with domains }
              ~faults:retrying_faults oracle (-25, 25))
      with
      | None -> QCheck.Test.fail_report "search did not terminate"
      | Some r ->
          let s = r.Bnb.stats in
          (* Every injected failure must be observed, none double
             counted. *)
          if injected () <> s.Bnb.oracle_failures then
            QCheck.Test.fail_reportf "injected %d but recorded %d"
              (injected ()) s.Bnb.oracle_failures
          else begin
            (match r.Bnb.best with
            | Some (x, c) ->
                (* Any incumbent must be a real point of the space with
                   its exact cost — injection may lose work, never
                   fabricate it. *)
                if x < -25 || x > 25 then
                  QCheck.Test.fail_report "incumbent outside the root region";
                if Float.abs (c -. cost_of target x) > 1e-9 then
                  QCheck.Test.fail_report "incumbent cost is not exact"
            | None ->
                (* The toy bound always returns a candidate, so only
                   faulted work can explain an empty result. *)
                if injected () = 0 then
                  QCheck.Test.fail_report "no incumbent without any fault");
            true
          end)

let prop_fault_free_wrap_is_identity =
  QCheck.Test.make ~name:"zero-rate injection changes nothing"
    ~count:(qcheck_count 20)
    QCheck.(float_range (-20.0) 20.0)
    (fun target ->
      let oracle, injected =
        Fault_inject.wrap Fault_inject.none (integer_quadratic_oracle target)
      in
      let plain = Bnb.minimize (integer_quadratic_oracle target) (-25, 25) in
      let wrapped = Bnb.minimize oracle (-25, 25) in
      injected () = 0
      && wrapped.Bnb.stats.Bnb.oracle_failures = 0
      && plain.Bnb.best = wrapped.Bnb.best
      && plain.Bnb.nodes_explored = wrapped.Bnb.nodes_explored)

let prop_resume_reaches_same_incumbent =
  QCheck.Test.make
    ~name:"sequential kill/resume reproduces the uninterrupted incumbent"
    ~count:(qcheck_count 25)
    QCheck.(pair (float_range (-20.0) 20.0) (int_range 1 12))
    (fun (target, kill_after) ->
      let exact = { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } in
      let full =
        Bnb.minimize ~params:exact (integer_quadratic_oracle target) (-25, 25)
      in
      let path = temp_checkpoint () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Sys.remove path;
          let killed =
            Bnb.minimize
              ~params:{ exact with max_nodes = kill_after }
              ~checkpointing:(Bnb.checkpointing ~fingerprint:"prop" path)
              (integer_quadratic_oracle target)
              (-25, 25)
          in
          let final =
            if killed.Bnb.stop_reason = Bnb.Node_budget then begin
              let state : ((int * int), int) Bnb.snapshot =
                Checkpoint.load ~fingerprint:"prop" ~path
              in
              Bnb.resume ~params:exact (integer_quadratic_oracle target) state
            end
            else killed (* finished before the kill point *)
          in
          match (full.Bnb.best, final.Bnb.best) with
          | Some (_, cf), Some (_, cr) -> Float.abs (cf -. cr) <= 1e-12
          | None, None -> true
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Multi-domain agreement properties                                   *)
(* ------------------------------------------------------------------ *)

(* Retries consult the clean oracle, so every injected bound fault is
   recoverable: no region is ever degraded or dropped, and the search —
   sequential or shared across any number of domains — must land on the
   fault-free incumbent.  Branch faults are deliberately excluded here:
   a failed branch is treated as atomic (its children are
   unrecoverable), which legitimately changes the reachable tree. *)
let recovering_faults (clean : (int * int, int) Bnb.oracle) =
  {
    Bnb.retry_bound = Some (fun ~attempt:_ region -> clean.Bnb.bound region);
    fallback_bound = Some weak_fallback;
  }

let prop_parallel_agrees_with_sequential =
  QCheck.Test.make
    ~name:"shared heap matches the sequential incumbent under injection"
    ~count:(qcheck_count 20) arb_fault_run
    (fun (rate, seed, domains, target) ->
      let clean = integer_quadratic_oracle target in
      let seq = Bnb.minimize clean (-25, 25) in
      let cfg =
        Fault_inject.config ~seed ~bound_exn_prob:(rate /. 2.0)
          ~bound_nan_prob:(rate /. 2.0) ()
      in
      let oracle, injected = Fault_inject.wrap cfg clean in
      match
        run_with_timeout ~seconds:60.0 (fun () ->
            Bnb.minimize
              ~params:{ Bnb.default_params with domains }
              ~faults:(recovering_faults clean) oracle (-25, 25))
      with
      | None -> QCheck.Test.fail_report "parallel search did not terminate"
      | Some par -> (
          if par.Bnb.stats.Bnb.dropped_regions <> 0 then
            QCheck.Test.fail_report "recoverable fault dropped a region"
          else
            match (seq.Bnb.best, par.Bnb.best) with
            | Some (xs, cs), Some (xp, cp) ->
                if xp < -25 || xp > 25 then
                  QCheck.Test.fail_report "incumbent outside the root region"
                else if Float.abs (cp -. cost_of target xp) > 1e-12 then
                  QCheck.Test.fail_report "incumbent cost is not exact"
                else if Float.abs (cs -. cp) > 1e-9 *. (1.0 +. Float.abs cs)
                then
                  QCheck.Test.fail_reportf
                    "sequential %.17g (at %d) <> parallel %.17g (at %d) with %d \
                     injected faults"
                    cs xs cp xp (injected ())
                else true
            | _ -> QCheck.Test.fail_report "missing incumbent"))

let prop_parallel_resume_matches_sequential =
  QCheck.Test.make
    ~name:"parallel kill/resume reproduces the sequential incumbent"
    ~count:(qcheck_count 15)
    QCheck.(
      triple (float_range (-20.0) 20.0) (int_range 1 40) (oneofl [ 2; 4 ]))
    (fun (target, kill_after, domains) ->
      let exact = { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } in
      let full =
        Bnb.minimize ~params:exact (integer_quadratic_oracle target) (-100, 100)
      in
      let path = temp_checkpoint () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Sys.remove path;
          let par = { exact with Bnb.domains } in
          match
            run_with_timeout ~seconds:60.0 (fun () ->
                let killed =
                  Bnb.minimize
                    ~params:{ par with Bnb.max_nodes = kill_after }
                    ~checkpointing:
                      (Bnb.checkpointing ~fingerprint:"parallel-resume" path)
                    (integer_quadratic_oracle target)
                    (-100, 100)
                in
                if killed.Bnb.stop_reason = Bnb.Node_budget then begin
                  (* The snapshot holds the queued and the in-flight
                     regions of several workers; resuming it — still on
                     several domains — must complete to the
                     uninterrupted incumbent. *)
                  let state : ((int * int), int) Bnb.snapshot =
                    Checkpoint.load ~fingerprint:"parallel-resume" ~path
                  in
                  Bnb.resume ~params:par (integer_quadratic_oracle target)
                    state
                end
                else killed)
          with
          | None -> QCheck.Test.fail_report "parallel kill/resume chain hung"
          | Some final -> (
              match (full.Bnb.best, final.Bnb.best) with
              | Some (_, cf), Some (_, cr) -> Float.abs (cf -. cr) <= 1e-12
              | _ -> QCheck.Test.fail_report "missing incumbent")))

(* The domain count must be invisible to the search's conclusion: the
   parallel run lands on the one-domain incumbent with the same
   certified gap — under injected bound faults, and through a kill at a
   node budget of a few nodes (the snapshot of a barely grown frontier
   must resume to the same answer) or later.  Injection and kill/resume
   stay separate dimensions for the same reason as in
   [prop_ldafp_warm_cold_agree]: injection seeds are per-run. *)
let prop_parallel_gap_agrees_with_sequential =
  QCheck.Test.make
    ~name:"domain count changes neither incumbent nor gap"
    ~count:(qcheck_count 15)
    (QCheck.make
       ~print:(fun (rate, seed, domains, target, kill_after, resume) ->
         Printf.sprintf
           "rate=%.3f seed=%d domains=%d target=%.2f kill_after=%d resume=%b"
           rate seed domains target kill_after resume)
       QCheck.Gen.(
         map3
           (fun (rate, seed) (domains, target) (kill_after, resume) ->
             (rate, seed, domains, target, kill_after, resume))
           fault_rate_gen
           (pair (oneofl [ 2; 4 ]) (float_range (-20.0) 20.0))
           (pair (oneofl [ 1; 2; 3; 4; 8; 32 ]) bool)))
    (fun (rate, seed, domains, target, kill_after, resume) ->
      let clean = integer_quadratic_oracle target in
      let root = (-100, 100) in
      let exact = { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } in
      let seq = Bnb.minimize ~params:exact clean root in
      let par_params = { exact with Bnb.domains } in
      let run () =
        if resume then begin
          let path = temp_checkpoint () in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              Sys.remove path;
              let killed =
                Bnb.minimize
                  ~params:{ par_params with Bnb.max_nodes = kill_after }
                  ~checkpointing:
                    (Bnb.checkpointing ~fingerprint:"parallel-resume" path)
                  clean root
              in
              if killed.Bnb.stop_reason = Bnb.Node_budget then begin
                let state : ((int * int), int) Bnb.snapshot =
                  Checkpoint.load ~fingerprint:"parallel-resume" ~path
                in
                Bnb.resume ~params:par_params clean state
              end
              else killed)
        end
        else
          let cfg =
            Fault_inject.config ~seed ~bound_exn_prob:(rate /. 2.0)
              ~bound_nan_prob:(rate /. 2.0) ()
          in
          let oracle, _injected = Fault_inject.wrap cfg clean in
          Bnb.minimize ~params:par_params ~faults:(recovering_faults clean)
            oracle root
      in
      match run_with_timeout ~seconds:60.0 run with
      | None -> QCheck.Test.fail_report "parallel search hung"
      | Some par -> (
          match (seq.Bnb.best, par.Bnb.best) with
          | Some (_, cs), Some (_, cp) ->
              if Float.abs (cs -. cp) > 1e-12 then
                QCheck.Test.fail_reportf
                  "sequential incumbent %.17g <> parallel %.17g" cs cp
              else begin
                let gap r best_cost = best_cost -. r.Bnb.bound in
                let gs = gap seq cs and gp = gap par cp in
                if Float.abs (gs -. gp) > 1e-9 *. (1.0 +. Float.abs gs) then
                  QCheck.Test.fail_reportf
                    "certified gaps diverge: sequential %.17g parallel %.17g" gs
                    gp
                else true
              end
          | _ -> QCheck.Test.fail_report "missing incumbent"))

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      prop_faulty_search_terminates;
      prop_fault_free_wrap_is_identity;
      prop_resume_reaches_same_incumbent;
      prop_parallel_agrees_with_sequential;
      prop_parallel_resume_matches_sequential;
      prop_parallel_gap_agrees_with_sequential;
      prop_ldafp_warm_cold_agree;
    ]

let () =
  Alcotest.run "fault"
    [
      ( "classify",
        [ Alcotest.test_case "containable" `Quick test_containable ] );
      ( "containment",
        [
          Alcotest.test_case "exception degraded, optimum kept" `Quick
            test_contained_exception_still_optimal;
          Alcotest.test_case "NaN bound degraded" `Quick
            test_nan_bound_degraded;
          Alcotest.test_case "drop policy counts" `Quick test_drop_counts;
          Alcotest.test_case "drop caps the bound" `Quick test_drop_caps_bound;
          Alcotest.test_case "branch failure contained" `Quick
            test_branch_failure_contained;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "trusting misprunes, certified does not" `Quick
            test_corrupt_primal_trusting_misprunes;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "poisoned region, domains=4, exception" `Quick
            test_deadlock_regression_exception;
          Alcotest.test_case "poisoned region, domains=4, NaN bound" `Quick
            test_deadlock_regression_nan;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_checkpoint_rejects_fingerprint_mismatch;
          Alcotest.test_case "garbage file" `Quick
            test_checkpoint_rejects_garbage;
          Alcotest.test_case "truncated payload" `Quick
            test_checkpoint_rejects_truncation;
          Alcotest.test_case "version mismatch" `Quick
            test_checkpoint_rejects_old_version;
          Alcotest.test_case "every byte flip raises Corrupt" `Quick
            test_checkpoint_every_byte_flip;
          Alcotest.test_case "missing file" `Quick
            test_checkpoint_missing_file;
          Alcotest.test_case "directory raises Corrupt" `Quick
            test_checkpoint_directory;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill and resume" `Quick test_bnb_kill_and_resume;
          Alcotest.test_case "resume restores every field" `Quick
            test_bnb_resume_restores_every_field;
          Alcotest.test_case "periodic snapshots" `Quick
            test_bnb_periodic_checkpoint;
          Alcotest.test_case "interrupt stops and saves" `Quick
            test_bnb_interrupt_stops_and_saves;
        ] );
      ( "ldafp",
        [
          Alcotest.test_case "kill and resume chain" `Quick
            test_ldafp_kill_and_resume;
          Alcotest.test_case "resume rejects other problem" `Quick
            test_ldafp_resume_rejects_other_problem;
          Alcotest.test_case "interval fallback conservative" `Quick
            test_ldafp_interval_fallback_is_conservative;
          Alcotest.test_case "faults invalidate warm starts" `Quick
            test_ldafp_faults_invalidate_warm_starts;
          Alcotest.test_case "warm counters survive resume" `Quick
            test_ldafp_warm_counters_survive_resume;
          Alcotest.test_case "LDA-FP cone masks survive resume" `Quick
            test_ldafp_cone_masks_survive_resume;
          Alcotest.test_case "cert counters survive resume" `Quick
            test_ldafp_cert_counters_survive_resume;
          Alcotest.test_case "certificates under faults and resume" `Quick
            test_ldafp_cert_with_faults_and_resume;
        ] );
      ("properties", qcheck_tests);
    ]
