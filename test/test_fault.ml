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
(* Fault classification                                                *)
(* ------------------------------------------------------------------ *)

let test_fault_containable () =
  checkb "ordinary exception contained" true
    (Fault.containable (Failure "solver"));
  checkb "Invalid_argument contained" true
    (Fault.containable (Invalid_argument "x"));
  checkb "Out_of_memory not contained" false (Fault.containable Out_of_memory);
  checkb "Stack_overflow not contained" false
    (Fault.containable Stack_overflow);
  checkb "Sys.Break not contained" false (Fault.containable Sys.Break)

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

let test_drop_policy_counts () =
  (* No retries, no fallback: the poisoned region is dropped and the
     search continues on the rest of the tree.  The optimum lives at 7,
     far from the poisoned leaf, so it must still be found. *)
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode:`Raise 7.3 in
  let faults =
    { Bnb.default_faults with
      policy = { Fault.propagate with reraise = false } }
  in
  let r = Bnb.minimize ~faults oracle (-25, 25) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "optimal integer" 7 x
  | None -> Alcotest.fail "no incumbent");
  checki "dropped once" 1 r.Bnb.stats.Bnb.dropped_regions;
  checki "one failure" 1 r.Bnb.stats.Bnb.oracle_failures

let test_propagate_policy_reraises () =
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode:`Raise 7.3 in
  let faults = { Bnb.default_faults with policy = Fault.propagate } in
  checkb "exception escapes under propagate" true
    (match Bnb.minimize ~faults oracle (-25, 25) with
    | exception Failure _ -> true
    | _ -> false)

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
(* Retry backoff and the per-expansion budget                          *)
(* ------------------------------------------------------------------ *)

let test_backoff_delay () =
  let p =
    { Fault.default_policy with backoff_base = 1e-3; backoff_cap = 4e-3 }
  in
  checkf 1e-15 "attempt 0 never sleeps" 0.0 (Fault.backoff_delay p ~attempt:0);
  checkf 1e-15 "attempt 1 = base" 1e-3 (Fault.backoff_delay p ~attempt:1);
  checkf 1e-15 "attempt 2 doubles" 2e-3 (Fault.backoff_delay p ~attempt:2);
  checkf 1e-15 "attempt 3 doubles again" 4e-3
    (Fault.backoff_delay p ~attempt:3);
  checkf 1e-15 "attempt 4 capped" 4e-3 (Fault.backoff_delay p ~attempt:4);
  checkf 1e-15 "zero base disables" 0.0
    (Fault.backoff_delay { p with Fault.backoff_base = 0.0 } ~attempt:3)

let test_retry_backoff_charged () =
  (* One poisoned region, one retry: the search must record the sleep it
     paid before that retry. *)
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode:`Raise 7.3 in
  let faults =
    { retrying_faults with
      policy =
        { Fault.default_policy with backoff_base = 2e-3; backoff_cap = 2e-3 }
    }
  in
  let r = Bnb.minimize ~faults oracle (-25, 25) in
  checki "retried once" 1 r.Bnb.stats.Bnb.retries;
  checkb "backoff time recorded" true
    (r.Bnb.stats.Bnb.retry_backoff_seconds >= 2e-3)

let test_retry_budget_exhausted () =
  (* A region that fails every jitter level, with retries allowed per
     failure but only [retry_budget] across its whole expansion: the
     budget must stop the retry ladder early and be counted once. *)
  let oracle = poisoned_oracle ~poison:(1, 13) ~mode:`Raise 7.3 in
  let faults =
    { retrying_faults with
      policy =
        { Fault.default_policy with
          max_retries = 5; retry_budget = 2; backoff_base = 0.0 }
    }
  in
  let r = Bnb.minimize ~faults oracle (-25, 25) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "optimum still found" 7 x
  | None -> Alcotest.fail "no incumbent");
  checki "retries capped by the budget" 2 r.Bnb.stats.Bnb.retries;
  checki "exhaustion counted once" 1 r.Bnb.stats.Bnb.retry_budget_exhausted;
  checki "region degraded, not dropped" 1 r.Bnb.stats.Bnb.degraded_bounds

(* ------------------------------------------------------------------ *)
(* Bounded-memory frontier                                             *)
(* ------------------------------------------------------------------ *)

(* A deliberately unprunable oracle: trivial lower bound, candidates
   only at singletons — nothing prunes, so the frontier grows with the
   tree and a memory cap must shed.  A shed region may well hold the
   optimum; the promise under test is that the reported bound stays
   below it regardless. *)
let unprunable_oracle target =
  let cost x = (x -. target) ** 2.0 in
  {
    Bnb.bound =
      (fun (lo, hi) ->
        if lo > hi then None
        else
          Some
            {
              Bnb.lower = 0.0;
              candidate =
                (if lo = hi then Some (lo, cost (float_of_int lo)) else None);
            });
    branch =
      (fun (lo, hi) ->
        if lo >= hi then []
        else
          let mid = (lo + hi) asr 1 in
          [ (lo, mid); (mid + 1, hi) ]);
  }

let test_frontier_shed_stays_sound () =
  let target = 7.3 in
  let params =
    { Bnb.default_params with
      max_frontier = 8; rel_gap = 0.0; abs_gap = 0.0 }
  in
  let r = Bnb.minimize ~params (unprunable_oracle target) (-25, 25) in
  checkb "shedding occurred" true (r.Bnb.stats.Bnb.frontier_shed > 0);
  (* Anytime soundness: dropped nodes were never explored, so the
     reported bound must fold their best key in and stay below the true
     optimal cost — and below whatever incumbent was kept. *)
  checkb "bound below the true optimum" true
    (r.Bnb.bound <= cost_of target 7 +. 1e-12);
  (match r.Bnb.best with
  | Some (_, c) ->
      checkb "bound below the incumbent" true (r.Bnb.bound <= c +. 1e-12)
  | None -> Alcotest.fail "no incumbent");
  checkb "shedding does not invalidate certification" true
    r.Bnb.stats.Bnb.certified_sound;
  (* No cap: nothing sheds, and the exact search closes as usual. *)
  let r0 =
    Bnb.minimize
      ~params:{ params with Bnb.max_frontier = 0 }
      (unprunable_oracle target) (-25, 25)
  in
  checki "uncapped search sheds nothing" 0 r0.Bnb.stats.Bnb.frontier_shed;
  (match r0.Bnb.best with
  | Some (x, _) -> checki "uncapped search finds the optimum" 7 x
  | None -> Alcotest.fail "uncapped search found no incumbent")

let test_frontier_shed_parallel_sound () =
  let target = 7.3 in
  let params =
    { Bnb.default_params with
      max_frontier = 8; domains = 4; rel_gap = 0.0; abs_gap = 0.0 }
  in
  match
    run_with_timeout ~seconds:30.0 (fun () ->
        Bnb.minimize ~params (unprunable_oracle target) (-25, 25))
  with
  | None -> Alcotest.fail "capped parallel search hung"
  | Some r ->
      checkb "bound below the true optimum" true
        (r.Bnb.bound <= cost_of target 7 +. 1e-12);
      (match r.Bnb.best with
      | Some (_, c) ->
          checkb "bound below the incumbent" true (r.Bnb.bound <= c +. 1e-12)
      | None -> Alcotest.fail "no incumbent")

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
            raise (Fault.Certificate_error "primal-dual slack excessive")
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

let sample_state () =
  {
    Checkpoint.fingerprint = "fp-test";
    frontier = [| (1.5, (0, 10)); (2.5, (11, 20)) |];
    incumbent = Some (7, 0.09);
    nodes_explored = 12;
    counters = [ ("oracle_failures", 3); ("retries", 1) ];
    elapsed = 0.25;
  }

let test_checkpoint_roundtrip () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let state = sample_state () in
      Checkpoint.save ~path state;
      let loaded : (int * int, int) Checkpoint.state =
        Checkpoint.load ~expect_fingerprint:"fp-test" ~path ()
      in
      checki "nodes" 12 loaded.Checkpoint.nodes_explored;
      checkf 1e-12 "elapsed" 0.25 loaded.Checkpoint.elapsed;
      checki "frontier size" 2 (Array.length loaded.Checkpoint.frontier);
      checkb "frontier entry" true (loaded.Checkpoint.frontier.(0) = (1.5, (0, 10)));
      checkb "incumbent" true (loaded.Checkpoint.incumbent = Some (7, 0.09));
      checki "named counter" 3 (Checkpoint.counter loaded "oracle_failures");
      checki "absent counter is 0" 0 (Checkpoint.counter loaded "no_such"))

let test_checkpoint_rejects_fingerprint_mismatch () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save ~path (sample_state ());
      checkb "mismatched fingerprint rejected" true
        (match
           (Checkpoint.load ~expect_fingerprint:"other-problem" ~path ()
             : (int * int, int) Checkpoint.state)
         with
        | exception Checkpoint.Corrupt _ -> true
        | _ -> false))

let test_checkpoint_rejects_garbage () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "not a checkpoint at all\n";
      close_out oc;
      checkb "garbage rejected" true
        (match
           (Checkpoint.load ~path () : (int * int, int) Checkpoint.state)
         with
        | exception Checkpoint.Corrupt _ -> true
        | _ -> false))

let test_checkpoint_rejects_truncation () =
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save ~path (sample_state ());
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let prefix = really_input_string ic (len - 7) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc prefix;
      close_out oc;
      checkb "truncated payload rejected" true
        (match
           (Checkpoint.load ~expect_fingerprint:"fp-test" ~path ()
             : (int * int, int) Checkpoint.state)
         with
        | exception Checkpoint.Corrupt _ -> true
        | _ -> false))

let test_checkpoint_missing_file () =
  checkb "missing file raises Corrupt" true
    (match
       (Checkpoint.load ~path:"/nonexistent/dir/ck.bnb" ()
         : (int * int, int) Checkpoint.state)
     with
    | exception Checkpoint.Corrupt _ -> true
    | _ -> false)

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
      let state : ((int * int), int) Checkpoint.state =
        Checkpoint.load ~expect_fingerprint:"toy-713.3" ~path ()
      in
      checki "nodes restored" kill_at state.Checkpoint.nodes_explored;
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

let test_bnb_periodic_checkpoint () =
  (* [every_nodes = 2] on a weak-bound search: the file must exist while
     the search is still mid-tree (verified post-hoc by stopping on a
     budget larger than the cadence). *)
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let r =
        Bnb.minimize
          ~params:{ Bnb.default_params with max_nodes = 9; rel_gap = 0.0;
                    abs_gap = 0.0 }
          ~checkpointing:
            (Bnb.checkpointing ~every_nodes:2 ~save_on_stop:false
               ~fingerprint:"periodic" path)
          (integer_quadratic_oracle 3.3)
          (-25, 25)
      in
      checkb "periodic snapshot written" true (Sys.file_exists path);
      let state : ((int * int), int) Checkpoint.state =
        Checkpoint.load ~expect_fingerprint:"periodic" ~path ()
      in
      checkb "snapshot from mid-search" true
        (state.Checkpoint.nodes_explored <= r.Bnb.nodes_explored);
      checkb "snapshot cadence respected" true
        (state.Checkpoint.nodes_explored mod 2 = 0))

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

let test_ldafp_kill_and_resume () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
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
              train_in_slices (budget + 6) (guard - 1)
          | Some o -> o
      in
      let resumed = train_in_slices 6 2000 in
      checkb "resumed run completed" true
        (resumed.Lda_fp.diagnostics.Lda_fp.stop_reason
         = Optim.Bnb.Proved_optimal);
      checkf 1e-12 "same incumbent cost across kill/resume chain"
        uninterrupted.Lda_fp.cost resumed.Lda_fp.cost)

let test_ldafp_resume_rejects_other_problem () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
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
    let config =
      {
        (exact_lda_config 400) with
        Lda_fp.warm_start;
        inject_faults =
          Some
            (Fault_inject.config ~seed:11 ~bound_exn_prob:0.10
               ~bound_nan_prob:0.10 ());
      }
    in
    Lda_fp.solve ~config pb
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
   survive a checkpoint/resume chain (old snapshots without the fields
   restore them as zero; new ones carry them forward). *)
let test_ldafp_warm_counters_survive_resume () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
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

(* A checkpoint written before the oracle-counter schema existed lacks
   the warm/miss keys; resuming through one restarts those counters from
   zero mid-chain.  The search must say so — the sticky [counters_reset]
   marker — instead of silently reporting a partial warm_hit_rate as if
   it covered the whole run. *)
let test_ldafp_counters_reset_marker () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let config budget =
        {
          (exact_lda_config budget) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path);
        }
      in
      let slice budget =
        match Lda_fp.solve ~config:(config budget) pb with
        | Some o -> o
        | None -> Alcotest.fail "slice found no incumbent"
      in
      let first = slice 6 in
      checkb "fresh run is not flagged" false
        first.Lda_fp.diagnostics.Lda_fp.search.Bnb.counters_reset;
      checkb "first slice stopped on the node budget" true
        (first.Lda_fp.diagnostics.Lda_fp.stop_reason = Bnb.Node_budget);
      (* Rewrite the snapshot as a pre-schema checkpoint looked: same
         frontier and incumbent, warm/miss accounting keys absent. *)
      let st = Checkpoint.load ~path () in
      Checkpoint.save ~path
        {
          st with
          Checkpoint.counters =
            List.filter
              (fun (k, _) -> not (List.mem k Bnb.warm_counter_keys))
              st.Checkpoint.counters;
        };
      let second = slice 12 in
      checkb "resume through a pre-schema snapshot raises the marker" true
        second.Lda_fp.diagnostics.Lda_fp.search.Bnb.counters_reset;
      checkb "second slice stopped on the node budget" true
        (second.Lda_fp.diagnostics.Lda_fp.stop_reason = Bnb.Node_budget);
      (* Sticky: the marker survives later snapshots of the chain even
         though those record every key. *)
      let third = slice 4000 in
      checkb "marker survives later, fully-keyed snapshots" true
        third.Lda_fp.diagnostics.Lda_fp.search.Bnb.counters_reset)

(* Certificate counters (and the soundness flag) ride the same
   checkpoint schema: a kill/resume chain must report the same
   cumulative certificate accounting as the uninterrupted run, still
   marked sound. *)
let test_ldafp_cert_counters_survive_resume () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
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

(* A snapshot written before the certificate schema (fingerprint without
   [+cert1]) is rejected outright by the fingerprint check; the subtler
   case is a same-schema snapshot whose cert counters were stripped —
   resuming through it must raise the sticky [counters_reset] marker AND
   clear [certified_sound]: some pruning decisions' certification status
   is unknown, so the whole run can no longer claim soundness. *)
let test_ldafp_cert_schema_reset_marker () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let path = temp_checkpoint () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let config budget =
        {
          (exact_lda_config budget) with
          Lda_fp.checkpoint = Some (Lda_fp.checkpoint_spec ~resume:true path);
        }
      in
      let slice budget =
        match Lda_fp.solve ~config:(config budget) pb with
        | Some o -> o
        | None -> Alcotest.fail "slice found no incumbent"
      in
      let first = slice 6 in
      checkb "fresh run is certified sound" true
        first.Lda_fp.diagnostics.Lda_fp.search.Bnb.certified_sound;
      let st = Checkpoint.load ~path () in
      Checkpoint.save ~path
        {
          st with
          Checkpoint.counters =
            List.filter
              (fun (k, _) -> not (List.mem k Bnb.cert_counter_keys))
              st.Checkpoint.counters;
        };
      let second = slice 12 in
      checkb "stripped cert keys raise the reset marker" true
        second.Lda_fp.diagnostics.Lda_fp.search.Bnb.counters_reset;
      checkb "and clear certified_sound" false
        second.Lda_fp.diagnostics.Lda_fp.search.Bnb.certified_sound;
      (* Sticky through the rest of the chain, even though every later
         snapshot carries the full schema. *)
      let third = slice 4000 in
      checkb "unsoundness survives later snapshots" false
        third.Lda_fp.diagnostics.Lda_fp.search.Bnb.certified_sound)

(* The --no-certify escape hatch: same incumbent on a healthy solver,
   but the run is flagged as trusting. *)
let test_ldafp_no_certify_flags_unsound () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
  let solve certify =
    match
      Lda_fp.solve ~config:{ (exact_lda_config 4000) with Lda_fp.certify } pb
    with
    | Some o -> o
    | None -> Alcotest.fail "no solution"
  in
  let certified = solve true and trusting = solve false in
  checkf 1e-12 "same incumbent from a healthy solver"
    certified.Lda_fp.cost trusting.Lda_fp.cost;
  let cs = certified.Lda_fp.diagnostics.Lda_fp.search in
  let ts = trusting.Lda_fp.diagnostics.Lda_fp.search in
  checkb "certified run verifies bounds" true (cs.Bnb.cert_verified > 0);
  checkb "certified run is sound" true cs.Bnb.certified_sound;
  checki "trusting run verifies nothing" 0 ts.Bnb.cert_verified;
  checkb "trusting run is flagged" false ts.Bnb.certified_sound

(* Certificates under injected faults and a kill/resume chain: whatever
   the injection does, a run that ends with [certified_sound] must have
   certified (or certifiably degraded) every pruning decision, and the
   incumbent must match the fault-free reference. *)
let test_ldafp_cert_with_faults_and_resume () =
  let open Ldafp_core in
  let fmt = Fixedpoint.Qformat.make ~k:2 ~f:3 in
  let pb = Ldafp_problem.build ~fmt (small_scatter ()) in
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
          inject_faults =
            Some
              (Fault_inject.config ~seed:23 ~bound_exn_prob:0.08
                 ~bound_nan_prob:0.08 ());
        }
      in
      let rec train_in_slices budget guard =
        if guard = 0 then Alcotest.fail "resume loop did not converge"
        else
          match Lda_fp.solve ~config:(faulty budget) pb with
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
   domain counts (work stealing migrates the inherited points), under
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
          inject_faults =
            (* injection seeds are per-run, so a killed/resumed chain
               would see a different fault sequence than the reference —
               keep the two dimensions separate *)
            (if inject && not resume then
               Some
                 (Fault_inject.config ~seed ~bound_exn_prob:0.05
                    ~bound_nan_prob:0.05 ())
             else None);
        }
      in
      let cold = Lda_fp.solve ~config:(base false) pb in
      let warm =
        if not resume then Lda_fp.solve ~config:(base true) pb
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
  let trange = pb.Ldafp_problem.t_root in
  let lb = Ldafp_problem.interval_lower_bound pb ~wbox ~trange in
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
    let t = Ldafp_problem.t_of pb w in
    if Optim.Interval.mem trange t && t <> 0.0 then
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
              let state : ((int * int), int) Checkpoint.state =
                Checkpoint.load ~expect_fingerprint:"prop" ~path ()
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
(* Work-stealing agreement properties                                  *)
(* ------------------------------------------------------------------ *)

(* Retries consult the clean oracle, so every injected bound fault is
   recoverable: no region is ever degraded or dropped, and the search —
   sequential or stolen across any number of domains — must land on the
   fault-free incumbent.  Branch faults are deliberately excluded here:
   a failed branch is treated as atomic (its children are
   unrecoverable), which legitimately changes the reachable tree. *)
let recovering_faults (clean : (int * int, int) Bnb.oracle) =
  {
    Bnb.default_faults with
    retry_bound = Some (fun ~attempt:_ region -> clean.Bnb.bound region);
    fallback_bound = Some weak_fallback;
  }

let prop_stealing_agrees_with_sequential =
  QCheck.Test.make
    ~name:"work-stealing matches the sequential incumbent under injection"
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
      | None -> QCheck.Test.fail_report "stealing search did not terminate"
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
                    "sequential %.17g (at %d) <> stolen %.17g (at %d) with %d \
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
                      (Bnb.checkpointing ~fingerprint:"steal-resume" path)
                    (integer_quadratic_oracle target)
                    (-100, 100)
                in
                if killed.Bnb.stop_reason = Bnb.Node_budget then begin
                  (* The snapshot was taken across all shards mid-steal;
                     resuming it — still on several domains — must
                     complete to the uninterrupted incumbent. *)
                  let state : ((int * int), int) Checkpoint.state =
                    Checkpoint.load ~expect_fingerprint:"steal-resume" ~path ()
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

(* Eager frontier seeding must be invisible to the search's conclusion:
   the seeded parallel run lands on the one-domain incumbent with the
   same certified gap — under injected bound faults, and through a kill
   at a node budget that lands inside the seed phase itself (seeding
   grows 4 × domains regions, so budgets of a few nodes trip there; the
   snapshot of the half-grown frontier must resume to the same answer)
   or after it.
   Injection and kill/resume stay separate dimensions for the same
   reason as in [prop_ldafp_warm_cold_agree]: injection seeds are
   per-run. *)
let prop_seeded_parallel_agrees_with_sequential =
  QCheck.Test.make
    ~name:"seeded parallel search matches sequential incumbent and gap"
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
                    (Bnb.checkpointing ~fingerprint:"seed-resume" path)
                  clean root
              in
              if killed.Bnb.stop_reason = Bnb.Node_budget then begin
                let state : ((int * int), int) Checkpoint.state =
                  Checkpoint.load ~expect_fingerprint:"seed-resume" ~path ()
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
      | None -> QCheck.Test.fail_report "seeded parallel search hung"
      | Some par -> (
          match (seq.Bnb.best, par.Bnb.best) with
          | Some (_, cs), Some (_, cp) ->
              if Float.abs (cs -. cp) > 1e-12 then
                QCheck.Test.fail_reportf
                  "sequential incumbent %.17g <> seeded %.17g" cs cp
              else begin
                let gap r best_cost = best_cost -. r.Bnb.bound in
                let gs = gap seq cs and gp = gap par cp in
                if Float.abs (gs -. gp) > 1e-9 *. (1.0 +. Float.abs gs) then
                  QCheck.Test.fail_reportf
                    "certified gaps diverge: sequential %.17g seeded %.17g" gs
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
      prop_stealing_agrees_with_sequential;
      prop_parallel_resume_matches_sequential;
      prop_seeded_parallel_agrees_with_sequential;
      prop_ldafp_warm_cold_agree;
    ]

let () =
  Alcotest.run "fault"
    [
      ( "classify",
        [ Alcotest.test_case "containable" `Quick test_fault_containable ] );
      ( "containment",
        [
          Alcotest.test_case "exception degraded, optimum kept" `Quick
            test_contained_exception_still_optimal;
          Alcotest.test_case "NaN bound degraded" `Quick
            test_nan_bound_degraded;
          Alcotest.test_case "drop policy counts" `Quick
            test_drop_policy_counts;
          Alcotest.test_case "propagate policy reraises" `Quick
            test_propagate_policy_reraises;
          Alcotest.test_case "branch failure contained" `Quick
            test_branch_failure_contained;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_delay;
          Alcotest.test_case "backoff time charged" `Quick
            test_retry_backoff_charged;
          Alcotest.test_case "per-expansion budget" `Quick
            test_retry_budget_exhausted;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "shed stays sound" `Quick
            test_frontier_shed_stays_sound;
          Alcotest.test_case "shed stays sound, domains=4" `Quick
            test_frontier_shed_parallel_sound;
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
          Alcotest.test_case "missing file" `Quick
            test_checkpoint_missing_file;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill and resume" `Quick test_bnb_kill_and_resume;
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
          Alcotest.test_case "pre-schema snapshot flags counters_reset" `Quick
            test_ldafp_counters_reset_marker;
          Alcotest.test_case "cert counters survive resume" `Quick
            test_ldafp_cert_counters_survive_resume;
          Alcotest.test_case "stripped cert keys clear certified_sound"
            `Quick test_ldafp_cert_schema_reset_marker;
          Alcotest.test_case "no-certify flags the run as trusting" `Quick
            test_ldafp_no_certify_flags_unsound;
          Alcotest.test_case "certificates under faults and resume" `Quick
            test_ldafp_cert_with_faults_and_resume;
        ] );
      ("properties", qcheck_tests);
    ]
