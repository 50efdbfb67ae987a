type 'sol bound_info = {
  lower : float;
  candidate : ('sol * float) option;
}

type ('region, 'sol) oracle = {
  bound : 'region -> 'sol bound_info option;
  branch : 'region -> 'region list;
}

type params = {
  max_nodes : int;
  rel_gap : float;
  abs_gap : float;
  time_limit : float option;
  log_every : int;
  domains : int;
  max_frontier : int;
}

let default_params =
  { max_nodes = 100_000; rel_gap = 1e-6; abs_gap = 1e-12; time_limit = None;
    log_every = 0; domains = 1; max_frontier = 0 }

type ('region, 'sol) faults = {
  policy : Fault.policy;
  retry_bound : (attempt:int -> 'region -> 'sol bound_info option) option;
  fallback_bound : ('region -> float) option;
}

let default_faults =
  { policy = Fault.default_policy; retry_bound = None; fallback_bound = None }

type stop_reason =
  | Proved_optimal
  | Gap_reached
  | Node_budget
  | Time_budget
  | Interrupted

let stop_reason_name = function
  | Proved_optimal -> "proved_optimal"
  | Gap_reached -> "gap_reached"
  | Node_budget -> "node_budget"
  | Time_budget -> "time_budget"
  | Interrupted -> "interrupted"

type stats = {
  infeasible_regions : int;
  bound_pruned : int;
  stale_pops : int;
  incumbent_updates : int;
  children_generated : int;
  domains_used : int;
  idle_wakeups : int;
  domain_first_node_seconds : float array;
  oracle_failures : int;
  retries : int;
  degraded_bounds : int;
  dropped_regions : int;
  warm_start_hits : int;
  phase1_skipped : int;
  warm_pull_ins : int;
  warm_newton_corrections : int;
  warm_miss_no_parent : int;
  warm_miss_not_interior : int;
  warm_miss_fault_cleared : int;
  cert_verified : int;
  cert_repaired : int;
  cert_fallbacks : int;
  certified_sound : bool;
  frontier_shed : int;
  retry_budget_exhausted : int;
  retry_backoff_seconds : float;
  oracle_seconds : float;
  domain_oracle_seconds : float array;
  wall_seconds : float;
}

(* Every stats field, flat, in declaration order — the shape the bench
   records and the run ledger persist.  Keep in lockstep with [stats]:
   a new field that never reaches the ledger cannot be regression-
   diffed. *)
let stats_to_json (s : stats) =
  let open Obs.Json in
  let floats = List.map (fun v -> Float v) in
  Obj
    [
      ("infeasible_regions", Int s.infeasible_regions);
      ("bound_pruned", Int s.bound_pruned);
      ("stale_pops", Int s.stale_pops);
      ("incumbent_updates", Int s.incumbent_updates);
      ("children_generated", Int s.children_generated);
      ("domains_used", Int s.domains_used);
      ("idle_wakeups", Int s.idle_wakeups);
      ( "domain_first_node_seconds",
        List (floats (Array.to_list s.domain_first_node_seconds)) );
      ("oracle_failures", Int s.oracle_failures);
      ("retries", Int s.retries);
      ("degraded_bounds", Int s.degraded_bounds);
      ("dropped_regions", Int s.dropped_regions);
      ("warm_start_hits", Int s.warm_start_hits);
      ("phase1_skipped", Int s.phase1_skipped);
      ("warm_pull_ins", Int s.warm_pull_ins);
      ("warm_newton_corrections", Int s.warm_newton_corrections);
      ("warm_miss_no_parent", Int s.warm_miss_no_parent);
      ("warm_miss_not_interior", Int s.warm_miss_not_interior);
      ("warm_miss_fault_cleared", Int s.warm_miss_fault_cleared);
      ("cert_verified", Int s.cert_verified);
      ("cert_repaired", Int s.cert_repaired);
      ("cert_fallbacks", Int s.cert_fallbacks);
      ("certified_sound", Bool s.certified_sound);
      ("frontier_shed", Int s.frontier_shed);
      ("retry_budget_exhausted", Int s.retry_budget_exhausted);
      ("retry_backoff_seconds", Float s.retry_backoff_seconds);
      ("oracle_seconds", Float s.oracle_seconds);
      ( "domain_oracle_seconds",
        List (floats (Array.to_list s.domain_oracle_seconds)) );
      ("wall_seconds", Float s.wall_seconds);
    ]

type oracle_counters = {
  warm_hits : int Atomic.t;
  phase1_skips : int Atomic.t;
  pull_ins : int Atomic.t;
  corrections : int Atomic.t;
  miss_no_parent : int Atomic.t;
  miss_not_interior : int Atomic.t;
  miss_fault_cleared : int Atomic.t;
  oracle_time_us : int Atomic.t;
  cert_verified : int Atomic.t;
  cert_repaired : int Atomic.t;
  cert_fallbacks : int Atomic.t;
  certified_sound : bool Atomic.t;
      (* True while every pruning decision of the search (including any
         resumed-from prefix) rested on a verified dual certificate or
         a certified interval fallback.  Cleared — never re-set — when
         the oracle runs with certification disabled, or on resuming a
         snapshot of a search that was not sound. *)
}

let oracle_counters () =
  {
    warm_hits = Atomic.make 0;
    phase1_skips = Atomic.make 0;
    pull_ins = Atomic.make 0;
    corrections = Atomic.make 0;
    miss_no_parent = Atomic.make 0;
    miss_not_interior = Atomic.make 0;
    miss_fault_cleared = Atomic.make 0;
    oracle_time_us = Atomic.make 0;
    cert_verified = Atomic.make 0;
    cert_repaired = Atomic.make 0;
    cert_fallbacks = Atomic.make 0;
    certified_sound = Atomic.make true;
  }

let count_warm_start_hit oc = Atomic.incr oc.warm_hits
let count_phase1_skipped oc = Atomic.incr oc.phase1_skips
let count_warm_pull_in oc = Atomic.incr oc.pull_ins
let count_warm_newton_correction oc = Atomic.incr oc.corrections
let count_warm_miss_no_parent oc = Atomic.incr oc.miss_no_parent
let count_warm_miss_not_interior oc = Atomic.incr oc.miss_not_interior
let count_warm_miss_fault_cleared oc = Atomic.incr oc.miss_fault_cleared
let count_cert_verified oc = Atomic.incr oc.cert_verified
let count_cert_repaired oc = Atomic.incr oc.cert_repaired
let mark_uncertified oc = Atomic.set oc.certified_sound false

type 'sol result = {
  best : ('sol * float) option;
  bound : float;
  gap : float;
  nodes_explored : int;
  stop_reason : stop_reason;
  stats : stats;
}

type checkpointing = {
  path : string;
  every_nodes : int;
  fingerprint : string;
  save_on_stop : bool;
}

let checkpointing ?(every_nodes = 0) ?(save_on_stop = true) ~fingerprint path =
  { path; every_nodes; fingerprint; save_on_stop }

(* The one checkpoint schema.  Any change here (or to a caller's region
   or solution type) bumps the version line in Checkpoint. *)
type ('region, 'sol) snapshot = {
  frontier : (float * 'region) array;
  incumbent : ('sol * float) option;
  nodes_explored : int;
  elapsed : float;
  infeasible_regions : int;
  bound_pruned : int;
  stale_pops : int;
  incumbent_updates : int;
  children_generated : int;
  idle_wakeups : int;
  oracle_failures : int;
  retries : int;
  degraded_bounds : int;
  dropped_regions : int;
  retry_budget_exhausted : int;
  retry_backoff_ns : int;
  warm_start_hits : int;
  phase1_skipped : int;
  warm_pull_ins : int;
  warm_newton_corrections : int;
  warm_miss_no_parent : int;
  warm_miss_not_interior : int;
  warm_miss_fault_cleared : int;
  oracle_time_us : int;
  cert_verified : int;
  cert_repaired : int;
  cert_fallbacks : int;
  certified_sound : bool;
  frontier_shed : int;
  shed_bound : float;
}

let src = Logs.Src.create "ldafp.bnb" ~doc:"branch-and-bound driver"

module Log = (val Logs.src_log src : Logs.LOG)

(* Budgets are wall-clock: [Sys.time] is process CPU time, which both
   overshoots wall budgets on a busy machine and inflates ~N× once N
   domains burn CPU concurrently.  Monotonic rather than
   [Unix.gettimeofday]: an NTP step mid-search would otherwise stretch
   or shrink the time budget (and could make [elapsed] negative). *)
let now () = Obs.Clock.now ()

(* Search probes, declared at module init.  Glossary:
   doc/observability.mld. *)
let p_node =
  Obs.Probe.v "bnb.node"
    ~seconds:
      (1e-6, 100.0, "wall time to expand one B&B node (branch + bound all children)")

let p_bound =
  Obs.Probe.v "bnb.bound"
    ~seconds:(1e-7, 100.0, "wall time of one policy-guarded bound-oracle call")

let p_incumbent =
  Obs.Probe.v "bnb.incumbent" ~count:"incumbent improvements installed"

let p_retry =
  Obs.Probe.v "fault.retry" ~count:"oracle calls retried by the containment policy"

let p_degrade =
  Obs.Probe.v "fault.degrade"
    ~count:"regions degraded to the certified fallback bound"

let p_drop =
  Obs.Probe.v "fault.drop"
    ~count:"regions dropped after exhausting the containment policy"

let p_cert_fallback =
  Obs.Probe.v "fault.cert_fallback"
    ~count:"regions degraded or dropped because their dual certificate failed"

let p_frontier_shed =
  Obs.Probe.v "bnb.frontier_shed"
    ~count:"queued regions shed by the bounded-memory frontier cap"

let p_budget_exhausted = Obs.Probe.v "fault.budget_exhausted"

(* One line for [Obs.Progress]: the search-wide picture an operator
   needs to decide whether a long run is still converging. *)
let progress_line ~nodes ~elapsed ~incumbent ~bound ~oracle_us =
  let rate = if elapsed > 0.0 then float_of_int nodes /. elapsed else 0.0 in
  let gap =
    if incumbent < Float.infinity then incumbent -. bound else Float.infinity
  in
  let util us =
    100.0 *. Float.min 1.0 (float_of_int us *. 1e-6 /. Float.max 1e-9 elapsed)
  in
  let utils =
    String.concat "/"
      (Array.to_list
         (Array.map (fun us -> Printf.sprintf "%.0f%%" (util us)) oracle_us))
  in
  Printf.sprintf
    "[bnb] %6.1fs  nodes %d (%.0f/s)  incumbent %.6g  bound %.6g  gap %.3g  \
     oracle-util %s"
    elapsed nodes rate incumbent bound gap utils

(* ------------------------------------------------------------------ *)
(* Fault containment around the oracle                                 *)
(* ------------------------------------------------------------------ *)

(* Outcome of a policy-guarded [bound] call: [Dropped_bound] means the
   policy ran out of options and abandoned the region (already counted). *)
type 'sol guarded = Bounded of 'sol bound_info option | Dropped_bound

(* A NaN candidate cost is poison: it compares false with everything, so
   it can neither be installed nor pruned coherently.  Strip it, keep the
   (valid) bound, and count the bad invocation.  [+infinity] candidates
   pass through — they are merely useless, never winning a comparison. *)
let sanitize_candidate (fc : Fault.counters) = function
  | Some { lower; candidate = Some (_, c) } when Float.is_nan c ->
      Atomic.incr fc.Fault.failures;
      Log.warn (fun m -> m "discarding candidate with NaN cost");
      Some { lower; candidate = None }
  | info -> info

(* Capped-exponential backoff before a retry, charged to the shared
   fault counters so operators can see how much wall-clock containment
   cost.  Sleeping holds no lock (the caller's in-flight slot is not a
   lock); siblings keep exploring. *)
let sleep_backoff (policy : Fault.policy) (fc : Fault.counters) ~attempt =
  let d = Fault.backoff_delay policy ~attempt in
  if d > 0.0 then begin
    Unix.sleepf d;
    ignore (Atomic.fetch_and_add fc.Fault.backoff_ns (int_of_float (d *. 1e9)))
  end

(* Per-expansion retry budget: [!budget > 0] retries remain; [0] just
   ran out (count the exhaustion once, then mark with -1). *)
let budget_allows (fc : Fault.counters) budget =
  if !budget > 0 then true
  else begin
    if !budget = 0 then begin
      budget := -1;
      Atomic.incr fc.Fault.budget_exhausted;
      Obs.Probe.hit p_budget_exhausted
    end;
    false
  end

let guarded_bound ~(faults : _ faults) ~(fc : Fault.counters)
    ~(oc : oracle_counters) ~(budget : int ref) (oracle : _ oracle) region =
  let policy = faults.policy in
  let call attempt =
    let f =
      if attempt = 0 then oracle.bound
      else
        match faults.retry_bound with
        | Some retry -> retry ~attempt
        | None -> oracle.bound
    in
    match f region with
    | Some { lower; _ }
      when Float.is_nan lower || lower = Float.neg_infinity ->
        Error (Fault.Non_finite_bound lower, None)
    | info -> Ok info
    | exception (Fault.Certificate_error msg as e) ->
        Error (Fault.Certificate_failed msg, Some e)
    | exception e when Fault.containable e ->
        Error (Fault.Oracle_raised (Printexc.to_string e), Some e)
  in
  let rec attempt k =
    match call k with
    | Ok info -> Bounded (sanitize_candidate fc info)
    | Error (failure, original) ->
        Atomic.incr fc.Fault.failures;
        Log.debug (fun m ->
            m "bound failure (attempt %d): %s" (k + 1) (Fault.describe failure));
        if k < policy.Fault.max_retries && budget_allows fc budget then begin
          decr budget;
          Atomic.incr fc.Fault.retries;
          Obs.Probe.hit_int p_retry "attempt" (k + 1);
          sleep_backoff policy fc ~attempt:(k + 1);
          attempt (k + 1)
        end
        else begin
          (* A certificate failure that ends in degrade or drop is a
             certified-fallback event: the primal solve's bound was
             discarded in favour of the (certified) interval fallback,
             or the region died.  Either way the search never pruned on
             an unverified value — count it, don't poison
             [certified_sound]. *)
          let note_cert_fallback () =
            match failure with
            | Fault.Certificate_failed _ ->
                Atomic.incr oc.cert_fallbacks;
                Obs.Probe.hit p_cert_fallback
            | _ -> ()
          in
          let degraded =
            if not policy.Fault.degrade then None
            else
              match faults.fallback_bound with
              | None -> None
              | Some fb -> (
                  match fb region with
                  | lb when Float.is_nan lb || lb = Float.neg_infinity -> None
                  | lb -> Some lb
                  | exception e when Fault.containable e ->
                      Log.warn (fun m ->
                          m "fallback bound itself failed: %s"
                            (Printexc.to_string e));
                      None)
          in
          match degraded with
          | Some lb ->
              note_cert_fallback ();
              Atomic.incr fc.Fault.degraded;
              if Obs.Probe.on () then
                Obs.Probe.hit p_degrade
                  ~args:[ ("fallback_bound", Obs.Trace.Float lb) ];
              Log.debug (fun m ->
                  m "degraded region to fallback bound %.6g after: %s" lb
                    (Fault.describe failure));
              Bounded (Some { lower = lb; candidate = None })
          | None ->
              if policy.Fault.reraise then
                match original with
                | Some e -> raise e
                | None -> failwith ("Bnb: " ^ Fault.describe failure)
              else begin
                note_cert_fallback ();
                Atomic.incr fc.Fault.dropped;
                Obs.Probe.hit_int p_drop "attempts" (k + 1);
                Log.warn (fun m ->
                    m "dropping region after %d attempt(s): %s" (k + 1)
                      (Fault.describe failure));
                Dropped_bound
              end
        end
  in
  attempt 0

(* Cumulative oracle wall-time, accumulated in integer microseconds so
   parallel workers can add without a lock (no atomic float add).
   [?cell] additionally attributes the time to the calling worker's
   private accumulator — the per-domain utilization numbers.  Timed in
   integer nanoseconds off the monotonic clock, so the measurement
   itself never allocates. *)
let timed_guarded_bound ?cell ~faults ~fc ~(oc : oracle_counters) ~budget
    oracle region =
  let t0 = Obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dns = Obs.Clock.now_ns () - t0 in
      let dus = dns / 1000 in
      ignore (Atomic.fetch_and_add oc.oracle_time_us dus);
      (match cell with Some c -> c := !c + dus | None -> ());
      Obs.Probe.span p_bound ~t0_ns:t0 ~dur_ns:dns)
    (fun () -> guarded_bound ~faults ~fc ~oc ~budget oracle region)

let guarded_branch ~(faults : _ faults) ~(fc : Fault.counters) ~budget oracle
    region =
  let policy = faults.policy in
  let rec attempt k =
    match oracle.branch region with
    | children -> children
    | exception e when Fault.containable e ->
        Atomic.incr fc.Fault.failures;
        Log.debug (fun m ->
            m "branch failure (attempt %d): %s" (k + 1) (Printexc.to_string e));
        if k < policy.Fault.max_retries && budget_allows fc budget then begin
          decr budget;
          Atomic.incr fc.Fault.retries;
          sleep_backoff policy fc ~attempt:(k + 1);
          attempt (k + 1)
        end
        else if policy.Fault.reraise then raise e
        else begin
          Atomic.incr fc.Fault.dropped;
          Log.warn (fun m ->
              m "dropping unsplittable region after %d attempt(s): %s" (k + 1)
                (Printexc.to_string e));
          []
        end
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* Checkpoint plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* The search either starts fresh from a root region (bounded first, as
   callers may rely on — e.g. to install a seeded incumbent) or restores
   a frontier whose entries were already bounded before the snapshot. *)
type ('region, 'sol) source =
  | Root of 'region
  | Restored of ('region, 'sol) snapshot

(* The snapshot a search from the root starts its totals from. *)
let empty_snapshot =
  {
    frontier = [||];
    incumbent = None;
    nodes_explored = 0;
    elapsed = 0.0;
    infeasible_regions = 0;
    bound_pruned = 0;
    stale_pops = 0;
    incumbent_updates = 0;
    children_generated = 0;
    idle_wakeups = 0;
    oracle_failures = 0;
    retries = 0;
    degraded_bounds = 0;
    dropped_regions = 0;
    retry_budget_exhausted = 0;
    retry_backoff_ns = 0;
    warm_start_hits = 0;
    phase1_skipped = 0;
    warm_pull_ins = 0;
    warm_newton_corrections = 0;
    warm_miss_no_parent = 0;
    warm_miss_not_interior = 0;
    warm_miss_fault_cleared = 0;
    oracle_time_us = 0;
    cert_verified = 0;
    cert_repaired = 0;
    cert_fallbacks = 0;
    certified_sound = true;
    frontier_shed = 0;
    shed_bound = Float.infinity;
  }

(* Copy a snapshot's atomic counters back into the live ones; the plain
   totals are read from the snapshot directly when the run merges. *)
let restore (fc : Fault.counters) (oc : oracle_counters) s =
  Atomic.set fc.Fault.failures s.oracle_failures;
  Atomic.set fc.Fault.retries s.retries;
  Atomic.set fc.Fault.degraded s.degraded_bounds;
  Atomic.set fc.Fault.dropped s.dropped_regions;
  Atomic.set fc.Fault.budget_exhausted s.retry_budget_exhausted;
  Atomic.set fc.Fault.backoff_ns s.retry_backoff_ns;
  Atomic.set oc.warm_hits s.warm_start_hits;
  Atomic.set oc.phase1_skips s.phase1_skipped;
  Atomic.set oc.pull_ins s.warm_pull_ins;
  Atomic.set oc.corrections s.warm_newton_corrections;
  Atomic.set oc.miss_no_parent s.warm_miss_no_parent;
  Atomic.set oc.miss_not_interior s.warm_miss_not_interior;
  Atomic.set oc.miss_fault_cleared s.warm_miss_fault_cleared;
  Atomic.set oc.oracle_time_us s.oracle_time_us;
  Atomic.set oc.cert_verified s.cert_verified;
  Atomic.set oc.cert_repaired s.cert_repaired;
  Atomic.set oc.cert_fallbacks s.cert_fallbacks;
  (* Only ever clear: a caller that already marked the search
     uncertified (certification disabled) must stay so. *)
  if not s.certified_sound then Atomic.set oc.certified_sound false

(* A failed snapshot must not kill a multi-hour search: log and carry on
   (the previous checkpoint, if any, is intact thanks to tmp + rename). *)
let try_save ck snapshot =
  try Checkpoint.save ~path:ck.path ~fingerprint:ck.fingerprint snapshot
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    Log.warn (fun m -> m "checkpoint save to %s failed: %s" ck.path msg)

let stop_wants_save = function
  | Node_budget | Time_budget | Interrupted -> true
  | Proved_optimal | Gap_reached -> false

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* The calling domain plus [params.domains - 1] spawned domains run the
   same worker loop over one shared best-first Frontier: take the
   minimum-bound region, expand it, push its children, release it.  With
   one domain nothing is spawned and the search is plain best-first
   order over one heap.

   Search-wide state is synchronized through atomics: the incumbent cost
   mirror (CAS-checked under a dedicated incumbent mutex on update, read
   lock-free for pruning), the explored-node counter, and a write-once
   stop reason.  Per-worker statistics live in single-writer records
   merged after the joins, so hot-path counter bumps are plain stores.

   Termination.  [drained] is exact (children are pushed before their
   parent's in-flight slot is released) and is tested before the gap so
   an exhausted search reports Proved_optimal, not Gap_reached against
   an infinite frontier bound.  The gap test reads Frontier.bound, the
   exact minimum over queued and in-flight regions.  The node budget is
   checked before claiming a node; workers already mid-expansion finish,
   so the budget can overshoot by at most [domains - 1] nodes — the
   price of not serializing the hot path.

   Fault containment: oracle calls are policy-guarded, and the in-flight
   slot of an expanding worker is released in a [Fun.protect] finaliser,
   so even a non-containable exception keeps the live count exact; the
   worker then closes the frontier (waking parked siblings) before the
   exception propagates — one poisoned region can never hang the
   search. *)
let run : type region sol.
    params:params ->
    faults:(region, sol) faults ->
    checkpointing:checkpointing option ->
    interrupt:(unit -> bool) option ->
    counters:oracle_counters option ->
    progress:Obs.Progress.t option ->
    (region, sol) oracle ->
    (region, sol) source ->
    sol result =
 fun ~params ~faults ~checkpointing ~interrupt ~counters ~progress oracle
     source ->
  let workers = max 1 params.domains in
  let frontier : region Frontier.t = Frontier.create ~workers in
  let fc = Fault.fresh_counters () in
  let oc = match counters with Some c -> c | None -> oracle_counters () in
  (* Totals carried in from the snapshot (zeros from the root); every
     merged count below is [s0] plus this run's. *)
  let s0 =
    match source with
    | Root _ -> empty_snapshot
    | Restored s ->
        restore fc oc s;
        s
  in
  (* Bounded-memory frontier residue: nodes shed by the cap are gone,
     but their best possible subtree optimum survives here and is folded
     into every bound and gap the search reports.  CAS-min so any worker
     can fold a shed bound in without a lock. *)
  let shed_bound = Atomic.make s0.shed_bound in
  let rec fold_shed_bound b =
    let cur = Atomic.get shed_bound in
    if b < cur && not (Atomic.compare_and_set shed_bound cur b) then
      fold_shed_bound b
  in
  (* The incumbent solution is guarded by its own mutex; its cost is
     mirrored in an Atomic read lock-free on every stale check, push
     decision and gap test. *)
  let inc_lock = Mutex.create () in
  let incumbent = ref s0.incumbent in
  let incumbent_cost =
    Atomic.make
      (match !incumbent with Some (_, c) -> c | None -> Float.infinity)
  in
  let nodes = Atomic.make s0.nodes_explored in
  let start_time = now () in
  let run_t0_ns = Obs.Clock.now_ns () in
  let elapsed () = s0.elapsed +. (now () -. start_time) in
  let stop : stop_reason option Atomic.t = Atomic.make None in
  (* Per-worker single-writer statistics; merged after the joins.
     Records (not an int array) so counters of one worker share no cache
     line with another's. *)
  let module W = struct
    type t = {
      mutable infeasible : int;
      mutable pruned : int;
      mutable stale : int;
      mutable updates : int;
      mutable children : int;
      mutable shed : int;
      mutable first_node_us : int;
          (* run start -> this worker's first node expansion; -1 while
             none — the time-to-first-node startup diagnostic *)
      oracle_cell : int ref;
          (* current-run oracle microseconds (oc.oracle_time_us also
             carries the pre-resume total): [domain_oracle_seconds] *)
    }
  end in
  let ws =
    Array.init workers (fun _ ->
        {
          W.infeasible = 0;
          pruned = 0;
          stale = 0;
          updates = 0;
          children = 0;
          shed = 0;
          first_node_us = -1;
          oracle_cell = ref 0;
        })
  in
  let note_first_node (w : W.t) =
    if w.W.first_node_us < 0 then
      w.W.first_node_us <- (Obs.Clock.now_ns () - run_t0_ns) / 1000
  in
  (* Reads of siblings' plain counter fields (periodic checkpoints) may
     be stale by a few increments; fine for diagnostics.  The node
     counter, fault counters and oracle counters are atomics and exact. *)
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 ws in
  (* The search-wide totals so far, around a given frontier and
     incumbent: what a checkpoint saves and what [stats] reports. *)
  let snapshot ~saved ~incumbent =
    {
      frontier = saved;
      incumbent;
      nodes_explored = Atomic.get nodes;
      elapsed = elapsed ();
      infeasible_regions = s0.infeasible_regions + sum (fun w -> w.W.infeasible);
      bound_pruned = s0.bound_pruned + sum (fun w -> w.W.pruned);
      stale_pops = s0.stale_pops + sum (fun w -> w.W.stale);
      incumbent_updates = s0.incumbent_updates + sum (fun w -> w.W.updates);
      children_generated = s0.children_generated + sum (fun w -> w.W.children);
      idle_wakeups = s0.idle_wakeups + Frontier.idle_wakeups frontier;
      oracle_failures = Atomic.get fc.Fault.failures;
      retries = Atomic.get fc.Fault.retries;
      degraded_bounds = Atomic.get fc.Fault.degraded;
      dropped_regions = Atomic.get fc.Fault.dropped;
      retry_budget_exhausted = Atomic.get fc.Fault.budget_exhausted;
      retry_backoff_ns = Atomic.get fc.Fault.backoff_ns;
      warm_start_hits = Atomic.get oc.warm_hits;
      phase1_skipped = Atomic.get oc.phase1_skips;
      warm_pull_ins = Atomic.get oc.pull_ins;
      warm_newton_corrections = Atomic.get oc.corrections;
      warm_miss_no_parent = Atomic.get oc.miss_no_parent;
      warm_miss_not_interior = Atomic.get oc.miss_not_interior;
      warm_miss_fault_cleared = Atomic.get oc.miss_fault_cleared;
      oracle_time_us = Atomic.get oc.oracle_time_us;
      cert_verified = Atomic.get oc.cert_verified;
      cert_repaired = Atomic.get oc.cert_repaired;
      cert_fallbacks = Atomic.get oc.cert_fallbacks;
      certified_sound = Atomic.get oc.certified_sound;
      frontier_shed = s0.frontier_shed + sum (fun w -> w.W.shed);
      shed_bound = Atomic.get shed_bound;
    }
  in
  let consider_candidate (w : W.t) = function
    | Some (sol, cost) when cost < Atomic.get incumbent_cost ->
        let improved =
          Mutex.lock inc_lock;
          (* Re-check under the lock: a sibling may have won the race. *)
          let better = cost < Atomic.get incumbent_cost in
          if better then begin
            incumbent := Some (sol, cost);
            Atomic.set incumbent_cost cost;
            w.W.updates <- w.W.updates + 1;
            if Obs.Probe.on () then begin
              Obs.Telemetry.set_incumbent cost;
              Obs.Probe.hit p_incumbent ~args:[ ("cost", Obs.Trace.Float cost) ]
            end
          end;
          Mutex.unlock inc_lock;
          better
        in
        (* New incumbent: drop queued regions it dominates.  Outside
           inc_lock, so the two locks never nest.  Concurrent pruning
           passes compose (both only remove dominated entries). *)
        if improved then Frontier.prune frontier (fun lb _ -> lb < cost)
    | _ -> ()
  in
  let record_bounded (w : W.t) region = function
    | None -> w.W.infeasible <- w.W.infeasible + 1
    | Some { lower; candidate } ->
        consider_candidate w candidate;
        if lower < Atomic.get incumbent_cost then
          Frontier.push frontier lower region
        else w.W.pruned <- w.W.pruned + 1
  in
  (* Checkpoint snapshot ordering: frontier FIRST, then incumbent.  The
     frontier snapshot is taken under the frontier lock, so it is
     internally consistent; reading the incumbent afterwards guarantees
     it is at least as good as whatever incumbent pruned that frontier —
     so no region dominated only by an unsaved incumbent can be missing
     its dominator on resume.  The reverse order can lose the optimum:
     incumbent read, sibling improves it and prunes, frontier saved
     without the pruned region or the new incumbent. *)
  let save ck =
    let saved = Array.of_list (Frontier.snapshot frontier) in
    let incumbent =
      Mutex.lock inc_lock;
      let i = !incumbent in
      Mutex.unlock inc_lock;
      i
    in
    try_save ck (snapshot ~saved ~incumbent)
  in
  (* The worker that claimed node [n] saves on the cadence; a save still
     in progress makes the next one skip (try_lock) rather than queue up
     behind a disk write. *)
  let save_lock = Mutex.create () in
  let maybe_periodic_save n =
    match checkpointing with
    | Some ck when ck.every_nodes > 0 && n mod ck.every_nodes = 0 ->
        if Mutex.try_lock save_lock then
          Fun.protect
            ~finally:(fun () -> Mutex.unlock save_lock)
            (fun () -> save ck)
    | _ -> ()
  in
  (* The certified frontier bound, shed subtrees included: the search
     cannot declare a tolerance it only reached by throwing work away. *)
  let frontier_bound () =
    Float.min (Frontier.bound frontier) (Atomic.get shed_bound)
  in
  let gap_ok () =
    let inc = Atomic.get incumbent_cost in
    inc < Float.infinity
    &&
    let gap = inc -. frontier_bound () in
    gap <= params.abs_gap || gap <= params.rel_gap *. Float.abs inc
  in
  let interrupted () = match interrupt with Some f -> f () | None -> false in
  (* First halt wins the stop reason; close is idempotent and wakes any
     parked sibling. *)
  let halt reason =
    ignore (Atomic.compare_and_set stop None (Some reason));
    Frontier.close frontier
  in
  let shed (w : W.t) =
    if params.max_frontier > 0 then
      match Frontier.shed frontier ~keep:params.max_frontier with
      | 0, _ -> ()
      | dropped, min_key ->
          w.W.shed <- w.W.shed + dropped;
          fold_shed_bound min_key;
          if Obs.Probe.on () then
            Obs.Probe.add p_frontier_shed dropped
              ~args:
                [
                  ("dropped", Obs.Trace.Int dropped);
                  ("shed_bound", Obs.Trace.Float (Atomic.get shed_bound));
                ]
  in
  let worker i () =
    let w = ws.(i) in
    let expand lb region =
      if lb >= Atomic.get incumbent_cost then begin
        (* Stale entry dominated by a newer incumbent. *)
        w.W.stale <- w.W.stale + 1;
        Frontier.release frontier ~worker:i
      end
      else begin
        let n = 1 + Atomic.fetch_and_add nodes 1 in
        note_first_node w;
        if params.log_every > 0 && n mod params.log_every = 0 then
          Log.debug (fun m ->
              m "node %d [w%d]: bound %.6g incumbent %.6g queued %d" n i lb
                (Atomic.get incumbent_cost)
                (Frontier.queue_length frontier));
        (* The in-flight slot is released in a finaliser: even if an
           exception escapes the guards (non-containable, or a [reraise]
           policy), the live count stays exact and the region's children
           — pushed before this finaliser runs — are never lost. *)
        let t_node = Obs.Clock.now_ns () in
        Fun.protect
          ~finally:(fun () -> Frontier.release frontier ~worker:i)
          (fun () ->
            (* One retry budget per node expansion: the branch call and
               all child bounds draw from it, capping the worst-case time
               a pathological region can soak up. *)
            let budget = ref faults.policy.Fault.retry_budget in
            let children = guarded_branch ~faults ~fc ~budget oracle region in
            w.W.children <- w.W.children + List.length children;
            (* Bound each child outside any lock and push it at once, so
               idle siblings get fresh work. *)
            List.iter
              (fun child ->
                match
                  timed_guarded_bound ~cell:w.W.oracle_cell ~faults ~fc ~oc
                    ~budget oracle child
                with
                | Dropped_bound -> ()
                | Bounded info -> record_bounded w child info)
              children;
            shed w);
        (* Exactly one node-seconds observation per explored node (the CI
           schema gate compares the histogram count against the reported
           node counts). *)
        let node_ns = Obs.Clock.now_ns () - t_node in
        if Obs.Probe.on () then begin
          Obs.Probe.span p_node ~t0_ns:t_node ~dur_ns:node_ns
            ~args:[ ("node", Obs.Trace.Int n); ("lb", Obs.Trace.Float lb) ];
          Obs.Telemetry.set_nodes (Atomic.get nodes);
          Obs.Telemetry.set_gap (Atomic.get incumbent_cost -. frontier_bound ())
        end;
        (match progress with
        | Some p when Obs.Progress.due p ->
            Obs.Progress.emit p
              (progress_line ~nodes:(Atomic.get nodes) ~elapsed:(elapsed ())
                 ~incumbent:(Atomic.get incumbent_cost)
                 ~bound:(frontier_bound ())
                 ~oracle_us:(Array.map (fun w -> !(w.W.oracle_cell)) ws))
        | _ -> ());
        maybe_periodic_save n
      end
    in
    let rec loop () =
      if Frontier.is_closed frontier then ()
      else if Frontier.drained frontier then halt Proved_optimal
      else if gap_ok () then halt Gap_reached
      else if Atomic.get nodes >= params.max_nodes then halt Node_budget
      else if
        match params.time_limit with
        | Some limit -> elapsed () > limit
        | None -> false
      then halt Time_budget
      else if interrupted () then halt Interrupted
      else
        match Frontier.take frontier ~worker:i with
        | Some (lb, region) ->
            expand lb region;
            loop ()
        | None -> (
            (* Nothing queued: park until a sibling pushes, the search
               drains, or someone halts. *)
            match Frontier.park frontier ~worker:i with
            | `Drained -> halt Proved_optimal
            | `Closed -> ()
            | `Work -> loop ())
    in
    (* An oracle exception must not leave sibling domains parked: close
       the frontier, then re-raise (Domain.join propagates). *)
    try loop ()
    with e ->
      Frontier.close frontier;
      raise e
  in
  (match source with
  | Root root -> (
      (* The root is bounded on the calling domain before anything else
         (callers may rely on the root bound running first, e.g. to
         install a seeded incumbent). *)
      match
        timed_guarded_bound ~cell:ws.(0).W.oracle_cell ~faults ~fc ~oc
          ~budget:(ref faults.policy.Fault.retry_budget) oracle root
      with
      | Dropped_bound -> ()
      | Bounded info -> record_bounded ws.(0) root info)
  | Restored s ->
      Array.iter (fun (lb, region) -> Frontier.push frontier lb region) s.frontier;
      shed ws.(0));
  Obs.Telemetry.set_phase "searching";
  let spawned =
    Array.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  worker 0 ();
  Array.iter Domain.join spawned;
  let stop_reason =
    match Atomic.get stop with Some r -> r | None -> Proved_optimal
  in
  Obs.Telemetry.set_nodes (Atomic.get nodes);
  Obs.Telemetry.set_phase ("done:" ^ stop_reason_name stop_reason);
  (match checkpointing with
  | Some ck when ck.save_on_stop && stop_wants_save stop_reason ->
      (* All workers have joined: nothing is in flight, the heap is the
         complete frontier. *)
      save ck
  | _ -> ());
  let bound =
    let fb = Frontier.bound frontier in
    let b =
      if Frontier.drained frontier then
        (* Everything explored or pruned: the incumbent is optimal —
           unless subtrees were shed, whose residue caps the claim. *)
        Float.min (Atomic.get incumbent_cost) fb
      else fb
    in
    Float.min b (Atomic.get shed_bound)
  in
  let incumbent_cost = Atomic.get incumbent_cost in
  let t = snapshot ~saved:[||] ~incumbent:None in
  {
    best = !incumbent;
    bound;
    gap =
      (if incumbent_cost = Float.infinity then Float.infinity
       else incumbent_cost -. bound);
    nodes_explored = t.nodes_explored;
    stop_reason;
    stats =
      {
        infeasible_regions = t.infeasible_regions;
        bound_pruned = t.bound_pruned;
        stale_pops = t.stale_pops;
        incumbent_updates = t.incumbent_updates;
        children_generated = t.children_generated;
        domains_used = workers;
        idle_wakeups = t.idle_wakeups;
        domain_first_node_seconds =
          Array.map
            (fun w ->
              if w.W.first_node_us < 0 then -1.0
              else float_of_int w.W.first_node_us *. 1e-6)
            ws;
        oracle_failures = t.oracle_failures;
        retries = t.retries;
        degraded_bounds = t.degraded_bounds;
        dropped_regions = t.dropped_regions;
        warm_start_hits = t.warm_start_hits;
        phase1_skipped = t.phase1_skipped;
        warm_pull_ins = t.warm_pull_ins;
        warm_newton_corrections = t.warm_newton_corrections;
        warm_miss_no_parent = t.warm_miss_no_parent;
        warm_miss_not_interior = t.warm_miss_not_interior;
        warm_miss_fault_cleared = t.warm_miss_fault_cleared;
        cert_verified = t.cert_verified;
        cert_repaired = t.cert_repaired;
        cert_fallbacks = t.cert_fallbacks;
        certified_sound = t.certified_sound;
        frontier_shed = t.frontier_shed;
        retry_budget_exhausted = t.retry_budget_exhausted;
        retry_backoff_seconds = float_of_int t.retry_backoff_ns *. 1e-9;
        oracle_seconds = float_of_int t.oracle_time_us *. 1e-6;
        domain_oracle_seconds =
          Array.map (fun w -> float_of_int !(w.W.oracle_cell) *. 1e-6) ws;
        wall_seconds = t.elapsed;
      };
  }

let minimize ?(params = default_params) ?(faults = default_faults)
    ?checkpointing ?interrupt ?counters ?progress oracle root =
  run ~params ~faults ~checkpointing ~interrupt ~counters ~progress oracle
    (Root root)

let resume ?(params = default_params) ?(faults = default_faults)
    ?checkpointing ?interrupt ?counters ?progress oracle state =
  run ~params ~faults ~checkpointing ~interrupt ~counters ~progress oracle
    (Restored state)
