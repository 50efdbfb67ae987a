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
  domains : int;
}

let default_params =
  { max_nodes = 100_000; rel_gap = 1e-6; abs_gap = 1e-12; time_limit = None;
    domains = 1 }

type ('region, 'sol) faults = {
  retry_bound : (attempt:int -> 'region -> 'sol bound_info option) option;
  fallback_bound : ('region -> float) option;
}

let default_faults = { retry_bound = None; fallback_bound = None }

exception Certificate_error of string

type stop_reason =
  | Proved_optimal
  | Gap_reached
  | Node_budget
  | Time_budget
  | Interrupted
  | Exhausted

let stop_reason_name = function
  | Proved_optimal -> "proved_optimal"
  | Gap_reached -> "gap_reached"
  | Node_budget -> "node_budget"
  | Time_budget -> "time_budget"
  | Interrupted -> "interrupted"
  | Exhausted -> "exhausted"

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
  dropped_bound : float;
  warm_start_hits : int;
  phase1_skipped : int;
  warm_pull_ins : int;
  warm_miss_no_parent : int;
  warm_miss_not_interior : int;
  warm_miss_fault_cleared : int;
  cone_resolves : int;
  cert_verified : int;
  cert_repaired : int;
  cert_fallbacks : int;
  certified_sound : bool;
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
      ("dropped_bound", Float s.dropped_bound);
      ("warm_start_hits", Int s.warm_start_hits);
      ("phase1_skipped", Int s.phase1_skipped);
      ("warm_pull_ins", Int s.warm_pull_ins);
      ("warm_miss_no_parent", Int s.warm_miss_no_parent);
      ("warm_miss_not_interior", Int s.warm_miss_not_interior);
      ("warm_miss_fault_cleared", Int s.warm_miss_fault_cleared);
      ("cone_resolves", Int s.cone_resolves);
      ("cert_verified", Int s.cert_verified);
      ("cert_repaired", Int s.cert_repaired);
      ("cert_fallbacks", Int s.cert_fallbacks);
      ("certified_sound", Bool s.certified_sound);
      ("oracle_seconds", Float s.oracle_seconds);
      ( "domain_oracle_seconds",
        List (floats (Array.to_list s.domain_oracle_seconds)) );
      ("wall_seconds", Float s.wall_seconds);
    ]

type oracle_counters = {
  incumbent_cost : float Atomic.t;
      (* The one incumbent cost: [run] installs it under its incumbent
         mutex and reads it lock-free to prune; the oracle reads it as
         its z cap. *)
  failures : int Atomic.t;
  retries : int Atomic.t;
  degraded : int Atomic.t;
  dropped : int Atomic.t;
  warm_hits : int Atomic.t;
  pull_ins : int Atomic.t;
  miss_no_parent : int Atomic.t;
  miss_not_interior : int Atomic.t;
  miss_fault_cleared : int Atomic.t;
  cone_resolves : int Atomic.t;
  oracle_time_us : int Atomic.t;
  cert_verified : int Atomic.t;
  cert_repaired : int Atomic.t;
  cert_fallbacks : int Atomic.t;
}

let oracle_counters () =
  {
    incumbent_cost = Atomic.make Float.infinity;
    failures = Atomic.make 0;
    retries = Atomic.make 0;
    degraded = Atomic.make 0;
    dropped = Atomic.make 0;
    warm_hits = Atomic.make 0;
    pull_ins = Atomic.make 0;
    miss_no_parent = Atomic.make 0;
    miss_not_interior = Atomic.make 0;
    miss_fault_cleared = Atomic.make 0;
    cone_resolves = Atomic.make 0;
    oracle_time_us = Atomic.make 0;
    cert_verified = Atomic.make 0;
    cert_repaired = Atomic.make 0;
    cert_fallbacks = Atomic.make 0;
  }

let count_warm_start_hit oc = Atomic.incr oc.warm_hits
let count_warm_pull_in oc = Atomic.incr oc.pull_ins
let count_warm_miss_no_parent oc = Atomic.incr oc.miss_no_parent
let count_warm_miss_not_interior oc = Atomic.incr oc.miss_not_interior
let count_warm_miss_fault_cleared oc = Atomic.incr oc.miss_fault_cleared
let count_cone_resolve oc = Atomic.incr oc.cone_resolves
let count_cert_verified oc = Atomic.incr oc.cert_verified
let count_cert_repaired oc = Atomic.incr oc.cert_repaired
let incumbent_cost oc = Atomic.get oc.incumbent_cost

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
}

let checkpointing ?(every_nodes = 0) ~fingerprint path =
  { path; every_nodes; fingerprint }

(* The one checkpoint schema.  Any change here, to [stats] (or to a
   caller's region or solution type) bumps the version line in
   Checkpoint. *)
type ('region, 'sol) snapshot = {
  frontier : (float * 'region) array;
  incumbent : ('sol * float) option;
  nodes_explored : int;
  stats : stats;
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

(* Why one oracle call failed. *)
type failure =
  | Oracle_raised of string  (* [Printexc.to_string] of the exception *)
  | Non_finite_bound of float  (* NaN or [-infinity]; [+infinity] prunes *)
  | Certificate_failed of string  (* the oracle raised [Certificate_error] *)

let describe = function
  | Oracle_raised msg -> Printf.sprintf "oracle raised: %s" msg
  | Non_finite_bound b -> Printf.sprintf "non-finite lower bound %h" b
  | Certificate_failed msg -> Printf.sprintf "bound certificate failed: %s" msg

(* Resource exhaustion and user interrupts are never contained. *)
let containable = function
  | Out_of_memory | Stack_overflow | Sys.Break -> false
  | _ -> true

(* One failing call: counted, and retried once (a failing solve is a
   deterministic function of its inputs or of an injected fault, so only
   the retry's jitter, never waiting, can change its outcome).  [true]
   when the retry is due. *)
let note_failure (oc : oracle_counters) ~attempt what reason =
  Atomic.incr oc.failures;
  Log.debug (fun m -> m "%s failure (attempt %d): %s" what (attempt + 1) reason);
  let retry = attempt = 0 in
  if retry then begin
    Atomic.incr oc.retries;
    Obs.Probe.hit_int p_retry "attempt" 1
  end;
  retry

let note_drop (oc : oracle_counters) what reason =
  Atomic.incr oc.dropped;
  Obs.Probe.hit_int p_drop "attempts" 2;
  Log.warn (fun m -> m "dropping %s after 2 attempts: %s" what reason)

(* Outcome of a guarded [bound] call: [Dropped_bound] means the region
   was abandoned (already counted). *)
type 'sol guarded = Bounded of 'sol bound_info option | Dropped_bound

(* A NaN candidate cost is poison: it compares false with everything, so
   it can neither be installed nor pruned coherently.  Strip it, keep the
   (valid) bound, and count the bad invocation.  [+infinity] candidates
   pass through — they are merely useless, never winning a comparison. *)
let sanitize_candidate (oc : oracle_counters) = function
  | Some { lower; candidate = Some (_, c) } when Float.is_nan c ->
      Atomic.incr oc.failures;
      Log.warn (fun m -> m "discarding candidate with NaN cost");
      Some { lower; candidate = None }
  | info -> info

(* The containment rule: retry once (through [faults.retry_bound] when
   given), then degrade to [faults.fallback_bound], then drop. *)
let guarded_bound ~(faults : _ faults) ~(oc : oracle_counters)
    (oracle : _ oracle) region =
  let call attempt =
    let f =
      match faults.retry_bound with
      | Some retry when attempt > 0 -> retry ~attempt
      | _ -> oracle.bound
    in
    match f region with
    | Some { lower; _ }
      when Float.is_nan lower || lower = Float.neg_infinity ->
        Error (Non_finite_bound lower)
    | info -> Ok info
    | exception Certificate_error msg -> Error (Certificate_failed msg)
    | exception e when containable e -> Error (Oracle_raised (Printexc.to_string e))
  in
  let rec attempt k =
    match call k with
    | Ok info -> Bounded (sanitize_candidate oc info)
    | Error failure ->
        if note_failure oc ~attempt:k "bound" (describe failure) then
          attempt (k + 1)
        else begin
          (* A certificate failure that ends in degrade or drop is a
             certified-fallback event: the primal solve's bound was
             discarded in favour of the (certified) interval fallback,
             or the region died.  Either way the search never pruned on
             an unverified value. *)
          (match failure with
          | Certificate_failed _ ->
              Atomic.incr oc.cert_fallbacks;
              Obs.Probe.hit p_cert_fallback
          | Oracle_raised _ | Non_finite_bound _ -> ());
          let degraded =
            match faults.fallback_bound with
            | None -> None
            | Some fb -> (
                match fb region with
                | lb when Float.is_nan lb || lb = Float.neg_infinity -> None
                | lb -> Some lb
                | exception e when containable e ->
                    Log.warn (fun m ->
                        m "fallback bound itself failed: %s"
                          (Printexc.to_string e));
                    None)
          in
          match degraded with
          | Some lb ->
              Atomic.incr oc.degraded;
              if Obs.Probe.on () then
                Obs.Probe.hit p_degrade
                  ~args:[ ("fallback_bound", Obs.Trace.Float lb) ];
              Log.debug (fun m ->
                  m "degraded region to fallback bound %.6g after: %s" lb
                    (describe failure));
              Bounded (Some { lower = lb; candidate = None })
          | None ->
              note_drop oc "region" (describe failure);
              Dropped_bound
        end
  in
  attempt 0

(* Cumulative oracle wall-time, accumulated in integer microseconds so
   parallel workers can add without a lock (no atomic float add).
   [?cell] additionally attributes the time to the calling worker's
   private accumulator — the per-domain utilization numbers.  Timed in
   integer nanoseconds off the monotonic clock, so the measurement
   itself never allocates. *)
let timed_guarded_bound ?cell ~faults ~(oc : oracle_counters) oracle region =
  let t0 = Obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dns = Obs.Clock.now_ns () - t0 in
      let dus = dns / 1000 in
      ignore (Atomic.fetch_and_add oc.oracle_time_us dus);
      (match cell with Some c -> c := !c + dus | None -> ());
      Obs.Probe.span p_bound ~t0_ns:t0 ~dur_ns:dns)
    (fun () -> guarded_bound ~faults ~oc oracle region)

(* A split has no fallback: a region whose [branch] fails twice is
   dropped ([None]; its own candidate was already surfaced by
   [bound]). *)
let guarded_branch ~(oc : oracle_counters) oracle region =
  let rec attempt k =
    match oracle.branch region with
    | children -> Some children
    | exception e when containable e ->
        let reason = Printexc.to_string e in
        if note_failure oc ~attempt:k "branch" reason then attempt (k + 1)
        else begin
          note_drop oc "unsplittable region" reason;
          None
        end
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* Checkpoint plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* The search either starts fresh from a root region, with an optional
   seed incumbent installed before the root is bounded, or restores a
   frontier whose entries were already bounded before the snapshot. *)
type ('region, 'sol) source =
  | Root of 'region * ('sol * float) option
  | Restored of ('region, 'sol) snapshot

(* Copy a snapshot's atomic counters back into the live ones; the plain
   totals are read from the snapshot directly when the run builds its
   stats.  The per-run fields ([domains_used] and the [domain_*] arrays)
   are not restored, and [phase1_skipped] is derived. *)
let restore (oc : oracle_counters) (s : stats) =
  Atomic.set oc.failures s.oracle_failures;
  Atomic.set oc.retries s.retries;
  Atomic.set oc.degraded s.degraded_bounds;
  Atomic.set oc.dropped s.dropped_regions;
  Atomic.set oc.warm_hits s.warm_start_hits;
  Atomic.set oc.pull_ins s.warm_pull_ins;
  Atomic.set oc.miss_no_parent s.warm_miss_no_parent;
  Atomic.set oc.miss_not_interior s.warm_miss_not_interior;
  Atomic.set oc.miss_fault_cleared s.warm_miss_fault_cleared;
  Atomic.set oc.cone_resolves s.cone_resolves;
  Atomic.set oc.oracle_time_us
    (int_of_float (Float.round (s.oracle_seconds *. 1e6)));
  Atomic.set oc.cert_verified s.cert_verified;
  Atomic.set oc.cert_repaired s.cert_repaired;
  Atomic.set oc.cert_fallbacks s.cert_fallbacks

(* A failed snapshot must not kill a multi-hour search: log and carry on
   (the previous checkpoint, if any, is intact thanks to tmp + rename). *)
let try_save ck snapshot =
  try Checkpoint.save ~path:ck.path ~fingerprint:ck.fingerprint snapshot
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    Log.warn (fun m -> m "checkpoint save to %s failed: %s" ck.path msg)

let stop_wants_save = function
  | Node_budget | Time_budget | Interrupted -> true
  | Proved_optimal | Gap_reached | Exhausted -> false

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* The calling domain plus [params.domains - 1] spawned domains run the
   same worker loop over one shared best-first Frontier: take the
   minimum-bound region, expand it, push its children, release it.  With
   one domain nothing is spawned and the search is plain best-first
   order over one heap.

   Search-wide state is synchronized through atomics: the incumbent cost
   (set under a dedicated incumbent mutex, read lock-free for pruning and
   by the oracle through [incumbent_cost]), the explored-node counter, and a write-once
   stop reason.  Per-worker statistics live in single-writer records
   merged after the joins, so hot-path counter bumps are plain stores.

   Termination.  [drained] is exact (children are pushed before their
   parent's in-flight slot is released) and is tested before the gap so
   a drained search reports Proved_optimal, not Gap_reached against an
   infinite frontier bound — or Exhausted when a dropped region's key
   lies below the incumbent, so the drained frontier proves nothing.
   The gap test reads Frontier.bound, the exact minimum over queued and
   in-flight regions, capped by that key.  The node budget is
   checked before claiming a node; workers already mid-expansion finish,
   so the budget can overshoot by at most [domains - 1] nodes — the
   price of not serializing the hot path.

   Fault containment: oracle calls are guarded, and the in-flight
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
  let oc = match counters with Some c -> c | None -> oracle_counters () in
  (* Totals carried in from a snapshot: the atomic counters are restored
     in place, the plain ones are [prior] plus this run's.  A root
     search carries none. *)
  let carried =
    match source with
    | Root _ -> None
    | Restored s ->
        restore oc s.stats;
        Some s
  in
  let prior f = Option.fold ~none:0 ~some:(fun s -> f s.stats) carried in
  (* The incumbent solution is guarded by its own mutex; its cost lives
     in [oc], read lock-free on every stale check, push decision and gap
     test, and by the oracle. *)
  let inc_lock = Mutex.create () in
  let incumbent = ref (Option.bind carried (fun s -> s.incumbent)) in
  let incumbent_cost = oc.incumbent_cost in
  Atomic.set incumbent_cost
    (match !incumbent with Some (_, c) -> c | None -> Float.infinity);
  let nodes =
    Atomic.make (Option.fold ~none:0 ~some:(fun s -> s.nodes_explored) carried)
  in
  (* The lowest key of any region whose branch, or one of whose
     children's bounds, was dropped: every point the search lost costs
     at least this much.  +infinity while nothing was dropped. *)
  let dropped_bound =
    Atomic.make
      (Option.fold ~none:Float.infinity
         ~some:(fun s -> s.stats.dropped_bound)
         carried)
  in
  let rec note_dropped lb =
    let cur = Atomic.get dropped_bound in
    if lb < cur && not (Atomic.compare_and_set dropped_bound cur lb) then
      note_dropped lb
  in
  let start_time = now () in
  let run_t0_ns = Obs.Clock.now_ns () in
  let elapsed0 =
    Option.fold ~none:0.0 ~some:(fun s -> s.stats.wall_seconds) carried
  in
  let elapsed () = elapsed0 +. (now () -. start_time) in
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
  (* The search-wide statistics so far: what a checkpoint saves and
     what the result reports. *)
  let stats () =
    let seconds us = float_of_int us *. 1e-6 in
    let warm_start_hits = Atomic.get oc.warm_hits in
    {
      infeasible_regions =
        prior (fun s -> s.infeasible_regions) + sum (fun w -> w.W.infeasible);
      bound_pruned = prior (fun s -> s.bound_pruned) + sum (fun w -> w.W.pruned);
      stale_pops = prior (fun s -> s.stale_pops) + sum (fun w -> w.W.stale);
      incumbent_updates =
        prior (fun s -> s.incumbent_updates) + sum (fun w -> w.W.updates);
      children_generated =
        prior (fun s -> s.children_generated) + sum (fun w -> w.W.children);
      domains_used = workers;
      idle_wakeups =
        prior (fun s -> s.idle_wakeups) + Frontier.idle_wakeups frontier;
      domain_first_node_seconds =
        Array.map
          (fun w ->
            if w.W.first_node_us < 0 then -1.0 else seconds w.W.first_node_us)
          ws;
      oracle_failures = Atomic.get oc.failures;
      retries = Atomic.get oc.retries;
      degraded_bounds = Atomic.get oc.degraded;
      dropped_regions = Atomic.get oc.dropped;
      dropped_bound = Atomic.get dropped_bound;
      warm_start_hits;
      (* A warm hit is exactly a phase-I solve skipped. *)
      phase1_skipped = warm_start_hits;
      warm_pull_ins = Atomic.get oc.pull_ins;
      warm_miss_no_parent = Atomic.get oc.miss_no_parent;
      warm_miss_not_interior = Atomic.get oc.miss_not_interior;
      warm_miss_fault_cleared = Atomic.get oc.miss_fault_cleared;
      cone_resolves = Atomic.get oc.cone_resolves;
      cert_verified = Atomic.get oc.cert_verified;
      cert_repaired = Atomic.get oc.cert_repaired;
      cert_fallbacks = Atomic.get oc.cert_fallbacks;
      (* No run of this driver prunes on an unverified bound; the field
         stays for the ledger, whose [runs diff] flags a [false] in an
         older record. *)
      certified_sound = true;
      oracle_seconds = seconds (Atomic.get oc.oracle_time_us);
      domain_oracle_seconds =
        Array.map (fun w -> seconds !(w.W.oracle_cell)) ws;
      wall_seconds = elapsed ();
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
    try_save ck
      { frontier = saved; incumbent; nodes_explored = Atomic.get nodes;
        stats = stats () }
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
  let gap_ok () =
    let inc = Atomic.get incumbent_cost in
    inc < Float.infinity
    &&
    let gap =
      inc -. Float.min (Frontier.bound frontier) (Atomic.get dropped_bound)
    in
    gap <= params.abs_gap || gap <= params.rel_gap *. Float.abs inc
  in
  (* The certified global bound: the frontier minimum, or — once the
     frontier has drained, everything explored or pruned — the
     incumbent; never above a dropped region's key.  What the result,
     the progress line and the telemetry gap all report. *)
  let global_bound () =
    let fb = Frontier.bound frontier in
    Float.min (Atomic.get dropped_bound)
      (if Frontier.drained frontier then
         Float.min (Atomic.get incumbent_cost) fb
       else fb)
  in
  let gap () =
    let inc = Atomic.get incumbent_cost in
    if inc = Float.infinity then Float.infinity else inc -. global_bound ()
  in
  (* The /healthz view of the search: set when it starts and stops, and
     after every node while a sink is on. *)
  let publish () =
    Obs.Telemetry.set_nodes (Atomic.get nodes);
    Obs.Telemetry.set_incumbent (Atomic.get incumbent_cost);
    Obs.Telemetry.set_gap (gap ())
  in
  (* A drained frontier proves the incumbent optimal only if nothing
     dropped could have held a better point. *)
  let drained_reason () =
    if Atomic.get dropped_bound >= Atomic.get incumbent_cost then
      Proved_optimal
    else Exhausted
  in
  let interrupted () = match interrupt with Some f -> f () | None -> false in
  (* First halt wins the stop reason; close is idempotent and wakes any
     parked sibling. *)
  let halt reason =
    ignore (Atomic.compare_and_set stop None (Some reason));
    Frontier.close frontier
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
        (* The in-flight slot is released in a finaliser: even if an
           exception escapes the guards (a non-containable one), the
           live count stays exact and the region's children
           — pushed before this finaliser runs — are never lost. *)
        let t_node = Obs.Clock.now_ns () in
        Fun.protect
          ~finally:(fun () -> Frontier.release frontier ~worker:i)
          (fun () ->
            match guarded_branch ~oc oracle region with
            | None -> note_dropped lb
            | Some children ->
                w.W.children <- w.W.children + List.length children;
                (* Bound each child outside any lock and push it at
                   once, so idle siblings get fresh work. *)
                List.iter
                  (fun child ->
                    match
                      timed_guarded_bound ~cell:w.W.oracle_cell ~faults ~oc
                        oracle child
                    with
                    | Dropped_bound -> note_dropped lb
                    | Bounded info -> record_bounded w child info)
                  children);
        (* Exactly one node-seconds observation per explored node (the CI
           schema gate compares the histogram count against the reported
           node counts). *)
        let node_ns = Obs.Clock.now_ns () - t_node in
        if Obs.Probe.on () then begin
          Obs.Probe.span p_node ~t0_ns:t_node ~dur_ns:node_ns
            ~args:[ ("node", Obs.Trace.Int n); ("lb", Obs.Trace.Float lb) ];
          publish ()
        end;
        (match progress with
        | Some p when Obs.Progress.due p ->
            Obs.Progress.emit p
              (progress_line ~nodes:(Atomic.get nodes) ~elapsed:(elapsed ())
                 ~incumbent:(Atomic.get incumbent_cost)
                 ~bound:(global_bound ())
                 ~oracle_us:(Array.map (fun w -> !(w.W.oracle_cell)) ws))
        | _ -> ());
        maybe_periodic_save n
      end
    in
    let rec loop () =
      if Frontier.is_closed frontier then ()
      else if Frontier.drained frontier then halt (drained_reason ())
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
            | `Drained -> halt (drained_reason ())
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
  | Root (root, seed) -> (
      (* The seed is installed, then the root bounded, on the calling
         domain before anything else: the root's bound already prunes
         against the seed. *)
      consider_candidate ws.(0) seed;
      match
        timed_guarded_bound ~cell:ws.(0).W.oracle_cell ~faults ~oc oracle root
      with
      | Dropped_bound -> note_dropped Float.neg_infinity
      | Bounded info -> record_bounded ws.(0) root info)
  | Restored s ->
      Array.iter (fun (lb, region) -> Frontier.push frontier lb region) s.frontier);
  publish ();
  Obs.Telemetry.set_phase "searching";
  let spawned =
    Array.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  worker 0 ();
  Array.iter Domain.join spawned;
  let stop_reason =
    match Atomic.get stop with Some r -> r | None -> drained_reason ()
  in
  publish ();
  Obs.Telemetry.set_phase ("done:" ^ stop_reason_name stop_reason);
  (match checkpointing with
  | Some ck when stop_wants_save stop_reason ->
      (* All workers have joined: nothing is in flight, the heap is the
         complete frontier. *)
      save ck
  | _ -> ());
  {
    best = !incumbent;
    bound = global_bound ();
    gap = gap ();
    nodes_explored = Atomic.get nodes;
    stop_reason;
    stats = stats ();
  }

let minimize ?(params = default_params) ?(faults = default_faults)
    ?checkpointing ?interrupt ?counters ?progress ?incumbent oracle root =
  run ~params ~faults ~checkpointing ~interrupt ~counters ~progress oracle
    (Root (root, incumbent))

let resume ?(params = default_params) ?(faults = default_faults)
    ?checkpointing ?interrupt ?counters ?progress oracle state =
  run ~params ~faults ~checkpointing ~interrupt ~counters ~progress oracle
    (Restored state)
