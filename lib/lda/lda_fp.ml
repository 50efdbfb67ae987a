open Linalg
open Fixedpoint
open Optim

type checkpoint_spec = {
  path : string;
  every_nodes : int;
  resume : bool;
}

let checkpoint_spec ?(every_nodes = 0) ?(resume = false) path =
  { path; every_nodes; resume }

type config = {
  seed_incumbent : bool;
  sweep_steps : int;
  polish_rounds : int;
  warm_start : bool;
  socp_params : Socp.params;
  bnb_params : Bnb.params;
  checkpoint : checkpoint_spec option;
  progress : Obs.Progress.t option;
}

let default_config =
  {
    seed_incumbent = true;
    sweep_steps = 200;
    polish_rounds = 2;
    warm_start = true;
    socp_params =
      { Socp.default_params with gap_tol = 1e-7;
        newton = { Newton.tol = 1e-9; max_iter = 60 } };
    bnb_params =
      { Bnb.default_params with max_nodes = 2000; rel_gap = 1e-3 };
    checkpoint = None;
    progress = None;
  }

let quick_config =
  {
    default_config with
    sweep_steps = 80;
    bnb_params = { Bnb.default_params with max_nodes = 150; rel_gap = 1e-2 };
  }

type diagnostics = {
  nodes : int;
  bound : float;
  gap : float;
  stop_reason : Bnb.stop_reason;
  seed_cost : float option;
  train_seconds : float;
  search : Bnb.stats;
}

type outcome = { w : Vec.t; cost : float; diagnostics : diagnostics }

(* The warm state a node inherits from its parent: the relaxation
   optimum as a full (y, z) point (primal side) and the barrier weight
   its solve ended at (the dual side — where {!Socp.prepare_warm_start}
   restarts the child's ladder).  Plain floats and arrays, so it marshals
   through {!Bnb.snapshot}s to whichever worker domain takes the
   child. *)
type warm_info = {
  point : Vec.t;
  tau_final : float;
      (* [Float.nan] when the point came from a phase-I [Unknown]
         (never centered on any ladder): warm_start_params skips no rung,
         a full ladder with only phase-I skipped *)
}

(* The search region, marshalled into every checkpoint: changing its
   shape (or [warm_info]'s) bumps the format version in {!Checkpoint}. *)
type node = {
  wbox : Fx_interval.t array;
  mutable relax_w : warm_info option;
      (* relaxation optimum, cached by [bound] to guide [branch] *)
  mutable warm : warm_info option;
      (* the parent's relaxation optimum, inherited at branch time: the
         warm start for this node's bound solve.  Cleared by the fault
         retry hook so a retried node never reuses a point associated
         with a failed solve. *)
  mutable warm_tainted : bool;
      (* true iff [warm] was deliberately cleared by the fault retry
         hook — distinguishes "never had a parent point" from "had one
         and discarded it" in the warm-miss accounting *)
  mutable cones : int;
      (* the eq. 20 cones this node's program carries
         ({!Ldafp_problem.all_cones} mask): empty at the root, grown by
         [bound] when an optimum violates a cone left out, inherited by
         the children and kept by the fault retry *)
}

let src = Logs.Src.create "ldafp.solver" ~doc:"LDA-FP trainer"

module Log = (val Logs.src_log src : Logs.LOG)

let is_atomic node = Array.for_all Fx_interval.is_singleton node.wbox

let p_candidate =
  Obs.Probe.v "lda.candidate"
    ~count:"node candidates generated (round, evaluate, H2 polish)"
    ~seconds:(1e-7, 10.0, "wall time of one node's candidate generation")

(* Candidate generation: round a continuous point into the node box,
   evaluate exactly, then polish by H2.  A point with a non-finite
   entry (a program point with z = 0) yields none. *)
let candidate_of_point cfg pb node point =
  if not (Array.for_all Float.is_finite point) then None
  else
  let observed = Obs.Probe.on () in
  let t0 = if observed then Obs.Clock.now_ns () else 0 in
  let rounded = Ldafp_heuristics.round_into pb ~wbox:node.wbox point in
  let cand =
    match Ldafp_heuristics.evaluate pb rounded with
    | None ->
        (* The node-box rounding may violate (20); retry in the full
           element box, which can only move components toward zero. *)
        Ldafp_heuristics.evaluate pb (Ldafp_heuristics.round_into pb point)
    | some -> some
  in
  let polished =
    Option.map (Ldafp_heuristics.coordinate_polish ~max_rounds:cfg.polish_rounds pb) cand
  in
  if observed then
    Obs.Probe.span p_candidate ~t0_ns:t0 ~dur_ns:(Obs.Clock.now_ns () - t0);
  polished

(* How the node program was solved. *)
type program_solve =
  | Warm of Socp.solution  (* from the parent optimum, at its terminal τ *)
  | Cold of Socp.solution  (* phase-I, then the whole barrier ladder *)
  | Phase1_unknown of Vec.t  (* no interior point found, nothing proved *)
  | Phase1_infeasible

let p_cones =
  Obs.Probe.v "lda.cones"
    ~count:"node programs solved again with the eq. 20 cones their optimum violated"

let p_warm_stall =
  Obs.Probe.v "lda.warm_stall"
    ~count:"warm node solves that stalled (Suboptimal) and were solved again cold"

let p_program =
  Obs.Probe.v "lda.program"
    ~count:"node programs built (relaxation, center point, warm start)"
    ~seconds:
      (1e-7, 10.0, "wall time of one node program's build, center point and warm start")

(* The node program and its start, built under one [lda.program] span:
   the relaxation of the box, its center point and, from the parent's
   optimum, the warm start and its ladder, which restarts at the
   parent's terminal τ.  A warm start is the parent's optimum clipped
   into the box: accepted as-is when margin-interior, else pulled toward
   the center point by the duality margin of that ladder (the branch
   rule cuts at the floor of the parent optimum's w*_j, so the clipped
   point lands on the child's face at the cut).  [None] when the
   program is empty. *)
let build_program cfg pb ~counters ~z_cap node =
  let observed = Obs.Probe.on () in
  let t0 = if observed then Obs.Clock.now_ns () else 0 in
  let program =
    match Ldafp_problem.relaxation pb ~wbox:node.wbox ~z_cap ~cones:node.cones with
    | None -> None
    | Some r ->
        let socp = r.Ldafp_problem.socp and project = Ldafp_problem.project r in
        let center = project (Ldafp_problem.center_point pb ~wbox:node.wbox ~z_cap) in
        let warm =
          if not cfg.warm_start then None
          else
            Option.bind node.warm (fun wi ->
                Option.bind (Ldafp_problem.clip_into_box pb ~wbox:node.wbox wi.point)
                  (fun yz ->
                    Option.map
                      (fun (x, prep, params) ->
                        if prep = Socp.Warm_pulled then Bnb.count_warm_pull_in counters;
                        (x, params))
                      (Socp.prepare_warm_start ~params:cfg.socp_params ~tau_final:wi.tau_final
                         ~target:center socp (project yz))))
        in
        Some (r, center, warm)
  in
  if observed then
    Obs.Probe.span p_program ~t0_ns:t0 ~dur_ns:(Obs.Clock.now_ns () - t0);
  program

(* The node program's one solve path.  A warm start re-centres once at
   its parent's terminal τ, which the same ν and [gap_tol] make this
   solve's too: the final τ and the certified gap are unchanged.
   Without a warm start it goes cold: phase-I from the center point,
   then the whole ladder. *)
let solve_program cfg (r : Ldafp_problem.relaxation) ~center warm =
  let socp = r.Ldafp_problem.socp in
  match warm with
  | Some (x0, params) -> Warm (Socp.solve ~params socp ~start:x0)
  | None -> (
      match Socp.find_strictly_feasible ~params:cfg.socp_params socp ~start:center with
      | Socp.Infeasible _ -> Phase1_infeasible
      | Socp.Unknown x -> Phase1_unknown x
      | Socp.Strictly_feasible x0 -> Cold (Socp.solve ~params:cfg.socp_params socp ~start:x0))

(* Lower bound + candidate for one region (the paper's steps 3 and 5). *)
let bound_node cfg pb counters node =
  if is_atomic node then
    let w = Array.map Fx_interval.mid node.wbox in
    match Ldafp_heuristics.evaluate pb w with
    | Some (w, c) when Ldafp_problem.t_of pb w > 0.0 ->
        Some { Bnb.lower = c; candidate = Some (w, c) }
    | _ -> None
  else if Interval.hi (Ldafp_problem.trange_of_box pb node.wbox) <= 0.0 then
    None (* H3: the search keeps only t = dᵀw > 0 *)
  else
    (* θ caps z: the program bounds the box's points with cost <= θ, and
       min(bound, θ) the whole box.  The incumbent read here only falls,
       so the cap stays valid for every later one; before there is one,
       the cost at the box's center point serves. *)
    let incumbent = Bnb.incumbent_cost counters in
    let theta =
      if incumbent < Float.infinity then incumbent
      else
        Ldafp_problem.cost pb
          (Ldafp_problem.weights_of
             (Ldafp_problem.center_point pb ~wbox:node.wbox ~z_cap:Float.infinity))
    in
    let z_cap = Ldafp_problem.z_cap pb ~theta in
    (* Nothing caps z without a verified λ̲ over the distinct coordinates
       (S_W singular other than through duplicated or constant features)
       or a finite θ, and uncapped the program's barrier is unbounded
       below: the certified interval bound serves, at once, as a retry
       could not help. *)
    if not (z_cap < Float.infinity) then
      Some { Bnb.lower = Ldafp_problem.interval_lower_bound pb ~wbox:node.wbox; candidate = None }
    else
    (* An empty program proves only that no point of the box costs
       <= θ: that prunes against the incumbent, but a θ from the center
       point (which need not meet the cones) bounds the box by θ. *)
    let empty () = if theta = incumbent then None else Some { Bnb.lower = theta; candidate = None } in
    (* One solve of the node's program; hits and misses partition a
       warm-start run's programs, a cone re-solve included.  A warm
       solve that ends [Suboptimal] (its one centering stalled) is a
       miss, not a fault: the program is solved again cold, here. *)
    let solve () =
      Option.map
        (fun (relax, center, warm) ->
          let result =
            match (solve_program cfg relax ~center warm, node.warm) with
            | Warm { Socp.status = Socp.Suboptimal; _ }, _ ->
                Obs.Probe.hit p_warm_stall;
                Bnb.count_warm_miss_stalled counters;
                solve_program cfg relax ~center None
            | (Warm _ as r), _ ->
                Bnb.count_warm_start_hit counters;
                r
            | r, _ when not cfg.warm_start -> r
            | r, Some _ ->
                Bnb.count_warm_miss_not_interior counters;
                r
            | r, None ->
                if node.warm_tainted then Bnb.count_warm_miss_fault_cleared counters
                else Bnb.count_warm_miss_no_parent counters;
                r
          in
          (relax, result))
        (build_program cfg pb ~counters ~z_cap node)
    in
    (* Cones on demand: an optimum whose w = y/z violates a cone the
       program left out is solved again with those cones added, and the
       node keeps them for its children.  Either program relaxes the
       box's feasible points, so both bounds are sound. *)
    let solved =
      match solve () with
      | Some (relax, (Warm sol | Cold sol)) as first ->
          let w = Ldafp_problem.weights_of (Ldafp_problem.embed relax sol.Socp.x) in
          let added = Ldafp_problem.violated_cones pb w land lnot node.cones in
          if added = 0 then first
          else begin
            node.cones <- node.cones lor added;
            Obs.Probe.hit p_cones;
            Bnb.count_cone_resolve counters;
            solve ()
          end
      | first -> first
    in
    match solved with
    | None -> empty ()
    | Some (relax, result) -> (
        let finish x ~tau_final lower =
          let yz = Ldafp_problem.embed relax x in
          node.relax_w <- Some { point = yz; tau_final };
          let lower = Float.min (lower ()) theta in
          Some
            { Bnb.lower;
              candidate = candidate_of_point cfg pb node (Ldafp_problem.weights_of yz) }
        in
        match result with
        | Phase1_infeasible -> empty ()
        | Phase1_unknown x ->
            (* Nothing better than cost >= 0 is proved, but the box may
               hold the optimum: keep exploring.  The point was never
               centered (NaN: no rung skipped in the children). *)
            finish x ~tau_final:Float.nan (fun () -> 0.0)
        | Warm sol | Cold sol ->
            (* Prunes compare the verified dual certificate, never the
               primal objective; a failed one raises
               {!Bnb.Certificate_error} (retried, then degraded to the
               interval fallback). *)
            finish sol.Socp.x ~tau_final:sol.Socp.tau_final (fun () ->
                match
                  Socp.certify_lower_bound
                    ?psd_block:(Ldafp_problem.psd_block pb relax)
                    relax.Ldafp_problem.socp sol
                with
                | Ok cert ->
                    if cert.Socp.repaired then Bnb.count_cert_repaired counters
                    else Bnb.count_cert_verified counters;
                    Ldafp_problem.cost_bound relax cert.Socp.dual_value
                | Error f -> raise (Bnb.Certificate_error (Socp.describe_cert_failure f))))

(* Branching rule (H4, H5): the product rule of Achterberg, Koch &
   Martin, "Branching rules revisited" (2005).  Splitting coordinate j
   at ⌊w*_j⌋ moves y_j = w_j·z by f·2^−F·z down and by (1 − f)·2^−F·z
   up, and on dᵀy = 1 a move δ raises yᵀS_W y by about δ²/M_jj.  The
   estimate ignores the box rows and cones: it orders the coordinates
   and bounds nothing. *)
let branch_rule pb ~m_diag ~wbox point =
  let m = Array.length wbox in
  let f = pb.Ldafp_problem.fmt.Qformat.f in
  let root = pb.Ldafp_problem.elem_box in
  let point =
    Option.bind point (fun p ->
        let z = p.(m) in
        if Float.is_finite z && z > 0.0 then Some p else None)
  in
  let score j =
    match (point, m_diag) with
    | Some p, Some md ->
        let z = p.(m) in
        let x = ldexp (p.(j) /. z) f in
        let fr = x -. Float.floor x and step = ldexp z (-f) in
        let inc g = Float.max 1e-12 (g *. step *. (g *. step) /. md.(j)) in
        inc fr *. inc (1.0 -. fr)
    | _ -> Fx_interval.width wbox.(j) /. Float.max (Fx_interval.width root.(j)) 1e-300
  in
  (* The first free coordinate stands until one scores more: a NaN
     score (a non-finite M_jj or w*_j) never wins, and a box with a
     free coordinate is always split. *)
  let best_dim = ref (-1) and best_score = ref Float.neg_infinity in
  for j = 0 to m - 1 do
    if not (Fx_interval.is_singleton wbox.(j)) then begin
      let s = score j in
      if !best_dim < 0 then best_dim := j;
      if s > !best_score then begin
        best_score := s;
        best_dim := j
      end
    end
  done;
  if !best_dim < 0 then None
  else
    let j = !best_dim in
    let at =
      Option.bind point (fun p ->
          let w = p.(j) /. p.(m) in
          if Float.is_finite w then Some w else None)
    in
    Option.map (fun (lo, hi) -> (j, lo, hi)) (Fx_interval.split ?at wbox.(j))

(* Children inherit the parent's relaxation optimum as their warm start
   (clipped into the child box at bound time). *)
let branch_node pb node =
  match
    branch_rule pb ~m_diag:pb.Ldafp_problem.m_diag ~wbox:node.wbox
      (Option.map (fun wi -> wi.point) node.relax_w)
  with
  | None -> []
  | Some (j, lo, hi) ->
      List.map
        (fun iv ->
          let wbox = Array.copy node.wbox in
          wbox.(j) <- iv;
          { wbox; relax_w = None; warm = node.relax_w; warm_tainted = false;
            cones = node.cones })
        [ lo; hi ]

(* Retry attempt [k >= 1] of a failed relaxation: perturb the barrier
   start weight and loosen the tolerances by a decade per attempt —
   enough to step around a conditioning cliff while keeping the bound
   certified (a looser gap only weakens the bound, never unsounds it). *)
let jittered_config cfg k =
  let s = float_of_int k in
  let decade = 10.0 ** s in
  let sp = cfg.socp_params in
  {
    cfg with
    socp_params =
      {
        Socp.tau0 = sp.Socp.tau0 *. (1.0 +. (0.37 *. s));
        gap_tol = sp.Socp.gap_tol *. decade;
        newton =
          { sp.Socp.newton with
            Newton.tol = sp.Socp.newton.Newton.tol *. decade };
      };
  }

let solve ?(config = default_config) ?interrupt ?(wrap_oracle = Fun.id) pb =
  (* Monotonic: [train_seconds] must be immune to NTP steps mid-run. *)
  let started = Obs.Clock.now () in
  (* Only checkpointing needs it. *)
  let fingerprint = lazy (Ldafp_problem.fingerprint pb) in
  (* A requested resume with no file on disk degrades to a fresh run (the
     natural first iteration of a kill/resume loop); an existing file
     that fails validation raises [Checkpoint.Corrupt] — silently
     retraining over a mismatched checkpoint would hide data drift. *)
  let restored =
    match config.checkpoint with
    | Some spec when spec.resume && Sys.file_exists spec.path ->
        Log.info (fun m -> m "resuming from checkpoint %s" spec.path);
        Some
          (Checkpoint.load ~fingerprint:(Lazy.force fingerprint)
             ~path:spec.path
            : (node, Vec.t) Bnb.snapshot)
    | _ -> None
  in
  let seed =
    if Option.is_some restored || not config.seed_incumbent then None
    else
      Ldafp_heuristics.seed_incumbent ~steps:config.sweep_steps
        ~max_rounds:(max 4 config.polish_rounds) pb
  in
  let seed_cost = Option.map snd seed in
  if not (pb.Ldafp_problem.lambda_grid > 0.0) then
    Log.info (fun m -> m "no verified λ̲ over the distinct coordinates: every node takes the interval bound");
  Log.debug (fun m ->
      m "%a; seed cost: %a" Ldafp_problem.pp_summary pb
        Fmt.(option ~none:(any "none") float)
        seed_cost);
  let root =
    {
      wbox = Array.copy pb.Ldafp_problem.elem_box;
      relax_w = None;
      warm = None;
      warm_tainted = false;
      cones = 0;
    }
  in
  let counters = Bnb.oracle_counters () in
  let oracle =
    wrap_oracle { Bnb.bound = bound_node config pb counters; branch = branch_node pb }
  in
  let faults =
    {
      Bnb.retry_bound =
        Some
          (fun ~attempt node ->
            (* The previous attempt failed mid-solve: any cached point on
               the node is tainted — never warm-start a retry from it.
               Its cone mask stays: a cone only tightens a sound
               relaxation. *)
            if node.warm <> None then node.warm_tainted <- true;
            node.warm <- None;
            node.relax_w <- None;
            bound_node (jittered_config config attempt) pb counters node);
      fallback_bound =
        Some
          (fun node ->
            Ldafp_problem.interval_lower_bound pb ~wbox:node.wbox);
    }
  in
  let checkpointing =
    Option.map
      (fun spec ->
        Bnb.checkpointing ~every_nodes:spec.every_nodes
          ~fingerprint:(Lazy.force fingerprint) spec.path)
      config.checkpoint
  in
  let result =
    match restored with
    | Some state ->
        Bnb.resume ~params:config.bnb_params ~faults ?checkpointing ?interrupt
          ~counters ?progress:config.progress oracle state
    | None ->
        Bnb.minimize ~params:config.bnb_params ~faults ?checkpointing
          ?interrupt ~counters ?progress:config.progress ?incumbent:seed oracle
          root
  in
  let train_seconds = Obs.Clock.now () -. started in
  match result.Bnb.best with
  | None -> None
  | Some (w, cost) ->
      Some
        {
          w;
          cost;
          diagnostics =
            {
              nodes = result.Bnb.nodes_explored;
              bound = result.Bnb.bound;
              gap = result.Bnb.gap;
              stop_reason = result.Bnb.stop_reason;
              seed_cost;
              train_seconds;
              search = result.Bnb.stats;
            };
        }
