(* Measurement plumbing shared by the workloads: the bench's own clock
   around calls into the library, per-rep layer accumulators, in-memory
   spans, summary statistics and the metric tables that BENCHMARK.json
   mirrors. *)

let now_ns = Obs.Clock.now_ns
let seconds_of_ns ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the numbers printed here match
   what a script computes from the same samples. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> (Float.nan, Float.nan, Float.nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | n ->
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

type dist = { median : float; q1 : float; q3 : float; samples : float list }

let dist samples =
  let q1, median, q3 = quartiles samples in
  { median; q1; q3; samples }

let json_of_dist d =
  Obs.Json.(
    Obj
      [
        ("median", Float d.median);
        ("q1", Float d.q1);
        ("q3", Float d.q3);
        ("n", Int (List.length d.samples));
        ("samples", List (List.map (fun x -> Float x) d.samples));
      ])

(* ------------------------------------------------------------------ *)
(* Metric tables (BENCHMARK.json must list exactly these)             *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

(* name, unit, direction, bound *)
let end_to_end =
  [
    ("unit_s", "s", Lower, 0.20);
    ("setup_s", "s", Lower, 0.25);
    ("peak_rss_mb", "MB", Lower, 0.10);
  ]

(* Leaf layers of one unit of work, in display order, with their parent
   in the layer tree.  Their self times add up to the unit's wall time;
   [unattributed] is the remainder. *)
let leaf_layers =
  [
    ("lda.seed", "solve");
    ("socp.solve", "bnb.oracle");
    ("oracle.non_socp", "bnb.oracle");
    ("bnb.driver", "bnb.search");
    ("csv.read", "verdict");
    ("csv.parse", "verdict");
    ("engine.load", "verdict");
    ("engine.mac", "verdict");
    ("stats.tally", "verdict");
    ("unattributed", "unit");
  ]

(* Per-layer metrics of the traced run.  Layer times are self-time
   shares of the unit's wall time (of the set-up time for [lda.prepare]
   and [lda.build]); absolute seconds go to the printed layer table. *)
let per_layer =
  List.map (fun (l, _) -> (l ^ "_share", "ratio", Lower)) leaf_layers
  @ [
      ("bnb.oracle_share", "ratio", Lower);
      ("lda.prepare_share", "ratio", Lower);
      ("lda.build_share", "ratio", Lower);
      ("bnb.nodes", "count", Lower);
      ("bnb.nodes_per_s", "1/s", Higher);
      ("bnb.pruned", "count", Higher);
      ("bnb.infeasible", "count", Higher);
      ("bnb.incumbent_updates", "count", Lower);
      ("bnb.oracle_util", "ratio", Higher);
      ("socp.solves", "count", Lower);
      ("socp.newton_iters", "count", Lower);
      ("warm.hit_rate", "ratio", Higher);
      ("warm.phase1_skipped", "count", Higher);
      ("cert.verified", "count", Higher);
      ("cert.repaired", "count", Lower);
      ("cert.fallbacks", "count", Lower);
      ("fault.oracle_failures", "count", Lower);
      ("fault.retries", "count", Lower);
      ("fault.dropped", "count", Lower);
      ("csv.parse_words_per_row", "words", Lower);
      ("engine.load_words_per_row", "words", Lower);
      ("engine.mac_ops", "count", Lower);
      ("engine.mac_bytes", "bytes", Lower);
      ("engine.mac_gops", "Gop/s", Higher);
      ("gc.minor", "count", Lower);
      ("gc.major", "count", Lower);
      ("gen_s", "s", Lower);
      ("trace_overhead", "ratio", Lower);
    ]

(* ------------------------------------------------------------------ *)
(* Run context, reps, spans                                            *)
(* ------------------------------------------------------------------ *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;  (** alternate untraced and traced reps *)
  smoke : bool;
  work_dir : string;
}

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (** [0] = no parent *)
  span_rep : int;
}

let spans : span list ref = ref []
let span_count = ref 0
let origin_ns = now_ns ()

(* Span ids are handed out before the span closes, so children can name
   their parent while it is still open.  Untraced reps record nothing
   and use id 0. *)
let fresh_id traced =
  if traced then begin
    incr span_count;
    !span_count
  end
  else 0

let push_span ~id ~parent ~rep name start_ns stop_ns =
  if id <> 0 then
    spans := { id; name; start_ns; stop_ns; parent; span_rep = rep } :: !spans

let json_of_spans workload =
  List.rev_map
    (fun s ->
      Obs.Json.(
        Obj
          [
            ("id", Int s.id);
            ("name", Str s.name);
            ("start_s", Float (seconds_of_ns (s.start_ns - origin_ns)));
            ("end_s", Float (seconds_of_ns (s.stop_ns - origin_ns)));
            ("parent", Int s.parent);
            ("workload", Str workload);
            ("rep", Int s.span_rep);
          ]))
    !spans

(* One repetition of a workload's unit of work.  [wall_ns] sums the
   intervals timed with {!clocked}; everything else a rep does (checks,
   the seed replay) is outside the unit. *)
type rep = {
  index : int;
  traced : bool;
  root : int;  (** the rep's span id *)
  mutable wall_ns : int;
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable probe_s : float;
  layers : (string, float) Hashtbl.t;  (** leaf layer -> self seconds *)
  counts : (string, float) Hashtbl.t;
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

let add_layer r name secs = add r.layers name secs
let add_count r name v = add r.counts name v
let set_count r name v = Hashtbl.replace r.counts name v

(* A closed interval under [parent] (default: the rep). *)
let span r ?(parent = 0) name t0 t1 =
  let id = fresh_id r.traced in
  push_span ~id ~parent:(if parent = 0 then r.root else parent) ~rep:r.index
    name t0 t1

(* Time [f] as part of the unit.  [f] receives the id of its own span,
   to parent the spans it records. *)
let clocked r ?(parent = 0) name f =
  let id = fresh_id r.traced in
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let x = f id in
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  r.wall_ns <- r.wall_ns + (t1 - t0);
  r.gc_minor <- r.gc_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
  r.gc_major <- r.gc_major + g1.Gc.major_collections - g0.Gc.major_collections;
  push_span ~id ~parent:(if parent = 0 then r.root else parent) ~rep:r.index
    name t0 t1;
  x

(* Time [f] outside the unit (the traced run's replays); seconds. *)
let aside r name f =
  let t0 = now_ns () in
  ignore (f ());
  let t1 = now_ns () in
  span r name t0 t1;
  seconds_of_ns (t1 - t0)

let wall r = seconds_of_ns r.wall_ns

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)
(* ------------------------------------------------------------------ *)

(* The reference machine is a VM sharing its cores with other tenants.
   Their load changes its speed by up to 2x within a minute, and the
   guest cannot see it: CPU time tracks wall time, steal time stays 0
   and there are no hardware counters.  So every rep runs this fixed
   loop before and after its work, and end-to-end times are scaled to a
   host on which the loop takes [probe_ref_s] (see {!normalise}).  It
   allocates nothing and runs after a full major collection, so nothing
   the program leaves in the heap can change its time. *)
let probe_ref_s = 0.020
let probe_floats = Array.init 32768 (fun i -> 1.0 +. (float_of_int (i land 255) /. 256.0))

let probe () =
  let a = probe_floats in
  let n = Array.length a in
  let t0 = now_ns () in
  let acc = ref 0.0 and h = ref 0 and j = ref 0 in
  for _ = 1 to 240 do
    for i = 0 to n - 1 do
      j := ((!j * 1103515245) + 12345) land (n - 1);
      acc := (!acc *. 0.5) +. (a.(i) *. a.(!j));
      if !acc > 2.5 then h := !h + i else h := !h lxor i
    done
  done;
  ignore (Sys.opaque_identity (!acc +. float_of_int !h));
  seconds_of_ns (now_ns () - t0)

(* [secs] measured while the probe took [probe_s], in seconds of the
   reference host. *)
let normalise ~probe_s secs = secs *. probe_ref_s /. probe_s

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few messages *)
}

let tally () = { attempted = 0; failed = 0; failures = [] }

(* Count [n] operations; [problem] names what went wrong, if anything. *)
let check t ?(n = 1) problem =
  t.attempted <- t.attempted + n;
  match problem with
  | None -> ()
  | Some msg ->
      t.failed <- t.failed + n;
      if List.length t.failures < 8 then t.failures <- msg :: t.failures

(* ------------------------------------------------------------------ *)
(* Measurement loops                                                   *)
(* ------------------------------------------------------------------ *)

type measured = {
  untraced_reps : rep list;
  traced_reps : rep list;
  setup : dist;  (** normalised seconds of one set-up *)
  setup_parts : (string * float) list;  (** median normalised seconds per part *)
}

(* Run reps until [ctx.seconds] of measuring have passed and at least
   [min_reps] reps of each kind are in.  A rep is: full major
   collection, probe, one [setup] call (it returns the seconds of its
   named parts), full major, the [unit], full major, probe; the mean of
   its two probes normalises its times.  Set-up samples thus span the
   whole run as the units' do, and each set-up call starts from a heap
   whose garbage, earlier set-ups' buffers included, has been freed:
   several calls between collections made the allocator's state, and
   with it the time of the call, differ from process to process.  With
   [ctx.traced] the reps alternate untraced / traced, so the traced run
   also yields the untraced medians its overhead is measured against. *)
let measure ctx ~min_reps ~setup unit =
  let min_reps = if ctx.smoke then 1 else min_reps in
  let deadline = now_ns () + int_of_float (ctx.seconds *. 1e9) in
  let setups = ref [] in
  let rec loop i untraced traced nu nt =
    let enough = nu >= min_reps && ((not ctx.traced) || nt >= min_reps) in
    if (enough && now_ns () >= deadline) || i >= 100_000 then
      (List.rev untraced, List.rev traced)
    else begin
      let is_traced = ctx.traced && i mod 2 = 1 in
      Gc.full_major ();
      let p0 = probe () in
      let parts = setup () in
      Gc.full_major ();
      Obs.Metrics.set_enabled is_traced;
      if is_traced then Obs.Metrics.reset Obs.Metrics.default;
      let root = fresh_id is_traced in
      let r =
        {
          index = i; traced = is_traced; root; wall_ns = 0;
          gc_minor = 0; gc_major = 0; probe_s = 0.0; layers = Hashtbl.create 16;
          counts = Hashtbl.create 32;
        }
      in
      let t0 = now_ns () in
      unit r;
      push_span ~id:root ~parent:0 ~rep:i "rep" t0 (now_ns ());
      Obs.Metrics.set_enabled false;
      Gc.full_major ();
      r.probe_s <- (p0 +. probe ()) /. 2.0;
      setups := List.map (fun (k, v) -> (k, normalise ~probe_s:r.probe_s v)) parts :: !setups;
      if is_traced then loop (i + 1) untraced (r :: traced) nu (nt + 1)
      else loop (i + 1) (r :: untraced) traced (nu + 1) nt
    end
  in
  let untraced, traced = loop 0 [] [] 0 0 in
  let setups = List.rev !setups in
  {
    untraced_reps = untraced;
    traced_reps = traced;
    setup = dist (List.map (List.fold_left (fun a (_, v) -> a +. v) 0.0) setups);
    setup_parts =
      List.map
        (fun (k, _) -> (k, median (List.map (List.assoc k) setups)))
        (List.hd setups);
  }

(* A rep's unit time, normalised. *)
let unit_s r = normalise ~probe_s:r.probe_s (wall r)

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, seconds_of_ns (now_ns () - t0))

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* VmHWM of this process in MB (kernel-reported peak resident set). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
          | kb -> float_of_int kb /. 1024.0
          | exception _ -> acc)
        Float.nan
        (String.split_on_char '\n' status)

let env ctx =
  Obs.Json.(
    Obj
      [
        ("cores_detected", Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Str Sys.ocaml_version);
        ("seed", Int ctx.seed);
        ("seconds", Float ctx.seconds);
        ("smoke", Bool ctx.smoke);
      ])
