(* End-to-end performance benchmark of LDA-FP: certified-training time
   and classify throughput over four workloads, split by layer.

     dune exec bench/perf/perf.exe -- --seed 42              all workloads
     dune exec bench/perf/perf.exe -- --workload ecog_cv --seed 43 \
       --seconds 25 --trace 1                                 one, traced
     dune exec bench/perf/perf.exe -- --trace spans.json     all, traced,
                                                              spans to file
     dune exec bench/perf/perf.exe -- --smoke                 tiny sizes

   Every workload runs in a child process of its own (this executable
   re-invoked with --child), so peak RSS and GC counts are per workload
   and a crash is a counted failure rather than a lost run.  The last
   line of standard output is one JSON object; the exit code is 0 only
   when every output checked out. *)

module H = Harness
module W = Workloads
module J = Obs.Json

let sprintf = Printf.sprintf

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string;  (** "0", "1" or a spans file *)
  mutable smoke : bool;
  mutable spec : string option;
  mutable child : bool;
}

(* Scratch files of every workload, under the current directory (the
   children inherit it); removed on exit. *)
let work_dir = ".perf-work"

let traced o = o.trace <> "0"

let find_workload name =
  match List.find_opt (fun w -> w.W.name = name) W.all with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2

let num = function
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> Float.nan

let field k j = J.member k j
let obj_fields = function J.Obj kvs -> kvs | _ -> []

(* ------------------------------------------------------------------ *)
(* Child: run one workload, print its record                           *)
(* ------------------------------------------------------------------ *)

let opt_count r k = Option.value (Hashtbl.find_opt r.H.counts k) ~default:0.0
let opt_layer r k = Option.value (Hashtbl.find_opt r.H.layers k) ~default:0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Self seconds of every leaf layer of a traced rep, [unattributed]
   being the rest of the unit's wall time. *)
let rep_layers r =
  let known =
    List.filter_map
      (fun (l, _) -> if l = "unattributed" then None else Some (l, opt_layer r l))
      H.leaf_layers
  in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0.0 known in
  known @ [ ("unattributed", H.wall r -. attributed) ]

(* Per-layer metric values of one traced rep (run-level ones excluded). *)
let rep_metrics r =
  let w = H.wall r in
  let c = opt_count r in
  let layers = rep_layers r in
  let shares = List.map (fun (l, v) -> (l ^ "_share", ratio v w)) layers in
  shares
  @ [
      ( "bnb.oracle_share",
        ratio (opt_layer r "socp.solve" +. opt_layer r "oracle.non_socp") w );
      ("bnb.nodes_per_s", ratio (c "bnb.nodes") w);
      ("warm.hit_rate", ratio (c "warm.hits") (c "warm.hits" +. c "warm.misses"));
      ("csv.parse_words_per_row", ratio (c "csv.parse_words") (c "rows"));
      ("engine.load_words_per_row", ratio (c "engine.load_words") (c "rows"));
      ("engine.mac_gops", ratio (c "engine.mac_ops") (opt_layer r "engine.mac") /. 1e9);
      ("gc.minor", float_of_int r.H.gc_minor);
      ("gc.major", float_of_int r.H.gc_major);
    ]
  @ List.map (fun k -> (k, c k))
      [
        "bnb.nodes"; "bnb.pruned"; "bnb.infeasible"; "bnb.incumbent_updates";
        "bnb.oracle_util"; "socp.solves"; "socp.newton_iters";
        "warm.phase1_skipped"; "cert.verified"; "cert.repaired";
        "cert.fallbacks"; "fault.oracle_failures"; "fault.retries";
        "fault.dropped"; "engine.mac_ops"; "engine.mac_bytes";
      ]

let median_over reps f = H.median (List.map f reps)

let run_child o =
  let w = find_workload o.workload in
  let ctx =
    {
      H.workload = w.W.name; seed = o.seed; seconds = o.seconds;
      traced = traced o; smoke = o.smoke; work_dir;
    }
  in
  let res = w.W.run ctx in
  let m = res.W.m in
  let unit_s = H.dist (List.map H.unit_s m.H.untraced_reps) in
  let rss = H.peak_rss_mb () in
  let end_to_end =
    [ ("unit_s", unit_s); ("setup_s", m.H.setup); ("peak_rss_mb", H.dist [ rss ]) ]
  in
  let traced_part =
    match m.H.traced_reps with
    | [] -> []
    | reps ->
        let per_rep = List.map rep_metrics reps in
        let value name =
          H.median (List.map (fun kvs -> List.assoc name kvs) per_rep)
        in
        let setup_share part =
          ratio
            (Option.value (List.assoc_opt part m.H.setup_parts) ~default:0.0)
            m.H.setup.H.median
        in
        let traced_unit = median_over reps H.unit_s in
        let run_level =
          [
            ("lda.prepare_share", setup_share "lda.prepare");
            ("lda.build_share", setup_share "lda.build");
            ("gen_s", res.W.gen_s);
            ("trace_overhead", (traced_unit /. unit_s.H.median) -. 1.0);
          ]
        in
        let per_layer =
          List.map
            (fun (name, _, _) ->
              ( name,
                J.Float
                  (match List.assoc_opt name run_level with
                  | Some v -> v
                  | None -> value name) ))
            H.per_layer
        in
        let layers =
          List.map
            (fun (l, parent) ->
              let secs = median_over reps (fun r -> List.assoc l (rep_layers r)) in
              ( l,
                J.Obj
                  [
                    ("parent", J.Str parent);
                    ("seconds", J.Float secs);
                    ("share", J.Float (value (l ^ "_share")));
                    ( "present",
                      J.Bool
                        (l = "unattributed"
                        || List.exists (fun r -> Hashtbl.mem r.H.layers l) reps) );
                  ] ))
            H.leaf_layers
        in
        [
          ("per_layer", J.Obj per_layer);
          ("layers", J.Obj layers);
          ("traced_unit_s", J.Float traced_unit);
          ("spans", J.List (H.json_of_spans w.W.name));
        ]
  in
  let t = res.W.tally in
  let raw f = H.json_of_dist (H.dist (List.map f m.H.untraced_reps)) in
  let record =
    J.Obj
      ([
         ("workload", J.Str w.W.name);
         ("env", H.env ctx);
         ("reps", J.Int (List.length m.H.untraced_reps));
         ("traced_reps", J.Int (List.length m.H.traced_reps));
         ("gen_s", J.Float res.W.gen_s);
         ("attempted", J.Int t.H.attempted);
         ("failed", J.Int t.H.failed);
         ("failures", J.List (List.rev_map (fun s -> J.Str s) t.H.failures));
         ( "end_to_end",
           J.Obj (List.map (fun (k, d) -> (k, H.json_of_dist d)) end_to_end) );
         ( "setup_parts",
           J.Obj (List.map (fun (k, v) -> (k, J.Float v)) m.H.setup_parts) );
         ( "raw",
           J.Obj
             [
               ("probe_s", raw (fun r -> r.H.probe_s));
               ("unit_wall_s", raw H.wall);
             ] );
         ("info", J.Obj res.W.info);
       ]
      @ traced_part)
  in
  print_endline (J.to_string record)

(* ------------------------------------------------------------------ *)
(* Parent: spawn children, print, check                                *)
(* ------------------------------------------------------------------ *)

type outcome = { name : string; record : J.t option; problems : string list }

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let spawn o ~trace name =
  let args =
    [ "--child"; "--workload"; name; "--seed"; string_of_int o.seed;
      "--seconds"; sprintf "%.17g" o.seconds; "--trace"; trace ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let status = waitpid_retry pid in
  let last_line =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match status with
  | Unix.WEXITED 0 -> (
      match J.parse last_line with
      | Ok record -> { name; record = Some record; problems = [] }
      | Error e -> { name; record = None; problems = [ "unreadable record: " ^ e ] })
  | Unix.WEXITED n -> { name; record = None; problems = [ sprintf "child exited %d" n ] }
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      { name; record = None; problems = [ sprintf "child killed by signal %d" n ] }

let counts oc =
  match oc.record with
  | None -> (1, 1)
  | Some r ->
      let a = int_of_float (num (field "attempted" r)) in
      let f = int_of_float (num (field "failed" r)) in
      (max a 1, f + if oc.problems = [] then 0 else 1)

let correct oc =
  oc.problems = []
  && match oc.record with
     | Some r -> num (field "failed" r) = 0.0 && num (field "attempted" r) >= 1.0
     | None -> false

let dist_of r name =
  Option.bind (field "end_to_end" r) (field name)

let print_outcome o oc =
  Printf.printf "== %s (seed %d, %gs%s) ==\n" oc.name o.seed o.seconds
    (if traced o then ", traced" else "");
  List.iter (fun p -> Printf.printf "  FAILURE: %s\n" p) oc.problems;
  match oc.record with
  | None -> ()
  | Some r ->
      List.iter
        (fun (name, unit, _, _) ->
          match dist_of r name with
          | Some d ->
              Printf.printf "  %-12s %-12.6g %-3s [q1 %.6g, q3 %.6g, n %d]\n" name
                (num (field "median" d)) unit
                (num (field "q1" d)) (num (field "q3" d))
                (int_of_float (num (field "n" d)))
          | None -> ())
        H.end_to_end;
      (let raw k =
         num (Option.bind (Option.bind (field "raw" r) (field k)) (field "median"))
       in
       Printf.printf "  as measured: unit wall %.6g s, probe %.6g s (reference %g s)\n"
         (raw "unit_wall_s") (raw "probe_s") H.probe_ref_s);
      Printf.printf "  gen_s %.4g s; setup parts:" (num (field "gen_s" r));
      List.iter
        (fun (k, v) -> Printf.printf " %s %.3g s" k (num (Some v)))
        (obj_fields (Option.value (field "setup_parts" r) ~default:J.Null));
      print_newline ();
      Printf.printf "  reps %d untraced, %d traced; attempted %d, failed %d\n"
        (int_of_float (num (field "reps" r)))
        (int_of_float (num (field "traced_reps" r)))
        (int_of_float (num (field "attempted" r)))
        (int_of_float (num (field "failed" r)));
      (match field "failures" r with
      | Some (J.List l) ->
          List.iter
            (function J.Str s -> Printf.printf "  FAILURE: %s\n" s | _ -> ())
            l
      | _ -> ());
      Printf.printf "  info: %s\n"
        (J.to_string (Option.value (field "info" r) ~default:J.Null));
      Printf.printf "  env: %s\n"
        (J.to_string (Option.value (field "env" r) ~default:J.Null));
      match field "layers" r with
      | None -> ()
      | Some layers ->
          Printf.printf "  %-22s %-16s %12s %8s\n" "layer (self time)" "within"
            "s/unit" "share";
          List.iter
            (fun (l, v) ->
              if field "present" v = Some (J.Bool true) then
                Printf.printf "  %-22s %-16s %12.6f %7.2f%%\n" l
                  (match field "parent" v with Some (J.Str p) -> p | _ -> "")
                  (num (field "seconds" v))
                  (100.0 *. num (field "share" v)))
            (obj_fields layers);
          let pl = Option.value (field "per_layer" r) ~default:J.Null in
          Printf.printf
            "  trace overhead %+.2f%% (traced unit %.6g s vs untraced %.6g s)\n"
            (100.0 *. num (field "trace_overhead" pl))
            (num (field "traced_unit_s" r))
            (match dist_of r "unit_s" with
            | Some d -> num (field "median" d)
            | None -> Float.nan)

(* The result line: every end-to-end metric of an untraced run, every
   per-layer metric of a traced one. *)
let result_metrics ~traced oc =
  match oc.record with
  | None -> []
  | Some r ->
      if traced then
        let pl = Option.value (field "per_layer" r) ~default:J.Null in
        List.map
          (fun (name, unit, _) ->
            (name, J.Obj [ ("value", J.Float (num (field name pl))); ("unit", J.Str unit) ]))
          H.per_layer
      else
        List.map
          (fun (name, unit, _, _) ->
            ( name,
              J.Obj
                [
                  ("value", J.Float (num (Option.bind (dist_of r name) (field "median"))));
                  ("unit", J.Str unit);
                ] ))
          H.end_to_end

let write_spans path outcomes =
  let spans =
    List.concat_map
      (fun oc ->
        match Option.bind oc.record (field "spans") with
        | Some (J.List l) -> l
        | _ -> [])
      outcomes
  in
  J.save path (J.Obj [ ("schema", J.Str "ldafp-perf-spans/1"); ("spans", J.List spans) ])

let strip_spans = function
  | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> "spans") kvs)
  | j -> j

let summary outcomes =
  let attempted, failed =
    List.fold_left
      (fun (a, f) oc ->
        let a', f' = counts oc in
        (a + a', f + f'))
      (0, 0) outcomes
  in
  let ok = List.for_all correct outcomes in
  (ok, attempted, if ok then failed else max failed 1)

(* ------------------------------------------------------------------ *)
(* Smoke: every workload tiny, traced and untraced, output validated   *)
(* ------------------------------------------------------------------ *)

let validate_result ~traced line =
  match J.parse line with
  | Error e -> [ "result line does not parse: " ^ e ]
  | Ok j ->
      let keys = List.map fst (obj_fields j) in
      let expected_keys = [ "correct"; "attempted"; "failed"; "metrics" ] in
      let names =
        if traced then List.map (fun (n, _, _) -> n) H.per_layer
        else List.map (fun (n, _, _, _) -> n) H.end_to_end
      in
      let metrics = obj_fields (Option.value (field "metrics" j) ~default:J.Null) in
      (if List.sort compare keys = List.sort compare expected_keys then []
       else [ "result line keys: " ^ String.concat "," keys ])
      @ (if List.map fst metrics = names then []
         else [ "result line metric names differ from the metric table" ])
      @ List.filter_map
          (fun (n, m) ->
            let v = num (field "value" m) in
            match field "unit" m with
            | Some (J.Str _) when Float.is_finite v ->
                if (not traced) && v <= 0.0 then Some (n ^ " is not positive")
                else None
            | _ -> Some (n ^ ": value/unit malformed"))
          metrics

(* BENCHMARK.json must list exactly this program's workloads and
   metrics, with exactly the expected keys. *)
let validate_spec path =
  let str = function Some (J.Str s) -> s | _ -> "?" in
  match J.parse (In_channel.with_open_text path In_channel.input_all) with
  | exception Sys_error e -> [ e ]
  | Error e -> [ path ^ ": " ^ e ]
  | Ok j ->
      let keys = List.sort compare (List.map fst (obj_fields j)) in
      let list k = match field k j with Some (J.List l) -> l | _ -> [] in
      let better = function H.Lower -> "lower" | H.Higher -> "higher" in
      let check what ok = if ok then [] else [ path ^ ": " ^ what ] in
      check "keys"
        (keys
        = [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ])
      @ check "workloads"
          (List.map (fun w -> str (field "name" w)) (list "workloads")
          = List.map (fun w -> w.W.name) W.all)
      @ check "end_to_end"
          (List.map
             (fun m ->
               (str (field "name" m), str (field "unit" m), str (field "better" m),
                num (field "bound" m)))
             (list "end_to_end")
          = List.map (fun (n, u, b, bound) -> (n, u, better b, bound)) H.end_to_end)
      @ check "per_layer"
          (List.map
             (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m)))
             (list "per_layer")
          = List.map (fun (n, u, b) -> (n, u, better b)) H.per_layer)

let result_line ~traced outcomes =
  let ok, attempted, failed = summary outcomes in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool ok);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj (List.concat_map (result_metrics ~traced) outcomes) );
       ])

let run_smoke o =
  let problems = ref [] in
  let note p = problems := p :: !problems in
  let t0 = H.now_ns () in
  List.iter
    (fun traced ->
      let trace = if traced then "1" else "0" in
      let outcomes =
        List.map (fun w -> spawn o ~trace w.W.name) W.all
      in
      List.iter
        (fun oc ->
          List.iter (fun p -> note (oc.name ^ ": " ^ p)) oc.problems;
          if not (correct oc) then note (oc.name ^ ": not correct");
          List.iter
            (fun p -> note (sprintf "%s (trace %s): %s" oc.name trace p))
            (validate_result ~traced (result_line ~traced [ oc ])))
        outcomes)
    [ false; true ];
  Option.iter (fun path -> List.iter note (validate_spec path)) o.spec;
  let secs = H.seconds_of_ns (H.now_ns () - t0) in
  match List.rev !problems with
  | [] ->
      Printf.printf "perf smoke: %d workloads x {untraced, traced} ok in %.2fs\n"
        (List.length W.all) secs;
      true
  | ps ->
      List.iter (fun p -> Printf.printf "perf smoke FAILURE: %s\n" p) ps;
      false

(* ------------------------------------------------------------------ *)

let with_work_dir f =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Fun.protect f ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat work_dir n))
        (Sys.readdir work_dir);
      Sys.rmdir work_dir)

let () =
  let o =
    {
      workload = "all"; seed = 42; seconds = 25.0; trace = "0"; smoke = false;
      spec = None; child = false;
    }
  in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> o.workload <- s),
       "NAME  one workload, or 'all' (default)");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N  input seed (default 42)");
      ("--seconds", Arg.Float (fun s -> o.seconds <- s),
       "S  measuring time per workload (default 25)");
      ("--trace", Arg.String (fun s -> o.trace <- s),
       "0|1|FILE  traced run (1); FILE also receives the spans");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true),
       " every workload at tiny sizes, traced and untraced; checks outputs");
      ("--spec", Arg.String (fun s -> o.spec <- Some s),
       "FILE  with --smoke: check BENCHMARK.json against the metric tables");
      ("--child", Arg.Unit (fun () -> o.child <- true), " (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--smoke]";
  if o.child then run_child o
  else begin
    if o.smoke then o.seconds <- 0.0;
    let ok =
      with_work_dir (fun () ->
          if o.smoke then run_smoke o
          else begin
            let names =
              if o.workload = "all" then List.map (fun w -> w.W.name) W.all
              else [ (find_workload o.workload).W.name ]
            in
            let trace = if traced o then "1" else "0" in
            let outcomes =
              List.map
                (fun name ->
                  let oc = spawn o ~trace name in
                  print_outcome o oc;
                  oc)
                names
            in
            if o.trace <> "0" && o.trace <> "1" then write_spans o.trace outcomes;
            let ok, attempted, failed = summary outcomes in
            if o.workload = "all" then
              print_endline
                (J.to_string
                   (J.Obj
                      [
                        ("correct", J.Bool ok);
                        ("attempted", J.Int attempted);
                        ("failed", J.Int failed);
                        ("seed", J.Int o.seed);
                        ("traced", J.Bool (traced o));
                        ( "workloads",
                          J.Obj
                            (List.map
                               (fun oc ->
                                 ( oc.name,
                                   match oc.record with
                                   | Some r -> strip_spans r
                                   | None -> J.Null ))
                               outcomes) );
                      ]))
            else print_endline (result_line ~traced:(traced o) outcomes);
            ok
          end)
    in
    exit (if ok then 0 else 1)
  end
