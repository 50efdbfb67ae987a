(* Paper-reproduction driver.

   Default run regenerates the paper's tables and figures (DESIGN.md
   experiments E1-E5) plus the baselines and the ECG application (E7,
   E9) in quick mode.  Flags select individual experiments; [--full]
   uses the paper-scale budgets recorded in EXPERIMENTS.md.  Performance
   is measured by [bench/perf], the workloads declared in
   BENCHMARK.json. *)

open Report

let usage =
  "usage: main.exe [--table1] [--table2] [--figure2] [--figure4] [--power]\n\
  \                [--baselines] [--ecg] [--ablations]\n\
  \                [--quick|--full] [--seed N]\n\
   With no experiment flag, everything but --ablations runs."

type options = {
  mutable table1 : bool;
  mutable table2 : bool;
  mutable figure2 : bool;
  mutable figure4 : bool;
  mutable power : bool;
  mutable baselines : bool;
  mutable ecg : bool;
  mutable ablations : bool;
  mutable quick : bool;
  mutable seed : int option;
}

let parse_args () =
  let o =
    {
      table1 = false; table2 = false; figure2 = false; figure4 = false;
      power = false; baselines = false; ecg = false; ablations = false;
      quick = true; seed = None;
    }
  in
  let any = ref false in
  let reject msg =
    Printf.eprintf "%s\n%s\n" msg usage;
    exit 2
  in
  let rec go = function
    | [] -> ()
    | "--table1" :: rest -> any := true; o.table1 <- true; go rest
    | "--table2" :: rest -> any := true; o.table2 <- true; go rest
    | "--figure2" :: rest -> any := true; o.figure2 <- true; go rest
    | "--figure4" :: rest -> any := true; o.figure4 <- true; go rest
    | "--power" :: rest -> any := true; o.power <- true; go rest
    | "--baselines" :: rest -> any := true; o.baselines <- true; go rest
    | "--ecg" :: rest -> any := true; o.ecg <- true; go rest
    | "--ablations" :: rest -> any := true; o.ablations <- true; go rest
    | "--quick" :: rest -> o.quick <- true; go rest
    | "--full" :: rest -> o.quick <- false; go rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some s -> o.seed <- Some s; go rest
        | None -> reject (Printf.sprintf "--seed expects an integer, got %s" n))
    | "--help" :: _ | "-h" :: _ -> print_endline usage; exit 0
    | arg :: _ -> reject ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  if not !any then begin
    o.table1 <- true;
    o.table2 <- true;
    o.figure2 <- true;
    o.figure4 <- true;
    o.power <- true;
    o.baselines <- true;
    o.ecg <- true
  end;
  o

let () =
  let o = parse_args () in
  let seed = o.seed in
  let quick = o.quick in
  Printf.printf "LDA-FP reproduction harness (%s mode)\n"
    (if quick then "quick" else "full");
  if o.table1 then begin
    let t0 = Obs.Clock.now () in
    let rows = Experiments.table1 ~quick ?seed () in
    Experiments.print_table1 rows;
    Printf.printf "[table1 total %.1fs]\n%!" (Obs.Clock.now () -. t0)
  end;
  if o.figure4 then begin
    let rows = Experiments.figure4 ~quick ?seed () in
    Experiments.print_figure4 rows
  end;
  if o.table2 then begin
    let t0 = Obs.Clock.now () in
    let rows = Experiments.table2 ~quick ?seed () in
    Experiments.print_table2 rows;
    Printf.printf "[table2 total %.1fs]\n%!" (Obs.Clock.now () -. t0)
  end;
  if o.figure2 then Experiments.print_figure2 (Experiments.figure2 ~quick ?seed ());
  if o.power then Experiments.print_power (Experiments.power ());
  if o.baselines then
    Experiments.print_baselines (Experiments.baselines ~quick ?seed ());
  if o.ecg then
    Experiments.print_table_ecg (Experiments.table_ecg ~quick ?seed ());
  if o.ablations then begin
    Experiments.print_ablation ~title:"Ablation: K/F split policy (synthetic)"
      (Experiments.ablation_kf ~quick ?seed ());
    Experiments.print_ablation ~title:"Ablation: solver features (synthetic, WL=8)"
      (Experiments.ablation_solver ~quick ?seed ())
  end
