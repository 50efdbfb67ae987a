(* Tests for the dataset substrate: container, synthetic generator,
   simulated ECoG, CSV I/O. *)

open Datasets

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

(* ------------------------------------------------------------------ *)
(* Dataset container                                                   *)
(* ------------------------------------------------------------------ *)

let sample_dataset () =
  Dataset.create ~name:"t"
    ~features:
      [|
        [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |]; [| 7.0; 8.0 |];
        [| 9.0; 10.0 |]; [| 11.0; 12.0 |];
      |]
    ~labels:[| true; false; true; false; true; false |]

let test_dataset_basics () =
  let ds = sample_dataset () in
  checki "trials" 6 (Dataset.n_trials ds);
  checki "features" 2 (Dataset.n_features ds);
  let na, nb = Dataset.class_counts ds in
  checki "class A" 3 na;
  checki "class B" 3 nb

let test_dataset_class_split () =
  let ds = sample_dataset () in
  let a, b = Dataset.class_split ds in
  checki "A rows" 3 (Linalg.Mat.rows a);
  checki "B rows" 3 (Linalg.Mat.rows b);
  checkf 1e-12 "first A row" 1.0 a.(0).(0);
  checkf 1e-12 "first B row" 3.0 b.(0).(0)

let test_dataset_of_class_matrices_roundtrip () =
  let a = [| [| 1.0 |]; [| 2.0 |] |] and b = [| [| 3.0 |] |] in
  let ds = Dataset.of_class_matrices ~name:"r" ~a ~b in
  let a', b' = Dataset.class_split ds in
  checkb "A preserved" true (Linalg.Mat.approx_equal a a');
  checkb "B preserved" true (Linalg.Mat.approx_equal b b')

let test_dataset_validation () =
  checkb "mismatch rejected" true
    (match
       Dataset.create ~name:"x" ~features:[| [| 1.0 |] |] ~labels:[||]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "empty rejected" true
    (match Dataset.create ~name:"x" ~features:[||] ~labels:[||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "NaN rejected" true
    (match
       Dataset.create ~name:"x" ~features:[| [| Float.nan |] |]
         ~labels:[| true |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "infinity rejected" true
    (match
       Dataset.create ~name:"x"
         ~features:[| [| Float.infinity |] |]
         ~labels:[| true |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "ragged rejected" true
    (match
       Dataset.create ~name:"x"
         ~features:[| [| 1.0; 2.0 |]; [| 3.0 |] |]
         ~labels:[| true; false |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dataset_immutability () =
  (* create copies its inputs; mutating the original must not leak in. *)
  let feats = [| [| 1.0 |] |] in
  let ds = Dataset.create ~name:"c" ~features:feats ~labels:[| true |] in
  feats.(0).(0) <- 99.0;
  checkf 1e-12 "copied" 1.0 ds.Dataset.features.(0).(0)

let test_split_stratified () =
  let rng = Stats.Rng.create 5 in
  let ds = sample_dataset () in
  let train, test = Dataset.split ds ~train_fraction:0.67 rng in
  checki "train size" 4 (Dataset.n_trials train);
  checki "test size" 2 (Dataset.n_trials test);
  let ta, tb = Dataset.class_counts train in
  checki "train stratified A" 2 ta;
  checki "train stratified B" 2 tb

let test_stratified_folds_partition () =
  let rng = Stats.Rng.create 6 in
  let ds = sample_dataset () in
  let folds = Dataset.stratified_folds rng ~k:3 ds in
  checki "fold count" 3 (Array.length folds);
  let total_test =
    Array.fold_left (fun acc (_, t) -> acc + Dataset.n_trials t) 0 folds
  in
  checki "test sets partition the data" (Dataset.n_trials ds) total_test;
  Array.iter
    (fun (train, test) ->
      checki "train+test = all" (Dataset.n_trials ds)
        (Dataset.n_trials train + Dataset.n_trials test);
      let ta, tb = Dataset.class_counts test in
      checkb "stratified" true (abs (ta - tb) <= 1))
    folds

let test_stratified_folds_rejects_small () =
  let ds = sample_dataset () in
  let rng = Stats.Rng.create 7 in
  checkb "k too large" true
    (match Dataset.stratified_folds rng ~k:4 ds with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Synthetic generator (eqs 30-32)                                     *)
(* ------------------------------------------------------------------ *)

let test_synthetic_shape () =
  let rng = Stats.Rng.create 1 in
  let ds = Synthetic.generate ~n_per_class:100 rng in
  checki "features" 3 (Dataset.n_features ds);
  checki "trials" 200 (Dataset.n_trials ds)

let test_synthetic_population_moments () =
  (* Sample moments must approach the closed-form population values. *)
  let rng = Stats.Rng.create 2 in
  let ds = Synthetic.generate ~n_per_class:40_000 rng in
  let a, b = Dataset.class_split ds in
  let mu_a = Stats.Moments.mean a and mu_b = Stats.Moments.mean b in
  let pm_a, pm_b = Synthetic.population_means () in
  Array.iteri
    (fun j v -> checkf 0.03 (Printf.sprintf "mu_a[%d]" j) v mu_a.(j))
    pm_a;
  Array.iteri
    (fun j v -> checkf 0.03 (Printf.sprintf "mu_b[%d]" j) v mu_b.(j))
    pm_b;
  let cov = Stats.Moments.covariance a in
  let pop = Synthetic.population_covariance () in
  for i = 0 to 2 do
    for j = 0 to 2 do
      checkf 0.06 (Printf.sprintf "cov[%d][%d]" i j) pop.(i).(j) cov.(i).(j)
    done
  done

let test_synthetic_ideal_weights_cancel () =
  (* The ideal direction must null the ε₂ and ε₃ noise exactly: check by
     computing the projected population variance analytically. *)
  let w = Synthetic.ideal_weights () in
  let cov = Synthetic.population_covariance () in
  let proj_var = Linalg.Mat.quadratic_form cov w in
  (* residual variance should be gain² (only ε₁ remains) *)
  checkf 1e-9 "residual variance = gain^2" (0.58 *. 0.58) proj_var

let test_synthetic_error_floors () =
  checkf 1e-6 "ideal error" (Stats.Gaussian.cdf (-0.5 /. 0.58))
    (Synthetic.ideal_error ());
  checkf 1e-6 "no-cancel error"
    (Stats.Gaussian.cdf (-0.5 /. (0.58 *. sqrt 3.0)))
    (Synthetic.no_cancellation_error ());
  checkb "ideal < no-cancel" true
    (Synthetic.ideal_error () < Synthetic.no_cancellation_error ())

let test_synthetic_deterministic () =
  let d1 = Synthetic.generate ~n_per_class:10 (Stats.Rng.create 3) in
  let d2 = Synthetic.generate ~n_per_class:10 (Stats.Rng.create 3) in
  checkb "same seed, same data" true
    (Linalg.Mat.approx_equal d1.Dataset.features d2.Dataset.features)

(* ------------------------------------------------------------------ *)
(* ECoG simulator                                                      *)
(* ------------------------------------------------------------------ *)

let test_ecog_shape () =
  let rng = Stats.Rng.create 4 in
  let ds = Ecog_sim.generate rng in
  checki "42 features (paper)" 42 (Dataset.n_features ds);
  checki "140 trials (70/class, paper)" 140 (Dataset.n_trials ds)

let test_ecog_feature_index () =
  let p = Ecog_sim.default_params in
  checki "first" 0 (Ecog_sim.feature_index p ~channel:0 ~band:0);
  checki "row major" 8 (Ecog_sim.feature_index p ~channel:1 ~band:1);
  checki "last" 41 (Ecog_sim.feature_index p ~channel:5 ~band:6);
  checkb "out of range" true
    (match Ecog_sim.feature_index p ~channel:6 ~band:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ecog_population_structure () =
  let p = Ecog_sim.default_params in
  let mu_a, mu_b = Ecog_sim.population_means p in
  (* antisymmetric class means *)
  checkb "mu_a = -mu_b" true
    (Linalg.Vec.approx_equal mu_a (Linalg.Vec.neg mu_b));
  (* informative features non-zero, others zero *)
  let idx = Ecog_sim.feature_index p ~channel:0 ~band:5 in
  checkb "informative shifted" true (mu_b.(idx) > 0.0);
  let quiet = Ecog_sim.feature_index p ~channel:5 ~band:0 in
  checkf 1e-12 "uninformative zero" 0.0 mu_b.(quiet);
  let cov = Ecog_sim.population_covariance p in
  checkb "cov symmetric" true (Linalg.Mat.is_symmetric cov);
  checkb "cov pd" true (Linalg.Cholesky.is_positive_definite cov);
  (* same-band cross-channel correlation comes from the band noise *)
  let i = Ecog_sim.feature_index p ~channel:0 ~band:2 in
  let j = Ecog_sim.feature_index p ~channel:3 ~band:2 in
  checkb "cross-channel correlated" true (cov.(i).(j) > 0.5)

let test_ecog_bayes_error_sane () =
  let e = Ecog_sim.bayes_error Ecog_sim.default_params in
  checkb "bayes error plausible for the paper's ~20% regime" true
    (e > 0.05 && e < 0.3)

let test_ecog_validation () =
  let bad = { Ecog_sim.default_params with Ecog_sim.band_noise = [| 1.0 |] } in
  checkb "band noise length checked" true
    (match Ecog_sim.generate ~params:bad (Stats.Rng.create 1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let bad =
    { Ecog_sim.default_params with Ecog_sim.effect = [ (9, 0, 1.0) ] }
  in
  checkb "effect index checked" true
    (match Ecog_sim.population_means bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* ECG simulator                                                       *)
(* ------------------------------------------------------------------ *)

let test_ecg_shape () =
  let ds = Ecg_sim.generate (Stats.Rng.create 13) in
  checki "10 features" Ecg_sim.n_features (Dataset.n_features ds);
  checki "400 trials" 400 (Dataset.n_trials ds);
  checki "feature names" Ecg_sim.n_features
    (Array.length Ecg_sim.feature_names)

let test_ecg_population_structure () =
  let p = Ecg_sim.default_params in
  let mu_a, mu_b = Ecg_sim.population_means p in
  checkb "antisymmetric means" true
    (Linalg.Vec.approx_equal mu_a (Linalg.Vec.neg mu_b));
  (* PVC physiology encoded in the signs: short preceding RR, wide QRS,
     inverted T for the arrhythmic class *)
  checkb "rr_prev shortens" true (mu_b.(0) < 0.0);
  checkb "qrs widens" true (mu_b.(2) > 0.0);
  checkb "t inverts" true (mu_b.(4) < 0.0);
  let cov = Ecg_sim.population_covariance p in
  checkb "cov pd" true (Linalg.Cholesky.is_positive_definite cov);
  (* RR features share the drift component; RR and amplitudes do not *)
  checkb "rr coupled" true (cov.(0).(1) > 0.3);
  checkf 1e-12 "rr/amplitude uncoupled" 0.0 cov.(0).(3)

let test_ecg_bayes_error_scales_with_effect () =
  let weak = { Ecg_sim.default_params with Ecg_sim.effect_scale = 0.3 } in
  let strong = { Ecg_sim.default_params with Ecg_sim.effect_scale = 2.0 } in
  checkb "stronger effect separates better" true
    (Ecg_sim.bayes_error strong < Ecg_sim.bayes_error weak);
  let e = Ecg_sim.bayes_error Ecg_sim.default_params in
  checkb "default in a sane band" true (e > 0.01 && e < 0.45)

let test_ecg_validation () =
  checkb "bad trial count" true
    (match
       Ecg_sim.generate
         ~params:{ Ecg_sim.default_params with Ecg_sim.trials_per_class = 0 }
         (Stats.Rng.create 1)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* CSV I/O                                                             *)
(* ------------------------------------------------------------------ *)

let test_csv_roundtrip_memory () =
  let ds = sample_dataset () in
  let lines = Dataset_io.to_lines ds in
  let ds2 = Dataset_io.of_lines ~name:"t" lines in
  checkb "features roundtrip" true
    (Linalg.Mat.approx_equal ds.Dataset.features ds2.Dataset.features);
  Alcotest.(check (array bool))
    "labels roundtrip" ds.Dataset.labels ds2.Dataset.labels

let test_csv_roundtrip_file () =
  let ds = Synthetic.generate ~n_per_class:25 (Stats.Rng.create 8) in
  let path = Filename.temp_file "ldafp_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save path ds;
      let ds2 = Dataset_io.load path in
      checkb "exact roundtrip" true
        (Linalg.Mat.approx_equal ~tol:0.0 ds.Dataset.features
           ds2.Dataset.features))

let test_csv_label_variants () =
  let ds =
    Dataset_io.of_lines ~name:"v"
      [ "a,1.0"; "B,2.0"; "1,3.0"; "0,4.0"; "true,5.0"; "false,6.0" ]
  in
  Alcotest.(check (array bool))
    "label synonyms" [| true; false; true; false; true; false |]
    ds.Dataset.labels

let test_csv_errors () =
  let is_err lines =
    match Dataset_io.of_lines ~name:"e" lines with
    | exception Dataset_io.Parse_error _ -> true
    | _ -> false
  in
  checkb "bad label" true (is_err [ "X,1.0" ]);
  checkb "bad number" true (is_err [ "A,abc" ]);
  checkb "ragged" true (is_err [ "A,1.0,2.0"; "B,1.0" ]);
  checkb "empty" true (is_err [ "" ]);
  checkb "header only" true (is_err [ "label,x1" ])

let test_csv_header_skipped () =
  let ds = Dataset_io.of_lines ~name:"h" [ "label,x1"; "A,1.5"; "B,-2.5" ] in
  checki "two rows" 2 (Dataset.n_trials ds);
  checkf 1e-12 "value" 1.5 ds.Dataset.features.(0).(0)

let test_csv_error_line_numbers () =
  (* Errors must report the 1-based line of the original input, not the
     index into the filtered rows: headers and blank lines still count
     toward line numbers even though they produce no data. *)
  let line_of lines =
    match Dataset_io.of_lines ~name:"ln" lines with
    | exception Dataset_io.Parse_error { line; _ } -> line
    | _ -> -1
  in
  checki "ragged row after header and blank" 4
    (line_of [ "label,x1,x2"; ""; "A,1,2"; "B,1" ]);
  checki "bad number after header and blank" 3
    (line_of [ "label,x1"; ""; "A,oops" ]);
  checki "bad label mid-file" 3
    (line_of [ "label,x1"; "A,1.0"; "X,2.0"; "B,3.0" ])

let test_csv_rejects_non_finite () =
  (* [float_of_string] happily parses "nan" and "inf", and "1e999"
     overflows to infinity; all of them would poison scatter matrices
     and SOCP bounds downstream, so the loader must reject them with
     the 1-based line of the original input. *)
  let line_of lines =
    match Dataset_io.of_lines ~name:"nf" lines with
    | exception Dataset_io.Parse_error { line; _ } -> line
    | _ -> -1
  in
  checki "nan feature" 2 (line_of [ "A,1.0"; "B,nan" ]);
  checki "inf feature" 1 (line_of [ "A,inf" ]);
  checki "negative inf feature" 2 (line_of [ "A,1.0"; "B,-infinity" ]);
  checki "overflowing literal" 3
    (line_of [ "label,x1"; "A,1.0"; "B,1e999" ]);
  (* Large-but-finite values are still fine. *)
  let ds = Dataset_io.of_lines ~name:"big" [ "A,1e300"; "B,-1e300" ] in
  checkf 1.0 "finite extreme kept" 1e300 ds.Dataset.features.(0).(0)

(* Every byte of a small two-class CSV XORed with every mask
   0x01..0xff: each result must parse to a dataset or be refused with
   [Parse_error]; no other exception may escape.  A flipped byte that
   becomes a newline splits its line, as reading the file would. *)
let test_csv_byte_flips () =
  let text = "label,x1,x2\nA,0.5,-1.25\nB,-0.75,2e-3\n1,12,0\n" in
  for i = 0 to String.length text - 1 do
    for mask = 1 to 255 do
      let b = Bytes.of_string text in
      Bytes.set b i (Char.chr (Char.code text.[i] lxor mask));
      match
        Dataset_io.of_lines ~name:"flip"
          (String.split_on_char '\n' (Bytes.to_string b))
      with
      | exception Dataset_io.Parse_error _ -> ()
      | exception e ->
          Alcotest.failf "offset %d mask 0x%02x: %s" i mask
            (Printexc.to_string e)
      | (_ : Dataset.t) -> ()
    done
  done

(* The split-based row parser [Dataset_io.parse_row] replaced, kept as
   the oracle: trim the line, split on commas, [float_of_string_opt]
   each trimmed field, then the label. *)
let oracle_parse_row lineno line =
  let fail message = raise (Dataset_io.Parse_error { line = lineno; message }) in
  match String.split_on_char ',' (String.trim line) with
  | [] | [ "" ] -> None
  | label :: feats ->
      if String.lowercase_ascii label = "label" then None
      else begin
        if feats = [] then fail "no features";
        let values =
          List.map
            (fun s ->
              match float_of_string_opt (String.trim s) with
              | Some v when Float.is_finite v -> v
              | Some _ -> fail (Printf.sprintf "non-finite feature %S" s)
              | None -> fail (Printf.sprintf "bad number %S" s))
            feats
        in
        let label =
          match label with
          | "A" | "a" | "1" | "true" -> true
          | "B" | "b" | "0" | "false" -> false
          | other -> fail (Printf.sprintf "unknown label %S" other)
        in
        Some (label, Array.of_list values)
      end

type row_outcome =
  | Row of (bool * int64 array) option
  | Failed of int * string

let outcome parse lineno line =
  match parse lineno line with
  | None -> Row None
  | Some (label, feats) -> Row (Some (label, Array.map Int64.bits_of_float feats))
  | exception Dataset_io.Parse_error { line; message } -> Failed (line, message)

let same_as_oracle lineno line =
  outcome Dataset_io.parse_row lineno line = outcome oracle_parse_row lineno line

let gen_digits n = QCheck.Gen.(string_size ~gen:(char_range '0' '9') (return n))

(* A plain decimal: 1-20 significant digits, 0-26 fractional digits,
   optional leading zeros, sign and missing integer part. *)
let gen_decimal =
  QCheck.Gen.(
    let* sign = oneofl [ ""; ""; "-"; "+" ] in
    let* first = char_range '1' '9' in
    let* rest = int_range 0 19 >>= gen_digits in
    let sig_digits = String.make 1 first ^ rest in
    let n = String.length sig_digits in
    let* point = int_range 0 n in
    let* zeros = int_range 0 6 in
    let* int_part =
      if point > 0 then return (String.sub sig_digits 0 point)
      else oneofl [ "0"; ""; "000" ]
    in
    let frac =
      String.make (if point = 0 then zeros else 0) '0'
      ^ String.sub sig_digits point (n - point)
    in
    let* with_dot =
      if frac = "" then oneofl [ false; false; true ] else return true
    in
    return (sign ^ int_part ^ (if with_dot then "." ^ frac else frac)))

(* A digit run of 1-20 digits, then 0-9 more bytes before the field
   ends, so the parser's eight-byte window meets the run's end, the
   comma and the line end at every offset.  The tail continues the
   number (fraction, exponent) or breaks it with a byte next to '0'..'9'
   ('/', ':') or a non-ASCII one. *)
let gen_digit_run =
  QCheck.Gen.(
    let* sign = oneofl [ ""; ""; "-"; "+" ] in
    let* run = int_range 1 20 >>= gen_digits in
    let* tail_len = int_range 0 9 in
    let* tail =
      frequency
        [
          (3, map (fun d -> if tail_len = 0 then "" else "." ^ d)
                (gen_digits (max 0 (tail_len - 1))));
          ( 2,
            let* e = oneofl [ "e"; "E"; "e-"; "e+"; "E-" ] in
            let* d = gen_digits (max 1 (tail_len - String.length e)) in
            return (e ^ d) );
          ( 2,
            let* at = int_range 0 (max 0 (tail_len - 1)) in
            let* c = oneofl [ '/'; ':'; '\x80'; '\xB0'; '\xB9'; '\xFF' ] in
            let* d = gen_digits (max 0 (tail_len - 1)) in
            let cut = min at (String.length d) in
            return (String.sub d 0 cut ^ String.make 1 c
                    ^ String.sub d cut (String.length d - cut)) );
        ]
    in
    return (sign ^ run ^ tail))

(* A non-digit byte inside the eight-byte window of a digit run. *)
let gen_broken_window =
  QCheck.Gen.(
    let* a = int_range 0 7 >>= gen_digits in
    let* c = oneofl [ '/'; ':'; '\x80'; '\xB0'; '\xB9'; '\xFF'; '.' ] in
    let* b = int_range 0 9 >>= gen_digits in
    return (a ^ String.make 1 c ^ b))

let gen_field =
  QCheck.Gen.(
    let* body =
      frequency
        [
          (4, gen_decimal);
          (3, gen_digit_run);
          (1, gen_broken_window);
          (3, map (Printf.sprintf "%.17g") (float_range (-3.0) 3.0));
          (1, map (Printf.sprintf "%.17g") float);
          (1, map (Printf.sprintf "%.17e") (float_range (-1e6) 1e6));
          (1, map (Printf.sprintf "%h") (float_range (-10.0) 10.0));
          (1, map (fun s -> "-" ^ s) (oneofl [ "0"; "0.0"; "0.000"; "00" ]));
          ( 1,
            oneofl
              [ "1_000.5"; "0x1p-2"; "nan"; "inf"; "-inf"; "infinity"; "1e999";
                "-1e999"; "1e5"; "1E-5"; "2.5e+3"; ""; "."; "-"; "+"; "-.";
                "1."; ".5"; "+.5"; "1.2.3"; "abc"; "1e"; "0x"; "--1"; "+-1";
                "1 2"; "1e-400"; "4.9e-324"; "1.7976931348623157e308" ] );
        ]
    in
    let* pre = oneofl [ ""; ""; ""; " "; "\t"; "\r"; "  " ] in
    let* post = oneofl [ ""; ""; ""; " "; "\t"; "\r"; " \r" ] in
    return (pre ^ body ^ post))

let gen_row_line =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          let* label =
            oneofl
              [ "A"; "B"; "a"; "b"; "1"; "0"; "true"; "false"; "X"; ""; " A";
                "A "; "TRUE"; "label"; "LABEL"; "Label"; " label" ]
          in
          (* Up to 42 fields: the ECoG width. *)
          let* fields =
            list_size
              (frequency [ (3, int_range 0 4); (1, int_range 5 42) ])
              gen_field
          in
          let* trailing = oneofl [ ""; ""; ""; ","; " " ] in
          let* ending = oneofl [ ""; ""; "\r"; "\r\n" ] in
          return (String.concat "," (label :: fields) ^ trailing ^ ending) );
        ( 1,
          oneofl
            [ ""; " "; "\t\r"; "A"; "label"; "label,x1,x2"; "Label, x1";
              ","; "A,"; ",1.5"; "A,,1" ] );
      ])

let prop_parse_row_bit_identical =
  QCheck.Test.make ~name:"parse_row bit-identical to float_of_string"
    ~count:20_000
    (QCheck.make
       ~print:(fun (lineno, line) -> Printf.sprintf "line %d: %S" lineno line)
       QCheck.Gen.(pair (int_range 1 9) gen_row_line))
    (fun (lineno, line) -> same_as_oracle lineno line)

(* Exact decimal midpoints between adjacent doubles: each must round to
   even exactly as [float_of_string] does (the fast path declines them).
   a.5 for a in [2^52, 2^53): halfway between integers at spacing 1;
   odd b in [2^53, 2^54): halfway at spacing 2; d.25 / d.75 for d in
   [2^51, 2^52): halfway at spacing 1/2. *)
let test_csv_tie_corpus () =
  let st = Random.State.make [| 17 |] in
  let p51 = 1 lsl 51 and p52 = 1 lsl 52 and p53 = 1 lsl 53 in
  let draw lo n = lo + Random.State.full_int st n in
  let ties = ref [] in
  let add fmt x = ties := Printf.sprintf fmt x :: !ties in
  List.iter (add "%d.5") [ p52; p53 - 1 ];
  List.iter (add "%d.0") [ p53 + 1; (2 * p53) - 1 ];
  List.iter (add "%d.25") [ p51; p52 - 1 ];
  List.iter (add "%d.75") [ p51; p52 - 1 ];
  for _ = 1 to 5_000 do
    add "%d.5" (draw p52 p52);
    add "%d.0" (draw p53 p53 lor 1);
    add "%d.25" (draw p51 p51);
    add "%d.75" (draw p51 p51)
  done;
  List.iter
    (fun tie ->
      List.iter
        (fun line ->
          if not (same_as_oracle 3 line) then
            Alcotest.failf "%S differs from float_of_string" line)
        [ "A," ^ tie; "B,-" ^ tie ])
    !ties

(* [to_lines] rows: a 10k-row Table-1 draw and the 42-feature ECoG set. *)
let generated_rows () =
  List.concat_map
    (fun ds -> List.tl (Dataset_io.to_lines ds))
    [
      Synthetic.generate ~n_per_class:5_000 (Stats.Rng.create 5);
      Ecog_sim.generate (Stats.Rng.create 7);
    ]

let row_bits line =
  match Dataset_io.parse_row 2 line with
  | Some (label, feats) -> Some (label, Array.map Int64.bits_of_float feats)
  | None -> None

(* The parser keeps no state between calls, so domains parsing the same
   rows at once agree with each other and with a sequential pass. *)
let test_csv_domains_agree () =
  let rows = Array.of_list (generated_rows ()) in
  let parse_all () = Array.map row_bits rows in
  let expected = parse_all () in
  let domains = List.init 2 (fun _ -> Domain.spawn parse_all) in
  List.iteri
    (fun d dom ->
      checkb (Printf.sprintf "domain %d bit-identical" d) true
        (Domain.join dom = expected))
    domains

(* A [to_lines] row allocates only the row: its float array, the pair
   and the option — m + 6 words, so no field reached [float_of_string].
   %.17g writes zero and magnitudes in (1e-6, 1e17) as decimals of 17
   significant digits at scale 10^-22 or coarser, the one-scan path;
   smaller and larger magnitudes (exponents below -6 or above 16) go to
   [float_of_string] and are not pinned. *)
let test_csv_row_allocation () =
  let one_scan v =
    v = 0.0 || (Float.abs v > 1e-6 && Float.abs v < 1e17)
  in
  let rows = generated_rows () in
  let pinned = ref 0 in
  List.iter
    (fun line ->
      let before = Gc.minor_words () in
      let row = Sys.opaque_identity (Dataset_io.parse_row 2 line) in
      let words = Gc.minor_words () -. before in
      match row with
      | Some (_, feats) when Array.for_all one_scan feats ->
          incr pinned;
          let m = Array.length feats in
          if words <> float_of_int (m + 6) then
            Alcotest.failf "%S allocated %.0f words, expected %d" line words
              (m + 6)
      | Some _ -> ()
      | None -> Alcotest.failf "%S parsed to no row" line)
    rows;
  checkb "nearly every row pinned" true
    (!pinned * 100 >= List.length rows * 99)

let test_csv_byte_order_mark () =
  let bom = "\xEF\xBB\xBF" in
  let ds = Dataset_io.of_lines ~name:"bom" [ bom ^ "label,x1"; "A,1.5"; "B,-2" ] in
  checki "header skipped after the mark" 2 (Dataset.n_trials ds);
  let ds = Dataset_io.of_lines ~name:"bom" [ bom ^ "A,1.5"; "B,-2" ] in
  checkf 0.0 "first row read after the mark" 1.5 ds.Dataset.features.(0).(0);
  let path = Filename.temp_file "ldafp_bom" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (bom ^ "label,x1,x2\r\nA,0.5,1\r\nB,2,-1\r\n"));
      let ds = Dataset_io.load path in
      checki "file with a mark and CRLF" 2 (Dataset.n_trials ds));
  (* Only line 1 may carry the mark. *)
  checkb "mark on line 2 rejected" true
    (match Dataset_io.of_lines ~name:"bom" [ "A,1.5"; bom ^ "B,-2" ] with
    | exception Dataset_io.Parse_error { line = 2; _ } -> true
    | _ -> false)

let test_csv_load_line_numbers () =
  (* [load] streams the file through the same fold as [of_lines]. *)
  let path = Filename.temp_file "ldafp_lines" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "label,x1,x2\n\nA,1,2\nB,1\nA,oops,1\n");
      checkb "parse error before ragged row" true
        (match Dataset_io.load path with
        | exception Dataset_io.Parse_error { line = 5; _ } -> true
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_folds_partition =
  QCheck.Test.make ~name:"stratified folds partition trials" ~count:50
    QCheck.(pair (int_range 2 5) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let rng = Stats.Rng.create seed in
      let ds = Synthetic.generate ~n_per_class:(k * 3) rng in
      let folds = Dataset.stratified_folds rng ~k ds in
      let total =
        Array.fold_left (fun acc (_, t) -> acc + Dataset.n_trials t) 0 folds
      in
      total = Dataset.n_trials ds)

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"CSV roundtrip exact" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let ds = Synthetic.generate ~n_per_class:5 rng in
      let ds2 = Dataset_io.of_lines ~name:"p" (Dataset_io.to_lines ds) in
      Linalg.Mat.approx_equal ~tol:0.0 ds.Dataset.features ds2.Dataset.features
      && ds.Dataset.labels = ds2.Dataset.labels)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_folds_partition; prop_csv_roundtrip; prop_parse_row_bit_identical ]

let () =
  Alcotest.run "datasets"
    [
      ( "dataset",
        [
          Alcotest.test_case "basics" `Quick test_dataset_basics;
          Alcotest.test_case "class split" `Quick test_dataset_class_split;
          Alcotest.test_case "class matrices roundtrip" `Quick
            test_dataset_of_class_matrices_roundtrip;
          Alcotest.test_case "validation" `Quick test_dataset_validation;
          Alcotest.test_case "defensive copies" `Quick
            test_dataset_immutability;
          Alcotest.test_case "stratified split" `Quick test_split_stratified;
          Alcotest.test_case "stratified folds" `Quick
            test_stratified_folds_partition;
          Alcotest.test_case "folds reject small classes" `Quick
            test_stratified_folds_rejects_small;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "shape" `Quick test_synthetic_shape;
          Alcotest.test_case "population moments" `Slow
            test_synthetic_population_moments;
          Alcotest.test_case "ideal weights cancel" `Quick
            test_synthetic_ideal_weights_cancel;
          Alcotest.test_case "error floors" `Quick test_synthetic_error_floors;
          Alcotest.test_case "deterministic" `Quick
            test_synthetic_deterministic;
        ] );
      ( "ecog",
        [
          Alcotest.test_case "shape" `Quick test_ecog_shape;
          Alcotest.test_case "feature index" `Quick test_ecog_feature_index;
          Alcotest.test_case "population structure" `Quick
            test_ecog_population_structure;
          Alcotest.test_case "bayes error" `Quick test_ecog_bayes_error_sane;
          Alcotest.test_case "validation" `Quick test_ecog_validation;
        ] );
      ( "ecg",
        [
          Alcotest.test_case "shape" `Quick test_ecg_shape;
          Alcotest.test_case "population structure" `Quick
            test_ecg_population_structure;
          Alcotest.test_case "bayes error scaling" `Quick
            test_ecg_bayes_error_scales_with_effect;
          Alcotest.test_case "validation" `Quick test_ecg_validation;
        ] );
      ( "csv",
        [
          Alcotest.test_case "memory roundtrip" `Quick
            test_csv_roundtrip_memory;
          Alcotest.test_case "file roundtrip" `Quick test_csv_roundtrip_file;
          Alcotest.test_case "label variants" `Quick test_csv_label_variants;
          Alcotest.test_case "parse errors" `Quick test_csv_errors;
          Alcotest.test_case "header skipped" `Quick test_csv_header_skipped;
          Alcotest.test_case "error line numbers" `Quick
            test_csv_error_line_numbers;
          Alcotest.test_case "rejects non-finite features" `Quick
            test_csv_rejects_non_finite;
          Alcotest.test_case "every byte flip" `Quick test_csv_byte_flips;
          Alcotest.test_case "tie corpus" `Quick test_csv_tie_corpus;
          Alcotest.test_case "domains agree" `Quick test_csv_domains_agree;
          Alcotest.test_case "row allocation" `Quick test_csv_row_allocation;
          Alcotest.test_case "byte-order mark" `Quick test_csv_byte_order_mark;
          Alcotest.test_case "load line numbers" `Quick
            test_csv_load_line_numbers;
        ] );
      ("properties", qcheck_tests);
    ]
