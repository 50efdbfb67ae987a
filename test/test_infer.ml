(* Batched inference engine: bit-exactness of the C MAC kernel against
   the scalar datapath (QCheck, including saturation-boundary and
   63-bit product-wraparound inputs), the zero-allocation steady state,
   the C model-header golden file and table round-trip, and the infer
   metrics. *)

open Ldafp_core
open Fixedpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let clf_of_raws ?(polarity = true) fmt ~w_raws ~thr_raw ~exponents =
  Fixed_classifier.create ~polarity
    ~w:(Fx_vector.of_fx (Array.map (Fx.create fmt) w_raws))
    ~threshold:(Fx.create fmt thr_raw)
    ~scaling:(Scaling.of_exponents exponents)
    ()

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

(* Raw codes biased toward the format's corners — the saturation
   boundary and the codes whose products wrap. *)
let raw_gen fmt =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (Qformat.min_raw fmt) (Qformat.max_raw fmt));
        (1, oneofl [ Qformat.min_raw fmt; Qformat.max_raw fmt; 0; -1; 1 ]);
      ])

(* Raw inputs for a feature scaled by 2^-e, biased toward saturation
   (far outside any format range), format-boundary magnitudes and exact
   ties (k + 1/2) 2^-f after scaling, plus the values whose scaling
   overflows or underflows: +-max_float, +-infinity and subnormals. *)
let input_gen ?(e = 0) fmt =
  let unscale s = ldexp s (e - fmt.Qformat.f) in
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-4.0) 4.0);
        (1, float_range (-1e7) 1e7);
        ( 1,
          oneofl
            [
              Qformat.min_value fmt;
              Qformat.max_value fmt;
              -.Qformat.min_value fmt;
              2.0 *. Qformat.max_value fmt;
            ] );
        ( 2,
          let* k =
            int_range (Qformat.min_raw fmt - 2) (Qformat.max_raw fmt + 2)
          in
          return (unscale (float_of_int k +. 0.5)) );
        ( 1,
          oneofl
            [ Float.max_float; -.Float.max_float; Float.infinity;
              Float.neg_infinity; 4.9e-324; -0.0 ] );
      ])

(* Mostly small scaling exponents, sometimes anywhere in +-1100, where
   2^(f - e) is no longer a normal double. *)
let exponent_gen =
  QCheck.Gen.(frequency [ (6, int_range (-3) 3); (1, int_range (-1100) 1100) ])

(* One row: feature j drawn for exponent [es.(j)]. *)
let row_gen fmt es =
  QCheck.Gen.flatten_a (Array.map (fun e -> input_gen ~e fmt) es)

(* Narrow formats, and word lengths 13 to 62, where products wrap
   modulo 2^63 (from 32 bits) and sums wrap in the accumulator. *)
let fmt_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          let* k = int_range 1 4 in
          let* f = int_range 0 8 in
          return (Qformat.make ~k ~f) );
        ( 2,
          let* n = int_range 13 62 in
          let* f = int_range 0 (n - 1) in
          return (Qformat.make ~k:(n - f) ~f) );
      ])

(* A uniform classifier plus a batch of raw input rows. *)
let arb_uniform_case ~rows =
  QCheck.make
    ~print:(fun (clf, _) ->
      Format.asprintf "%a" Fixed_classifier.pp clf)
    QCheck.Gen.(
      let* fmt = fmt_gen in
      let* m = int_range 1 8 in
      let* w_raws = array_size (return m) (raw_gen fmt) in
      let* thr_raw = raw_gen fmt in
      let* exponents = array_size (return m) exponent_gen in
      let* polarity = bool in
      let* xs = list_size (return rows) (row_gen fmt exponents) in
      return
        (clf_of_raws ~polarity fmt ~w_raws ~thr_raw ~exponents, Array.of_list xs))

(* 400 cases x 256 rows = 102_400 randomized predictions. *)
let prop_uniform_bit_exact =
  QCheck.Test.make ~name:"batched kernel == scalar predict/margin (uniform)"
    ~count:400 (arb_uniform_case ~rows:256)
    (fun (clf, xs) ->
      let engine = Infer.Engine.of_fixed ~capacity:(Array.length xs) clf in
      let batch = Infer.Engine.make_batch engine in
      let n = Infer.Engine.load_rows engine batch xs in
      let preds = Bytes.create n in
      Infer.Engine.predict_into engine batch preds;
      Array.for_all
        (fun i ->
          let x = xs.(i) in
          Bytes.get preds i = '\001' = Fixed_classifier.predict clf x
          && Infer.Engine.margin engine i = Fixed_classifier.margin clf x)
        (Array.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Front end vs the scalar specification                               *)
(* ------------------------------------------------------------------ *)

let spec_raw fmt e x =
  Fx.raw (Fx.of_float ~ov:Rounding.Saturate fmt (ldexp x (-e)))

(* Quantise [x] through [Engine.load] into the last column of a
   three-column batch, so the codes land past the first row's stride. *)
let quantize_column fmt ~exponents x =
  let m = Array.length x in
  let clf = clf_of_raws fmt ~w_raws:(Array.make m 0) ~thr_raw:0 ~exponents in
  let engine = Infer.Engine.of_fixed ~capacity:3 clf in
  let batch = Infer.Engine.make_batch engine in
  Infer.Engine.load engine batch ~col:2 x;
  let data = Infer.Batch.data batch in
  Array.init m (fun j -> data.{j, 2})

(* Narrow formats, plus wide ones whose codes reach past 2^51 (where
   doubles are multiples of 1/2 and the rounding changes method). *)
let quant_fmt_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          let* k = int_range 1 6 in
          let* f = int_range 0 10 in
          return (Qformat.make ~k ~f) );
        ( 1,
          let* n = int_range 48 62 in
          let* f = int_range 0 (n - 1) in
          return (Qformat.make ~k:(n - f) ~f) );
      ])

(* Small exponents, the whole +-1100 range, the edges of the range where
   2^(f - e) is a normal double, and exponents [ldexp] truncates to 32
   bits. *)
let quant_exponent_gen fmt =
  let f = fmt.Qformat.f in
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-4) 4);
        (2, int_range (-1100) 1100);
        ( 1,
          oneofl
            [ f - 1023; f - 1024; f + 1022; f + 1023; f - 1100; f + 1100;
              1 lsl 32; -(1 lsl 32); (1 lsl 31) + 3; max_int; min_int ] );
      ])

(* Raw values biased toward exact ties (k + 1/2) 2^-f, the saturation
   bounds +- 1/2 ulp (and one double either side), signed zeros,
   subnormals, +-max_float, +-infinity and arbitrary bit patterns.  The
   tie and bound values are generated already scaled, so they are ties
   and bounds after the division by 2^e. *)
let raw_input_gen fmt e =
  let f = fmt.Qformat.f in
  let unscale s = ldexp s (e - f) in
  let lo = float_of_int (Qformat.min_raw fmt)
  and hi = float_of_int (Qformat.max_raw fmt) in
  QCheck.Gen.(
    frequency
      [
        (3, map unscale (float_range (-2.0 *. hi) (2.0 *. hi)));
        ( 3,
          let* u = float_range (-1.0) 1.0 in
          return (unscale (Float.round (u *. (hi +. 2.0)) +. 0.5)) );
        ( 1,
          (* ties where the spacing of doubles is 1/2 *)
          let* k = int_range (1 lsl 51) ((1 lsl 52) - 1) in
          let* sign = oneofl [ 1.0; -1.0 ] in
          return (unscale (sign *. (float_of_int k +. 0.5))) );
        ( 2,
          let* b =
            oneofl [ lo -. 0.5; lo +. 0.5; hi -. 0.5; hi +. 0.5; lo; hi ]
          in
          let* nudge = oneofl [ Fun.id; Float.succ; Float.pred ] in
          return (unscale (nudge b)) );
        ( 2,
          oneofl
            [ 0.0; -0.0; 4.9e-324; -4.9e-324; Float.min_float /. 3.0;
              Float.max_float; -.Float.max_float; Float.infinity;
              Float.neg_infinity ] );
        ( 1,
          map
            (fun b ->
              let x = Int64.float_of_bits b in
              if Float.is_nan x then 0.0 else x)
            ui64 );
      ])

let arb_quant_case =
  QCheck.make
    ~print:(fun (fmt, es, xs) ->
      let list f a = String.concat ";" (Array.to_list (Array.map f a)) in
      Printf.sprintf "%s e=[%s] x=[%s]" (Qformat.to_string fmt)
        (list string_of_int es)
        (list (Printf.sprintf "%h") xs))
    QCheck.Gen.(
      let* fmt = quant_fmt_gen in
      let* m = int_range 1 6 in
      let* es = array_size (return m) (quant_exponent_gen fmt) in
      let* xs = flatten_a (Array.map (raw_input_gen fmt) es) in
      return (fmt, es, xs))

let prop_quantizer_matches_spec =
  QCheck.Test.make ~name:"load == Fx.of_float ~ov:Saturate (ldexp x (-e))"
    ~count:3000 arb_quant_case (fun (fmt, es, xs) ->
      quantize_column fmt ~exponents:es xs
      = Array.mapi (fun j x -> spec_raw fmt es.(j) x) xs)

(* [load_rows] against [load], one row at a time, over the whole
   storage: capacities from 1 to 70 and blocks of 0 to 70 rows, so
   blocks shorter than, equal to and past the kernel's prefetch distance
   (8 rows) all occur.  Both batches start from the same non-zero fill,
   so a stray write past the loaded columns shows too.  Each case is
   counted under the quantiser path its engine takes: the fast one
   (every scale 2^(f - e_j) a normal double and WL <= 52) or the general
   one. *)
let fast_cases = ref 0
let general_cases = ref 0

let fast_front_end fmt es =
  let f = fmt.Qformat.f in
  Qformat.word_length fmt <= 52
  && Array.for_all (fun e -> e >= f - 1023 && e <= f + 1022) es

let arb_rows_case =
  QCheck.make
    ~print:(fun (fmt, es, capacity, rows, start, n) ->
      let list f a = String.concat ";" (Array.to_list (Array.map f a)) in
      Printf.sprintf "%s e=[%s] capacity=%d start=%d n=%s rows=[%s]"
        (Qformat.to_string fmt) (list string_of_int es) capacity start
        (match n with Some n -> string_of_int n | None -> "-")
        (list (fun x -> "[" ^ list (Printf.sprintf "%h") x ^ "]") rows))
    QCheck.Gen.(
      let* fmt = quant_fmt_gen in
      let* m = int_range 1 6 in
      let* es = array_size (return m) (quant_exponent_gen fmt) in
      let* capacity = int_range 1 70 in
      let* len = int_range 0 80 in
      let* rows =
        array_size (return len) (flatten_a (Array.map (raw_input_gen fmt) es))
      in
      let* start = int_range 0 (len + 2) in
      let* n = opt (int_range (-1) 75) in
      return (fmt, es, capacity, rows, start, n))

let prop_load_rows_matches_load =
  QCheck.Test.make ~name:"load_rows == load, row by row" ~count:1500
    arb_rows_case (fun (fmt, es, capacity, rows, start, n) ->
      if fast_front_end fmt es then incr fast_cases else incr general_cases;
      let m = Array.length es in
      let clf =
        clf_of_raws fmt ~w_raws:(Array.make m 0) ~thr_raw:0 ~exponents:es
      in
      let engine = Infer.Engine.of_fixed ~capacity clf in
      let by_rows = Infer.Engine.make_batch engine
      and by_load = Infer.Engine.make_batch engine in
      Bigarray.Array2.fill (Infer.Batch.data by_rows) 0x5a5a;
      Bigarray.Array2.fill (Infer.Batch.data by_load) 0x5a5a;
      let k = Infer.Engine.load_rows engine by_rows ~start ?n rows in
      for c = 0 to k - 1 do
        Infer.Engine.load engine by_load ~col:c rows.(start + c)
      done;
      let fit = min (max 0 (Array.length rows - start)) capacity in
      k = (match n with Some n -> min (max n 0) fit | None -> fit)
      && Infer.Batch.length by_rows = k
      && Infer.Batch.data by_rows = Infer.Batch.data by_load)

let test_load_rows_matches_load =
  let name, speed, run =
    QCheck_alcotest.to_alcotest prop_load_rows_matches_load
  in
  ( name,
    speed,
    fun () ->
      fast_cases := 0;
      general_cases := 0;
      run ();
      checkb (Printf.sprintf "fast path reached (%d cases)" !fast_cases) true
        (!fast_cases > 0);
      checkb
        (Printf.sprintf "general path reached (%d cases)" !general_cases)
        true (!general_cases > 0) )

let test_quantizer_nan () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  List.iter
    (fun e ->
      match
        quantize_column fmt ~exponents:[| 0; e; 0 |] [| 1.0; 2.0; Float.nan |]
      with
      | exception Invalid_argument msg ->
          Alcotest.(check string) "names the feature"
            "Engine.load: NaN in feature 2" msg
      | _ -> Alcotest.fail "NaN must be rejected")
    [ 0; 2000 (* two-ldexp path *) ]

let test_quantizer_shape () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf = clf_of_raws fmt ~w_raws:[| 1; 2 |] ~thr_raw:0 ~exponents:[| 0; 1 |] in
  let engine = Infer.Engine.of_fixed ~capacity:4 clf in
  let rejects label expected x batch =
    match Infer.Engine.load engine batch ~col:0 x with
    | exception Invalid_argument msg ->
        Alcotest.(check string) label expected msg
    | () -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "short vector" "Engine.load: dimension mismatch" [| 1.0 |]
    (Infer.Engine.make_batch engine);
  rejects "wrong row count" "Engine.load: batch feature count mismatch"
    [| 1.0; 2.0 |]
    (Infer.Batch.create ~fmt ~features:3 ~capacity:4)

(* ------------------------------------------------------------------ *)
(* Directed adversarial cases                                          *)
(* ------------------------------------------------------------------ *)

(* Q16.16: min_raw * min_raw = 2^62, one past the largest 63-bit OCaml
   int — the product wraps modulo 2^63 in the scalar datapath and the
   kernel must wrap identically. *)
let test_product_wraparound () =
  let fmt = Qformat.make ~k:16 ~f:16 in
  let w_raws = [| Qformat.min_raw fmt; Qformat.max_raw fmt |] in
  let clf =
    clf_of_raws fmt ~w_raws ~thr_raw:0 ~exponents:[| 0; 0 |]
  in
  let inputs =
    [|
      [| Qformat.min_value fmt; Qformat.min_value fmt |];
      [| Qformat.min_value fmt; Qformat.max_value fmt |];
      [| Qformat.max_value fmt; Qformat.min_value fmt |];
      [| -1e12; 1e12 |] (* saturates both features *);
    |]
  in
  let engine = Infer.Engine.of_fixed ~capacity:4 clf in
  let batch = Infer.Engine.make_batch engine in
  let n = Infer.Engine.load_rows engine batch inputs in
  let preds = Bytes.create n in
  Infer.Engine.predict_into engine batch preds;
  Array.iteri
    (fun i x ->
      checkb
        (Printf.sprintf "wraparound row %d" i)
        (Fixed_classifier.predict clf x)
        (Bytes.get preds i = '\001');
      checkb
        (Printf.sprintf "wraparound projection %d" i)
        true
        (Qformat.value_of_raw fmt (Infer.Engine.projection_raw engine i)
        = Fx.to_float (Fixed_classifier.project clf x)))
    inputs

let test_saturation_boundary () =
  (* Inputs exactly on and just past the representable boundary, with
     scaling exponents shifting them across it. *)
  let fmt = Qformat.make ~k:2 ~f:6 in
  let clf =
    clf_of_raws fmt
      ~w_raws:[| Qformat.max_raw fmt; Qformat.min_raw fmt; 17 |]
      ~thr_raw:(-3) ~exponents:[| 1; 0; -2 |]
  in
  let b = Qformat.max_value fmt in
  let u = Qformat.ulp fmt in
  let inputs =
    Array.concat
      (List.map
         (fun v -> [| [| v; v; v |]; [| -.v; v; -.v |]; [| v; -.v; 0.0 |] |])
         [ b; b +. u; b +. (u /. 2.0); 2.0 *. b; -2.0 *. b; 1e300 ])
  in
  let engine = Infer.Engine.of_fixed ~capacity:(Array.length inputs) clf in
  let batch = Infer.Engine.make_batch engine in
  let n = Infer.Engine.load_rows engine batch inputs in
  let preds = Bytes.create n in
  Infer.Engine.predict_into engine batch preds;
  Array.iteri
    (fun i x ->
      checkb
        (Printf.sprintf "saturation row %d" i)
        (Fixed_classifier.predict clf x)
        (Bytes.get preds i = '\001'))
    inputs

(* ------------------------------------------------------------------ *)
(* Zero-allocation steady state                                        *)
(* ------------------------------------------------------------------ *)

let test_steady_state_no_alloc () =
  Obs.Metrics.set_enabled false;
  let fmt = Qformat.make ~k:2 ~f:6 in
  let clf =
    clf_of_raws fmt ~w_raws:[| 31; -17; 5; 12 |] ~thr_raw:7
      ~exponents:[| 0; 1; 0; -1 |]
  in
  let engine = Infer.Engine.of_fixed ~capacity:256 clf in
  let batch = Infer.Engine.make_batch engine in
  let rng = Stats.Rng.create 7 in
  let rows =
    Array.init 256 (fun _ ->
        Array.init 4 (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0))
  in
  let preds = Bytes.create 256 in
  let serve () =
    let n = Infer.Engine.load_rows engine batch rows in
    Infer.Engine.predict_into engine batch preds;
    n
  in
  checki "batch full" 256 (serve ());
  (* Warm up (first call may fault pages / build closures). *)
  for _ = 1 to 3 do
    ignore (serve () : int)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (serve () : int)
  done;
  let delta = Gc.minor_words () -. before in
  (* 1000 calls x 256 rows x 4 features loaded and predicted: anything
     beyond the Gc.minor_words probe noise means a per-call (let alone
     per-value) allocation crept in. *)
  checkb
    (Printf.sprintf "steady-state load_rows + predict allocates nothing \
                     (%.0f words)"
       delta)
    true (delta < 256.0)

(* Loading alone, one column at a time and by rows, with no
   Gc.minor_words slack: the probe itself is unboxed.  On both quantiser
   paths: the fast one (Q2.6, normal scales) and the general one (a
   scale that is not a normal double; WL 56). *)
let test_load_no_alloc () =
  List.iter
    (fun (fmt, exponents) ->
      let clf =
        clf_of_raws fmt ~w_raws:[| 31; -17; 5 |] ~thr_raw:7 ~exponents
      in
      let engine = Infer.Engine.of_fixed ~capacity:64 clf in
      let batch = Infer.Engine.make_batch engine in
      let rows = Array.init 64 (fun i -> [| float_of_int i; -0.3; 1e300 |]) in
      let load () =
        ignore (Infer.Engine.load_rows engine batch rows : int);
        for c = 0 to 63 do
          Infer.Engine.load engine batch ~col:c rows.(c)
        done
      in
      load ();
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        load ()
      done;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s, last exponent %d: minor words"
           (Qformat.to_string fmt) exponents.(2))
        0.0
        (Gc.minor_words () -. before))
    [
      (Qformat.make ~k:2 ~f:6, [| 0; 1; 2 |]);
      (Qformat.make ~k:2 ~f:6, [| 0; 1; 2000 |]);
      (Qformat.make ~k:3 ~f:53, [| 0; 1; 2 |]);
    ]

(* ------------------------------------------------------------------ *)
(* Front-end validation                                                *)
(* ------------------------------------------------------------------ *)

let validation_engine () =
  let fmt = Qformat.make ~k:2 ~f:6 in
  let clf =
    clf_of_raws fmt ~w_raws:[| 3; -5; 7 |] ~thr_raw:1 ~exponents:[| 0; 2; -1 |]
  in
  Infer.Engine.of_fixed ~capacity:8 clf

let raises_invalid label expected f =
  match f () with
  | exception Invalid_argument msg -> Alcotest.(check string) label expected msg
  | _ -> Alcotest.failf "%s: expected Invalid_argument %S" label expected

let test_load_rejects_other_format () =
  let engine = validation_engine () in
  let other =
    Infer.Batch.create ~fmt:(Qformat.make ~k:2 ~f:5) ~features:3 ~capacity:8
  in
  raises_invalid "load" "Engine.load: batch format differs from the engine's"
    (fun () -> Infer.Engine.load engine other ~col:0 [| 0.5; 0.25; -1.0 |]);
  raises_invalid "load_rows"
    "Engine.load_rows: batch format differs from the engine's" (fun () ->
      ignore (Infer.Engine.load_rows engine other [| [| 0.5; 0.25; -1.0 |] |]))

let test_load_rejects_column_outside_capacity () =
  let engine = validation_engine () in
  let batch = Infer.Engine.make_batch engine in
  let x = [| 0.5; 0.25; -1.0 |] in
  let outside = "Engine.load: column outside [0, capacity)" in
  raises_invalid "col = capacity" outside (fun () ->
      Infer.Engine.load engine batch ~col:8 x);
  raises_invalid "col < 0" outside (fun () ->
      Infer.Engine.load engine batch ~col:(-1) x);
  Infer.Engine.load engine batch ~col:7 x

let test_load_rows_rejects_negative_start () =
  let engine = validation_engine () in
  let batch = Infer.Engine.make_batch engine in
  let rows = Array.make 4 [| 0.5; 0.25; -1.0 |] in
  raises_invalid "start < 0" "Engine.load_rows: negative start" (fun () ->
      ignore (Infer.Engine.load_rows engine batch ~start:(-1) rows));
  checki "start past the end loads nothing" 0
    (Infer.Engine.load_rows engine batch ~start:9 rows)

let test_load_nan_names_feature () =
  let engine = validation_engine () in
  let batch = Infer.Engine.make_batch engine in
  raises_invalid "load" "Engine.load: NaN in feature 1" (fun () ->
      Infer.Engine.load engine batch ~col:0 [| 0.5; Float.nan; 1.0 |]);
  raises_invalid "load_rows" "Engine.load_rows: NaN in feature 2" (fun () ->
      ignore (Infer.Engine.load_rows engine batch [| [| 0.5; 0.0; Float.nan |] |]))

(* The first bad row of a block, in row order, raises its own message:
   a NaN in row [i] and a short (or empty) row at [k] raise for row
   min(i, k).  The rows before it are loaded, the columns after it keep
   what they held and the batch length is left as it was.  Run on a
   fast-path engine and on two general-path ones (a scale that is not a
   normal double, and WL 56). *)
let test_load_rows_first_bad_row () =
  let engines =
    List.map
      (fun (fmt, exponents) ->
        Infer.Engine.of_fixed ~capacity:32
          (clf_of_raws fmt ~w_raws:[| 3; -5; 7 |] ~thr_raw:1 ~exponents))
      [
        (Qformat.make ~k:2 ~f:6, [| 0; 2; -1 |]);
        (Qformat.make ~k:2 ~f:6, [| 0; 2000; -1 |]);
        (Qformat.make ~k:3 ~f:53, [| 0; 2; -1 |]);
      ]
  in
  let clean = Array.init 24 (fun i -> [| 0.1 *. float_of_int i; -0.3; 1.5 |]) in
  let row i = [| 0.05 *. float_of_int i; 0.25; -1.0 |] in
  let with_bad bad =
    Array.init 24 (fun i ->
        Option.value (List.assoc_opt i bad) ~default:(row i))
  in
  let nan_row = [| 0.5; Float.nan; Float.nan |] in
  let cases =
    [
      ("NaN at 5, short row at 11", [ (5, nan_row); (11, [| 1.0 |]) ], 5,
       "Engine.load_rows: NaN in feature 1");
      ("short row at 5, NaN at 11", [ (5, [| 1.0; 2.0 |]); (11, nan_row) ], 5,
       "Engine.load_rows: dimension mismatch");
      ("empty row at 9, NaN at 10", [ (9, [||]); (10, nan_row) ], 9,
       "Engine.load_rows: dimension mismatch");
      ("NaN in the last row", [ (23, [| 0.5; 0.0; Float.nan |]) ], 23,
       "Engine.load_rows: NaN in feature 2");
    ]
  in
  List.iteri
    (fun e engine ->
      List.iter
        (fun (label, bad, first, msg) ->
          let label = Printf.sprintf "engine %d, %s" e label in
          let rows = with_bad bad in
          let batch = Infer.Engine.make_batch engine
          and expected = Infer.Engine.make_batch engine in
          ignore (Infer.Engine.load_rows engine batch clean : int);
          ignore (Infer.Engine.load_rows engine expected clean : int);
          for c = 0 to first - 1 do
            Infer.Engine.load engine expected ~col:c rows.(c)
          done;
          raises_invalid label msg (fun () ->
              Infer.Engine.load_rows engine batch rows);
          checki (label ^ ": length") 24 (Infer.Batch.length batch);
          let got = Infer.Batch.data batch
          and want = Infer.Batch.data expected in
          for c = 0 to 31 do
            if c <> first then
              for j = 0 to 2 do
                checki (Printf.sprintf "%s: code %d of column %d" label j c)
                  want.{j, c} got.{j, c}
              done
          done)
        cases)
    engines

(* The capacity is the one asked for; the storage behind it is padded
   to an odd number of 64-byte lines per row, and the padding is out of
   [load]'s reach. *)
let test_batch_layout () =
  let fmt = Qformat.make ~k:2 ~f:6 in
  let clf =
    clf_of_raws fmt ~w_raws:[| 3; -5; 7 |] ~thr_raw:1 ~exponents:[| 0; 2; -1 |]
  in
  let x = [| 0.5; 0.25; -1.0 |] in
  List.iter
    (fun (capacity, stride) ->
      let engine = Infer.Engine.of_fixed ~capacity clf in
      let batch = Infer.Engine.make_batch engine in
      let label = Printf.sprintf "capacity %d" capacity in
      checki label capacity (Infer.Batch.capacity batch);
      checki (label ^ ": stride") stride
        (Bigarray.Array2.dim2 (Infer.Batch.data batch));
      raises_invalid (label ^ ": col = capacity")
        "Engine.load: column outside [0, capacity)" (fun () ->
          Infer.Engine.load engine batch ~col:capacity x);
      Infer.Engine.load engine batch ~col:(capacity - 1) x;
      Infer.Batch.set_length batch capacity;
      raises_invalid (label ^ ": length past capacity")
        "Batch.set_length: out of range" (fun () ->
          Infer.Batch.set_length batch (capacity + 1)))
    [ (1, 8); (1000, 1000); (1024, 1032) ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let prometheus_counter_value name text =
  let v = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
             v :=
               int_of_float
                 (float_of_string
                    (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> ());
  !v

let test_metrics_count_predictions () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf = clf_of_raws fmt ~w_raws:[| 3; -5 |] ~thr_raw:1 ~exponents:[| 0; 0 |] in
  let engine = Infer.Engine.of_fixed ~capacity:64 clf in
  let batch = Infer.Engine.make_batch engine in
  let rows = Array.make 37 [| 0.25; -0.5 |] in
  let n = Infer.Engine.load_rows engine batch rows in
  let preds = Bytes.create n in
  let name = "ldafp_infer_predictions_total" in
  let read () =
    prometheus_counter_value name
      (Obs.Metrics.to_prometheus Obs.Metrics.default)
  in
  let before = read () in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () -> Infer.Engine.predict_into engine batch preds);
  checki "one count per prediction" (before + 37) (read ())

(* ------------------------------------------------------------------ *)
(* C model header                                                      *)
(* ------------------------------------------------------------------ *)

let golden_clf () =
  clf_of_raws
    (Qformat.make ~k:2 ~f:4)
    ~w_raws:[| -7; 12; 3 |] ~thr_raw:5 ~exponents:[| 3; 3; 2 |]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs in _build/default/test (where the golden dep is
   staged); dune exec from the workspace root does not. *)
let golden_path name =
  List.find Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

let test_header_golden () =
  Alcotest.(check string)
    "header matches golden file"
    (read_file (golden_path "lda_model_fixed.h.golden"))
    (Model_io.c_header_of (golden_clf ()))

(* Pull the int list out of a generated [static const int32_t name[...]
   = { ... };] line, and the value of a [#define name v] line. *)
let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let header_array name text =
  let needle = name ^ "[LDAFP_NUM_FEATURES] = {" in
  match
    List.find_opt
      (fun l -> contains_substring l needle)
      (String.split_on_char '\n' text)
  with
  | None -> Alcotest.failf "array %s not found in header" name
  | Some line ->
      let lo = String.index line '{' + 1 in
      let hi = String.index line '}' in
      String.sub line lo (hi - lo)
      |> String.split_on_char ','
      |> List.map (fun s -> int_of_string (String.trim s))

let header_define name text =
  let prefix = "#define " ^ name ^ " " in
  match
    List.find_map
      (fun l ->
        if String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then
          let rest =
            String.sub l (String.length prefix)
              (String.length l - String.length prefix)
          in
          let rest =
            match String.index_opt rest '/' with
            | Some i -> String.sub rest 0 i
            | None -> rest
          in
          int_of_string_opt (String.trim rest)
        else None)
      (String.split_on_char '\n' text)
  with
  | Some v -> v
  | None -> Alcotest.failf "#define %s not found in header" name

let test_header_round_trip () =
  let clf = golden_clf () in
  let text = Model_io.c_header_of clf in
  let fmt = Fixed_classifier.format clf in
  checki "features" (Fixed_classifier.n_features clf)
    (header_define "LDAFP_NUM_FEATURES" text);
  checki "frac bits" fmt.Qformat.f (header_define "LDAFP_FRAC_BITS" text);
  checki "word length" (Qformat.word_length fmt)
    (header_define "LDAFP_WORD_LENGTH" text);
  checki "polarity"
    (if clf.Fixed_classifier.polarity then 1 else 0)
    (header_define "LDAFP_POLARITY" text);
  checki "threshold"
    (Fx.raw clf.Fixed_classifier.threshold)
    (header_define "LDAFP_THRESHOLD_RAW" text);
  Alcotest.(check (list int))
    "scale exponents"
    (Array.to_list
       (Array.init (Fixed_classifier.n_features clf)
          (Scaling.exponent clf.Fixed_classifier.scaling)))
    (header_array "ldafp_scale_exponent" text);
  Alcotest.(check (list int))
    "weight codes"
    (Array.to_list
       (Array.init (Fixed_classifier.n_features clf) (fun i ->
            Fx.raw (Fx_vector.get clf.Fixed_classifier.w i))))
    (header_array "ldafp_weight_raw" text)

let test_header_rejects_wide_words () =
  let fmt = Qformat.make ~k:16 ~f:16 in
  let clf = clf_of_raws fmt ~w_raws:[| 1 |] ~thr_raw:0 ~exponents:[| 0 |] in
  match Model_io.c_header_of clf with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "word length 32 must be refused"

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Independent engines on several domains                              *)
(* ------------------------------------------------------------------ *)

(* Engines are independent values: one per domain, each loading the
   same rows, must return verdicts byte-identical to scalar [predict].
   The conventional Q2.6 model of the Table-1 synthetic data, on inputs
   with a heavy tail that saturates the front end. *)
let test_sharded_engines_agree () =
  let rng = Stats.Rng.create 42 in
  let ds = Datasets.Synthetic.generate ~n_per_class:300 rng in
  let clf = Pipeline.train_conventional ~fmt:(Qformat.make ~k:2 ~f:6) ds in
  let m = Fixed_classifier.n_features clf in
  let rows =
    Array.init 256 (fun _ ->
        Array.init m (fun _ ->
            match Stats.Rng.int rng 10 with
            | 0 -> Stats.Rng.uniform rng ~lo:(-64.0) ~hi:64.0
            | 1 -> Stats.Rng.uniform rng ~lo:(-8.0) ~hi:8.0
            | _ -> Stats.Rng.uniform rng ~lo:(-2.5) ~hi:2.5))
  in
  let scalar =
    Bytes.init (Array.length rows) (fun i ->
        if Fixed_classifier.predict clf rows.(i) then '\001' else '\000')
  in
  checkb "rows reach both verdicts" true
    (Bytes.contains scalar '\001' && Bytes.contains scalar '\000');
  List.iter
    (fun domains ->
      let workers =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                let e = Infer.Engine.of_fixed ~capacity:(Array.length rows) clf in
                let b = Infer.Engine.make_batch e in
                let n = Infer.Engine.load_rows e b rows in
                let out = Bytes.create n in
                Infer.Engine.predict_into e b out;
                out))
      in
      List.iteri
        (fun w d ->
          Alcotest.(check string)
            (Printf.sprintf "domains=%d, worker %d: verdicts = scalar" domains w)
            (Bytes.to_string scalar)
            (Bytes.to_string (Domain.join d)))
        workers)
    [ 2; 4 ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_uniform_bit_exact ]

let () =
  Alcotest.run "infer"
    [
      ("bit-exact", qcheck_tests);
      ( "domains",
        [
          Alcotest.test_case "independent engines agree with scalar" `Quick
            test_sharded_engines_agree;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "63-bit product wraparound" `Quick
            test_product_wraparound;
          Alcotest.test_case "saturation boundary" `Quick
            test_saturation_boundary;
        ] );
      ( "quantizer",
        [
          QCheck_alcotest.to_alcotest prop_quantizer_matches_spec;
          test_load_rows_matches_load;
          Alcotest.test_case "NaN names the feature" `Quick test_quantizer_nan;
          Alcotest.test_case "shape checks" `Quick test_quantizer_shape;
        ] );
      ( "steady state",
        [
          Alcotest.test_case "batched predict allocates nothing" `Quick
            test_steady_state_no_alloc;
          Alcotest.test_case "load and load_rows allocate nothing" `Quick
            test_load_no_alloc;
        ] );
      ( "layout",
        [
          Alcotest.test_case "capacity is the request, rows padded" `Quick
            test_batch_layout;
        ] );
      ( "validation",
        [
          Alcotest.test_case "batch in another format" `Quick
            test_load_rejects_other_format;
          Alcotest.test_case "column outside capacity" `Quick
            test_load_rejects_column_outside_capacity;
          Alcotest.test_case "negative start" `Quick
            test_load_rows_rejects_negative_start;
          Alcotest.test_case "NaN names the feature" `Quick
            test_load_nan_names_feature;
          Alcotest.test_case "first bad row raises" `Quick
            test_load_rows_first_bad_row;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "predictions counter" `Quick
            test_metrics_count_predictions;
        ] );
      ( "c header",
        [
          Alcotest.test_case "golden file" `Quick test_header_golden;
          Alcotest.test_case "tables round-trip" `Quick test_header_round_trip;
          Alcotest.test_case "wide word refused" `Quick
            test_header_rejects_wide_words;
        ] );
    ]
