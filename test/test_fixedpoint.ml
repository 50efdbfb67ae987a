(* Tests for the fixed-point arithmetic substrate. *)

open Fixedpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-12)) msg

(* ------------------------------------------------------------------ *)
(* Qformat                                                             *)
(* ------------------------------------------------------------------ *)

let test_format_basics () =
  let fmt = Qformat.make ~k:3 ~f:5 in
  checki "word length" 8 (Qformat.word_length fmt);
  checkf "ulp" 0.03125 (Qformat.ulp fmt);
  checkf "min" (-4.0) (Qformat.min_value fmt);
  checkf "max" (4.0 -. 0.03125) (Qformat.max_value fmt);
  checki "min raw" (-128) (Qformat.min_raw fmt);
  checki "max raw" 127 (Qformat.max_raw fmt);
  checki "cardinality" 256 (Qformat.cardinality fmt)

let test_format_q30_paper () =
  (* Q3.0 is the paper's §3 example format: range [-4, 3]. *)
  let fmt = Qformat.make ~k:3 ~f:0 in
  checkf "min" (-4.0) (Qformat.min_value fmt);
  checkf "max" 3.0 (Qformat.max_value fmt);
  checkf "ulp" 1.0 (Qformat.ulp fmt)

let test_format_invalid () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Qformat.make: k must be >= 1 (sign bit)")
    (fun () -> ignore (Qformat.make ~k:0 ~f:4));
  checkb "negative f rejected" true
    (match Qformat.make ~k:2 ~f:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "huge word rejected" true
    (match Qformat.make ~k:32 ~f:32 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_wrap_raw () =
  let fmt = Qformat.make ~k:3 ~f:0 in
  checki "in range" 3 (Qformat.wrap_raw fmt 3);
  checki "3+3 wraps to -2" (-2) (Qformat.wrap_raw fmt 6);
  checki "-5 wraps to 3" 3 (Qformat.wrap_raw fmt (-5));
  checki "8 wraps to 0" 0 (Qformat.wrap_raw fmt 8);
  checki "min stays" (-4) (Qformat.wrap_raw fmt (-4))

let test_saturate_raw () =
  let fmt = Qformat.make ~k:3 ~f:0 in
  checki "clamps high" 3 (Qformat.saturate_raw fmt 100);
  checki "clamps low" (-4) (Qformat.saturate_raw fmt (-100));
  checki "passes through" 2 (Qformat.saturate_raw fmt 2)

let test_grid_helpers () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  checkf "floor" 0.25 (Qformat.floor_to_grid fmt 0.3);
  checkf "ceil" 0.5 (Qformat.ceil_to_grid fmt 0.3);
  checkf "nearest down" 0.25 (Qformat.nearest_on_grid fmt 0.3);
  checkf "nearest up" 0.5 (Qformat.nearest_on_grid fmt 0.45);
  (* tie 0.375 -> even raw (0.375 scaled = 1.5; even neighbour 2 -> 0.5) *)
  checkf "tie to even" 0.5 (Qformat.nearest_on_grid fmt 0.375);
  checkf "negative floor" (-0.5) (Qformat.floor_to_grid fmt (-0.3))

let test_values_enumeration () =
  let fmt = Qformat.make ~k:2 ~f:1 in
  let vs = Qformat.values fmt in
  checki "count" 8 (Array.length vs);
  checkf "first" (-2.0) vs.(0);
  checkf "last" 1.5 vs.(7);
  (* strictly increasing with constant step *)
  Array.iteri
    (fun i v -> if i > 0 then checkf "step" 0.5 (v -. vs.(i - 1)))
    vs

let test_raw_value_roundtrip () =
  let fmt = Qformat.make ~k:2 ~f:6 in
  for r = Qformat.min_raw fmt to Qformat.max_raw fmt do
    checki "roundtrip" r (Qformat.raw_of_value_exn fmt (Qformat.value_of_raw fmt r))
  done

(* ------------------------------------------------------------------ *)
(* Rounding                                                            *)
(* ------------------------------------------------------------------ *)

let test_shift_right_rounded_matches_float () =
  (* Integer shift-with-round must agree with rounding the real quotient. *)
  List.iter
    (fun (r, n) ->
      let real = float_of_int r /. float_of_int (1 lsl n) in
      let got = Rounding.shift_right_rounded Rounding.Floor r n in
      checki
        (Printf.sprintf "floor %d >> %d" r n)
        (int_of_float (Float.floor real))
        got;
      let got = Rounding.shift_right_rounded Rounding.Ceil r n in
      checki
        (Printf.sprintf "ceil %d >> %d" r n)
        (int_of_float (Float.ceil real))
        got)
    [ (13, 2); (-13, 2); (7, 3); (-7, 3); (100, 4); (-100, 4); (0, 5) ]

let test_shift_right_nearest_ties () =
  (* value 2.5 -> 2 (even); 3.5 -> 4; -2.5 -> -2; -3.5 -> -4 *)
  checki "2.5 to even" 2 (Rounding.shift_right_rounded Rounding.Nearest 5 1);
  checki "3.5 to even" 4 (Rounding.shift_right_rounded Rounding.Nearest 7 1);
  checki "-2.5 to even" (-2) (Rounding.shift_right_rounded Rounding.Nearest (-5) 1);
  checki "-3.5 to even" (-4) (Rounding.shift_right_rounded Rounding.Nearest (-7) 1);
  (* nearest-away: 2.5 -> 3, -2.5 -> -3 *)
  checki "2.5 away" 3 (Rounding.shift_right_rounded Rounding.Nearest_away 5 1);
  checki "-2.5 away" (-3)
    (Rounding.shift_right_rounded Rounding.Nearest_away (-5) 1)

let test_overflow_policies () =
  let fmt = Qformat.make ~k:3 ~f:0 in
  checki "wrap" (-2) (Rounding.apply_overflow Rounding.Wrap fmt ~what:"t" 6);
  checki "saturate" 3 (Rounding.apply_overflow Rounding.Saturate fmt ~what:"t" 6);
  checkb "error raises" true
    (match Rounding.apply_overflow Rounding.Error fmt ~what:"t" 6 with
    | exception Rounding.Fixed_point_overflow _ -> true
    | _ -> false)

let test_round_scaled_saturates () =
  (* Beyond the int range [int_of_float] is unspecified; extreme scaled
     values must saturate so callers can clamp them into format bounds. *)
  checki "huge positive" max_int (Rounding.round_scaled Rounding.Nearest 1e300);
  checki "huge negative" min_int
    (Rounding.round_scaled Rounding.Nearest (-1e300));
  checki "+inf" max_int (Rounding.round_scaled Rounding.Floor Float.infinity);
  checki "-inf" min_int (Rounding.round_scaled Rounding.Ceil Float.neg_infinity);
  checki "in-range unchanged" (-3)
    (Rounding.round_scaled Rounding.Nearest (-3.4));
  checkb "nan rejected" true
    (match Rounding.round_scaled Rounding.Nearest Float.nan with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fx scalars                                                          *)
(* ------------------------------------------------------------------ *)

let test_fx_of_float_nearest () =
  let fmt = Qformat.make ~k:2 ~f:3 in
  checkf "0.3 -> 0.25" 0.25 (Fx.to_float (Fx.of_float fmt 0.3));
  checkf "0.69 -> 0.75" 0.75 (Fx.to_float (Fx.of_float fmt 0.69));
  checkf "-1.99 -> -2" (-2.0) (Fx.to_float (Fx.of_float fmt (-1.99)));
  checkf "exact stays" 0.625 (Fx.to_float (Fx.of_float fmt 0.625))

let test_fx_overflow_wrap_vs_saturate () =
  let fmt = Qformat.make ~k:2 ~f:3 in
  (* 2.0 is one ulp past max = 1.875; wrap lands at -2.0 *)
  checkf "wrap" (-2.0) (Fx.to_float (Fx.of_float ~ov:Rounding.Wrap fmt 2.0));
  checkf "saturate" 1.875
    (Fx.to_float (Fx.of_float ~ov:Rounding.Saturate fmt 2.0))

let test_fx_add_sub_paper_example () =
  (* §3: 3 + 3 - 4 = 2 in Q3.0 despite intermediate wrap. *)
  let fmt = Qformat.make ~k:3 ~f:0 in
  let three = Fx.of_float fmt 3.0 in
  let four = Fx.of_float fmt 4.0 ~ov:Rounding.Saturate in
  ignore four;
  let six = Fx.add three three in
  checkf "3+3 wraps to -2" (-2.0) (Fx.to_float six);
  let res = Fx.sub six (Fx.of_float fmt 4.0 ~ov:Rounding.Saturate) in
  (* -2 - 3(sat) = -5 wraps to 3: saturation of 4 changes the example, so
     instead subtract via adding -4 directly. *)
  ignore res;
  let minus_four = Fx.of_float fmt (-4.0) in
  checkf "(-2) + (-4) wraps to 2" 2.0 (Fx.to_float (Fx.add six minus_four))

let test_fx_mul () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let a = Fx.of_float fmt 0.5 in
  let b = Fx.of_float fmt 0.75 in
  checkf "0.5*0.75" 0.375 (Fx.to_float (Fx.mul a b));
  let c = Fx.of_float fmt (-1.5) in
  checkf "-1.5*0.5" (-0.75) (Fx.to_float (Fx.mul c a));
  (* rounding: 0.0625 * 0.0625 = 0.00390625 -> nearest grid 0 *)
  let ulp = Fx.of_float fmt 0.0625 in
  checkf "tiny product rounds to zero" 0.0 (Fx.to_float (Fx.mul ulp ulp))

let test_fx_mul_saturate () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let big = Fx.of_float fmt 1.9375 in
  checkf "sat product" 1.9375
    (Fx.to_float (Fx.mul ~ov:Rounding.Saturate big big))

let test_fx_neg_min_val () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let m = Fx.min_val fmt in
  (* two's complement: -(-2) wraps back to -2 *)
  checkf "neg min wraps" (-2.0) (Fx.to_float (Fx.neg m));
  checkf "neg min saturates" 1.75
    (Fx.to_float (Fx.neg ~ov:Rounding.Saturate m))

let test_fx_format_mismatch () =
  let a = Fx.of_float (Qformat.make ~k:2 ~f:2) 0.5 in
  let b = Fx.of_float (Qformat.make ~k:2 ~f:3) 0.5 in
  checkb "add rejects mixed formats" true
    (match Fx.add a b with exception Invalid_argument _ -> true | _ -> false)

let test_fx_shifts () =
  let fmt = Qformat.make ~k:3 ~f:2 in
  let x = Fx.of_float fmt 0.75 in
  checkf "shl 1" 1.5 (Fx.to_float (Fx.shift_left x 1));
  (* 0.75 is 3 ulps; 3/2 = 1.5 ulps rounds to even 2 ulps = 0.5 *)
  checkf "shr 1 rounds to even" 0.5 (Fx.to_float (Fx.shift_right x 1));
  checkf "shr floor" 0.25
    (Fx.to_float (Fx.shift_right x 1 ~mode:Rounding.Floor));
  checkf "shr ceil" 0.5
    (Fx.to_float (Fx.shift_right x 1 ~mode:Rounding.Ceil))

let test_quantization_error_bound () =
  let fmt = Qformat.make ~k:2 ~f:5 in
  let half_ulp = Qformat.ulp fmt /. 2.0 in
  List.iter
    (fun x ->
      let e = Fx.quantization_error fmt x in
      checkb
        (Printf.sprintf "quant error of %g within half ulp" x)
        true
        (Float.abs e <= half_ulp +. 1e-15))
    [ 0.0; 0.1; -0.9; 1.2; 1.93; -1.999; 0.03125 ]

(* ------------------------------------------------------------------ *)
(* Fx_vector / MAC semantics                                           *)
(* ------------------------------------------------------------------ *)

let test_dot_simple () =
  let fmt = Qformat.make ~k:3 ~f:4 in
  let w = Fx_vector.of_floats fmt [| 1.0; -0.5; 2.0 |] in
  let x = Fx_vector.of_floats fmt [| 0.5; 0.5; 1.0 |] in
  checkf "dot" 2.25 (Fx.to_float (Fx_vector.dot w x));
  checkf "dot reference" 2.25 (Fx_vector.dot_reference w x);
  checkf "dot wide" 2.25 (Fx.to_float (Fx_vector.dot_wide w x))

let test_dot_wrap_theorem_example () =
  (* Intermediate overflow, final value representable: wrap recovers it. *)
  let fmt = Qformat.make ~k:3 ~f:0 in
  let w = Fx_vector.of_floats fmt [| 1.0; 1.0; 1.0 |] in
  let x = Fx_vector.of_floats fmt [| 3.0; 3.0; -4.0 |] in
  checkf "3+3-4 = 2 despite wrap" 2.0 (Fx.to_float (Fx_vector.dot w x))

let test_dot_empty_and_mismatch () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let a = Fx_vector.of_floats fmt [| 0.5 |] in
  let b = Fx_vector.of_floats fmt [| 0.5; 0.25 |] in
  checkb "length mismatch" true
    (match Fx_vector.dot a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_vector_accessors () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let v = Fx_vector.create fmt 3 in
  checki "zero length" 3 (Fx_vector.length v);
  checkf "initialised to zero" 0.0 (Fx.to_float (Fx_vector.get v 1));
  Fx_vector.set v 1 (Fx.of_float fmt 0.75);
  checkf "set/get" 0.75 (Fx.to_float (Fx_vector.get v 1));
  checkb "set rejects format mismatch" true
    (match Fx_vector.set v 0 (Fx.of_float (Qformat.make ~k:2 ~f:3) 0.5) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let doubled = Fx_vector.map (fun x -> Fx.add x x) v in
  checkf "map" 1.5 (Fx.to_float (Fx_vector.get doubled 1));
  checkb "of_fx rejects mixed" true
    (match
       Fx_vector.of_fx
         [| Fx.of_float fmt 0.5; Fx.of_float (Qformat.make ~k:3 ~f:2) 0.5 |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "of_fx rejects empty" true
    (match Fx_vector.of_fx [||] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_vector_ops () =
  let fmt = Qformat.make ~k:3 ~f:3 in
  let a = Fx_vector.of_floats fmt [| 1.0; -2.0; 0.5 |] in
  let b = Fx_vector.of_floats fmt [| 0.25; 1.0; -0.5 |] in
  Alcotest.(check (array (float 1e-12)))
    "add" [| 1.25; -1.0; 0.0 |]
    (Fx_vector.to_floats (Fx_vector.add a b));
  Alcotest.(check (array (float 1e-12)))
    "sub" [| 0.75; -3.0; 1.0 |]
    (Fx_vector.to_floats (Fx_vector.sub a b));
  checkf "linf" 2.0 (Fx_vector.linf_norm a);
  let c = Fx.of_float fmt 2.0 in
  Alcotest.(check (array (float 1e-12)))
    "scale" [| 2.0; -4.0; 1.0 |]
    (Fx_vector.to_floats (Fx_vector.scale c a))

(* ------------------------------------------------------------------ *)
(* Fx_interval                                                         *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let iv = Fx_interval.of_values fmt ~lo:(-0.6) ~hi:0.8 in
  checkf "lo snaps up" (-0.5) (Fx_interval.lo iv);
  checkf "hi snaps down" 0.75 (Fx_interval.hi iv);
  checki "count" 6 (Fx_interval.count iv);
  checkb "mem" true (Fx_interval.mem iv 0.3);
  checkb "not mem" false (Fx_interval.mem iv 0.9)

let test_interval_full () =
  let fmt = Qformat.make ~k:2 ~f:3 in
  let iv = Fx_interval.full fmt in
  checki "count = cardinality" (Qformat.cardinality fmt) (Fx_interval.count iv);
  checkf "lo" (-2.0) (Fx_interval.lo iv);
  checkf "hi" 1.875 (Fx_interval.hi iv)

let test_interval_split_covers () =
  let fmt = Qformat.make ~k:2 ~f:3 in
  let iv = Fx_interval.full fmt in
  match Fx_interval.split iv with
  | None -> Alcotest.fail "full interval must split"
  | Some (l, r) ->
      checki "partition sizes" (Fx_interval.count iv)
        (Fx_interval.count l + Fx_interval.count r);
      checkb "disjoint adjacent" true
        (Fx_interval.hi l < Fx_interval.lo r);
      checkf "no gap (one ulp apart)" (Qformat.ulp fmt)
        (Fx_interval.lo r -. Fx_interval.hi l)

let test_interval_split_singleton () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let iv = Fx_interval.of_values fmt ~lo:0.25 ~hi:0.25 in
  checkb "singleton" true (Fx_interval.is_singleton iv);
  checkb "no split" true (Fx_interval.split iv = None);
  Alcotest.(check (option (float 0.0)))
    "singleton value" (Some 0.25)
    (Fx_interval.singleton_value iv)

let test_interval_split_at () =
  let fmt = Qformat.make ~k:3 ~f:0 in
  let iv = Fx_interval.of_values fmt ~lo:(-4.0) ~hi:3.0 in
  (match Fx_interval.split ~at:2.0 iv with
  | Some (l, r) ->
      checkf "left hi at cut" 2.0 (Fx_interval.hi l);
      checkf "right lo after cut" 3.0 (Fx_interval.lo r)
  | None -> Alcotest.fail "split failed");
  (* cut point beyond hi clamps so both halves stay non-empty *)
  match Fx_interval.split ~at:99.0 iv with
  | Some (l, r) ->
      checkb "both non-empty" true
        (Fx_interval.count l >= 1 && Fx_interval.count r >= 1)
  | None -> Alcotest.fail "split failed"

let test_interval_clamp_value () =
  let fmt = Qformat.make ~k:2 ~f:2 in
  let iv = Fx_interval.of_values fmt ~lo:(-1.0) ~hi:1.0 in
  checkf "clamps above" 1.0 (Fx_interval.clamp_value iv 5.0);
  checkf "clamps below" (-1.0) (Fx_interval.clamp_value iv (-5.0));
  checkf "rounds inside" 0.5 (Fx_interval.clamp_value iv 0.55)

let test_interval_empty_rejected () =
  let fmt = Qformat.make ~k:2 ~f:1 in
  checkb "no grid point" true
    (match Fx_interval.of_values fmt ~lo:0.1 ~hi:0.4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* From F = 53 on, max_value = 2 - 2^-F rounds up to 2.0 as a double,
   one code past max_raw once scaled: the interval clamps its codes to
   the format's range instead of refusing the format. *)
let test_interval_wide_formats () =
  for f = 50 to 60 do
    let fmt = Qformat.make ~k:2 ~f in
    let tag what = Printf.sprintf "Q2.%d: %s" f what in
    let iv = Fx_interval.of_values fmt ~lo:0.0 ~hi:(Qformat.max_value fmt) in
    checki (tag "hi = max_value gives max_raw") (Qformat.max_raw fmt) (Fx_interval.count iv - 1);
    let full = Fx_interval.of_values fmt ~lo:(-5.0) ~hi:5.0 in
    checki (tag "clamped to the full range") (Qformat.cardinality fmt) (Fx_interval.count full)
  done

let test_interval_mid_floor_division () =
  (* Midpoints must use floor division of the raw sum: truncating
     [(lo + hi) / 2] rounds toward zero, which on negative-raw intervals
     biased the midpoint a grid step up.  Q2.2, raws [-5, -2]: the
     midpoint is raw floor(-7/2) = -4, i.e. -1.0 (truncation gave -3,
     i.e. -0.75). *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let neg = Fx_interval.of_values fmt ~lo:(-1.25) ~hi:(-0.5) in
  checkf "negative mid floors" (-1.0) (Fx_interval.mid neg);
  let pos = Fx_interval.of_values fmt ~lo:0.5 ~hi:1.25 in
  checkf "positive mid unchanged" 0.75 (Fx_interval.mid pos)

let test_interval_split_balance () =
  (* A 4-point negative interval must split 2+2, exactly like its
     mirrored positive counterpart (pre-fix it split 3+1). *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let neg = Fx_interval.of_values fmt ~lo:(-1.25) ~hi:(-0.5) in
  (match Fx_interval.split neg with
  | Some (l, r) ->
      checki "negative left count" 2 (Fx_interval.count l);
      checki "negative right count" 2 (Fx_interval.count r);
      checkf "negative left hi" (-1.0) (Fx_interval.hi l);
      checkf "negative right lo" (-0.75) (Fx_interval.lo r)
  | None -> Alcotest.fail "split failed");
  let pos = Fx_interval.of_values fmt ~lo:0.5 ~hi:1.25 in
  match Fx_interval.split pos with
  | Some (l, r) ->
      checki "positive left count" 2 (Fx_interval.count l);
      checki "positive right count" 2 (Fx_interval.count r)
  | None -> Alcotest.fail "split failed"

let test_interval_clamp_extreme_magnitudes () =
  (* [clamp_value] goes through [int_of_float] on the scaled input, which
     is unspecified beyond the int range: huge reals must land exactly on
     the interval endpoints. *)
  let fmt = Qformat.make ~k:2 ~f:2 in
  let iv = Fx_interval.of_values fmt ~lo:(-1.0) ~hi:1.0 in
  checkf "huge positive clamps to hi" 1.0 (Fx_interval.clamp_value iv 1e300);
  checkf "huge negative clamps to lo" (-1.0)
    (Fx_interval.clamp_value iv (-1e300));
  checkf "+inf clamps to hi" 1.0 (Fx_interval.clamp_value iv Float.infinity);
  checkf "-inf clamps to lo" (-1.0)
    (Fx_interval.clamp_value iv Float.neg_infinity)

(* ------------------------------------------------------------------ *)
(* Format_policy                                                       *)
(* ------------------------------------------------------------------ *)

let test_policies () =
  let fmt = Format_policy.fixed_k ~k:2 8 in
  checki "fixed_k k" 2 fmt.Qformat.k;
  checki "fixed_k f" 6 fmt.Qformat.f;
  let fmt = Format_policy.fixed_f ~f:3 8 in
  checki "fixed_f k" 5 fmt.Qformat.k;
  let fmt = Format_policy.balanced 7 in
  checki "balanced k" 4 fmt.Qformat.k;
  checki "balanced f" 3 fmt.Qformat.f;
  checkb "fixed_k rejects wl <= k" true
    (match Format_policy.fixed_k ~k:4 4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let fmt_gen =
  QCheck.Gen.(
    let* k = int_range 1 6 in
    let* f = int_range 0 10 in
    return (Qformat.make ~k ~f))


let arb_fmt_value =
  QCheck.make
    ~print:(fun (fmt, x) -> Printf.sprintf "(%s, %g)" (Qformat.to_string fmt) x)
    QCheck.Gen.(
      let* fmt = fmt_gen in
      let* x = float_range (-20.0) 20.0 in
      return (fmt, x))

let prop_quantize_idempotent =
  QCheck.Test.make ~name:"of_float is idempotent on grid values" ~count:500
    arb_fmt_value (fun (fmt, x) ->
      let q = Fx.of_float ~ov:Rounding.Saturate fmt x in
      let q2 = Fx.of_float ~ov:Rounding.Saturate fmt (Fx.to_float q) in
      Fx.equal q q2)

let prop_quantize_error_half_ulp =
  QCheck.Test.make ~name:"in-range quantisation error <= ulp/2" ~count:500
    arb_fmt_value (fun (fmt, x) ->
      QCheck.assume (Qformat.in_range fmt x);
      Float.abs (Fx.quantization_error fmt x)
      <= (Qformat.ulp fmt /. 2.0) +. 1e-15)

let prop_wrap_add_congruent =
  (* Wrapped sum is congruent to the exact sum modulo 2^wl ulps. *)
  QCheck.Test.make ~name:"wrapped add congruent mod 2^wl" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* fmt = fmt_gen in
         let* a = int_range (Qformat.min_raw fmt) (Qformat.max_raw fmt) in
         let* b = int_range (Qformat.min_raw fmt) (Qformat.max_raw fmt) in
         return (fmt, a, b)))
    (fun (fmt, a, b) ->
      let sum = Fx.add (Fx.create fmt a) (Fx.create fmt b) in
      let m = Qformat.cardinality fmt in
      (Fx.raw sum - (a + b)) mod m = 0)

let prop_wrap_theorem =
  (* The paper's §3 claim: if the exact sum of in-range terms is in range,
     wrapping accumulation returns it exactly (integer raw arithmetic). *)
  QCheck.Test.make ~name:"intermediate wrap harmless when final fits"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* fmt = fmt_gen in
         let* n = int_range 1 12 in
         let* raws =
           list_repeat n (int_range (Qformat.min_raw fmt) (Qformat.max_raw fmt))
         in
         return (fmt, raws)))
    (fun (fmt, raws) ->
      let exact = List.fold_left ( + ) 0 raws in
      QCheck.assume
        (exact >= Qformat.min_raw fmt && exact <= Qformat.max_raw fmt);
      let acc =
        List.fold_left
          (fun acc r -> Fx.add acc (Fx.create fmt r))
          (Fx.zero fmt) raws
      in
      Fx.raw acc = exact)

let prop_dot_wide_equals_reference_when_in_range =
  QCheck.Test.make
    ~name:"dot_wide matches rounded exact dot when result fits" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* f = int_range 1 6 in
         let fmt = Qformat.make ~k:3 ~f in
         let* n = int_range 1 8 in
         let value = float_range (-0.4) 0.4 in
         let* ws = list_repeat n value in
         let* xs = list_repeat n value in
         return (fmt, Array.of_list ws, Array.of_list xs)))
    (fun (fmt, ws, xs) ->
      let w = Fx_vector.of_floats ~ov:Rounding.Saturate fmt ws in
      let x = Fx_vector.of_floats ~ov:Rounding.Saturate fmt xs in
      let exact = Fx_vector.dot_reference w x in
      QCheck.assume (Qformat.in_range fmt exact);
      let wide = Fx.to_float (Fx_vector.dot_wide w x) in
      Float.abs (wide -. exact) <= Qformat.ulp fmt /. 2.0 +. 1e-12)

let prop_interval_split_partitions =
  QCheck.Test.make ~name:"interval split partitions the grid" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* fmt = fmt_gen in
         let* a = int_range (Qformat.min_raw fmt) (Qformat.max_raw fmt) in
         let* b = int_range (Qformat.min_raw fmt) (Qformat.max_raw fmt) in
         let lo = min a b and hi = max a b in
         return (Fx_interval.of_raw fmt ~lo ~hi)))
    (fun iv ->
      match Fx_interval.split iv with
      | None -> Fx_interval.is_singleton iv
      | Some (l, r) ->
          Fx_interval.count l + Fx_interval.count r = Fx_interval.count iv
          && Fx_interval.hi l < Fx_interval.lo r)

let prop_nearest_on_grid_is_nearest =
  QCheck.Test.make ~name:"nearest_on_grid minimises distance" ~count:500
    arb_fmt_value (fun (fmt, x) ->
      QCheck.assume (Qformat.in_range fmt x);
      let g = Qformat.nearest_on_grid fmt x in
      let u = Qformat.ulp fmt in
      Float.abs (g -. x) <= (u /. 2.0) +. 1e-12)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_quantize_idempotent;
      prop_quantize_error_half_ulp;
      prop_wrap_add_congruent;
      prop_wrap_theorem;
      prop_dot_wide_equals_reference_when_in_range;
      prop_interval_split_partitions;
      prop_nearest_on_grid_is_nearest;
    ]

let () =
  Alcotest.run "fixedpoint"
    [
      ( "qformat",
        [
          Alcotest.test_case "basics" `Quick test_format_basics;
          Alcotest.test_case "paper Q3.0" `Quick test_format_q30_paper;
          Alcotest.test_case "invalid formats" `Quick test_format_invalid;
          Alcotest.test_case "wrap raw" `Quick test_wrap_raw;
          Alcotest.test_case "saturate raw" `Quick test_saturate_raw;
          Alcotest.test_case "grid helpers" `Quick test_grid_helpers;
          Alcotest.test_case "values enumeration" `Quick test_values_enumeration;
          Alcotest.test_case "raw/value roundtrip" `Quick test_raw_value_roundtrip;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "shift matches float" `Quick
            test_shift_right_rounded_matches_float;
          Alcotest.test_case "nearest ties" `Quick test_shift_right_nearest_ties;
          Alcotest.test_case "overflow policies" `Quick test_overflow_policies;
          Alcotest.test_case "extreme magnitudes saturate" `Quick
            test_round_scaled_saturates;
        ] );
      ( "fx",
        [
          Alcotest.test_case "of_float nearest" `Quick test_fx_of_float_nearest;
          Alcotest.test_case "wrap vs saturate" `Quick
            test_fx_overflow_wrap_vs_saturate;
          Alcotest.test_case "paper add example" `Quick
            test_fx_add_sub_paper_example;
          Alcotest.test_case "mul" `Quick test_fx_mul;
          Alcotest.test_case "mul saturate" `Quick test_fx_mul_saturate;
          Alcotest.test_case "neg min_val" `Quick test_fx_neg_min_val;
          Alcotest.test_case "format mismatch" `Quick test_fx_format_mismatch;
          Alcotest.test_case "shifts" `Quick test_fx_shifts;
          Alcotest.test_case "quantization error bound" `Quick
            test_quantization_error_bound;
        ] );
      ( "fx_vector",
        [
          Alcotest.test_case "dot simple" `Quick test_dot_simple;
          Alcotest.test_case "dot wrap theorem" `Quick
            test_dot_wrap_theorem_example;
          Alcotest.test_case "dot mismatch" `Quick test_dot_empty_and_mismatch;
          Alcotest.test_case "vector ops" `Quick test_vector_ops;
          Alcotest.test_case "accessors" `Quick test_vector_accessors;
        ] );
      ( "fx_interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "full" `Quick test_interval_full;
          Alcotest.test_case "split covers" `Quick test_interval_split_covers;
          Alcotest.test_case "split singleton" `Quick
            test_interval_split_singleton;
          Alcotest.test_case "split at" `Quick test_interval_split_at;
          Alcotest.test_case "clamp value" `Quick test_interval_clamp_value;
          Alcotest.test_case "empty rejected" `Quick
            test_interval_empty_rejected;
          Alcotest.test_case "mid uses floor division" `Quick
            test_interval_mid_floor_division;
          Alcotest.test_case "split balance" `Quick
            test_interval_split_balance;
          Alcotest.test_case "clamp extreme magnitudes" `Quick
            test_interval_clamp_extreme_magnitudes;
          Alcotest.test_case "formats past 52 fractional bits" `Quick
            test_interval_wide_formats;
        ] );
      ( "format_policy",
        [ Alcotest.test_case "policies" `Quick test_policies ] );
      ("properties", qcheck_tests);
    ]
