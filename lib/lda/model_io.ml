open Fixedpoint

exception Parse_error of string

let to_string clf =
  let fmt = Fixed_classifier.format clf in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ldafp-model v1\n";
  Buffer.add_string buf (Printf.sprintf "format %s\n" (Qformat.to_string fmt));
  Buffer.add_string buf
    (Printf.sprintf "polarity %d\n"
       (if clf.Fixed_classifier.polarity then 1 else 0));
  let scaling = clf.Fixed_classifier.scaling in
  Buffer.add_string buf "exponents";
  for j = 0 to Scaling.dim scaling - 1 do
    Buffer.add_string buf (Printf.sprintf " %d" (Scaling.exponent scaling j))
  done;
  Buffer.add_string buf "\nweights";
  let w = clf.Fixed_classifier.w in
  for i = 0 to Fx_vector.length w - 1 do
    Buffer.add_string buf (Printf.sprintf " %d" (Fx.raw (Fx_vector.get w i)))
  done;
  Buffer.add_string buf
    (Printf.sprintf "\nthreshold %d\n"
       (Fx.raw clf.Fixed_classifier.threshold));
  Buffer.contents buf

(* The datapath forms each product [w * x] in a native int, which wraps
   modulo 2^63 once 2 wl > 62, where a 2 wl-bit hardware multiplier
   would not. *)
let max_word_length = 31

let parse_format s =
  match Scanf.sscanf s "Q%d.%d%!" (fun k f -> Qformat.make ~k ~f) with
  | fmt when Qformat.word_length fmt <= max_word_length -> fmt
  | fmt ->
      raise
        (Parse_error
           (Printf.sprintf "format %s: word length %d, need wl <= %d" s
              (Qformat.word_length fmt) max_word_length))
  | exception
      (Scanf.Scan_failure _ | Failure _ | End_of_file | Invalid_argument _) ->
      raise (Parse_error (Printf.sprintf "bad format %S" s))

(* A code outside the format's range is refused, never wrapped. *)
let code fmt r =
  if r < Qformat.min_raw fmt || r > Qformat.max_raw fmt then
    raise
      (Parse_error
         (Printf.sprintf "raw code %d outside %s" r (Qformat.to_string fmt)));
  Fx.create fmt r

let ints_of_words words =
  List.map
    (fun w ->
      match int_of_string_opt w with
      | Some v -> v
      | None -> raise (Parse_error (Printf.sprintf "bad integer %S" w)))
    words

(* The C [ldexp] under [Scaling] truncates its exponent to 32 bits, so
   past about ±2^31 even scalar [predict] returns garbage.  ±1100 spans
   every finite double (2^-1074 .. 2^1024), so nothing usable lies
   outside it. *)
let max_exponent = 1100

let of_string text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let table = Hashtbl.create 8 in
  (match lines with
  | magic :: rest ->
      if String.trim magic <> "ldafp-model v1" then
        raise (Parse_error "missing magic header 'ldafp-model v1'");
      List.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | key :: values -> Hashtbl.replace table key values
          | [] -> ())
        rest
  | [] -> raise (Parse_error "empty model file"));
  let get key =
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None -> raise (Parse_error (Printf.sprintf "missing field %S" key))
  in
  let fmt =
    match get "format" with
    | [ s ] -> parse_format s
    | _ -> raise (Parse_error "bad format line")
  in
  let polarity =
    match get "polarity" with
    | [ "1" ] -> true
    | [ "0" ] -> false
    | _ -> raise (Parse_error "bad polarity line")
  in
  let exponents = ints_of_words (get "exponents") in
  List.iter
    (fun e ->
      if e < -max_exponent || e > max_exponent then
        raise
          (Parse_error
             (Printf.sprintf "scaling exponent %d outside [-%d, %d]" e
                max_exponent max_exponent)))
    exponents;
  let weights = ints_of_words (get "weights") in
  if weights = [] then raise (Parse_error "no features");
  if List.length exponents <> List.length weights then
    raise (Parse_error "exponents/weights length mismatch");
  let threshold =
    match ints_of_words (get "threshold") with
    | [ v ] -> v
    | _ -> raise (Parse_error "bad threshold line")
  in
  let scaling = Scaling.of_exponents (Array.of_list exponents) in
  let w = Fx_vector.of_fx (Array.of_list (List.map (code fmt) weights)) in
  Fixed_classifier.create ~polarity ~w ~threshold:(code fmt threshold) ~scaling ()

let c_header_of clf =
  let guard = "LDAFP_MODEL_FIXED_H" in
  let fmt = Fixed_classifier.format clf in
  let wl = Qformat.word_length fmt in
  (* Products are computed in plain int64_t in the generated code; the
     OCaml datapath wraps them modulo 2^63, so the two agree only while
     a product cannot exceed 62 bits. *)
  if wl > max_word_length then
    invalid_arg
      (Printf.sprintf
         "Model_io.c_header_of: word length %d > %d (product would overflow \
          the generated int64 accumulator)"
         wl max_word_length);
  let m = Fixed_classifier.n_features clf in
  let scaling = clf.Fixed_classifier.scaling in
  let w = clf.Fixed_classifier.w in
  let buf = Buffer.create 2048 in
  let pf fmt_str = Printf.ksprintf (Buffer.add_string buf) fmt_str in
  let emit_array name vals =
    pf "static const int32_t %s[LDAFP_NUM_FEATURES] = {" name;
    Array.iteri
      (fun i v -> pf "%s%d" (if i = 0 then " " else ", ") v)
      vals;
    pf " };\n"
  in
  pf "/* Fixed-point LDA classifier model — generated by ldafp, do not edit.\n";
  pf " *\n";
  pf " * Format %s: value = raw * 2^-%d, raw codes in [%d, %d].\n"
    (Qformat.to_string fmt) fmt.Qformat.f (Qformat.min_raw fmt)
    (Qformat.max_raw fmt);
  pf " * The predict function reproduces the ldafp datapath bit-for-bit:\n";
  pf " * products shifted right by FRAC_BITS rounding half to even, every\n";
  pf " * accumulate wrapped into WORD_LENGTH bits (two's complement). */\n";
  pf "#ifndef %s\n#define %s\n\n" guard guard;
  pf "#include <stdint.h>\n\n";
  pf "#define LDAFP_NUM_FEATURES %d\n" m;
  pf "#define LDAFP_FRAC_BITS %d\n" fmt.Qformat.f;
  pf "#define LDAFP_WORD_LENGTH %d\n" wl;
  pf "#define LDAFP_POLARITY %d /* 1: class A when y >= threshold */\n"
    (if clf.Fixed_classifier.polarity then 1 else 0);
  pf "#define LDAFP_THRESHOLD_RAW %d\n\n"
    (Fx.raw clf.Fixed_classifier.threshold);
  pf "/* Front end: x_scaled[j] = x[j] / 2^ldafp_scale_exponent[j],\n";
  pf " * rounded to nearest (ties to even) and saturated into the raw\n";
  pf " * range above before ldafp_predict_raw sees it. */\n";
  emit_array "ldafp_scale_exponent"
    (Array.init m (Scaling.exponent scaling));
  pf "\n/* Weight codes in Q%d.%d. */\n" fmt.Qformat.k fmt.Qformat.f;
  emit_array "ldafp_weight_raw"
    (Array.init m (fun i -> Fx.raw (Fx_vector.get w i)));
  pf "\n";
  pf "static inline int64_t ldafp_wrap_raw(int64_t r)\n";
  pf "{\n";
  pf "  uint64_t m = (uint64_t)1 << LDAFP_WORD_LENGTH;\n";
  pf "  int64_t w = (int64_t)((uint64_t)r & (m - 1));\n";
  pf "  return w >= (int64_t)(m >> 1) ? w - (int64_t)m : w;\n";
  pf "}\n\n";
  pf "static inline int64_t ldafp_shr_round_even(int64_t r, int n)\n";
  pf "{\n";
  pf "  int64_t q, rem, half;\n";
  pf "  if (n == 0) return r;\n";
  pf "  q = r >> n;\n";
  pf "  rem = r - (int64_t)((uint64_t)q << n);\n";
  pf "  half = (int64_t)1 << (n - 1);\n";
  pf "  if (rem > half) return q + 1;\n";
  pf "  if (rem < half) return q;\n";
  pf "  return (q & 1) ? q + 1 : q;\n";
  pf "}\n\n";
  pf "static inline int64_t\n";
  pf "ldafp_project_raw(const int32_t x_raw[LDAFP_NUM_FEATURES])\n";
  pf "{\n";
  pf "  int64_t acc = 0;\n";
  pf "  int j;\n";
  pf "  for (j = 0; j < LDAFP_NUM_FEATURES; j++) {\n";
  pf "    int64_t p = (int64_t)ldafp_weight_raw[j] * (int64_t)x_raw[j];\n";
  pf "    p = ldafp_shr_round_even(p, LDAFP_FRAC_BITS);\n";
  pf "    p = ldafp_wrap_raw(p);\n";
  pf "    acc = ldafp_wrap_raw(acc + p);\n";
  pf "  }\n";
  pf "  return acc;\n";
  pf "}\n\n";
  pf "static inline int ldafp_predict_raw(const int32_t x_raw[LDAFP_NUM_FEATURES])\n";
  pf "{\n";
  pf "  int64_t y = ldafp_project_raw(x_raw);\n";
  pf "#if LDAFP_POLARITY\n";
  pf "  return y >= LDAFP_THRESHOLD_RAW;\n";
  pf "#else\n";
  pf "  return y < LDAFP_THRESHOLD_RAW;\n";
  pf "#endif\n";
  pf "}\n\n";
  pf "#endif /* %s */\n" guard;
  Buffer.contents buf

let save_c_header path clf =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (c_header_of clf))

let save path clf =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string clf))

(* Read to end of file rather than sizing the file first: a directory
   opens, but sizing it fails with EOVERFLOW, while reading it fails with
   the EISDIR a user can act on. *)
let load path = of_string (In_channel.with_open_text path In_channel.input_all)
