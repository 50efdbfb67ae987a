open Fixedpoint
module Fixed_classifier = Ldafp_core.Fixed_classifier
module Scaling = Ldafp_core.Scaling

type t = {
  fmt : Qformat.t; (* weight / feature / accumulator format *)
  bits : int; (* word_length fmt *)
  w : Batch.ba1; (* weight raw codes *)
  thr_raw : int;
  polarity : bool;
  scales : float array; (* 2^(f - e_j), or 0.0 if that is not a normal double *)
  neg_exponents : int array; (* -e_j, for the specification's ldexps *)
  fast : bool; (* the quantiser's fast loop: every scale normal, bits <= 52 *)
  proj : Batch.ba1; (* scratch projections, one per batch column *)
  capacity : int;
  features : int;
}

(* Declared at module init, before any domain is spawned.  The
   predictions counter counts columns, not batches, so it stays a plain
   counter beside the batch probe. *)
let m_predictions_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Predictions served by the batched inference engine"
    "ldafp_infer_predictions_total"

let p_batch =
  Obs.Probe.v "infer.batch"
    ~seconds:(1e-8, 1.0, "Wall time of one batched predict_into call")

let of_fixed ?(capacity = 1024) (clf : Fixed_classifier.t) =
  if capacity < 1 then invalid_arg "Engine.of_fixed: capacity must be >= 1";
  let fmt = Fixed_classifier.format clf in
  let wv = clf.Fixed_classifier.w in
  let features = Fx_vector.length wv in
  if features < 1 then invalid_arg "Engine.of_fixed: model has no features";
  let w =
    Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout
      (Array.init features (fun i -> Fx.raw (Fx_vector.get wv i)))
  in
  let proj = Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity in
  Bigarray.Array1.fill proj 0;
  let exponents =
    Array.init features (Scaling.exponent clf.Fixed_classifier.scaling)
  in
  let f = fmt.Qformat.f in
  let scale e =
    (* 2^k is a normal double for k in [-1022, 1023]; tested on [e] so
       that [f - e] cannot overflow. *)
    if e >= f - 1023 && e <= f + 1022 then ldexp 1.0 (f - e) else 0.0
  in
  let bits = Qformat.word_length fmt in
  let scales = Array.map scale exponents in
  {
    fmt;
    bits;
    w;
    thr_raw = Fx.raw clf.Fixed_classifier.threshold;
    polarity = clf.Fixed_classifier.polarity;
    scales;
    neg_exponents = Array.map (fun e -> -e) exponents;
    fast = bits <= 52 && Array.for_all (fun s -> s > 0.0) scales;
    proj;
    capacity;
    features;
  }

let n_features t = t.features
let capacity t = t.capacity
let format t = t.fmt
let polarity t = t.polarity
let make_batch t = Batch.create ~fmt:t.fmt ~features:t.features ~capacity:t.capacity

let check_format what t batch =
  if not (Qformat.equal (Batch.format batch) t.fmt) then
    invalid_arg (what ^ ": batch format differs from the engine's")

(* A kernel's verdict on a row: -1, the index of its first NaN
   feature, or [features] for a row of the wrong length. *)
let check_row what t r =
  if r = t.features then invalid_arg (what ^ ": dimension mismatch");
  if r >= 0 then invalid_arg (Printf.sprintf "%s: NaN in feature %d" what r)

let load t batch ~col x =
  let what = "Engine.load" in
  check_format what t batch;
  if Array.length x <> t.features then
    invalid_arg (what ^ ": dimension mismatch");
  if Batch.n_features batch <> t.features then
    invalid_arg (what ^ ": batch feature count mismatch");
  if col < 0 || col >= Batch.capacity batch then
    invalid_arg (what ^ ": column outside [0, capacity)");
  check_row what t
    (Kernels.quantize t.scales t.neg_exponents x (Batch.data batch) col
       t.fmt.Qformat.f t.bits t.fast)

let load_rows t batch ?(start = 0) ?n rows =
  let what = "Engine.load_rows" in
  check_format what t batch;
  if start < 0 then invalid_arg (what ^ ": negative start");
  let avail = max 0 (Array.length rows - start) in
  let fit = min avail (Batch.capacity batch) in
  let n = match n with Some n -> min (max n 0) fit | None -> fit in
  if n > 0 then begin
    if Batch.n_features batch <> t.features then
      invalid_arg (what ^ ": batch feature count mismatch");
    check_row what t
      (Kernels.quantize_rows t.scales t.neg_exponents rows start n
         (Batch.data batch) t.fmt.Qformat.f t.bits t.fast)
  end;
  Batch.set_length batch n;
  n

let project_into t batch =
  if not (Qformat.equal (Batch.format batch) t.fmt) then
    invalid_arg "Engine.project_into: batch format mismatch";
  if Batch.n_features batch <> t.features then
    invalid_arg "Engine.project_into: feature count mismatch";
  let n = Batch.length batch in
  if n > t.capacity then
    invalid_arg "Engine.project_into: batch longer than engine capacity";
  Kernels.mac_uniform t.w (Batch.data batch) t.proj n t.fmt.Qformat.f t.bits

let projection_raw t i = Bigarray.Array1.get t.proj i

let margin t i =
  let y = Qformat.value_of_raw t.fmt (projection_raw t i) in
  let thr = Qformat.value_of_raw t.fmt t.thr_raw in
  if t.polarity then y -. thr else thr -. y -. Qformat.ulp t.fmt

let predict_into t batch out =
  let n = Batch.length batch in
  if Bytes.length out < n then
    invalid_arg "Engine.predict_into: output buffer too short";
  let observed = Obs.Probe.on () in
  let t0 = if observed then Obs.Clock.now_ns () else 0 in
  project_into t batch;
  let thr = t.thr_raw in
  if t.polarity then
    for i = 0 to n - 1 do
      Bytes.unsafe_set out i
        (if Bigarray.Array1.unsafe_get t.proj i >= thr then '\001' else '\000')
    done
  else
    for i = 0 to n - 1 do
      Bytes.unsafe_set out i
        (if Bigarray.Array1.unsafe_get t.proj i < thr then '\001' else '\000')
    done;
  if observed then begin
    Obs.Metrics.add m_predictions_total n;
    Obs.Probe.span p_batch ~t0_ns:t0 ~dur_ns:(Obs.Clock.now_ns () - t0)
      ~args:[ ("batch", Obs.Trace.Int n) ]
  end
