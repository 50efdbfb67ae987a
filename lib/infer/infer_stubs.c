/* Batched fixed-point inference kernels for Infer.Engine: the front-end
 * quantiser and the MAC.
 *
 * Both reproduce the scalar OCaml datapath bit for bit.  The MAC:
 *
 *   - products wrap modulo 2^63 (OCaml native-int multiplication), so a
 *     product is computed in uint64 (wraps mod 2^64) and then folded
 *     into the sign-extended 63-bit range;
 *   - the fractional-bit shift is Rounding.shift_right_rounded Nearest
 *     (round half to even), computed without a branch;
 *   - Fx_vector.dot wraps into the word length after every step
 *     (Qformat.wrap_raw).  The kernel sums in uint64 and wraps once per
 *     column: both are the sum modulo 2^bits, since a sum modulo 2^64
 *     keeps its value modulo 2^bits for any bits <= 64.
 *
 * The kernels are [@@noalloc]: they never allocate, raise, or call
 * back into the runtime, and operate on untagged Bigarray int data
 * (Caml_ba_data_val), flat float arrays (and an array of them) and
 * immediate int arguments (Long_val).  Batches are laid out
 * feature-major — Array2 of dims (features, stride) in C layout,
 * stride >= capacity — so the per-feature inner loop over batch columns
 * is contiguous and stride-1.  Batch shapes and lengths are validated
 * on the OCaml side before the call; the batch front end checks each
 * row's tag and length itself. */

#include <math.h>
#include <stdint.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

/* Fold a 64-bit value into OCaml's 63-bit native-int range (wrap modulo
 * 2^63, sign-extend).  Shifting into the sign bit is done unsigned to
 * avoid undefined behaviour; the final >> is arithmetic on a negative
 * int64, which gcc/clang define as sign-extending. */
static inline int64_t wrap63(int64_t p)
{
  return (int64_t)((uint64_t)p << 1) >> 1;
}

/* a * b with OCaml native-int semantics: true product modulo 2^63. */
static inline int64_t mul_wrap63(int64_t a, int64_t b)
{
  return wrap63((int64_t)((uint64_t)a * (uint64_t)b));
}

/* Uniform MAC (Fx_vector.dot): out[c] = sum_j w[j] * x[j][c], with a
 * constant fractional shift f and the sum wrapped into bits.
 *   w   : Array1 (features)          raw weight codes
 *   x   : Array2 (features, stride)  raw input codes
 *   out : Array1 (capacity)          raw projections
 *
 * Round half to even, p >> f: with p = q 2^f + r, adding 2^(f-1) - 1
 * plus the parity of q carries into q exactly when r > 2^(f-1), or
 * r = 2^(f-1) and q is odd.  The sum cannot overflow: p is folded to 63
 * bits and the bias is at most 2^60 (f <= 61).  For f = 0 the bias and
 * the parity mask are 0, so the step is the identity. */
CAMLprim value ldafp_infer_mac_uniform(value vw, value vx, value vout,
                                       value vlen, value vf, value vbits)
{
  const intnat *w = (const intnat *)Caml_ba_data_val(vw);
  const intnat *x = (const intnat *)Caml_ba_data_val(vx);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat features = Caml_ba_array_val(vx)->dim[0];
  intnat stride = Caml_ba_array_val(vx)->dim[1];
  intnat len = Long_val(vlen);
  intnat f = Long_val(vf);
  intnat bits = Long_val(vbits);
  int64_t bias = f > 0 ? ((int64_t)1 << (f - 1)) - 1 : 0;
  int64_t odd = f > 0 ? 1 : 0;
  int ext = 64 - (int)bits;
  intnat j, c;

  for (c = 0; c < len; c++) out[c] = 0;
  for (j = 0; j < features; j++) {
    int64_t wj = (int64_t)w[j];
    const intnat *row = x + j * stride;
    for (c = 0; c < len; c++) {
      int64_t p = mul_wrap63(wj, (int64_t)row[c]);
      p = (p + bias + ((p >> f) & odd)) >> f;
      out[c] = (intnat)((uint64_t)out[c] + (uint64_t)p);
    }
  }
  /* Qformat.wrap_raw: reduce modulo 2^bits, sign-extend. */
  for (c = 0; c < len; c++)
    out[c] = (intnat)((int64_t)((uint64_t)out[c] << ext) >> ext);
  return Val_unit;
}

CAMLprim value ldafp_infer_mac_uniform_bytes(value *argv, int argn)
{
  (void)argn;
  return ldafp_infer_mac_uniform(argv[0], argv[1], argv[2], argv[3], argv[4],
                                 argv[5]);
}

/* Saturation bounds of n-bit codes, as integers and as doubles. */
struct qrange {
  int64_t min_raw, max_raw;
  double lo, hi;
};

static inline struct qrange qrange_of(intnat bits)
{
  struct qrange q;
  q.max_raw = ((int64_t)1 << (bits - 1)) - 1;
  q.min_raw = -q.max_raw - 1;
  q.lo = (double)q.min_raw;
  q.hi = (double)q.max_raw;
  return q;
}

/* Front-end quantiser (Fixed_classifier.quantize_input), the one row
 * body behind both entry points below: write
 *   Fx.raw (Fx.of_float ~ov:Saturate fmt (ldexp x_j (-e_j)))
 * into dst[j * stride], for every feature j.
 *   scales : 2^(f - e_j), or 0.0 if that is not a normal double
 *   negexp : int array (features)  -e_j
 *   x      : the row's raw feature values
 * Returns -1, or the index of the first NaN feature; the row's codes
 * are then unspecified.
 *
 * Exactness, for n-bit codes.  The specification's two ldexps compute
 * s = x * 2^(f - e) exactly, unless s overflows (it then saturates) or
 * falls below 2^-960 (it then rounds to 0).  One multiply by a normal
 * scale is exact in the same cases and gives the same code in the
 * others.  A scale outside the normal range would not (inf * 0 is NaN),
 * and neither would any rewrite of ldexp, whose exponent OCaml
 * truncates to a C int, so such features run the specification's two
 * ldexps.  Then:
 *   - s <= lo (or s >= hi) rounds to a code at or past the bound, so it
 *     saturates to it.  s is clamped into [lo, hi] first and the code of
 *     s >= hi replaced by max_raw after (hi = (double)max_raw rounds up
 *     to 2^(n-1) when n > 54).  The clamp maps NaN to lo, so a NaN is
 *     never cast to an integer; it is flagged apart;
 *   - inside, |s| < 2^(n-1).  Below 2^51, adding and subtracting
 *     1.5 * 2^52 rounds s to an integer, ties to even, in the FPU: the
 *     sum lies in [2^52, 2^53), where doubles are the integers, and
 *     1.5 * 2^52 is even.  A data-dependent branch here would mispredict
 *     on every other value;
 *   - from 2^51 on, s is a multiple of 1/2: truncate, and move a tie to
 *     the even neighbour.  Above 2^53 every double inside is an integer.
 *
 * [fast] (a constant at each call, so each loop is compiled apart)
 * holds when every scale is a normal double and n <= 52: then every s
 * is one multiply, hi is exact, and every clamped value lies in
 * [-2^51, 2^51), so the s >= hi fix-up and the truncate-and-tie branch
 * are dead and the loop is multiply, clamp, add and subtract.  NaN is
 * the only case that can make v * sc a NaN: inf * a normal scale is inf.
 * The build passes -ffp-contract=off so that v * sc + 1.5 * 2^52 is
 * never fused into one FMA, which would round once instead of twice. */
static inline intnat quantize_row(const double *x, const double *scales,
                                  value vnegexp, intnat features, int f,
                                  struct qrange q, intnat *dst,
                                  intnat stride, int fast)
{
  int nan = 0;
  intnat j;

  for (j = 0; j < features; j++) {
    double v = x[j], sc = scales[j];
    double s = fast || sc > 0.0
                   ? v * sc
                   : ldexp(ldexp(v, (int)Long_val(Field(vnegexp, j))), f);
    double cl;
    int64_t r;
    nan |= s != s;
    cl = s > q.lo ? s : q.lo;
    cl = cl < q.hi ? cl : q.hi;
    if (fast || fabs(cl) < 0x1p51) {
      r = (int64_t)((cl + 0x1.8p52) - 0x1.8p52);
    } else {
      int64_t tr = (int64_t)cl;
      r = ((double)tr == cl || (tr & 1) == 0) ? tr
          : cl > 0.0                          ? tr + 1
                                              : tr - 1;
    }
    dst[j * stride] = (intnat)(!fast && s >= q.hi ? q.max_raw : r);
  }
  if (!nan) return -1;
  for (j = 0; x[j] == x[j]; j++)
    ;
  return j;
}

/* Load one column: x into column col of data.  Returns -1, or the index
 * of the first NaN feature.  Shapes are checked by the caller. */
CAMLprim value ldafp_infer_quantize(value vscales, value vnegexp, value vx,
                                    value vdata, value vcol, value vf,
                                    value vbits, value vfast)
{
  intnat *data = (intnat *)Caml_ba_data_val(vdata);
  intnat features = Caml_ba_array_val(vdata)->dim[0];
  intnat stride = Caml_ba_array_val(vdata)->dim[1];
  const double *x = (const double *)vx;
  const double *scales = (const double *)vscales;
  intnat *dst = data + Long_val(vcol);
  int f = (int)Long_val(vf);
  struct qrange q = qrange_of(Long_val(vbits));

  return Val_long(
      Bool_val(vfast)
          ? quantize_row(x, scales, vnegexp, features, f, q, dst, stride, 1)
          : quantize_row(x, scales, vnegexp, features, f, q, dst, stride, 0));
}

CAMLprim value ldafp_infer_quantize_bytes(value *argv, int argn)
{
  (void)argn;
  return ldafp_infer_quantize(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5], argv[6], argv[7]);
}

/* Rows ahead of the one being quantised whose lines are prefetched. */
#define PREFETCH_ROWS 8

/* Every 64-byte line of a float-array row, header included. */
static inline void prefetch_row(value row, intnat features)
{
  const char *p = (const char *)((uintptr_t)Hp_val(row) & ~(uintptr_t)63);
  const char *end = (const char *)row + features * sizeof(double);
  for (; p < end; p += 64) __builtin_prefetch(p);
}

/* Rows start .. start+n-1 of rows into columns 0 .. n-1, one row at a
 * time, prefetching the row PREFETCH_ROWS ahead (never past the last).
 * Stops at the first row that is not a float array of [features]
 * values (returns features) or holds a NaN (returns its index); the
 * rows before it are loaded. */
static inline intnat quantize_rows(const double *scales, value vnegexp,
                                   value vrows, intnat start, intnat n,
                                   intnat *data, intnat features,
                                   intnat stride, int f, struct qrange q,
                                   int fast)
{
  intnat c, j;

  for (c = 0; c < n; c++) {
    value row = Field(vrows, start + c);
    if (c + PREFETCH_ROWS < n)
      prefetch_row(Field(vrows, start + c + PREFETCH_ROWS), features);
    if (Tag_val(row) != Double_array_tag
        || Wosize_val(row) != (mlsize_t)features * Double_wosize)
      return features;
    j = quantize_row((const double *)row, scales, vnegexp, features, f, q,
                     data + c, stride, fast);
    if (j >= 0) return j;
  }
  return -1;
}

/* Load n rows in one call: -1, or the first bad row's verdict above.
 * start and n are checked against rows and the batch capacity by the
 * caller. */
CAMLprim value ldafp_infer_quantize_rows(value vscales, value vnegexp,
                                         value vrows, value vstart, value vn,
                                         value vdata, value vf, value vbits,
                                         value vfast)
{
  intnat *data = (intnat *)Caml_ba_data_val(vdata);
  intnat features = Caml_ba_array_val(vdata)->dim[0];
  intnat stride = Caml_ba_array_val(vdata)->dim[1];
  const double *scales = (const double *)vscales;
  intnat start = Long_val(vstart), n = Long_val(vn);
  int f = (int)Long_val(vf);
  struct qrange q = qrange_of(Long_val(vbits));

  return Val_long(Bool_val(vfast)
                      ? quantize_rows(scales, vnegexp, vrows, start, n, data,
                                      features, stride, f, q, 1)
                      : quantize_rows(scales, vnegexp, vrows, start, n, data,
                                      features, stride, f, q, 0));
}

CAMLprim value ldafp_infer_quantize_rows_bytes(value *argv, int argn)
{
  (void)argn;
  return ldafp_infer_quantize_rows(argv[0], argv[1], argv[2], argv[3],
                                   argv[4], argv[5], argv[6], argv[7],
                                   argv[8]);
}
