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
 * Both kernels are [@@noalloc]: they never allocate, raise, or call
 * back into the runtime, and operate on untagged Bigarray int data
 * (Caml_ba_data_val), flat float arrays and immediate int arguments
 * (Long_val).  Batches are laid out feature-major — Array2 of dims
 * (features, stride) in C layout, stride >= capacity — so the
 * per-feature inner loop over batch columns is contiguous and stride-1.
 * Shapes and batch lengths are validated on the OCaml side before the
 * call. */

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

/* Front-end quantiser (Fixed_classifier.quantize_input): write
 *   Fx.raw (Fx.of_float ~ov:Saturate fmt (ldexp x_j (-e_j)))
 * into column col of data, for every feature j.
 *   scales : float array (features)  2^(f - e_j), or 0.0 if that is not
 *                                    a normal double
 *   negexp : int array (features)    -e_j
 *   x      : float array (features)  raw feature values
 *   data   : Array2 (features, stride)
 * Returns -1, or the index of the first NaN feature (the features
 * before it are written).
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
 *     to 2^(n-1) when n > 54);
 *   - inside, |s| < 2^(n-1).  Below 2^51, adding and subtracting
 *     1.5 * 2^52 rounds s to an integer, ties to even, in the FPU: the
 *     sum lies in [2^52, 2^53), where doubles are the integers, and
 *     1.5 * 2^52 is even.  A data-dependent branch here would mispredict
 *     on every other value;
 *   - from 2^51 on, s is a multiple of 1/2: truncate, and move a tie to
 *     the even neighbour.  Above 2^53 every double inside is an integer.
 * The build passes -ffp-contract=off so that v * sc + 1.5 * 2^52 is
 * never fused into one FMA, which would round once instead of twice. */
CAMLprim value ldafp_infer_quantize(value vscales, value vnegexp, value vx,
                                    value vdata, value vcol, value vf,
                                    value vbits)
{
  intnat *data = (intnat *)Caml_ba_data_val(vdata);
  intnat features = Caml_ba_array_val(vdata)->dim[0];
  intnat stride = Caml_ba_array_val(vdata)->dim[1];
  intnat col = Long_val(vcol);
  int f = (int)Long_val(vf);
  intnat bits = Long_val(vbits);
  int64_t max_raw = ((int64_t)1 << (bits - 1)) - 1;
  int64_t min_raw = -max_raw - 1;
  double lo = (double)min_raw, hi = (double)max_raw;
  intnat j;

  for (j = 0; j < features; j++) {
    double v = Double_flat_field(vx, j);
    double sc = Double_flat_field(vscales, j);
    double s = sc > 0.0
                   ? v * sc
                   : ldexp(ldexp(v, (int)Long_val(Field(vnegexp, j))), f);
    double cl;
    int64_t r;
    if (s != s) return Val_long(j);
    cl = s < lo ? lo : s;
    cl = cl > hi ? hi : cl;
    if (fabs(cl) < 0x1p51) {
      r = (int64_t)((cl + 0x1.8p52) - 0x1.8p52);
    } else {
      int64_t tr = (int64_t)cl;
      r = ((double)tr == cl || (tr & 1) == 0) ? tr
          : cl > 0.0                          ? tr + 1
                                              : tr - 1;
    }
    data[j * stride + col] = (intnat)(s >= hi ? max_raw : r);
  }
  return Val_long(-1);
}

CAMLprim value ldafp_infer_quantize_bytes(value *argv, int argn)
{
  (void)argn;
  return ldafp_infer_quantize(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5], argv[6]);
}
