/* Batched fixed-point inference kernel for Infer.Engine.
 *
 * The kernel reproduces the scalar OCaml datapath bit-for-bit:
 *
 *   - products wrap modulo 2^63 (OCaml native-int multiplication), so a
 *     product is computed in uint64 (wraps mod 2^64) and then folded
 *     into the sign-extended 63-bit range;
 *   - the fractional-bit shift is Rounding.shift_right_rounded Nearest
 *     (round half to even), expressed with the same q/rem/half
 *     decomposition as the OCaml code;
 *   - accumulators wrap into the target word length after every add
 *     (Qformat.wrap_raw: mask to wl bits, then sign-extend).
 *
 * The kernel is [@@noalloc]: it never allocates, raises, or calls back
 * into the runtime, and operates on untagged Bigarray int data
 * (Caml_ba_data_val) plus immediate int arguments (Long_val).  Batches
 * are laid out feature-major — Array2 of dims (features, capacity) in C
 * layout — so the per-feature inner loop over batch columns is
 * contiguous, stride-1, and vectorizable.  Shapes and batch lengths are
 * validated on the OCaml side before the call. */

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

/* Rounding.shift_right_rounded Nearest: round half to even. */
static inline int64_t shr_round_even(int64_t r, intnat n)
{
  int64_t q, rem, half;
  if (n == 0) return r;
  q = r >> n;
  rem = r - (int64_t)((uint64_t)q << n);
  half = (int64_t)1 << (n - 1);
  if (rem > half) return q + 1;
  if (rem < half) return q;
  return (q & 1) ? q + 1 : q;
}

/* Qformat.wrap_raw: reduce modulo 2^bits, sign-extend. */
static inline int64_t wrap_bits(int64_t r, intnat bits)
{
  uint64_t m = (uint64_t)1 << bits;
  int64_t w = (int64_t)((uint64_t)r & (m - 1));
  if (w >= (int64_t)(m >> 1)) w -= (int64_t)m;
  return w;
}

/* Uniform MAC (Fx_vector.dot): out[c] = sum_j w[j] * x[j][c], with a
 * constant fractional shift f and wrap into bits after every step.
 *   w   : Array1 (features)            raw weight codes
 *   x   : Array2 (features, capacity)  raw input codes
 *   out : Array1 (capacity)            raw projections
 */
CAMLprim value ldafp_infer_mac_uniform(value vw, value vx, value vout,
                                       value vlen, value vf, value vbits)
{
  const intnat *w = (const intnat *)Caml_ba_data_val(vw);
  const intnat *x = (const intnat *)Caml_ba_data_val(vx);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat features = Caml_ba_array_val(vx)->dim[0];
  intnat cap = Caml_ba_array_val(vx)->dim[1];
  intnat len = Long_val(vlen);
  intnat f = Long_val(vf);
  intnat bits = Long_val(vbits);
  intnat j, c;

  for (c = 0; c < len; c++) out[c] = 0;
  for (j = 0; j < features; j++) {
    int64_t wj = (int64_t)w[j];
    const intnat *row = x + j * cap;
    for (c = 0; c < len; c++) {
      int64_t p = mul_wrap63(wj, (int64_t)row[c]);
      p = shr_round_even(p, f);
      p = wrap_bits(p, bits);
      out[c] = (intnat)wrap_bits((int64_t)out[c] + p, bits);
    }
  }
  return Val_unit;
}

CAMLprim value ldafp_infer_mac_uniform_bytes(value *argv, int argn)
{
  (void)argn;
  return ldafp_infer_mac_uniform(argv[0], argv[1], argv[2], argv[3], argv[4],
                                 argv[5]);
}
