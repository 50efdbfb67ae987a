/* Dense kernels of the barrier Newton step, for Linalg.Kernels: the
 * Cholesky factorisation, forward substitution, and the two Hessian
 * updates of Optim.Socp's derivative pass.
 *
 * Bit identity.  Each lane of a vector holds one matrix row (or one
 * entry), and each lane performs exactly the operations of the scalar
 * reference loop, on the same operands, in the same order: no sum is
 * reassociated, no product fused (the file is compiled with
 * -ffp-contract=off), no division replaced by a reciprocal.  Vectors
 * only run independent sums side by side, so every result is the
 * reference's to the bit, whichever body runs.
 *
 * Two bodies.  The kernels are written once with GCC vector extensions
 * (vector_size(32): four doubles) as always_inline functions, and
 * instantiated twice: under __attribute__((target("avx2"))), where a
 * vector is one ymm register, and as plain code for the build's
 * baseline, where GCC lowers each vector to two SSE2 registers.  The
 * body is chosen by the caller (Linalg.Kernels, from
 * __builtin_cpu_supports("avx2") at start-up); non-x86 targets compile
 * only the portable one.
 *
 * Interface.  Matrices are OCaml float array arrays (rows are flat
 * double arrays: Field(m, i) points at row i's doubles); vectors are
 * flat float arrays.  Every entry point is [@@noalloc]: no allocation,
 * no exception, no callback; it checks the lengths of the rows it reads
 * and returns an error code that the OCaml side raises. */

#include <math.h>
#include <stdlib.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) || defined(__i386__)
#define LDAFP_AVX2_BODY 1
#endif

typedef double v4 __attribute__((vector_size(32)));
/* An unaligned view of four consecutive doubles. */
typedef double v4u __attribute__((vector_size(32), aligned(8)));

#define KERNEL static inline __attribute__((always_inline))
#define ROW(m, i) ((double *)Field((m), (i)))

KERNEL v4 splat(double x) { return (v4){ x, x, x, x }; }
KERNEL v4 load4(const double *p) { return *(const v4u *)p; }
KERNEL void store4(double *p, v4 x) { *(v4u *)p = x; }

/* ---- Cholesky ----------------------------------------------------
 *
 * The reference (Cholesky's row-by-row order): for each row i, for each
 * column j <= i,
 *   s = a(i)(j) + (i = j ? jitter : 0.0) - l(i)(0) l(j)(0) - ... ,
 * k ascending; a diagonal s <= 0 fails at i (a NaN passes, and its
 * square root is NaN), otherwise l(i)(i) = sqrt s; off the diagonal
 * l(i)(j) = s / l(j)(j); then the row's upper part is zeroed.
 *
 * Blocked: the n mod 4 leading rows take the reference loop; then rows
 * come four at a time, one per lane.  For the block's rows, entries
 * left of the block depend only on finished rows and on the block's own
 * entries in earlier columns, which are kept k-interleaved in [pk]
 * (pk[k] = the four rows' l(.)(k)).  Columns are taken four at a time:
 * the four columns' sums over k below the group run side by side, then
 * the group's own 4x4 triangle adds its terms in order.  The block's
 * diagonal group sums its prefix (k left of the block) the same way,
 * then finishes row by row, so the pivots are tested in row order after
 * all earlier rows: the failing index is the reference's. */

/* Row i from column 0, the reference loop; -1, or i if its pivot fails. */
KERNEL intnat chol_row(value va, value vl, intnat n, intnat i, double jitter)
{
  const double *ai = ROW(va, i);
  double *li = ROW(vl, i);
  intnat j, k;
  for (j = 0; j <= i; j++) {
    const double *lj = ROW(vl, j);
    double s = ai[j] + (i == j ? jitter : 0.0);
    for (k = 0; k < j; k++) s -= li[k] * lj[k];
    if (i == j) {
      if (s <= 0.0) return i;
      li[i] = sqrt(s);
    } else
      li[j] = s / lj[j];
  }
  for (j = i + 1; j < n; j++) li[j] = 0.0;
  return -1;
}

/* The block's column c as a lane vector: a(i + r)(c) + 0.0 per lane. */
KERNEL v4 block_col(const double *const a[4], intnat c)
{
  return (v4){ a[0][c], a[1][c], a[2][c], a[3][c] } + splat(0.0);
}

KERNEL void put_col(double *const l[4], intnat c, v4 s)
{
  l[0][c] = s[0];
  l[1][c] = s[1];
  l[2][c] = s[2];
  l[3][c] = s[3];
}

KERNEL intnat chol_body(value va, value vl, intnat n, double jitter, v4u *pk)
{
  intnat lead = n % 4, i, j, k, r, q;
  for (i = 0; i < lead; i++)
    if (chol_row(va, vl, n, i, jitter) >= 0) return i;
  for (i = lead; i < n; i += 4) {
    const double *const a[4] = { ROW(va, i), ROW(va, i + 1), ROW(va, i + 2),
                                 ROW(va, i + 3) };
    double *const l[4] = { ROW(vl, i), ROW(vl, i + 1), ROW(vl, i + 2),
                           ROW(vl, i + 3) };
    /* Columns left of the block, four at a time. */
    for (j = 0; j + 4 <= i; j += 4) {
      const double *c0 = ROW(vl, j), *c1 = ROW(vl, j + 1);
      const double *c2 = ROW(vl, j + 2), *c3 = ROW(vl, j + 3);
      v4 s0 = block_col(a, j), s1 = block_col(a, j + 1);
      v4 s2 = block_col(a, j + 2), s3 = block_col(a, j + 3);
      for (k = 0; k < j; k++) {
        v4 p = pk[k];
        s0 -= p * splat(c0[k]);
        s1 -= p * splat(c1[k]);
        s2 -= p * splat(c2[k]);
        s3 -= p * splat(c3[k]);
      }
      s0 = s0 / splat(c0[j]);
      s1 -= s0 * splat(c1[j]);
      s1 = s1 / splat(c1[j + 1]);
      s2 -= s0 * splat(c2[j]);
      s2 -= s1 * splat(c2[j + 1]);
      s2 = s2 / splat(c2[j + 2]);
      s3 -= s0 * splat(c3[j]);
      s3 -= s1 * splat(c3[j + 1]);
      s3 -= s2 * splat(c3[j + 2]);
      s3 = s3 / splat(c3[j + 3]);
      pk[j] = s0;
      pk[j + 1] = s1;
      pk[j + 2] = s2;
      pk[j + 3] = s3;
      put_col(l, j, s0);
      put_col(l, j + 1, s1);
      put_col(l, j + 2, s2);
      put_col(l, j + 3, s3);
    }
    /* The i mod 4 (= n mod 4) columns left over, one at a time. */
    for (; j < i; j++) {
      const double *cj = ROW(vl, j);
      v4 s = block_col(a, j);
      for (k = 0; k < j; k++) s -= pk[k] * splat(cj[k]);
      s = s / splat(cj[j]);
      pk[j] = s;
      put_col(l, j, s);
    }
    /* The block's diagonal group: the prefix k < i in lanes, the
       diagonal lane starting from a + jitter. */
    v4 t[4];
    for (q = 0; q < 4; q++) {
      v4 add = splat(0.0);
      add[q] = jitter;
      t[q] = (v4){ a[0][i + q], a[1][i + q], a[2][i + q], a[3][i + q] } + add;
    }
    for (k = 0; k < i; k++) {
      v4 p = pk[k];
      t[0] -= p * splat(p[0]);
      t[1] -= p * splat(p[1]);
      t[2] -= p * splat(p[2]);
      t[3] -= p * splat(p[3]);
    }
    /* ... and the triangle, row by row. */
    for (r = 0; r < 4; r++) {
      double *lr = l[r];
      for (q = 0; q <= r; q++) {
        const double *lq = l[q];
        double s = t[q][r];
        for (k = i; k < i + q; k++) s -= lr[k] * lq[k];
        if (q == r) {
          if (s <= 0.0) return i + r;
          lr[i + r] = sqrt(s);
        } else
          lr[i + q] = s / lq[i + q];
      }
      for (j = i + r + 1; j < n; j++) lr[j] = 0.0;
    }
  }
  return -1;
}

/* ---- Forward substitution ----------------------------------------
 *
 * The reference: for each row i, s = b(i) - l(i)(0) x(0) - ... , j
 * ascending; a zero l(i)(i) fails at i (before x(i) is written),
 * otherwise x(i) = s / l(i)(i).  Blocked: the n mod 4 leading rows take
 * the reference loop, then four rows per vector: the terms left of the
 * block in lanes, then the block's triangle row by row.  [x] may alias
 * [b]: a block reads its four b(i) before it writes any x(i). */

KERNEL intnat fwd_body(value vl, const double *b, double *x, intnat n)
{
  intnat lead = n % 4, i, j, r, q;
  for (i = 0; i < lead; i++) {
    const double *li = ROW(vl, i);
    double s = b[i];
    for (j = 0; j < i; j++) s -= li[j] * x[j];
    if (li[i] == 0.0) return i;
    x[i] = s / li[i];
  }
  for (i = lead; i < n; i += 4) {
    const double *const l[4] = { ROW(vl, i), ROW(vl, i + 1), ROW(vl, i + 2),
                                 ROW(vl, i + 3) };
    v4 s = load4(b + i);
    for (j = 0; j < i; j++)
      s -= (v4){ l[0][j], l[1][j], l[2][j], l[3][j] } * splat(x[j]);
    for (r = 0; r < 4; r++) {
      const double *lr = l[r];
      double sr = s[r];
      for (q = 0; q < r; q++) sr -= lr[i + q] * x[i + q];
      if (lr[i + r] == 0.0) return i + r;
      x[i + r] = sr / lr[i + r];
    }
  }
  return -1;
}

/* ---- Hessian updates of the barrier's derivative pass -------------
 *
 * Lower triangles only, lanes across j; each row's n mod 4 tail takes
 * the same operations one entry at a time. */

/* dst(i)(j) = tau p(i)(j), j <= i. */
KERNEL void scale_lower_body(double tau, value vp, value vdst, intnat n)
{
  intnat i, j;
  v4 vt = splat(tau);
  for (i = 0; i < n; i++) {
    const double *p = ROW(vp, i);
    double *d = ROW(vdst, i);
    for (j = 0; j + 4 <= i + 1; j += 4) store4(d + j, vt * load4(p + j));
    for (; j <= i; j++) d[j] = tau * p[j];
  }
}

/* One cone's -log h term, j <= i:
 *   h(i)(j) += gh(i) gh(j) / h^2 - (2 c(i) c(j) - 2 G(i)(j)) / h,
 * as ((h + ((gh(i) gh(j)) ih) ih) - (((2 c(i)) c(j)) - 2 G(i)(j)) ih)
 * with ih = 1/h. */
KERNEL void cone_lower_body(value vh, value vg, const double *gh,
                            const double *c, double ih, intnat n)
{
  intnat i, j;
  v4 vih = splat(ih), two = splat(2.0);
  for (i = 0; i < n; i++) {
    double *h = ROW(vh, i);
    const double *g = ROW(vg, i);
    double ghi = gh[i], c2i = 2.0 * c[i];
    v4 vghi = splat(ghi), vc2i = splat(c2i);
    for (j = 0; j + 4 <= i + 1; j += 4)
      store4(h + j, (load4(h + j) + vghi * load4(gh + j) * vih * vih)
                        - ((vc2i * load4(c + j)) - (two * load4(g + j))) * vih);
    for (; j <= i; j++)
      h[j] = (h[j] + ghi * gh[j] * ih * ih) - ((c2i * c[j]) - (2.0 * g[j])) * ih;
  }
}

/* ---- The two instantiations -------------------------------------- */

#define INSTANTIATE(SUFFIX, ATTR)                                            \
  ATTR static intnat chol_##SUFFIX(value va, value vl, intnat n,             \
                                   double jitter, v4u *pk)                   \
  {                                                                          \
    return chol_body(va, vl, n, jitter, pk);                                 \
  }                                                                          \
  ATTR static intnat fwd_##SUFFIX(value vl, const double *b, double *x,      \
                                  intnat n)                                  \
  {                                                                          \
    return fwd_body(vl, b, x, n);                                            \
  }                                                                          \
  ATTR static void scale_lower_##SUFFIX(double tau, value vp, value vdst,    \
                                        intnat n)                            \
  {                                                                          \
    scale_lower_body(tau, vp, vdst, n);                                      \
  }                                                                          \
  ATTR static void cone_lower_##SUFFIX(value vh, value vg, const double *gh, \
                                       const double *c, double ih, intnat n) \
  {                                                                          \
    cone_lower_body(vh, vg, gh, c, ih, n);                                   \
  }

INSTANTIATE(portable, )
#ifdef LDAFP_AVX2_BODY
INSTANTIATE(avx2, __attribute__((target("avx2"))))
#define PICK(body, f) ((body) ? f##_avx2 : f##_portable)
#else
#define PICK(body, f) f##_portable
#endif

/* ---- Entry points --------------------------------------------------
 * [body]: 1 for the AVX2 instantiation (only passed when the CPU has
 * AVX2), 0 for the portable one.  Each entry checks the row lengths it
 * reads before it touches any entry (a loop over the row headers, far
 * cheaper here than in OCaml, where it cost as much as a 4-variable
 * kernel) and returns -3 on a short row. */

#define BAD_SHAPE (-3)

/* Whether m has at least n rows, row i holding at least i + 1 doubles
   (lower) or n doubles (full). */
static int rows_hold(value m, intnat n, int lower)
{
  intnat i;
  if ((intnat)Wosize_val(m) < n) return 0;
  for (i = 0; i < n; i++) {
    intnat len = Wosize_val(Field(m, i)) / Double_wosize;
    if (len < (lower ? i + 1 : n)) return 0;
  }
  return 1;
}

static int vec_holds(value v, intnat n)
{
  return (intnat)(Wosize_val(v) / Double_wosize) >= n;
}

CAMLprim value ldafp_linalg_avx2_supported(value unit)
{
  (void)unit;
#ifdef LDAFP_AVX2_BODY
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("avx2"));
#else
  return Val_false;
#endif
}

/* The factor of a + jitter I into dst (n x n, n the rows of a; dst may
 * alias a): -1, the failing pivot's row, -2 if the buffer of an
 * n > 256 factor cannot be had, or BAD_SHAPE. */
intnat ldafp_linalg_factor(intnat body, value va, value vl, double jitter)
{
  intnat n = Wosize_val(va), ret;
  v4u stack[256];
  v4u *pk;
  if (!rows_hold(va, n, 0) || !rows_hold(vl, n, 0)) return BAD_SHAPE;
  pk = n <= 256 ? stack : (v4u *)malloc(n * sizeof(v4u));
  if (pk == NULL) return -2;
  ret = PICK(body, chol)(va, vl, n, jitter, pk);
  if (pk != stack) free(pk);
  return ret;
}

CAMLprim value ldafp_linalg_factor_byte(value body, value va, value vl,
                                        value jitter)
{
  return Val_long(
      ldafp_linalg_factor(Long_val(body), va, vl, Double_val(jitter)));
}

/* x = l^-1 b (x may alias b; n the length of b, x at least as long):
 * -1, the row of a zero diagonal, or BAD_SHAPE. */
intnat ldafp_linalg_solve_lower(intnat body, value vl, value vb, value vx)
{
  intnat n = Wosize_val(vb) / Double_wosize;
  if (!rows_hold(vl, n, 1) || !vec_holds(vx, n)) return BAD_SHAPE;
  return PICK(body, fwd)(vl, (const double *)vb, (double *)vx, n);
}

CAMLprim value ldafp_linalg_solve_lower_byte(value body, value vl, value vb,
                                             value vx)
{
  return Val_long(ldafp_linalg_solve_lower(Long_val(body), vl, vb, vx));
}

/* 0, or BAD_SHAPE. */
intnat ldafp_linalg_scale_lower(intnat body, double tau, value vp, value vdst,
                                intnat n)
{
  if (!rows_hold(vp, n, 1) || !rows_hold(vdst, n, 1)) return BAD_SHAPE;
  PICK(body, scale_lower)(tau, vp, vdst, n);
  return 0;
}

CAMLprim value ldafp_linalg_scale_lower_byte(value body, value tau, value vp,
                                             value vdst, value n)
{
  return Val_long(ldafp_linalg_scale_lower(Long_val(body), Double_val(tau),
                                           vp, vdst, Long_val(n)));
}

/* 0, or BAD_SHAPE. */
intnat ldafp_linalg_cone_lower(intnat body, value vh, value vg, value vgh,
                               value vc, double ih, intnat n)
{
  if (!rows_hold(vh, n, 1) || !rows_hold(vg, n, 1) || !vec_holds(vgh, n)
      || !vec_holds(vc, n))
    return BAD_SHAPE;
  PICK(body, cone_lower)(vh, vg, (const double *)vgh, (const double *)vc, ih,
                         n);
  return 0;
}

CAMLprim value ldafp_linalg_cone_lower_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ldafp_linalg_cone_lower(
      Long_val(argv[0]), argv[1], argv[2], argv[3], argv[4],
      Double_val(argv[5]), Long_val(argv[6])));
}
