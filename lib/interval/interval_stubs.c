/* Outward rounding for the interval layer: one ulp toward -inf / +inf by
 * stepping the IEEE-754 bit pattern.
 *
 * For a finite double the neighbouring float in either direction is the
 * adjacent integer of its sign-magnitude bit pattern, so one integer add
 * replaces libm's nextafter (an out-of-line call). The results are those
 * of nextafter(x, -/+INFINITY) on finite x:
 *
 *   - pred(+-0) = -min_subnormal, succ(+-0) = +min_subnormal;
 *   - pred(-max_float) = -inf, succ(max_float) = +inf;
 *   - pred(+min_subnormal) = +0, succ(-min_subnormal) = -0.
 *
 * Non-finite inputs (+-inf, NaN) are returned unchanged, which is what
 * Interval.lo_down / hi_up promise. The OCaml side declares both as
 * [@@unboxed] [@@noalloc]; the boxed entry points serve bytecode. */

#include <caml/alloc.h>
#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#define EXP_MASK UINT64_C(0x7ff0000000000000)
#define SIGN_BIT UINT64_C(0x8000000000000000)

static inline double step(double x, int up)
{
  uint64_t u;
  memcpy(&u, &x, sizeof u);
  if ((u & EXP_MASK) == EXP_MASK) return x; /* +-inf, NaN */
  if ((u << 1) == 0) u = up ? 0 : SIGN_BIT; /* +-0: leave +0 up, -0 down */
  if ((u >> 63) == (uint64_t)up) u -= 1; else u += 1; /* toward / away from zero */
  memcpy(&x, &u, sizeof x);
  return x;
}

double xcv_interval_lo_down(double x) { return step(x, 0); }
double xcv_interval_hi_up(double x) { return step(x, 1); }

CAMLprim value xcv_interval_lo_down_byte(value x)
{
  return caml_copy_double(xcv_interval_lo_down(Double_val(x)));
}

CAMLprim value xcv_interval_hi_up_byte(value x)
{
  return caml_copy_double(xcv_interval_hi_up(Double_val(x)));
}
