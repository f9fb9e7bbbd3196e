/* The Magnus steps of so3cubics.quadratic.integrate_cubic: for every step
 * k the Magnus vector W_k, its exponential exp(ad W_k), the running
 * product x0 S_0 ... S_k and its defect, in one pass.
 *
 * Every operation is the numpy twin's (`quadratic._magnus_python`), in the
 * same order and in doubles:
 *   - W = hh (va + vb) - cc (vb x va), with np.cross's expressions;
 *   - exp(ad W) as algebra.rot_exp writes it entry by entry, with a and b
 *     through np.sinc, sin(y)/y at y = pi x, where x = 0 reads as a tiny
 *     guard, as in np.sinc (sin(y)/y is then 1 exactly), and b x y as
 *     (b x) y;
 *   - the running product by the twin's blocked scan: blocks of
 *     L = ceil(sqrt(n)) steps, the prefix products inside each block, then
 *     the carry (x0, or the last rotation of the block before) applied on
 *     the left, every 3x3 product `_product.h`'s, ((a_i0 b_0j + a_i1 b_1j)
 *     + a_i2 b_2j), the one product of this kernel and of `_recon.c`'s lift;
 *   - the largest defect as algebra.rotation_error takes it, a NaN largest.
 * It calls sin and sqrt from the libm the Python process has loaded and is
 * built with -O2 -ffp-contract=off, so no a * b + c becomes one fused
 * multiply-add; the loader checks the result against the twin before
 * using it.
 *
 * va and vb hold V at the two Gauss nodes of the n >= 1 steps, three
 * doubles a step; hh = h / 2 and cc = (sqrt(3) / 12) h h.  out holds n + 1
 * rotations of nine doubles, row by row, with x0 already in out[0..8].
 * The return value is -1, or the first step whose W is not finite or whose
 * squared norm (xx + yy) + zz overflows, where the twin raises; the
 * rotations from that step on, and worst, are then not written.  Else
 * *worst is the largest defect of the n + 1 rotations, x0 among them, each
 * taken as the rotation is written, so no second pass reads the stack.
 */

#include <math.h>

#include "_product.h"

static const double PI = 3.141592653589793;   /* np.pi */
static const double SINC_GUARD = 1e-20;       /* x = 0 reads as this, as in np.sinc */

static double sinc(double x)
{
    const double y = PI * (x == 0.0 ? SINC_GUARD : x);
    return sin(y) / y;
}

/* the larger of worst and the defect of the rotation r, |R^T R - I| and
 * |det R - 1|, in algebra.rotation_error's expressions and order; a NaN is
 * the larger, as in np.max */
static double defect(const double *r, double worst)
{
    const double a = r[0], b = r[1], c = r[2], d = r[3], e = r[4], f = r[5], g = r[6], h = r[7];
    const double i = r[8], det = (a * (e * i - f * h) - b * (d * i - f * g)) + c * (d * h - e * g);
    const double terms[7] = {((a * a + d * d) + g * g) - 1.0, ((b * b + e * e) + h * h) - 1.0,
                             ((c * c + f * f) + i * i) - 1.0, (a * b + d * e) + g * h,
                             (a * c + d * f) + g * i, (b * c + e * f) + h * i, det - 1.0};
    for (int k = 0; k < 7; k++)
        if (!(fabs(terms[k]) <= worst) && !isnan(worst))
            worst = fabs(terms[k]);
    return worst;
}

/* exp(ad w), row by row; returns 0, with r not written, where the squared
 * norm of w is not finite */
static int rot_exp(const double *restrict w, double *restrict r)
{
    const double x = w[0], y = w[1], z = w[2];
    const double xx = x * x, yy = y * y, zz = z * z;
    const double theta2 = (xx + yy) + zz;
    if (!isfinite(theta2))
        return 0;
    const double theta = sqrt(theta2);
    const double a = sinc(theta / PI);
    const double s = sinc(theta / (2.0 * PI));
    const double b = 0.5 * (s * s);
    const double ax = a * x, ay = a * y, az = a * z;
    const double bxy = (b * x) * y, bxz = (b * x) * z, byz = (b * y) * z;
    r[0] = 1.0 - b * (yy + zz);
    r[1] = bxy - az;
    r[2] = bxz + ay;
    r[3] = bxy + az;
    r[4] = 1.0 - b * (xx + zz);
    r[5] = byz - ax;
    r[6] = bxz - ay;
    r[7] = byz + ax;
    r[8] = 1.0 - b * (xx + yy);
    return 1;
}

long long magnus_steps(const double *va, const double *vb, long long n, double hh, double cc,
                       double *out, double *worst)
{
    long long size = (long long)sqrt((double)(n - 1));
    while (size * size > n - 1)
        size--;
    while ((size + 1) * (size + 1) <= n - 1)
        size++;
    size++;   /* ceil(sqrt(n)) */
    double step[9], prefix[9], next[9];
    const double *carry = out;
    double largest = defect(out, 0.0);
    for (long long k = 0; k < n; k++) {
        const double *a = va + 3 * k, *b = vb + 3 * k;
        const double w[3] = {
            hh * (a[0] + b[0]) - cc * (b[1] * a[2] - b[2] * a[1]),
            hh * (a[1] + b[1]) - cc * (b[2] * a[0] - b[0] * a[2]),
            hh * (a[2] + b[2]) - cc * (b[0] * a[1] - b[1] * a[0]),
        };
        if (!(isfinite(w[0]) && isfinite(w[1]) && isfinite(w[2]) && rot_exp(w, step)))
            return k;
        if (k % size == 0) {
            /* a new block: its carry is the rotation just before it */
            carry = out + 9 * k;
            for (int i = 0; i < 9; i++)
                prefix[i] = step[i];
        } else {
            product(prefix, step, next);
            for (int i = 0; i < 9; i++)
                prefix[i] = next[i];
        }
        product(carry, prefix, out + 9 * (k + 1));
        largest = defect(out + 9 * (k + 1), largest);
    }
    *worst = largest;
    return -1;
}
