/* The drift scan of so3cubics.quadratic.QuadraticTrajectory: one pass over
 * the nodes of a trajectory for the worst value of four series, the drift
 * |C(t) - C| of the bracket constant, the drift |c(t) - c| of the squared
 * acceleration, |V'| and |V''|.
 *
 * Every operation is the numpy twin's (`quadratic._drift_python`), in the
 * same order and in doubles: C(t) = V'' - V' x V with np.cross's
 * expressions, and a norm as sqrt((a0 a0 + a1 a1) + a2 a2), taken at every
 * node, since two squares can share one root and so the argmax of the
 * roots is not that of the squares.  It is built with -O2
 * -ffp-contract=off, so no a * b + c becomes one fused multiply-add, and
 * the loader checks the result against the twin before using it.
 *
 * v, v1 and v2 hold the count >= 1 nodes of V, V' and V'', three doubles a
 * node; C holds three doubles.  max[j] and arg[j] receive the worst value
 * of series j and its node as np.argmax finds it: the first NaN, else the
 * first maximum.
 */

#include <math.h>

static void peak(double x, long long k, double *max, long long *arg)
{
    /* a NaN max stays; a NaN x takes the place of a number */
    if (*max == *max && (x > *max || x != x))
        *max = x, *arg = k;
}

void drift_scan(const double *v, const double *v1, const double *v2, long long count,
                const double *C, double c, double *max, long long *arg)
{
    for (long long k = 0; k < count; k++) {
        const double *x = v + 3 * k, *y = v1 + 3 * k, *z = v2 + 3 * k;
        const double e0 = (z[0] - (y[1] * x[2] - y[2] * x[1])) - C[0];
        const double e1 = (z[1] - (y[2] * x[0] - y[0] * x[2])) - C[1];
        const double e2 = (z[2] - (y[0] * x[1] - y[1] * x[0])) - C[2];
        const double zz = (z[0] * z[0] + z[1] * z[1]) + z[2] * z[2];
        const double series[4] = {
            sqrt((e0 * e0 + e1 * e1) + e2 * e2),
            fabs(zz - c),
            sqrt((y[0] * y[0] + y[1] * y[1]) + y[2] * y[2]),
            sqrt(zz),
        };
        for (int j = 0; j < 4; j++) {
            if (k == 0)
                max[j] = series[j], arg[j] = 0;
            else
                peak(series[j], k, max + j, arg + j);
        }
    }
}
