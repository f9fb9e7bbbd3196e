/* The step loop of so3cubics.quadratic.integrate_quadratic: classic RK4
 * for V''' = [V'', V] on the 9-vector (V, V', V''), and the worst value of
 * four series at the nodes it writes, the drift |C(t) - C| of the bracket
 * constant, the drift |c(t) - c| of the squared acceleration, |V'| and |V''|.
 *
 * Every operation is the Python loop's (`quadratic._rk4_python`) and, for
 * the series, its numpy twin's (`quadratic._drift_python`), in the same
 * order and in doubles: C(t) = V'' - V' x V with np.cross's expressions,
 * and a norm as sqrt((a0 a0 + a1 a1) + a2 a2), taken at every node, since
 * two squares can share one root and so the argmax of the roots is not
 * that of the squares.  The two give the same bits as long as the compiler
 * neither reassociates nor contracts a * b + c into one fused multiply-add;
 * it is built with -O2 -ffp-contract=off, and the loader checks the result
 * against the Python loop before using it.
 *
 * jet holds the initial (V, V', V'') as nine doubles and C three.  out
 * holds three planes of n + 1 nodes of three doubles, V, then V', then
 * V''; node k of plane d is out[3 (d (n + 1) + k) + i].  max[j] and arg[j]
 * receive the worst value of series j over the nodes 0..n and its node as
 * np.argmax finds it: the first NaN, else the first maximum.
 */

#include <math.h>

static void peak(double x, long long k, double *max, long long *arg)
{
    /* node 0 starts the peak; a NaN max stays; a NaN x takes the place of a number */
    if (k == 0 || (*max == *max && (x > *max || x != x)))
        *max = x, *arg = k;
}

void rk4_quadratic(const double *jet, double h, long long n, const double *C, double c,
                   double *out, double *max, long long *arg)
{
    double *v = out, *v1 = out + 3 * (n + 1), *v2 = out + 6 * (n + 1);
    const double hh = 0.5 * h, h6 = h / 6.0;
    /* V = (x0, x1, x2), V' = (y0, y1, y2), V'' = (z0, z1, z2) */
    double x0 = jet[0], x1 = jet[1], x2 = jet[2];
    double y0 = jet[3], y1 = jet[4], y2 = jet[5];
    double z0 = jet[6], z1 = jet[7], z2 = jet[8];
    for (long long k = 0;; k++) {
        v[3 * k] = x0, v[3 * k + 1] = x1, v[3 * k + 2] = x2;
        v1[3 * k] = y0, v1[3 * k + 1] = y1, v1[3 * k + 2] = y2;
        v2[3 * k] = z0, v2[3 * k + 1] = z1, v2[3 * k + 2] = z2;
        const double e0 = (z0 - (y1 * x2 - y2 * x1)) - C[0];
        const double e1 = (z1 - (y2 * x0 - y0 * x2)) - C[1];
        const double e2 = (z2 - (y0 * x1 - y1 * x0)) - C[2];
        const double zz = (z0 * z0 + z1 * z1) + z2 * z2;
        peak(sqrt((e0 * e0 + e1 * e1) + e2 * e2), k, max, arg);
        peak(fabs(zz - c), k, max + 1, arg + 1);
        peak(sqrt((y0 * y0 + y1 * y1) + y2 * y2), k, max + 2, arg + 2);
        peak(sqrt(zz), k, max + 3, arg + 3);
        if (k == n)
            break;
        /* stage j evaluates the right-hand side (V', V'', [V'', V]) at
         * (uj, dj, aj), giving the slopes (dj, aj, bj); stage 1 is at
         * (x, y, z) */
        const double b10 = z1 * x2 - z2 * x1;
        const double b11 = z2 * x0 - z0 * x2;
        const double b12 = z0 * x1 - z1 * x0;
        const double u20 = x0 + hh * y0, u21 = x1 + hh * y1, u22 = x2 + hh * y2;
        const double d20 = y0 + hh * z0, d21 = y1 + hh * z1, d22 = y2 + hh * z2;
        const double a20 = z0 + hh * b10, a21 = z1 + hh * b11, a22 = z2 + hh * b12;
        const double b20 = a21 * u22 - a22 * u21;
        const double b21 = a22 * u20 - a20 * u22;
        const double b22 = a20 * u21 - a21 * u20;
        const double u30 = x0 + hh * d20, u31 = x1 + hh * d21, u32 = x2 + hh * d22;
        const double d30 = y0 + hh * a20, d31 = y1 + hh * a21, d32 = y2 + hh * a22;
        const double a30 = z0 + hh * b20, a31 = z1 + hh * b21, a32 = z2 + hh * b22;
        const double b30 = a31 * u32 - a32 * u31;
        const double b31 = a32 * u30 - a30 * u32;
        const double b32 = a30 * u31 - a31 * u30;
        const double u40 = x0 + h * d30, u41 = x1 + h * d31, u42 = x2 + h * d32;
        const double d40 = y0 + h * a30, d41 = y1 + h * a31, d42 = y2 + h * a32;
        const double a40 = z0 + h * b30, a41 = z1 + h * b31, a42 = z2 + h * b32;
        const double b40 = a41 * u42 - a42 * u41;
        const double b41 = a42 * u40 - a40 * u42;
        const double b42 = a40 * u41 - a41 * u40;
        x0 = x0 + h6 * (((y0 + 2.0 * d20) + 2.0 * d30) + d40);
        x1 = x1 + h6 * (((y1 + 2.0 * d21) + 2.0 * d31) + d41);
        x2 = x2 + h6 * (((y2 + 2.0 * d22) + 2.0 * d32) + d42);
        y0 = y0 + h6 * (((z0 + 2.0 * a20) + 2.0 * a30) + a40);
        y1 = y1 + h6 * (((z1 + 2.0 * a21) + 2.0 * a31) + a41);
        y2 = y2 + h6 * (((z2 + 2.0 * a22) + 2.0 * a32) + a42);
        z0 = z0 + h6 * (((b10 + 2.0 * b20) + 2.0 * b30) + b40);
        z1 = z1 + h6 * (((b11 + 2.0 * b21) + 2.0 * b31) + b41);
        z2 = z2 + h6 * (((b12 + 2.0 * b22) + 2.0 * b32) + b42);
    }
}
