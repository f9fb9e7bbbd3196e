/* The two walks of so3cubics.reconstruction: the lift of both its rotation
 * curves (below), and the quadrature pass of ReconstructionInput, one
 * walk over the nodes of a quadratic trajectory for V''' = V'' x V and
 * |V'''|^2 at every node, V and V'' at every step midpoint, the phase
 * integrand (c - <C, V''>) / |V'''|^2 at both, the Simpson increments and
 * their running sum, the smallest |V'''|^2 at the nodes and at the
 * midpoints, and the frame rows of every node's pair (V'', V''').
 *
 * Every operation is the numpy twin's (`reconstruction._recon_python`), in
 * the same order and in doubles:
 *   - cross products with np.cross's expressions, and every dot product
 *     summed as (a0 b0 + a1 b1) + a2 b2;
 *   - a midpoint value as QuadraticTrajectory.at_fraction(0.5) reads it,
 *     (0.5 y0 + 0.5 y1) + dx (0.125 m0 + -0.125 m1), with V' as the slope
 *     of V and the node V''' as that of V'';
 *   - the increment of step k as (dx / 6) ((g_k + 4 g_mid) + g_k+1), the
 *     running sum in sequence from the first increment, as np.cumsum adds,
 *     and the phase and the node slopes times root = sqrt(c);
 *   - the smallest |V'''|^2 and its index as np.argmin finds them: the
 *     first NaN, else the first minimum;
 *   - the frame rows as algebra.frame_from_pair writes them for a pair in
 *     the normal float range: (r1 V''' - (dot / r1) V'') / sg,
 *     (V'' x V''') / sg and V'' / r1, with r1 = sqrt(|V''|^2) and
 *     sg = sqrt(gram), gram = |V''|^2 |V'''|^2 - dot^2.
 * It calls sqrt from the libm the Python process has loaded and is built
 * with -O2 -ffp-contract=off, so no a * b + c becomes one fused
 * multiply-add; the loader checks the result against the twin before
 * using it.
 *
 * grid holds count >= 2 times, v, v1 and v2 the count nodes of V, V' and
 * V'', three doubles a node, and C three doubles.  slopes and phase receive
 * count doubles, frames count rotations of nine doubles, row by row, and
 * at[0], least[0] (nodes) and at[1], least[1] (midpoints) the index and
 * the value of the smallest |V'''|^2.  The return value is -1, or the
 * first node whose pair leaves the normal float range (a squared norm or
 * the Gram determinant below DBL_MIN, their product above DBL_MAX, or a
 * NaN) or is degenerate (gram <= (gram_rtol |V''|^2) |V'''|^2); the outputs
 * are then incomplete, and the caller runs the twin, which rescales such
 * pairs or raises.
 *
 * The lift writes x0 y_0^T y_k for the phased frames y_k = P(phase[k]) F_k
 * with the operations of its numpy twin (`reconstruction._lift_python`):
 * P(phi) laid out as algebra.plane_rotation lays it out, rows (c, s, 0),
 * (-s, c, 0) and (0, 0, 1), from cos and sin of the same libm; every 3x3
 * product `_product.h`'s, ((a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j); the anchor
 * A = x0 y_0^T; row k = A y_k, but row 0 = x0 itself.  phase holds n >= 1
 * doubles, frames and out n rotations of nine doubles, row by row, and x0
 * one.
 */

#include <float.h>
#include <math.h>

#include "_product.h"

static double dot(const double *a, const double *b)
{
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2];
}

static void cross(const double *a, const double *b, double *out)
{
    out[0] = a[1] * b[2] - a[2] * b[1];
    out[1] = a[2] * b[0] - a[0] * b[2];
    out[2] = a[0] * b[1] - a[1] * b[0];
}

/* the midpoint of a step's cubic from its end values y and slopes m */
static void midpoint(const double *y0, const double *y1, const double *m0, const double *m1,
                     double dx, double *out)
{
    for (int i = 0; i < 3; i++)
        out[i] = (0.5 * y0[i] + 0.5 * y1[i]) + dx * (0.125 * m0[i] + -0.125 * m1[i]);
}

/* np.argmin's pick: a NaN least stays; a NaN x takes the place of a number */
static void lowest(double x, long long k, double *least, long long *at)
{
    if (k == 0 || (*least == *least && (x < *least || x != x)))
        *least = x, *at = k;
}

long long recon_pass(const double *grid, const double *v, const double *v1, const double *v2,
                     long long count, const double *C, double c, double root, double gram_rtol,
                     double *slopes, double *phase, double *frames, long long *at, double *least)
{
    double w[3], before[3], g_before = 0.0, sum = 0.0;
    for (long long k = 0; k < count; k++) {
        const double *x = v + 3 * k, *z = v2 + 3 * k;
        cross(z, x, w);
        const double n1 = dot(z, z), n2 = dot(w, w), d = dot(z, w);
        const double gram = n1 * n2 - d * d;
        if (!(n1 * n2 <= DBL_MAX && n1 >= DBL_MIN && n2 >= DBL_MIN && gram >= DBL_MIN)
            || gram <= gram_rtol * n1 * n2)
            return k;
        const double r1 = sqrt(n1), sg = sqrt(gram), s = d / r1;
        double *f = frames + 9 * k, side[3];
        cross(z, w, side);
        for (int i = 0; i < 3; i++) {
            f[i] = (r1 * w[i] - s * z[i]) / sg;
            f[3 + i] = side[i] / sg;
            f[6 + i] = z[i] / r1;
        }
        const double g = (c - dot(z, C)) / n2;
        slopes[k] = root * g;
        lowest(n2, k, least, at);
        if (k == 0) {
            phase[0] = root * 0.0;
        } else {
            const double dx = grid[k] - grid[k - 1];
            double vm[3], zm[3], wm[3];
            midpoint(x - 3, x, v1 + 3 * (k - 1), v1 + 3 * k, dx, vm);
            midpoint(z - 3, z, before, w, dx, zm);
            cross(zm, vm, wm);
            const double nm = dot(wm, wm);
            const double increment = dx / 6.0 * ((g_before + 4.0 * ((c - dot(zm, C)) / nm)) + g);
            lowest(nm, k - 1, least + 1, at + 1);
            sum = k == 1 ? increment : sum + increment;
            phase[k] = root * sum;
        }
        for (int i = 0; i < 3; i++)
            before[i] = w[i];
        g_before = g;
    }
    return -1;
}

void lift(const double *x0, const double *phase, const double *frames, long long n, double *out)
{
    double p[9] = {0.0}, y[9], y0t[9], anchor[9];
    p[8] = 1.0;
    for (long long k = 0; k < n; k++) {
        const double c = cos(phase[k]), s = sin(phase[k]);
        p[0] = c, p[1] = s, p[3] = -s, p[4] = c;
        product(p, frames + 9 * k, y);
        if (k == 0) {
            for (int i = 0; i < 9; i++)
                y0t[i] = y[3 * (i % 3) + i / 3], out[i] = x0[i];
            product(x0, y0t, anchor);
        } else {
            product(anchor, y, out + 9 * k);
        }
    }
}
