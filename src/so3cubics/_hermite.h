/* The one read of a trajectory between its nodes in the kernels
 * (`_magnus.c` at the Gauss fractions of every step, `_recon.c` at its
 * midpoints), in the order of QuadraticTrajectory.at_fraction on every
 * machine. */

/* the cubic Hermite interpolant of a step at the fraction whose weights
 * are w = (h00, h01, h10, h11), from its end values y0, y1, slopes m0, m1
 * and length dx: (h00 y0 + h01 y1) + dx (h10 m0 + h11 m1) */
static void at_fraction(const double *w, const double *y0, const double *y1, const double *m0,
                        const double *m1, double dx, double *out)
{
    for (int i = 0; i < 3; i++)
        out[i] = (w[0] * y0[i] + w[1] * y1[i]) + dx * (w[2] * m0[i] + w[3] * m1[i]);
}
