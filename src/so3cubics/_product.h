/* The one 3x3 matrix product of the kernels that multiply rotations
 * (`_magnus.c`, `_recon.c`), written once, in the order of its numpy twin
 * quadratic._product on every machine. */

/* c = a b, for 3x3 matrices held row by row, entry (i, j) summed as
 * ((a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j); c may not alias a or b */
static void product(const double *restrict a, const double *restrict b, double *restrict c)
{
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++)
            c[3 * i + j] = (a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j]) + a[3 * i + 2] * b[6 + j];
}
