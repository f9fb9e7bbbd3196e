/* The text of a table of doubles, in one pass, for so3cubics.output's CSV
 * and JSON writers (Python's float.__repr__) and SVG polylines ("%.2f").
 *
 * shortest_text finds the shortest digits that read back to the double,
 * and the closest of those to it, by Schubfach (R. Giulietti, "The
 * Schubfach way to render doubles", 2020).  With v = c 2^q, the rounding
 * interval of v is scaled by 10^-k, k = floor(log10 2^q) (of (3/4) 2^q at a
 * power of two above the smallest normal, whose lower neighbour is
 * closer), so that v 10^-k has 16 or 17 digits.  Four times v and its
 * interval's bounds, times 10^-k, are rounded to odd from g(-k) 2^e, a
 * 128-bit over-estimate of 10^-k from the table _floattext_powers.h; that
 * keeps every comparison with an even integer exact.  One digit fewer is
 * tried first, then s = floor(v 10^-k) or s + 1, the closer to v, ties to
 * even.  The bounds belong to the interval where c is even (round half to
 * even reads them back to v).  A finite double is never left out.
 *
 * With the digits d1..dn and v = 0.d1..dn x 10^p, the layout is repr's:
 * fixed notation when -4 < p <= 16, with ".0" added when there is no
 * fraction (100.0, 0.001), and otherwise exponent notation with a sign and
 * at least two exponent digits (1e-05, 1.5e+16); 0.0 and -0.0 keep their
 * own text.
 *
 * fixed2_text writes Python's "%.2f" text.  For finite |x| < 1e13 it takes
 * the exact product |x| 100 = p + e, p = fl(|x| 100), by Dekker's split at
 * 2^27 + 1 (T. J. Dekker, "A floating-point technique for extending the
 * available precision", Numer. Math. 18, 1971); the kernels are built
 * with -ffp-contract=off, so no fused multiply-add changes e.  The cents
 * are q = nearbyint(p), half to even.  Where p - q = +-0.5 the sign of e
 * says on which side of the half the exact product lies, and e = 0 is a
 * true tie, which "%.2f" also rounds to even.  The sign is that of x, so
 * -0.001 gives -0.00 as in Python.  (glibc's sprintf "%.2f" gives the
 * same text but is slower than Python's own formatting.)
 *
 * Both write rows x cols doubles row by row into out, the texts of a row
 * separated by sep and the rows by row_sep, and return the number of bytes
 * written; out must have room for (rows cols + 1) ROOM + rows cols nsep +
 * rows nrow bytes.  They return -1, with out left partly written, at the first
 * double that has no text here: NaN or an infinity, and for fixed2_text
 * also |x| >= 1e13.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_floattext_powers.h"

/* the bytes of out one double may use: repr's longest text is 24 bytes,
 * and the fixed-size copies reach 34 bytes past the start of a text */
#define ROOM 40

typedef unsigned __int128 uint128;

static const char DIGIT_PAIRS[200] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* floor(log10 2^q), floor(log10 (3/4) 2^q) and floor(log2 10^k), exact
 * over every exponent of a double */
static int floor_log10_pow2(int q) { return q * 1262611 >> 22; }
static int floor_log10_three_quarters_pow2(int q) { return (q * 1262611 - 524031) >> 22; }
static int floor_log2_pow10(int k) { return k * 1741647 >> 19; }

/* g cp / 2^128 rounded to odd: its floor, with the last bit set where the
 * quotient is not a whole number.  g's excess over the power of ten
 * leaves less than 2^-64 in the fraction of a whole number's product. */
static uint64_t round_to_odd(uint64_t g_hi, uint64_t g_lo, uint64_t cp)
{
    uint128 x = (uint128)g_lo * cp;
    uint128 y = (uint128)g_hi * cp + (uint64_t)(x >> 64);
    return (uint64_t)(y >> 64) | ((uint64_t)y > 1);
}

/* the shortest digits d of a positive finite double v, the closest of those
 * to v, with v read back from d 10^exp10 */
static uint64_t shortest_digits(uint64_t bits, int *exp10)
{
    const uint64_t hidden = (uint64_t)1 << 52;
    uint64_t c = bits & (hidden - 1);
    int biased = (int)(bits >> 52), q = -1074;
    if (biased) {
        c |= hidden;
        q = biased - 1075;
    }
    const int even = !(c & 1);
    const uint64_t cb = c << 2, cbr = cb + 2;
    uint64_t cbl;
    int k;
    if (c != hidden || q == -1074) {
        cbl = cb - 2;
        k = floor_log10_pow2(q);
    } else {
        /* the lower neighbour of a power of two is closer */
        cbl = cb - 1;
        k = floor_log10_three_quarters_pow2(q);
    }
    const int h = q + floor_log2_pow10(-k) + 1;
    const uint64_t g_hi = POWERS[-k - POWERS_FIRST].hi, g_lo = POWERS[-k - POWERS_FIRST].lo;
    const uint64_t vb = round_to_odd(g_hi, g_lo, cb << h);
    const uint64_t lower = round_to_odd(g_hi, g_lo, cbl << h) + !even;
    const uint64_t upper = round_to_odd(g_hi, g_lo, cbr << h) - !even;
    const uint64_t s = vb >> 2;
    if (s >= 10) {
        /* one digit fewer: at most one multiple of ten lies in the interval */
        const uint64_t sp = s / 10;
        const int up_in = lower <= 40 * sp, wp_in = 40 * sp + 40 <= upper;
        if (up_in != wp_in) {
            *exp10 = k + 1;
            return sp + wp_in;
        }
    }
    const uint64_t t = s + 1;
    const int u_in = lower <= 4 * s, w_in = 4 * t <= upper;
    *exp10 = k;
    if (u_in != w_in)
        return u_in ? s : t;
    /* both in: the closer, ties to even */
    const uint64_t mid = 4 * s + 2;
    return vb < mid || (vb == mid && !(s & 1)) ? s : t;
}

/* the 8 digits of v < 10^8, leading zeros included */
static void write8(char *out, uint32_t v)
{
    const uint32_t high = v / 10000, low = v % 10000;
    memcpy(out, DIGIT_PAIRS + 2 * (high / 100), 2);
    memcpy(out + 2, DIGIT_PAIRS + 2 * (high % 100), 2);
    memcpy(out + 4, DIGIT_PAIRS + 2 * (low / 100), 2);
    memcpy(out + 6, DIGIT_PAIRS + 2 * (low % 100), 2);
}

/* the 17 digits of d = hi 10^8 + lo < 10^17, leading zeros included */
static void write17(char *out, uint64_t d)
{
    const uint64_t hi = d / 100000000;
    out[0] = (char)('0' + hi / 100000000);
    write8(out + 1, (uint32_t)(hi % 100000000));
    write8(out + 9, (uint32_t)(d % 100000000));
}

/* repr's text of v into out; returns its length, or -1 at NaN and the
 * infinities */
static int shortest_one(double v, char *out)
{
    char buf[40];   /* 17 digits, and room for the fixed-size copies */
    uint64_t bits;
    int len = 0;
    memcpy(&bits, &v, sizeof bits);
    if ((bits >> 52 & 0x7FF) == 0x7FF)
        return -1;   /* NaN or an infinity */
    if (bits >> 63) {
        out[len++] = '-';
        bits &= ~((uint64_t)1 << 63);
    }
    if (bits == 0) {
        memcpy(out + len, "0.0", 3);
        return len + 3;
    }
    int exp10;
    write17(buf, shortest_digits(bits, &exp10));
    const char *digits = buf;
    while (*digits == '0')
        digits++;
    int n = (int)(buf + 17 - digits);
    const int p = n + exp10;
    while (digits[n - 1] == '0')
        n--;
    /* the digits go as fixed 16- or 17-byte copies, whatever their count */
    if (-4 < p && p <= 16) {
        if (p <= 0) {
            /* 0.000ddd */
            memcpy(out + len, "0.000000", 8);
            len += 2 - p;
            memcpy(out + len, digits, 17);
            len += n;
        } else if (p < n) {
            /* dd.ddd */
            memcpy(out + len, digits, 16);
            len += p;
            out[len++] = '.';
            memcpy(out + len, digits + p, 16);
            len += n - p;
        } else {
            /* ddd000.0 */
            memcpy(out + len, digits, 17);
            len += n;
            memcpy(out + len, "0000000000000000", 16);
            len += p - n;
            out[len++] = '.';
            out[len++] = '0';
        }
    } else {
        /* d.ddde+XX */
        int e = p - 1;
        out[len++] = digits[0];
        if (n > 1) {
            out[len++] = '.';
            memcpy(out + len, digits + 1, 16);
            len += n - 1;
        }
        out[len++] = 'e';
        out[len++] = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            out[len++] = (char)('0' + e / 100);
        memcpy(out + len, DIGIT_PAIRS + 2 * (e % 100), 2);
        len += 2;
    }
    return len;
}

/* "%.2f"'s text of x into out; returns its length, or -1 at NaN, the
 * infinities and |x| >= 1e13 */
static int fixed2_one(double x, char *out)
{
    const double r = fabs(x);
    if (!(r < 1e13))
        return -1;
    /* r 100 = p + e exactly: r = hi + lo by Dekker's split, and 100 needs
     * none, so hi 100 and lo 100 are exact */
    const double p = r * 100.0;
    const double t = r * 134217729.0;
    const double hi = t - (t - r), lo = r - hi;
    const double e = (hi * 100.0 - p) + lo * 100.0;
    double q = nearbyint(p);
    if (p - q == 0.5 && e > 0.0)
        q += 1.0;
    else if (p - q == -0.5 && e < 0.0)
        q -= 1.0;
    /* the cents, below 10^15: at least one digit before the point */
    char buf[32];
    write17(buf, (uint64_t)q);
    const char *digits = buf;
    while (digits < buf + 14 && *digits == '0')
        digits++;
    int len = 0;
    if (signbit(x))
        out[len++] = '-';
    memcpy(out + len, digits, 16);
    len += (int)(buf + 15 - digits);
    out[len++] = '.';
    out[len++] = buf[15];
    out[len++] = buf[16];
    return len;
}

/* n bytes of s to at, returning the end; s16 holds the first 16 bytes of s,
 * zero-padded, so that a short s goes as one fixed 16-byte copy, which a
 * double's text then overwrites */
static char *put(char *at, const char *s, long long n, const char *s16)
{
    memcpy(at, n <= 16 ? s16 : s, n <= 16 ? 16 : n);
    return at + n;
}

/* the text of every double of x by one, joined; see the header comment */
static long long join(int (*one)(double, char *), const double *x, long long rows,
                      long long cols, const char *sep, long long nsep, const char *row_sep,
                      long long nrow, char *out)
{
    char sep16[16] = {0}, row16[16] = {0};
    memcpy(sep16, sep, nsep < 16 ? nsep : 16);
    memcpy(row16, row_sep, nrow < 16 ? nrow : 16);
    char *at = out;
    for (long long r = 0; r < rows; r++) {
        if (r)
            at = put(at, row_sep, nrow, row16);
        for (long long c = 0; c < cols; c++) {
            if (c)
                at = put(at, sep, nsep, sep16);
            const int len = one(x[r * cols + c], at);
            if (len < 0)
                return -1;
            at += len;
        }
    }
    return at - out;
}

long long shortest_text(const double *x, long long rows, long long cols, const char *sep,
                        long long nsep, const char *row_sep, long long nrow, char *out)
{
    return join(shortest_one, x, rows, cols, sep, nsep, row_sep, nrow, out);
}

long long fixed2_text(const double *x, long long rows, long long cols, const char *sep,
                      long long nsep, const char *row_sep, long long nrow, char *out)
{
    return join(fixed2_one, x, rows, cols, sep, nsep, row_sep, nrow, out);
}
