/* Shortest round-trip text of doubles, laid out as Python's float.__repr__
 * lays it out, for so3cubics.output's CSV and JSON writers.
 *
 * The digits come from Grisu3 (F. Loitsch, "Printing floating-point numbers
 * quickly and accurately with integers", PLDI 2010): 64-bit "DiyFp"
 * arithmetic scaled by a cached power of ten.  Grisu3 either proves its
 * digits the shortest that read back to the double and the closest of
 * those to it, or gives up on that double (about 0.3-2% of doubles); it
 * also gives up on NaN and the infinities.  Where it gives up the slot is
 * left empty (length 0) and the caller writes float.__repr__ there.
 *
 * With the digits d1..dn and v = 0.d1..dn x 10^p, the layout is repr's:
 * fixed notation when -4 < p <= 16, with ".0" added when there is no
 * fraction (100.0, 0.001), and otherwise exponent notation with a sign and
 * at least two exponent digits (1e-05, 1.5e+16); 0.0 and -0.0 keep their
 * own text.
 *
 * format_fixed2 writes Python's "%.2f" text of doubles, for the points of
 * so3cubics.output's SVG polylines.  For finite |x| < 1e13 it takes the
 * exact product |x| 100 = p + e, p = fl(|x| 100), by Dekker's split at
 * 2^27 + 1 (T. J. Dekker, "A floating-point technique for extending the
 * available precision", Numer. Math. 18, 1971); the kernels are built
 * with -ffp-contract=off, so no fused multiply-add changes e.  The cents
 * are q = nearbyint(p), half to even.  Where p - q = +-0.5 the sign of e
 * says on which side of the half the exact product lies, and e = 0 is a
 * true tie, which "%.2f" also rounds to even.  The sign is that of x, so
 * -0.001 gives -0.00 as in Python.  NaN, the infinities and |x| >= 1e13
 * are left empty for Python to write.  (glibc's sprintf "%.2f" gives the
 * same text but is slower than Python's own formatting.)
 *
 * format_slots and format_fixed2 write the text of x[i] into the SLOT
 * bytes at slots + SLOT i and its length into lens[i].  join_slots then
 * writes rows x cols slots row by row, the slots of a row separated by sep
 * and the rows by row_sep.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_floattext_powers.h"

#define SLOT 32

typedef struct {
    uint64_t f;
    int e;
} diyfp;

/* x y rounded to the upper 64 bits of the 128-bit product, half up */
static diyfp multiply(diyfp x, diyfp y)
{
    const uint64_t m32 = 0xFFFFFFFFu;
    uint64_t a = x.f >> 32, b = x.f & m32, c = y.f >> 32, d = y.f & m32;
    uint64_t ac = a * c, bc = b * c, ad = a * d, bd = b * d;
    uint64_t mid = (bd >> 32) + (ad & m32) + (bc & m32) + (1u << 31);
    diyfp r = {ac + (ad >> 32) + (bc >> 32) + (mid >> 32), x.e + y.e + 64};
    return r;
}

static diyfp normalize(diyfp x)
{
    while (!(x.f & 0xFFC0000000000000u)) {
        x.f <<= 10;
        x.e -= 10;
    }
    while (!(x.f & 0x8000000000000000u)) {
        x.f <<= 1;
        x.e -= 1;
    }
    return x;
}

/* Loitsch's round_weed: moves the last digit of buf towards w while that
 * provably brings it closer, and says whether the result is provably the
 * closest shortest digits inside the rounding interval */
static int round_weed(char *buf, int len, uint64_t dist_high_w, uint64_t unsafe,
                      uint64_t rest, uint64_t ten_kappa, uint64_t unit)
{
    uint64_t small = dist_high_w - unit, big = dist_high_w + unit;
    while (rest < small && unsafe - rest >= ten_kappa
           && (rest + ten_kappa < small || small - rest >= rest + ten_kappa - small)) {
        buf[len - 1]--;
        rest += ten_kappa;
    }
    if (rest < big && unsafe - rest >= ten_kappa
        && (rest + ten_kappa < big || big - rest > rest + ten_kappa - big))
        return 0;
    return 2 * unit <= rest && rest <= unsafe - 4 * unit;
}

/* the digits of a positive finite double into buf; returns their count
 * and sets *point to p, or returns 0 where Grisu3 gives up */
static int grisu3(double v, char *buf, int *point)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t hidden = (uint64_t)1 << 52;
    uint64_t fraction = bits & (hidden - 1);
    int biased = (int)(bits >> 52);
    diyfp x = {fraction, 1 - 1075};
    if (biased) {
        x.f += hidden;
        x.e = biased - 1075;
    }
    /* the boundaries halfway to the neighbouring doubles; the lower one is
     * closer when v is a power of two above the smallest normal */
    diyfp plus = normalize((diyfp){(x.f << 1) + 1, x.e - 1});
    diyfp minus = fraction == 0 && biased > 1 ? (diyfp){(x.f << 2) - 1, x.e - 2}
                                               : (diyfp){(x.f << 1) - 1, x.e - 1};
    minus.f <<= minus.e - plus.e;
    minus.e = plus.e;
    diyfp w = normalize(x);

    /* the cached power 10^ten_k that brings w's exponent into [-60, -32] */
    int k = (int)(0.30102999566398114 * (-60 - (w.e + 64) + 63));
    if (k < 0.30102999566398114 * (-60 - (w.e + 64) + 63))
        k++;
    int index = (k - 1 - CACHED_POWER_FIRST) / CACHED_POWER_STEP + 1;
    diyfp scale = {CACHED_POWERS[index].f, CACHED_POWERS[index].e};
    int ten_k = CACHED_POWER_FIRST + CACHED_POWER_STEP * index;

    diyfp sw = multiply(w, scale);
    diyfp low = multiply(minus, scale), high = multiply(plus, scale);

    /* digit generation on the widened interval (low - unit, high + unit) */
    uint64_t unit = 1;
    uint64_t too_high = high.f + unit, unsafe = too_high - (low.f - unit);
    int shift = -sw.e;
    uint64_t one = (uint64_t)1 << shift;
    uint32_t integrals = (uint32_t)(too_high >> shift);
    uint64_t fractionals = too_high & (one - 1);
    uint32_t divisor = 1;
    int kappa = 1;
    while (divisor <= integrals / 10) {
        divisor *= 10;
        kappa++;
    }
    int len = 0;
    while (kappa > 0) {
        buf[len++] = (char)('0' + integrals / divisor);
        integrals %= divisor;
        kappa--;
        uint64_t rest = ((uint64_t)integrals << shift) + fractionals;
        if (rest < unsafe) {
            *point = len + kappa - ten_k;
            return round_weed(buf, len, too_high - sw.f, unsafe, rest,
                              (uint64_t)divisor << shift, unit) ? len : 0;
        }
        divisor /= 10;
    }
    for (;;) {
        fractionals *= 10;
        unit *= 10;
        unsafe *= 10;
        buf[len++] = (char)('0' + (fractionals >> shift));
        fractionals &= one - 1;
        kappa--;
        if (fractionals < unsafe) {
            *point = len + kappa - ten_k;
            return round_weed(buf, len, (too_high - sw.f) * unit, unsafe, fractionals,
                              one, unit) ? len : 0;
        }
    }
}

/* repr's text of v into out; returns its length, or 0 where it gives up */
static int format_one(double v, char *out)
{
    char digits[20];
    int n, p, len = 0;
    if (v != v || v - v != 0.0)
        return 0;   /* NaN or an infinity */
    if (v < 0.0 || (v == 0.0 && 1.0 / v < 0.0)) {
        out[len++] = '-';
        v = -v;
    }
    if (v == 0.0) {
        memcpy(out + len, "0.0", 3);
        return len + 3;
    }
    n = grisu3(v, digits, &p);
    if (n == 0)
        return 0;
    while (n > 1 && digits[n - 1] == '0')
        n--;
    if (-4 < p && p <= 16) {
        if (p <= 0) {
            /* 0.000ddd */
            out[len++] = '0';
            out[len++] = '.';
            for (int i = p; i < 0; i++)
                out[len++] = '0';
            memcpy(out + len, digits, n);
            len += n;
        } else if (p < n) {
            /* dd.ddd */
            memcpy(out + len, digits, p);
            len += p;
            out[len++] = '.';
            memcpy(out + len, digits + p, n - p);
            len += n - p;
        } else {
            /* ddd000.0 */
            memcpy(out + len, digits, n);
            len += n;
            for (int i = n; i < p; i++)
                out[len++] = '0';
            out[len++] = '.';
            out[len++] = '0';
        }
    } else {
        /* d.ddde+XX */
        int e = p - 1;
        out[len++] = digits[0];
        if (n > 1) {
            out[len++] = '.';
            memcpy(out + len, digits + 1, n - 1);
            len += n - 1;
        }
        out[len++] = 'e';
        out[len++] = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            out[len++] = (char)('0' + e / 100);
        out[len++] = (char)('0' + e / 10 % 10);
        out[len++] = (char)('0' + e % 10);
    }
    return len;
}

/* returns the number of slots left empty */
long long format_slots(const double *x, long long n, char *slots, unsigned char *lens)
{
    long long empty = 0;
    for (long long i = 0; i < n; i++) {
        int len = format_one(x[i], slots + SLOT * i);
        lens[i] = (unsigned char)len;
        empty += len == 0;
    }
    return empty;
}

/* "%.2f"'s text of x into out; returns its length, or 0 where it leaves
 * x to Python */
static int format_fixed2_one(double x, char *out)
{
    const double r = fabs(x);
    if (!(r < 1e13))
        return 0;   /* NaN, an infinity, or too large */
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
    /* the digits of the cents, at least three, last first */
    uint64_t cents = (uint64_t)q;
    char digits[20];
    int n = 0, len = 0;
    do {
        digits[n++] = (char)('0' + cents % 10);
        cents /= 10;
    } while (cents || n < 3);
    if (signbit(x))
        out[len++] = '-';
    while (n > 2)
        out[len++] = digits[--n];
    out[len++] = '.';
    out[len++] = digits[1];
    out[len++] = digits[0];
    return len;
}

/* returns the number of slots left empty */
long long format_fixed2(const double *x, long long n, char *slots, unsigned char *lens)
{
    long long empty = 0;
    for (long long i = 0; i < n; i++) {
        int len = format_fixed2_one(x[i], slots + SLOT * i);
        lens[i] = (unsigned char)len;
        empty += len == 0;
    }
    return empty;
}

/* n bytes of s to at, returning the end; s16 holds the first 16 bytes of s,
 * zero-padded, so that a short s goes as one fixed 16-byte copy */
static char *put(char *at, const char *s, long long n, const char *s16)
{
    if (n <= 16)
        memcpy(at, s16, 16);
    else
        memcpy(at, s, n);
    return at + n;
}

/* returns the number of bytes written to out, which must have room for
 * SLOT bytes more: every slot goes as one fixed SLOT-byte copy */
long long join_slots(const char *slots, const unsigned char *lens, long long rows,
                     long long cols, const char *sep, long long nsep,
                     const char *row_sep, long long nrow, char *out)
{
    char sep16[16] = {0}, row16[16] = {0};
    memcpy(sep16, sep, nsep < 16 ? nsep : 16);
    memcpy(row16, row_sep, nrow < 16 ? nrow : 16);
    char *at = out;
    for (long long r = 0; r < rows; r++) {
        if (r)
            at = put(at, row_sep, nrow, row16);
        for (long long c = 0; c < cols; c++) {
            long long i = r * cols + c;
            if (c)
                at = put(at, sep, nsep, sep16);
            memcpy(at, slots + SLOT * i, SLOT);
            at += lens[i];
        }
    }
    return at - out;
}
