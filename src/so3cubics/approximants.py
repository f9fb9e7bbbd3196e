"""Closed-form approximants to nearly constant Lie quadratics in so(3).

A quadratic close to a constant velocity D = d f0 is approximated to first
order by

    V1(t) = D + delta (q(t) f0 + A0 + (t - t0) A1 + e(t) B)

with q quadratic, A0, A1, B in the plane orthogonal to f0, and e(t) the
axial rotation exp(-d (t - t0) ad(f0)).  The second-order approximant adds
(delta^2 / 2)(f2(t) f0 + v2(t)) whose ingredients are polynomial and
trigonometric: the transverse endomorphism algebra is spanned by the
identity, ad(f0), e, and ad(f0) e, and running integrals of polynomial
multiples of e close up under an integration-by-parts recursion.

All transverse arithmetic is done in complex form (the plane orthogonal
to f0 with ad(f0) acting as i), which keeps every coefficient formula a
few lines long and makes derivatives exact.  Each parameter set builds
these closed forms and their first three derivatives once, as tuples of
Python complex coefficients on the frequency bands 0 and -d; one pass
forms exp(-i d (t - t0)) once and Horner-sums every form it needs at
every requested order, for a scalar time or an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Frame, _dot, as_vector, frame_from_axis
from .errors import DegenerateB, OutOfDomain
from .quadratic import QuadraticIVP

B_DEGENERACY_TOL = 1e-12   # per-delta transverse V'' below this flags beta = 0


# ---------------------------------------------------------------------------
# polynomial x axial-rotation calculus (transverse plane, complex form)
# ---------------------------------------------------------------------------
# Coefficients are tuples of Python complex numbers, lowest power first.  The
# helpers follow numpy.polynomial's arithmetic: its trimming of trailing
# zeros and its division by an integer as a product with the reciprocal.  A
# table thus holds numpy's values bit for bit, except where numpy's vectorised
# product of two general complex numbers rounds differently.

def _trim(c: tuple) -> tuple:
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    return c


def _padd(a: tuple, b: tuple) -> tuple:
    a, b = sorted((a, b), key=len, reverse=True)
    return _trim(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


def _pder(c: tuple) -> tuple:
    """Derivative; empty for a constant."""
    return tuple(j * x for j, x in enumerate(c) if j)


def _pint(c: tuple) -> tuple:
    """Antiderivative vanishing at 0."""
    return (0j, c[0], *(x * (1.0 / j) for j, x in enumerate(c[1:], 2)))


def _horner(c: tuple, x, x0):
    """The polynomial at times x, given x0 = x * 0 (shared by the forms)."""
    c0 = c[-1] + x0
    for a in c[-2::-1]:
        c0 = a + c0 * x
    return c0


@dataclass(slots=True)
class _BandPoly:
    """Complex function pe(tau) exp(-i d tau) + pp(tau): a polynomial on
    each frequency band, -d and 0.  Closed under sums, scalar products,
    differentiation and running integration from 0."""

    d: float
    pe: tuple
    pp: tuple

    @staticmethod
    def make(d: float, pe=(0,), pp=(0,)) -> "_BandPoly":
        return _BandPoly(d, tuple(map(complex, pe)), tuple(map(complex, pp)))

    def __add__(self, other: "_BandPoly") -> "_BandPoly":
        return _BandPoly(self.d, _padd(self.pe, other.pe), _padd(self.pp, other.pp))

    def __mul__(self, z) -> "_BandPoly":
        z = complex(z)
        return _BandPoly(self.d, tuple(c * z for c in self.pe), tuple(c * z for c in self.pp))

    def deriv(self) -> "_BandPoly":
        pe = _padd(_pder(self.pe) or (0j,), tuple((-1j * self.d) * c for c in self.pe))
        return _BandPoly(self.d, pe, _pder(self.pp) or (0j,))

    def integ(self) -> "_BandPoly":
        """Running integral from 0.  Integration by parts gives
        int_0^tau p(s) exp(-i d s) ds = w(tau) exp(-i d tau) - w(0) with
        w = sum_k (-1)^k (i/d)^(k+1) p^(k)."""
        w, term, factor, sign = [0j] * len(self.pe), self.pe, 1j / self.d, 1.0
        while term and any(c != 0 for c in term):
            scale = sign * factor
            w[:len(term)] = [a + scale * c for a, c in zip(w, term)]
            term, factor, sign = _pder(term), factor * (1j / self.d), -sign
        return _BandPoly(self.d, tuple(w), _padd(_pint(self.pp), (-w[0],)))


# ---------------------------------------------------------------------------
# parameters of the approximants
# ---------------------------------------------------------------------------

def _power(d: float, n: int) -> float:
    """d ** n of the axis length d, or ValueError where it overflows (a
    Python float's power raises OverflowError there)."""
    try:
        return d ** n
    except OverflowError:
        raise ValueError(f"axis length d = {d!r} overflows in d ** {n}") from None


@dataclass(frozen=True)
class ApproxParams:
    """Parameter set of the first/second-order approximants.

    q(t) = c0 + c1 (t - t0) + c2 (t - t0)^2 is the axial polynomial;
    (a01, a02) and (a11, a12) are the frame coordinates of the transverse
    affine coefficients A0, A1; B = beta (cos gamma f1 + sin gamma f2) is
    the transverse oscillatory coefficient.  `b_degenerate` marks a fitted
    parameter set whose transverse V'' vanished (beta = 0), for which the
    closed-form reconstruction formulas do not apply.
    """

    delta: float
    frame: Frame
    t0: float
    c0: float
    c1: float
    c2: float
    a01: float
    a02: float
    a11: float
    a12: float
    beta: float
    gamma: float
    b_degenerate: bool = False

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if not 0.0 <= self.gamma < 2.0 * math.pi:
            raise ValueError("gamma must lie in [0, 2*pi)")

    @property
    def q_coeffs(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2])

    @property
    def rho(self) -> float:
        """-2 c2 / (d^2 beta); only defined for beta > 0, else DegenerateB;
        a d whose square overflows raises ValueError."""
        if self.beta <= 0.0:
            raise DegenerateB("rho is undefined for beta = 0")
        return -2.0 * self.c2 / (_power(self.frame.d, 2) * self.beta)

    @cached_property
    def _closed_forms(self) -> list[tuple[_BandPoly, ...]]:
        """(Q, P, F, G) and their derivatives, indexed by order 0..3, built
        on first use.

        V1 = base + delta (Re Q f0 + P) with the axial polynomial Q = q and
        the transverse part P = A0 + tau A1 + e B in complex form; the
        correction is f2 = Im F and v2 = G, see _correction_forms.
        """
        d = self.frame.d
        a0c, a1c = complex(self.a01, self.a02), complex(self.a11, self.a12)
        bc = self.beta * np.exp(1j * self.gamma)
        forms = (_BandPoly.make(d, pp=self.q_coeffs), _BandPoly.make(d, pe=[bc], pp=[a0c, a1c]),
                 *_correction_forms(self, a0c, a1c, bc))
        jets = [forms]
        for _ in range(3):
            jets.append(tuple(form.deriv() for form in jets[-1]))
        return jets

    def to_dict(self) -> dict:
        f = self.frame
        return {
            "delta": self.delta,
            "t0": self.t0,
            "frame": {"f0": list(f.f0), "f1": list(f.f1), "f2": list(f.f2), "d": f.d},
            "q": [self.c0, self.c1, self.c2],
            "a0": [self.a01, self.a02],
            "a1": [self.a11, self.a12],
            "beta": self.beta,
            "gamma": self.gamma,
            "b_degenerate": self.b_degenerate,
        }


def fit_params(base, delta: float, v0, v1, v2, t0: float = 0.0) -> ApproxParams:
    """Match the first-order approximant to initial data (V, V', V'') at t0.

    Splitting the scaled perturbations (v0 - base)/delta, v1/delta,
    v2/delta into axial and transverse parts determines, in order: the
    axial polynomial coefficients; B from the transverse V''; then A1 and
    A0 by back-substitution.  When the transverse V'' vanishes the set is
    returned with beta = 0 and flagged `b_degenerate` instead of raising.
    Coordinates in the frame are `algebra._dot`s; scaled perturbations
    that are not finite, and an axis length d = |base| whose square
    overflows where the transverse V'' does not vanish, raise ValueError,
    with no float warning.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    frame = frame_from_axis(base)
    d = frame.d
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array([as_vector(v0) - frame.base, as_vector(v1), as_vector(v2)]) / delta
    if not np.all(np.isfinite(p)):
        raise ValueError("scaled perturbations are not finite")

    axial, re, im = (_dot(p, f).tolist() for f in (frame.f0, frame.f1, frame.f2))
    c0, c1, c2 = axial[0], axial[1], 0.5 * axial[2]
    # complex(re, im), not re + 1j * im, which turns a -0.0 real part into 0.0
    perp0, perp1, perp2 = map(complex, re, im)

    degenerate = abs(perp2) <= B_DEGENERACY_TOL
    if degenerate:
        beta, gamma, bc = 0.0, 0.0, 0j
    else:
        bc = -perp2 / _power(d, 2)
        beta = abs(bc)
        gamma = math.atan2(bc.imag, bc.real) % (2.0 * math.pi)
        if gamma == 2.0 * math.pi:   # an angle just below 0 rounds up to 2 pi
            gamma = 0.0
    a1c = perp1 + d * 1j * bc
    a0c = perp0 - bc
    return ApproxParams(
        delta=delta, frame=frame, t0=t0,
        c0=c0, c1=c1, c2=c2,
        a01=a0c.real, a02=a0c.imag,
        a11=a1c.real, a12=a1c.imag,
        beta=beta, gamma=gamma,
        b_degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# evaluation (scalar or array times)
# ---------------------------------------------------------------------------

def _check_finite(t, *values) -> None:
    """The evaluators accept any finite time and compute with numpy's warnings
    off; this raises OutOfDomain at the first time (in C order) that is not
    finite or at which one of `values` (shapes S + ...) is not."""
    t = np.asarray(t, dtype=float)
    ok = np.isfinite(t)
    for v in values:
        # the trailing size is explicit: -1 cannot be inferred for an empty t
        trailing = np.size(v) // max(t.size, 1)
        ok = ok & np.isfinite(v).reshape(t.shape + (trailing,)).all(axis=-1)
    if not np.all(ok):
        raise OutOfDomain(f"closed form is not finite at t = {float(t.flat[np.argmin(ok)])!r}")


def _forms_at(p: ApproxParams, t, orders, forms=slice(None)) -> np.ndarray:
    """The closed forms (Q, P, F, G)[forms] at t at every order in `orders`,
    shape (orders, forms) + shape of t.  Each form is pe(tau) E + pp(tau),
    with one E = exp(-i d tau) for all of them."""
    if any(k not in (0, 1, 2, 3) for k in orders):
        raise ValueError("derivative order must be in 0..3")
    tau = np.asarray(t, dtype=float) - p.t0
    e = np.exp(-1j * p.frame.d * tau)
    zero = tau * 0
    return np.array([[_horner(f.pe, tau, zero) * e + _horner(f.pp, tau, zero)
                      for f in p._closed_forms[k][forms]] for k in orders])


def _approximants(p: ApproxParams, t, orders, forms=slice(None)) -> np.ndarray:
    """V1 (forms (Q, P)) or V2 (all four) at every order in `orders`, shape
    (orders,) + shape of t + (3,):

    V1 = base + delta (Re Q f0 + P) with the base only at order 0, and
    V2 = V1 + (delta^2 / 2)(f2 f0 + v2) with f2 = Im F and v2 = G; a
    transverse z stands for Re z f1 + Im z f2.
    """
    f = p.frame
    with np.errstate(all="ignore"):
        q, perp, *correction = _forms_at(p, t, orders, forms).swapaxes(0, 1)
        v = p.delta * (np.multiply.outer(q.real, f.f0) + f.from_complex(perp))
        v[np.equal(orders, 0)] += f.base
        if correction:
            f2, v2 = correction
            v = v + 0.5 * p.delta ** 2 * (np.multiply.outer(f2.imag, f.f0) + f.from_complex(v2))
    _check_finite(t, *v)
    return v


def first_approximant(p: ApproxParams, t, deriv: int = 0) -> np.ndarray:
    """V1 and its first three t-derivatives in closed form.

    A scalar t gives a 3-vector; an array of times of shape S gives an
    array of shape S + (3,).
    """
    return _approximants(p, t, (deriv,), slice(0, 2))[0]


def taylor2_baseline(ivp: QuadraticIVP, t) -> np.ndarray:
    """Degree-2 Taylor polynomial of the quadratic from its initial jet;
    shapes as in first_approximant."""
    with np.errstate(all="ignore"):
        tau = np.asarray(t, dtype=float)[..., None] - ivp.t0
        out = ivp.v0 + tau * ivp.v1 + 0.5 * tau * tau * ivp.v2
    _check_finite(t, out)
    return out


# ---------------------------------------------------------------------------
# second-order correction
# ---------------------------------------------------------------------------

def _correction_forms(p: ApproxParams, a0c, a1c, bc) -> tuple[_BandPoly, _BandPoly]:
    """The pair (F, G) with f2 = Im F and v2 = G in transverse complex form
    (a0c, a1c, bc are A0, A1, B):

    f2 = -2 <[A0, l0 B] + [A1, l1 B], f0>;
    v2 = 2 q'' (m0 A0 + m1 A1 - mb B) + 2 d^2 ad(f0) I(I(I(q) e)) B.
    Each kernel becomes a _BandPoly in tau = t - t0 by encoding the
    identity as 1, ad(f0) as i and the axial rotation e as exp(-i d tau);
    the polynomial coefficients below are the kernel formulas expanded in
    powers of tau.  I is the running integral from t0, exact through the
    integration-by-parts recursion of _BandPoly.integ.
    """
    d = p.frame.d
    d2, d3, d4 = (_power(d, n) for n in (2, 3, 4))
    # kernels weighting A0, A1 in the axial component
    l0 = _BandPoly.make(d, pe=[1j / d], pp=[-1j / d, -1.0, 0.5j * d])
    l1 = _BandPoly.make(d, pe=[3.0 / d2, 1j / d], pp=[-3.0 / d2, 2j / d, 0.5])
    # kernels weighting A0, A1, B in the transverse component
    m0 = _BandPoly.make(d, pe=[1.0 / d3], pp=[-1.0 / d3, 1j / d2, 0.5 / d])
    m1 = _BandPoly.make(d, pe=[1j / d4],
                        pp=[-1j / d4, -1.0 / d3, 0.5j / d2, 1.0 / (6.0 * d)])
    mb = _BandPoly.make(d, pe=[2.0 / d3, 1j / d2], pp=[-2.0 / d3, 1j / d2])

    f2 = (l0 * (a0c.conjugate() * bc) + l1 * (a1c.conjugate() * bc)) * -2.0
    iq = _pint(tuple(map(complex, p.q_coeffs)))
    g2 = _BandPoly.make(d, pe=iq).integ().integ()
    v2 = (m0 * (4.0 * p.c2 * a0c) + m1 * (4.0 * p.c2 * a1c) + mb * (-4.0 * p.c2 * bc)
          + g2 * (2j * d2 * bc))
    return f2, v2


def second_correction(p: ApproxParams, t, deriv: int = 0):
    """The pair (f2, v2) of the second-order correction, or its t-derivative
    of order `deriv` (0..3): the axial scalar f2 and the transverse vector
    v2.  A scalar t gives (scalar, 3-vector); an array of times of shape S
    gives arrays of shapes S and S + (3,).
    """
    with np.errstate(all="ignore"):
        ((f2, v2),) = _forms_at(p, t, (deriv,), slice(2, 4))
        out = f2.imag, p.frame.from_complex(v2)
    _check_finite(t, *out)
    return out


def second_approximant(p: ApproxParams, t, deriv: int = 0) -> np.ndarray:
    """V2 and its first three t-derivatives; shapes as in first_approximant."""
    return _approximants(p, t, (deriv,))[0]
