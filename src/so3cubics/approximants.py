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
these closed forms and their first three derivatives once; every
evaluator then accepts a scalar time or an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra import Frame, as_vector, frame_from_axis
from .errors import DegenerateB
from .quadratic import QuadraticIVP

B_DEGENERACY_TOL = 1e-12   # per-delta transverse V'' below this flags beta = 0


# ---------------------------------------------------------------------------
# polynomial x axial-rotation calculus (transverse plane, complex form)
# ---------------------------------------------------------------------------

def _ibp_weights(coeffs: np.ndarray, d: float) -> np.ndarray:
    """Coefficients w with int_0^tau p(s) exp(-i d s) ds
    = w(tau) exp(-i d tau) - w(0), by repeated integration by parts:
    w = sum_k (-1)^k (i/d)^(k+1) p^(k)."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    w = np.zeros_like(coeffs)
    term = coeffs
    factor = 1j / d
    sign = 1.0
    while term.size and np.any(term != 0.0):
        w[: term.size] += sign * factor * term
        term = npoly.polyder(term)
        factor *= 1j / d
        sign = -sign
    return w


@dataclass(frozen=True)
class _PolyExp:
    """Complex function p(tau) exp(-i d tau) + r(tau) with polynomial p, r.

    Closed under differentiation and under running integration from 0,
    which is all the second-order correction formulas need.
    """

    d: float
    pe: np.ndarray   # coefficients of the exp-carrying polynomial, low to high
    pp: np.ndarray   # coefficients of the plain polynomial

    @staticmethod
    def make(d: float, pe=(0,), pp=(0,)) -> "_PolyExp":
        return _PolyExp(d, np.atleast_1d(np.asarray(pe, dtype=complex)),
                        np.atleast_1d(np.asarray(pp, dtype=complex)))

    def __call__(self, tau):
        """Value at a scalar tau or elementwise over an array of them."""
        return (npoly.polyval(tau, self.pe) * np.exp(-1j * self.d * tau)
                + npoly.polyval(tau, self.pp))

    def __add__(self, other: "_PolyExp") -> "_PolyExp":
        return _PolyExp(self.d, npoly.polyadd(self.pe, other.pe),
                        npoly.polyadd(self.pp, other.pp))

    def __mul__(self, z: complex) -> "_PolyExp":
        return _PolyExp(self.d, self.pe * z, self.pp * z)

    def deriv(self) -> "_PolyExp":
        pe = npoly.polyder(self.pe) if self.pe.size > 1 else np.zeros(1, complex)
        pe = npoly.polyadd(pe, -1j * self.d * self.pe)
        pp = npoly.polyder(self.pp) if self.pp.size > 1 else np.zeros(1, complex)
        return _PolyExp(self.d, np.atleast_1d(pe), np.atleast_1d(pp))

    def integ(self) -> "_PolyExp":
        """Running integral from 0."""
        w = _ibp_weights(self.pe, self.d)
        pp = npoly.polyint(self.pp)
        pp = npoly.polyadd(pp, [-complex(npoly.polyval(0.0, w))])
        return _PolyExp(self.d, w, np.atleast_1d(pp))


# ---------------------------------------------------------------------------
# parameters of the approximants
# ---------------------------------------------------------------------------

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
        """-2 c2 / (d^2 beta); only defined for beta > 0."""
        if self.beta <= 0.0:
            raise DegenerateB("rho is undefined for beta = 0")
        return -2.0 * self.c2 / (self.frame.d ** 2 * self.beta)

    # complex shorthands for the transverse coefficients
    @property
    def _a0c(self) -> complex:
        return complex(self.a01, self.a02)

    @property
    def _a1c(self) -> complex:
        return complex(self.a11, self.a12)

    @property
    def _bc(self) -> complex:
        return self.beta * np.exp(1j * self.gamma)

    @cached_property
    def _closed_forms(self) -> list[tuple["_PolyExp", ...]]:
        """(Q, P, F, G) and their derivatives, indexed by order 0..3.

        V1 = base + delta (Re Q f0 + P) with the axial polynomial Q = q and
        the transverse part P = A0 + tau A1 + e B in complex form; the
        correction is f2 = Im F and v2 = G, see _correction_forms.
        """
        d = self.frame.d
        forms = (_PolyExp.make(d, pp=self.q_coeffs),
                 _PolyExp.make(d, pe=[self._bc], pp=[self._a0c, self._a1c]),
                 *_correction_forms(self))
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
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    frame = frame_from_axis(base)
    d = frame.d
    p0 = (as_vector(v0) - frame.base) / delta
    p1 = as_vector(v1) / delta
    p2 = as_vector(v2) / delta
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))):
        raise ValueError("scaled perturbations are not finite")

    c0 = float(p0 @ frame.f0)
    c1 = float(p1 @ frame.f0)
    c2 = 0.5 * float(p2 @ frame.f0)
    perp0 = frame.perp_complex(p0)
    perp1 = frame.perp_complex(p1)
    perp2 = frame.perp_complex(p2)

    degenerate = abs(perp2) <= B_DEGENERACY_TOL
    if degenerate:
        beta, gamma, bc = 0.0, 0.0, 0j
    else:
        bc = -perp2 / d ** 2
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

def _jet(p: ApproxParams, t, deriv: int):
    if deriv not in (0, 1, 2, 3):
        raise ValueError("derivative order must be in 0..3")
    return np.asarray(t, dtype=float) - p.t0, p._closed_forms[deriv]


def first_approximant(p: ApproxParams, t, deriv: int = 0) -> np.ndarray:
    """V1 and its first three t-derivatives in closed form.

    A scalar t gives a 3-vector; an array of times of shape S gives an
    array of shape S + (3,).
    """
    tau, (q, perp, _, _) = _jet(p, t, deriv)
    f = p.frame
    v = p.delta * (np.multiply.outer(q(tau).real, f.f0) + f.from_complex(perp(tau)))
    return f.base + v if deriv == 0 else v


def taylor2_baseline(ivp: QuadraticIVP, t) -> np.ndarray:
    """Degree-2 Taylor polynomial of the quadratic from its initial jet;
    shapes as in first_approximant."""
    tau = np.asarray(t, dtype=float)[..., None] - ivp.t0
    return ivp.v0 + tau * ivp.v1 + 0.5 * tau * tau * ivp.v2


# ---------------------------------------------------------------------------
# second-order correction
# ---------------------------------------------------------------------------

def _correction_forms(p: ApproxParams) -> tuple[_PolyExp, _PolyExp]:
    """The pair (F, G) with f2 = Im F and v2 = G in transverse complex form:

    f2 = -2 <[A0, l0 B] + [A1, l1 B], f0>;
    v2 = 2 q'' (m0 A0 + m1 A1 - mb B) + 2 d^2 ad(f0) I(I(I(q) e)) B.
    Each kernel becomes a _PolyExp in tau = t - t0 by encoding the
    identity as 1, ad(f0) as i and the axial rotation e as exp(-i d tau);
    the polynomial coefficients below are the kernel formulas expanded in
    powers of tau.  I is the running integral from t0, exact through the
    integration-by-parts recursion of _PolyExp.integ.
    """
    d = p.frame.d
    # kernels weighting A0, A1 in the axial component
    l0 = _PolyExp.make(d, pe=[1j / d], pp=[-1j / d, -1.0, 0.5j * d])
    l1 = _PolyExp.make(d, pe=[3.0 / d ** 2, 1j / d],
                       pp=[-3.0 / d ** 2, 2j / d, 0.5])
    # kernels weighting A0, A1, B in the transverse component
    m0 = _PolyExp.make(d, pe=[1.0 / d ** 3],
                       pp=[-1.0 / d ** 3, 1j / d ** 2, 0.5 / d])
    m1 = _PolyExp.make(d, pe=[1j / d ** 4],
                       pp=[-1j / d ** 4, -1.0 / d ** 3, 0.5j / d ** 2, 1.0 / (6.0 * d)])
    mb = _PolyExp.make(d, pe=[2.0 / d ** 3, 1j / d ** 2],
                       pp=[-2.0 / d ** 3, 1j / d ** 2])

    a0c, a1c, bc = p._a0c, p._a1c, p._bc
    f2 = (l0 * (np.conj(a0c) * bc) + l1 * (np.conj(a1c) * bc)) * -2.0
    iq = npoly.polyint(np.asarray(p.q_coeffs, dtype=complex))
    g2 = _PolyExp.make(d, pe=iq).integ().integ()
    v2 = (m0 * (4.0 * p.c2 * a0c) + m1 * (4.0 * p.c2 * a1c) + mb * (-4.0 * p.c2 * bc)
          + g2 * (2j * d ** 2 * bc))
    return f2, v2


def second_correction(p: ApproxParams, t, deriv: int = 0):
    """The pair (f2, v2) of the second-order correction, or its t-derivative
    of order `deriv` (0..3): the axial scalar f2 and the transverse vector
    v2.  A scalar t gives (scalar, 3-vector); an array of times of shape S
    gives arrays of shapes S and S + (3,).
    """
    tau, (_, _, f2, v2) = _jet(p, t, deriv)
    return f2(tau).imag, p.frame.from_complex(v2(tau))


def second_approximant(p: ApproxParams, t, deriv: int = 0) -> np.ndarray:
    """V2 and its first three t-derivatives; shapes as in first_approximant.

    V2 = V1 + (delta^2 / 2)(f2 f0 + v2), with every derivative order
    taken exactly from the cached closed form of the correction.
    """
    f2, v2 = second_correction(p, t, deriv)
    return (first_approximant(p, t, deriv)
            + 0.5 * p.delta ** 2 * (np.multiply.outer(f2, p.frame.f0) + v2))
