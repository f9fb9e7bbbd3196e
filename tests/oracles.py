"""Independent oracles for the closed forms and the integrators.

The library evaluates the approximants and the correction (f2, v2) from
tables of plain Python complex coefficients: one polynomial on each of the
frequency bands 0 and -d, built once per parameter set.  The forms here
compute the same quantities by other routes and serve only as test
references:

* `_PolyExp` and `_ibp_weights`, the same closed forms on numpy arrays run
  through `numpy.polynomial` (`polyder`, `polyadd`, `polyint`, `polyval`),
  each form evaluated with its own exp(-i d tau): `polyexp_closed_forms`
  builds (Q, P, F, G) and their derivatives, `polyexp_values` and
  `polyexp_approx_cubic` evaluate them, and `closed_form_phase` and
  `taylor2_values` restate the phase and the Taylor baseline.  The
  library's tables must agree with them to rounding, and bit for bit
  where every complex product that builds the tables has a factor with a
  zero component (the figure3 family, or B along f1);
* the matrix kernels (`endomorphisms`, `matrix_second_correction`), which
  act on so(3) with 3x3 matrices instead of complex scalars;
* the hand-derived second and third derivatives
  (`second_correction_deriv2`, `second_correction_deriv3`);
* nested cumulative-Simpson quadrature of the order-2 variational
  recursion (`brute_force_correction`).

The library integrates V''' = [V'', V] by RK4 on float locals and
x' = x ad(V) by the fourth-order Magnus method.  The RK4 loops here
integrate the same equations one numpy expression per stage:

* `rk4_quadratic`, whose states the library must reproduce bit for bit;
* `rk4_rotation`, RK4 on 3x3 matrices with periodic Gram-Schmidt
  renormalization, an independent reference for the Magnus integrator.

The Magnus integrator forms its running product x0 S_0 ... S_k by a blocked
prefix product with every 3x3 product summed in one fixed order;
`sequential_product` forms it one step at a time, and
`matmul_running_product` by the same blocked scan in `np.matmul`'s
stacked products, the library's product before it fixed that order.

The library lifts the phased moving frame to a rotation curve with every
3x3 product summed in one fixed order; `polyexp_approx_cubic` lifts its
frames through `loop_product`, one product at a time in Python floats in
that order, so `approx_cubic` must reproduce it bit for bit.

The library measures a stack of rotation pairs in one `so3_distance` call;
`pair_distance` measures one pair in Python floats, and the stacked form
must reproduce it bit for bit.  Its Frobenius part is `loop_frobenius`,
which sums one pair at a time in the order that `algebra._frobenius` sums
whole stacks; its R1^T R2 is `loop_product`'s, and its trace is summed as
(m00 + m11) + m22, the order of `so3_distance`.

The library writes the Rodrigues exponential and the rotation defect entry
by entry; `matmul_rot_exp` (I + a K + b K @ K on `ad_matrix` stacks) and
`matmul_rotation_error` (a stacked R^T @ R) form them by matrix products,
and the library must agree with them to rounding.  `rot_exp_error`
measures either exponential against the exact one in 50-digit mpmath.

Helpers that only tests and these oracles call live here too: the adjoint
matrix `ad_matrix` (ad_matrix(v) @ w == bracket(v, w), on stacks), the
axial rotation family `axial_rotation`, its running integrals in matrix
form (`integrate_poly_axial`), `moving_frame`, the row Gram-Schmidt
`renormalize` with its `NotNearRotation` error, and `transverse_vectors`,
which builds the transverse coefficients A0, A1, B of a parameter set as
3-vectors for the matrix kernels.  Two more serve the acceptance suite
and the integrator tests: `subgroup_product_velocity`, the body velocity
of exp(t a) exp(t b), a velocity that no Lie quadratic gives in general;
and `quadratic_residual`, the sup of |V''' - [V'', V]| over a uniform grid
by 4th-order central differences of the values alone, an equation gauge
that does not depend on how a curve was produced.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import cumulative_simpson

from so3cubics.algebra import (Frame, as_vector, as_vectors, bracket, frame_from_pair,
                              plane_rotation, rot_exp)
from so3cubics.approximants import ApproxParams
from so3cubics.errors import DegeneracyError
from so3cubics.quadratic import QuadraticIVP, QuadraticTrajectory, _uniform_grid

ORTHO_GUARD = 0.1          # Frobenius defect beyond which renormalize refuses


def ad_matrix(v) -> np.ndarray:
    """Skew-symmetric matrix with ad_matrix(v) @ w == bracket(v, w).

    A stack of vectors, shape S + (3,), gives matrices of shape S + (3, 3).
    """
    v = as_vectors(v)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def subgroup_product_velocity(a, b, t: float) -> np.ndarray:
    """Body velocity of the product of one-parameter subgroups with
    generators a and b: the adjoint rot_exp(-t b) applied to a, plus b."""
    a = as_vector(a)
    b = as_vector(b)
    return rot_exp(-t * b) @ a + b


# 4th-order central-difference stencils (uniform grid).
_D2_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D3_STENCIL = np.array([0.125, -1.0, 1.625, 0.0, -1.625, 1.0, -0.125])


def quadratic_residual(curve, grid) -> float:
    """Sup over interior grid nodes of |V''' - [V'', V]|.

    `curve` is a callable t -> 3-vector or a QuadraticTrajectory (sampled
    through its dense interpolant).  Second and third derivatives come
    from 4th-order central differences of the value samples, which keeps
    the residual independent of how the curve was produced; the three
    outermost nodes on each side are excluded by the stencil width.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 7:
        raise ValueError("need a 1D grid with at least 7 nodes")
    h = np.diff(grid)
    if np.max(np.abs(h - h[0])) > 1e-9 * abs(h[0]):
        raise ValueError("grid must be uniform")
    h = float(h[0])
    if isinstance(curve, QuadraticTrajectory):
        values = np.atleast_2d(curve.eval(grid))
    else:
        values = np.array([as_vector(curve(t)) for t in grid])

    n = grid.size
    idx = np.arange(3, n - 3)
    d2 = np.zeros((idx.size, 3))
    for j, w in enumerate(_D2_STENCIL):
        d2 += w * values[idx + j - 2]
    d2 /= h * h
    d3 = np.zeros((idx.size, 3))
    for j, w in enumerate(_D3_STENCIL):
        d3 += w * values[idx + j - 3]
    d3 /= h ** 3
    residual = d3 - np.cross(d2, values[idx])
    return float(np.max(np.linalg.norm(residual, axis=1)))


class NotNearRotation(DegeneracyError):
    """Matrix too far from orthogonal for renormalization to be meaningful."""


def renormalize(r) -> np.ndarray:
    """Snap a slightly drifted matrix back onto SO(3).

    Modified Gram-Schmidt on the rows followed by a determinant sign fix;
    idempotent on exact rotations.  Refuses matrices whose orthogonality
    defect exceeds ORTHO_GUARD in Frobenius norm.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {r.shape}")
    defect = float(np.linalg.norm(r.T @ r - np.eye(3)))
    if not defect < ORTHO_GUARD:
        raise NotNearRotation(f"orthogonality defect {defect:.3g} >= {ORTHO_GUARD}")
    q = np.array(r)
    q[0] /= np.linalg.norm(q[0])
    q[1] -= (q[1] @ q[0]) * q[0]
    q[1] /= np.linalg.norm(q[1])
    q[2] -= (q[2] @ q[0]) * q[0] + (q[2] @ q[1]) * q[1]
    q[2] /= np.linalg.norm(q[2])
    if np.linalg.det(q) < 0.0:
        q[2] = -q[2]
    return q


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


def polyexp_closed_forms(p: ApproxParams) -> list[tuple[_PolyExp, ...]]:
    """(Q, P, F, G) and their derivatives, indexed by order 0..3, as
    numpy.polynomial forms: Q = q, P = A0 + tau A1 + e B, and the
    correction's F, G with f2 = Im F, v2 = G, from the same kernel
    expansions as the library's tables."""
    d = p.frame.d
    l0 = _PolyExp.make(d, pe=[1j / d], pp=[-1j / d, -1.0, 0.5j * d])
    l1 = _PolyExp.make(d, pe=[3.0 / d ** 2, 1j / d],
                       pp=[-3.0 / d ** 2, 2j / d, 0.5])
    m0 = _PolyExp.make(d, pe=[1.0 / d ** 3],
                       pp=[-1.0 / d ** 3, 1j / d ** 2, 0.5 / d])
    m1 = _PolyExp.make(d, pe=[1j / d ** 4],
                       pp=[-1j / d ** 4, -1.0 / d ** 3, 0.5j / d ** 2, 1.0 / (6.0 * d)])
    mb = _PolyExp.make(d, pe=[2.0 / d ** 3, 1j / d ** 2],
                       pp=[-2.0 / d ** 3, 1j / d ** 2])
    a0c, a1c = complex(p.a01, p.a02), complex(p.a11, p.a12)
    bc = p.beta * np.exp(1j * p.gamma)
    f2 = (l0 * (np.conj(a0c) * bc) + l1 * (np.conj(a1c) * bc)) * -2.0
    iq = npoly.polyint(np.asarray(p.q_coeffs, dtype=complex))
    g2 = _PolyExp.make(d, pe=iq).integ().integ()
    v2 = (m0 * (4.0 * p.c2 * a0c) + m1 * (4.0 * p.c2 * a1c) + mb * (-4.0 * p.c2 * bc)
          + g2 * (2j * d ** 2 * bc))
    jets = [(_PolyExp.make(d, pp=p.q_coeffs), _PolyExp.make(d, pe=[bc], pp=[a0c, a1c]),
             f2, v2)]
    for _ in range(3):
        jets.append(tuple(form.deriv() for form in jets[-1]))
    return jets


def polyexp_values(p: ApproxParams, t, deriv: int, jets=None):
    """(V1, f2, v2, V2) at order `deriv` through `polyexp_closed_forms`
    (or the `jets` it returned), each form evaluated on its own with
    numpy's warnings off; shapes as the library's evaluators give them."""
    jets = polyexp_closed_forms(p) if jets is None else jets
    f = p.frame
    with np.errstate(all="ignore"):
        q, perp, f2, v2 = (form(np.asarray(t, dtype=float) - p.t0) for form in jets[deriv])
        v1 = p.delta * (np.multiply.outer(q.real, f.f0) + f.from_complex(perp))
        v1 = f.base + v1 if deriv == 0 else v1
        f2, v2 = f2.imag, f.from_complex(v2)
        return v1, f2, v2, v1 + 0.5 * p.delta ** 2 * (np.multiply.outer(f2, f.f0) + v2)


def polyexp_approx_cubic(p: ApproxParams, x0, t, jets=None) -> np.ndarray:
    """The closed-form cubic assembled from `polyexp_values`; raises
    ValueError where V2'' or V2''' is not finite."""
    ts = np.append(p.t0, t)
    v2, v3 = (polyexp_values(p, ts, k, jets)[3] for k in (2, 3))
    with np.errstate(all="ignore"):
        ys = loop_product(plane_rotation(closed_form_phase(p, ts)), frame_from_pair(v2, v3))
        out = loop_product(loop_product(x0, ys[0].T), ys[1:])
    out[ts[1:] == p.t0] = x0
    return out.reshape(np.shape(t) + (3, 3))


def closed_form_phase(p: ApproxParams, t):
    """The first-order phase phi_hat(t), with numpy's warnings off."""
    d = p.frame.d
    with np.errstate(all="ignore"):
        tau = np.asarray(t, dtype=float) - p.t0
        u = d * tau
        osc = (p.a11 * (np.cos(p.gamma - u) - math.cos(p.gamma))
               + p.a12 * (np.sin(p.gamma - u) - math.sin(p.gamma))) / d ** 2
        return p.delta * math.sqrt(p.rho ** 2 + 1.0) * (tau * p.beta + osc)


def taylor2_values(ivp: QuadraticIVP, t) -> np.ndarray:
    """The degree-2 Taylor polynomial of the jet, with numpy's warnings off."""
    with np.errstate(all="ignore"):
        tau = np.asarray(t, dtype=float)[..., None] - ivp.t0
        return ivp.v0 + tau * ivp.v1 + 0.5 * tau * tau * ivp.v2


def axial_rotation(frame: Frame, t: float, t0: float) -> np.ndarray:
    """One-parameter rotation family exp(-d (t - t0) ad(f0)).

    Fixes f0 and rotates the transverse plane clockwise at rate d; in
    frame coordinates the matrix has rows (1,0,0), (0,cos u,sin u),
    (0,-sin u,cos u) with u = d (t - t0).
    """
    return rot_exp(-frame.d * (t - t0) * frame.f0)


def moving_frame(w, dw, t: float) -> np.ndarray:
    """frame_from_pair applied to a curve and its derivative at time t."""
    return frame_from_pair(w(t), dw(t))


def _shifted_poly(coeffs) -> np.ndarray:
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if coeffs.size > 4:
        raise ValueError("polynomial degree must be at most 3")
    return coeffs


def integrate_poly_axial(frame: Frame, coeffs, t: float, t0: float,
                         repeat: int = 1) -> np.ndarray:
    """Running integral I(p e) from t0, as a linear map on so(3).

    `coeffs` holds p in powers of (t - t0), lowest first, degree <= 3;
    e is the axial rotation of the frame.  The closed form comes from the
    integration-by-parts recursion
        I(p e) = (ad(f0)/d)(p e - p(t0) - I(p' e)),
    applied until the polynomial derivative vanishes.  `repeat` iterates
    the running integral, e.g. repeat=2 gives I(I(p e)).
    """
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    coeffs = _shifted_poly(coeffs)
    tau = t - t0
    perp = _PolyExp.make(frame.d, pe=coeffs)
    axial = np.asarray(coeffs, dtype=float)
    for _ in range(repeat):
        perp = perp.integ()
        axial = npoly.polyint(axial)
    w = perp(tau)
    s = float(npoly.polyval(tau, axial))
    p0 = np.outer(frame.f0, frame.f0)
    return w.real * (np.eye(3) - p0) + w.imag * ad_matrix(frame.f0) + s * p0


@dataclass(frozen=True)
class EndomorphismSet:
    """The five transverse kernels of the second-order correction at one
    time, as matrices on so(3): l0, l1 weight A0, A1 inside the axial
    component; m0, m1, mb weight A0, A1, B inside the transverse one.
    Each is a combination of the identity, ad(f0), the axial rotation e,
    and ad(f0) e with polynomial coefficients in u = d (t - t0)."""

    l0: np.ndarray
    l1: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    mb: np.ndarray
    u: float


def endomorphisms(frame: Frame, t: float, t0: float) -> EndomorphismSet:
    """Evaluate the correction kernels at time t."""
    d = frame.d
    u = d * (t - t0)
    eye = np.eye(3)
    im = ad_matrix(frame.f0)
    e = axial_rotation(frame, t, t0)
    ie = im @ e
    l0 = (-u * eye + (u * u / 2.0 - 1.0) * im + ie) / d
    l1 = ((u * u / 2.0 - 3.0) * eye + 2.0 * u * im + 3.0 * e + u * ie) / d ** 2
    m0 = ((u * u / 2.0 - 1.0) * eye + u * im + e) / d ** 3
    m1 = ((u ** 3 / 6.0 - u) * eye + (u * u / 2.0 - 1.0) * im + ie) / d ** 4
    mb = (2.0 * (e - eye) + u * (im @ (e + eye))) / d ** 3
    return EndomorphismSet(l0=l0, l1=l1, m0=m0, m1=m1, mb=mb, u=u)


def transverse_vectors(p: ApproxParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transverse coefficients (A0, A1, B) as 3-vectors in the frame."""
    f = p.frame
    return (p.a01 * f.f1 + p.a02 * f.f2, p.a11 * f.f1 + p.a12 * f.f2,
            p.beta * (math.cos(p.gamma) * f.f1 + math.sin(p.gamma) * f.f2))


def matrix_second_correction(p: ApproxParams, t: float) -> tuple[float, np.ndarray]:
    """The pair (f2, v2) at one time through the matrix kernels.

    f2 = -2 <[A0, l0 B] + [A1, l1 B], f0>;
    v2 = 2 q'' (m0 A0 + m1 A1 - mb B) + 2 d^2 ad(f0) I(I(I(q) e)) B,
    with the double running integral evaluated by the integration-by-parts
    closed form (integrate_poly_axial on the antiderivative of q).
    """
    f = p.frame
    ends = endomorphisms(f, t, p.t0)
    a0, a1, b = transverse_vectors(p)
    f2 = -2.0 * float((bracket(a0, ends.l0 @ b) + bracket(a1, ends.l1 @ b)) @ f.f0)
    iq = npoly.polyint(p.q_coeffs)
    g2 = integrate_poly_axial(f, iq, t, p.t0, repeat=2)
    v2 = (4.0 * p.c2 * (ends.m0 @ a0 + ends.m1 @ a1 - ends.mb @ b)
          + 2.0 * f.d ** 2 * (ad_matrix(f.f0) @ (g2 @ b)))
    return f2, v2


def second_correction_deriv2(p: ApproxParams, t: float) -> tuple[float, np.ndarray]:
    """Second derivatives (f2'', v2'') in their explicit closed form:

    f2'' = <2 d [A0, ad(f0)(e - 1) B] + 2 [A1, (e - 1 + u ad(f0) e) B], f0>
    v2'' = -(4 c2 / d)(e - 1) A0
           + (4 c2 / d^2)(u - ad(f0)(e - 1)) A1
           + 2 (2 c2 (t - t0) + d^2 Iq(t)) ad(f0) e B
    with u = d (t - t0) and Iq the antiderivative of q vanishing at t0.
    """
    f = p.frame
    d = f.d
    tau = t - p.t0
    u = d * tau
    eye = np.eye(3)
    im = ad_matrix(f.f0)
    e = axial_rotation(f, t, p.t0)
    a0, a1, b = transverse_vectors(p)
    f2 = float((2.0 * d * bracket(a0, im @ ((e - eye) @ b))
                + 2.0 * bracket(a1, (e - eye + u * (im @ e)) @ b)) @ f.f0)
    iq = float(npoly.polyval(tau, npoly.polyint(p.q_coeffs)))
    v2 = (-(4.0 * p.c2 / d) * ((e - eye) @ a0)
          + (4.0 * p.c2 / d ** 2) * ((u * eye - im @ (e - eye)) @ a1)
          + 2.0 * (2.0 * p.c2 * tau + d ** 2 * iq) * (im @ (e @ b)))
    return f2, v2


def second_correction_deriv3(p: ApproxParams, t: float) -> tuple[float, np.ndarray]:
    """Third derivatives (f2''', v2'''), by analytic differentiation of the
    second-derivative closed form."""
    f = p.frame
    d = f.d
    tau = t - p.t0
    u = d * tau
    eye = np.eye(3)
    im = ad_matrix(f.f0)
    e = axial_rotation(f, t, p.t0)
    a0, a1, b = transverse_vectors(p)
    eb = e @ b
    f2 = float((2.0 * d ** 2 * bracket(a0, eb) + 2.0 * d * u * bracket(a1, eb)) @ f.f0)
    q = float(npoly.polyval(tau, p.q_coeffs))
    iq = float(npoly.polyval(tau, npoly.polyint(p.q_coeffs)))
    v2 = (4.0 * p.c2 * (im @ (e @ a0))
          + (4.0 * p.c2 / d) * ((eye - e) @ a1)
          + 2.0 * (2.0 * p.c2 + d ** 2 * q) * (im @ eb)
          + 2.0 * d * (2.0 * p.c2 * tau + d ** 2 * iq) * eb)
    return f2, v2


def brute_force_correction(params, tmax, n=8001):
    """Nested running integrals of the order-2 variational recursion."""
    f = params.frame
    d = f.d
    ts = np.linspace(params.t0, tmax, n)
    tau = ts - params.t0
    a0, a1, b = transverse_vectors(params)
    q = params.c0 + params.c1 * tau + params.c2 * tau * tau
    e = np.array([axial_rotation(f, t, params.t0) for t in ts])
    e_inv = np.transpose(e, (0, 2, 1))
    v1 = a0[None, :] + tau[:, None] * a1[None, :] + np.einsum("kij,j->ki", e, b)
    v1dd = -d * d * np.einsum("kij,j->ki", e, b)
    ci = lambda y: cumulative_simpson(y, x=ts, initial=0.0, axis=0)
    f2 = ci(ci(ci(2.0 * np.einsum("ki,i->k", np.cross(v1dd, v1), f.f0))))
    integrand = (2.0 * params.c2 * np.einsum("kij,kj->ki", e_inv, v1)
                 - q[:, None] * np.einsum("kij,kj->ki", e_inv, v1dd))
    v2dd = 2.0 * np.einsum("ij,kjl,kl->ki", ad_matrix(f.f0), e, ci(integrand))
    v2 = ci(ci(v2dd))
    return ts, f2, v2


def _quadratic_rhs(state: np.ndarray) -> np.ndarray:
    out = np.empty(9)
    out[0:3] = state[3:6]
    out[3:6] = state[6:9]
    v0, v1_, v2_ = state[0], state[1], state[2]
    a0, a1, a2 = state[6], state[7], state[8]
    out[6] = a1 * v2_ - a2 * v1_
    out[7] = a2 * v0 - a0 * v2_
    out[8] = a0 * v1_ - a1 * v0
    return out


def rk4_quadratic(ivp: QuadraticIVP, step: float) -> np.ndarray:
    """Classic RK4 for V''' = [V'', V] on the 9-vector (V, V', V''), one
    numpy expression per stage; the states at every grid node, (n + 1, 9)."""
    grid, h, n = _uniform_grid(ivp.t0, ivp.t1, step)
    states = np.empty((n + 1, 9))
    states[0, 0:3] = ivp.v0
    states[0, 3:6] = ivp.v1
    states[0, 6:9] = ivp.v2
    y = states[0].copy()
    for k in range(n):
        k1 = _quadratic_rhs(y)
        k2 = _quadratic_rhs(y + 0.5 * h * k1)
        k3 = _quadratic_rhs(y + 0.5 * h * k2)
        k4 = _quadratic_rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = y
    return states


def rk4_rotation(x0, velocity, step: float, t0=None, t1=None,
                 renorm_every: int = 16) -> np.ndarray:
    """Classic RK4 for x' = x ad(V(t)) on 3x3 matrices, snapped back onto
    SO(3) every `renorm_every` steps (0 never); the rotations at every grid
    node, (n + 1, 3, 3).  `velocity` is a QuadraticTrajectory or a callable
    t -> 3-vector with explicit t0 and t1."""
    if isinstance(velocity, QuadraticTrajectory):
        t0 = velocity.t0 if t0 is None else t0
        t1 = velocity.t1 if t1 is None else t1
        sample = lambda ts: np.atleast_2d(velocity.eval(ts))
    else:
        sample = lambda ts: np.array([velocity(t) for t in ts], dtype=float)
    grid, h, n = _uniform_grid(t0, t1, step)
    v_nodes = sample(grid)
    v_mids = sample(grid[:-1] + 0.5 * h)
    rots = np.empty((n + 1, 3, 3))
    rots[0] = x = np.asarray(x0, dtype=float)
    for k in range(n):
        a0 = ad_matrix(v_nodes[k])
        am = ad_matrix(v_mids[k])
        a1 = ad_matrix(v_nodes[k + 1])
        k1 = x @ a0
        k2 = (x + 0.5 * h * k1) @ am
        k3 = (x + 0.5 * h * k2) @ am
        k4 = (x + h * k3) @ a1
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if renorm_every and (k + 1) % renorm_every == 0:
            x = renormalize(x)
        rots[k + 1] = x
    return rots


def sequential_product(x0, steps) -> np.ndarray:
    """The running products x0, x0 S_0, x0 S_0 S_1, ... of the step
    rotations, one matrix product per step; shape (n + 1, 3, 3)."""
    rots = np.empty((len(steps) + 1, 3, 3))
    rots[0] = x = np.asarray(x0, dtype=float)
    for k in range(len(steps)):
        x = x @ steps[k]
        rots[k + 1] = x
    return rots


def matmul_running_product(x0, steps) -> np.ndarray:
    """The running products x0, x0 S_0, x0 S_0 S_1, ... of n >= 1 step
    rotations, shape (n + 1, 3, 3), by a blocked scan in stacked matmuls:
    blocks of L = ceil(sqrt(n)) steps, the last padded with identities,
    L - 1 batched products for the prefixes inside every block, then one
    product per block for its carry (x0, then the last row of the block
    before)."""
    n = len(steps)
    size = math.isqrt(n - 1) + 1
    count = -(-n // size)
    out = np.empty((count * size + 1, 3, 3))
    out[0] = x0
    out[1:n + 1] = steps
    out[n + 1:] = np.eye(3)
    blocks = out[1:].reshape(count, size, 3, 3)
    for j in range(1, size):
        np.matmul(blocks[:, j - 1], blocks[:, j], out=blocks[:, j])
    carry = out[0]
    for block in blocks:
        np.matmul(carry, block, out=block)
        carry = block[-1]
    return out[:n + 1]


def loop_frobenius(a, b) -> np.ndarray:
    """|A - B|_F of each pair of 3x3 matrices in two stacks of shape
    S + (3, 3), one pair at a time in Python floats: each row of the
    difference squared as (d0 d0 + d1 d1) + d2 d2, the rows added as
    (r0 + r1) + r2, then math.sqrt; shape S."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(a.shape[:-2])
    for k in np.ndindex(out.shape):
        rows = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a[k].tolist(), b[k].tolist())]
        r0, r1, r2 = ((d0 * d0 + d1 * d1) + d2 * d2 for d0, d1, d2 in rows)
        out[k] = math.sqrt((r0 + r1) + r2)
    return out


def loop_product(a, b) -> np.ndarray:
    """a @ b for 3x3 matrices or stacks of them of shapes S + (3, 3) that
    broadcast, one product at a time in Python floats, entry (i, j) summed
    as ((a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j), the order of
    `algebra._product` and of the C kernels."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.empty(a.shape)
    for k in np.ndindex(a.shape[:-2]):
        x, y = a[k].tolist(), b[k].tolist()
        out[k] = [[(x[i][0] * y[0][j] + x[i][1] * y[1][j]) + x[i][2] * y[2][j] for j in range(3)]
                  for i in range(3)]
    return out


def pair_distance(r1, r2) -> tuple[float, float]:
    """(Frobenius distance, geodesic angle) between two rotations: the
    distance is `loop_frobenius`'s, and the angle is
    atan2(|vee(M - M^T)| / 2, (tr M - 1) / 2) with M = R1^T R2 formed by
    `loop_product` and tr M summed as (m00 + m11) + m22."""
    fro = float(loop_frobenius(r1, r2))
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = loop_product(r1.T, r2).tolist()
    a, b, c = m21 - m12, m02 - m20, m10 - m01
    sin_angle = 0.5 * math.sqrt(a * a + b * b + c * c)
    cos_angle = 0.5 * ((m00 + m11) + m22 - 1.0)
    return fro, float(np.arctan2(sin_angle, cos_angle))


def matmul_rot_exp(v) -> np.ndarray:
    """rot_exp as I + a K + b K @ K with K = ad_matrix(v), a = sin(theta)/theta
    and b = (1 - cos(theta))/theta^2 through sinc; shape S + (3, 3)."""
    v = np.asarray(v, dtype=float)
    theta = np.sqrt(v[..., None, :] @ v[..., :, None])   # shape S + (1, 1)
    k = ad_matrix(v)
    a = np.sinc(theta / np.pi)
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    return np.eye(3) + a * k + b * (k @ k)


def rot_exp_error(v, r, dps: int = 50) -> float:
    """Max over the entries of |r - exp(ad v)| for a stack of vectors v,
    shape S + (3,), and of matrices r, shape S + (3, 3): the exact Rodrigues
    exponential and the differences in `dps`-digit arithmetic."""
    worst = mpmath.mpf(0)
    with mpmath.workdps(dps):
        for vec, rot in zip(np.reshape(v, (-1, 3)).tolist(), np.reshape(r, (-1, 3, 3)).tolist()):
            x, y, z = map(mpmath.mpf, vec)
            theta = mpmath.sqrt(x * x + y * y + z * z)
            a = mpmath.sin(theta) / theta if theta else mpmath.mpf(1)
            b = (1 - mpmath.cos(theta)) / theta ** 2 if theta else mpmath.mpf(0.5)
            k = mpmath.matrix([[0, -z, y], [z, 0, -x], [-y, x, 0]])
            exact = mpmath.eye(3) + a * k + b * k * k
            worst = max(worst, *(abs(rot[i][j] - exact[i, j]) for i in range(3) for j in range(3)))
        return float(worst)


def matmul_rotation_error(r) -> float:
    """rotation_error with the orthogonality defect from a stacked R^T @ R
    and the determinant by cofactors along the first row."""
    r = np.asarray(r, dtype=float)
    rt = np.ascontiguousarray(np.swapaxes(r, -1, -2))
    ortho = float(np.max(np.abs(rt @ r - np.eye(3))))
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(r, (-2, -1), (0, 1))
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return max(ortho, float(np.max(np.abs(det - 1.0))))
