"""Recovery of rotation curves from their Lie quadratics.

A non-degenerate quadratic determines its cubic up to left translation
through a single quadrature: with the moving frame adapted to
(V'', V''') and the phase angle

    phi(t) = sqrt(c) * integral_{t0}^{t} (c - <C, V''(s)>) / |V'''(s)|^2 ds,

the curve y(t) = plane_rotation(phi(t)) @ frame_from_pair(V''(t), V'''(t))
satisfies x(t) = x0 y(t0)^T y(t); both rotation curves below are this
one lift.  The integrand is read from the trajectory's node values (the
input forms and checks |V'''|^2 there once) and, at the Simpson
midpoints, from V and V'' interpolated at the fraction 1/2 of every step
(`QuadraticTrajectory.at_fraction`).  The cumulative phase is kept at the
grid nodes, with the integrand as its slope, and read at other times
through `quadratic.hermite`: scipy's arithmetic bit for bit.  Times off
the trajectory's interval raise OutOfDomain (`quadratic.check_times`).

For nearly constant quadratics both the phase and the frame have
closed-form counterparts built from the second-order approximant, and the
same lift of them is a quadrature-free approximation to the cubic itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import as_rotation, frame_from_pair, plane_rotation
# second_approximant: perfbench/selftest.py checks the tracer through this name
from .approximants import (ApproxParams, _approximants, _check_finite,  # noqa: F401
                           second_approximant)
from .errors import DegenerateB, DegenerateThirdDerivative
from .quadratic import QuadraticTrajectory, RotationTrajectory, check_times, hermite

THIRD_DERIV_TOL = 1e-10   # |V'''| below this makes the quadrature singular
ACCEL_TOL = 1e-12         # c below this means a reparameterised geodesic


@dataclass(frozen=True)
class ReconstructionInput:
    """A quadratic trajectory plus the initial rotation it should lift to.

    Requires non-degenerate acceleration (c > ACCEL_TOL) and a third
    derivative bounded away from zero on the whole grid; quadratics
    violating the latter are reparameterised geodesics for which the
    quadrature does not apply.
    """

    trajectory: QuadraticTrajectory
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", as_rotation(self.x0))
        traj = self.trajectory
        if traj.c <= ACCEL_TOL:
            # V'' = 0 makes V''' = [V'', V] vanish too
            raise DegenerateThirdDerivative(f"degenerate acceleration: c = {traj.c:.3g}")
        v3 = traj.third_derivative_grid()
        object.__setattr__(self, "_v3_sq", np.einsum("ij,ij->i", v3, v3))
        k = int(np.argmin(self._v3_sq))
        if self._v3_sq[k] <= THIRD_DERIV_TOL ** 2:
            raise DegenerateThirdDerivative(f"|V'''| dips to {math.sqrt(self._v3_sq[k]):.3g} on "
                                            f"the grid, at node {k}, t={float(traj.grid[k])!r}")

    @cached_property
    def _phase(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative phase at the grid nodes by per-interval Simpson, and
        its slope there, the exact integrand; `hermite` densifies the pair.
        At the nodes the integrand reads V'' and the |V'''|^2 that
        `__post_init__` checked, which are what `hermite` returns there."""
        traj = self.trajectory
        g_nodes = (traj.c - traj.v2 @ traj.C) / self._v3_sq
        h = np.diff(traj.grid)
        increments = h / 6.0 * (g_nodes[:-1] + 4.0 * self._integrand() + g_nodes[1:])
        phase = np.concatenate([[0.0], np.cumsum(increments)])
        return math.sqrt(traj.c) * phase, math.sqrt(traj.c) * g_nodes

    def _integrand(self) -> np.ndarray:
        """(c - <C, V''>) / |V'''|^2 at the Simpson midpoints, from V and V''
        read at the fraction 1/2 of every step and V''' = [V'', V]."""
        traj = self.trajectory
        v2 = traj.at_fraction(0.5, 2)
        v3 = np.cross(v2, traj.at_fraction(0.5))
        norms = np.einsum("ij,ij->i", v3, v3)
        k = int(np.argmin(norms))
        if norms[k] <= THIRD_DERIV_TOL ** 2:
            mid = 0.5 * (traj.grid[k] + traj.grid[k + 1])
            raise DegenerateThirdDerivative(f"|V'''| dips to {math.sqrt(norms[k]):.3g} at the "
                                            f"midpoint t={float(mid)!r}")
        return (traj.c - v2 @ traj.C) / norms


def rotation_phase(recon: ReconstructionInput, t) -> float | np.ndarray:
    """The quadrature phase phi(t); phi(t0) = 0.  Times off the
    trajectory's interval raise OutOfDomain."""
    traj = recon.trajectory
    check_times(t, traj.t0, traj.t1)
    out = hermite(traj.grid, *recon._phase, t)
    return float(out) if np.ndim(t) == 0 else out


def reconstruct_cubic(recon: ReconstructionInput) -> RotationTrajectory:
    """The quadrature phase's lift (`_lift`) on the trajectory grid."""
    traj = recon.trajectory
    rots = _lift(recon.x0, recon._phase[0], traj.v2, traj.third_derivative_grid())
    return RotationTrajectory(grid=traj.grid, rotations=rots)


def _lift(x0: np.ndarray, phi: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """x0 y(t0)^T y(t) for the phased moving frame y = plane_rotation(phi) @
    frame_from_pair(V'', V''') at times from t0 on; row 0 is x0 itself."""
    ys = plane_rotation(phi) @ frame_from_pair(v2, v3)
    rots = x0 @ ys[0].T @ ys
    rots[0] = x0
    return rots


def rotation_phase_approx(p: ApproxParams, t) -> float | np.ndarray:
    """Closed-form first-order phase for a nearly constant quadratic:

    phi_hat(t) = delta sqrt(rho^2 + 1) ((t - t0) beta
        + (a11 (cos(gamma - u) - cos gamma)
           + a12 (sin(gamma - u) - sin gamma)) / d^2),
    with u = d (t - t0); requires beta > 0.  Accepts scalar or array times.
    """
    if p.beta <= 0.0 or p.b_degenerate:
        raise DegenerateB("closed-form phase requires beta > 0")
    d = p.frame.d
    with np.errstate(all="ignore"):
        tau = np.asarray(t, dtype=float) - p.t0
        u = d * tau
        osc = (p.a11 * (np.cos(p.gamma - u) - math.cos(p.gamma))
               + p.a12 * (np.sin(p.gamma - u) - math.sin(p.gamma))) / d ** 2
        out = p.delta * math.sqrt(p.rho ** 2 + 1.0) * (tau * p.beta + osc)
    _check_finite(t, out)
    return float(out) if np.ndim(t) == 0 else out


def approx_cubic(p: ApproxParams, x0, t) -> np.ndarray:
    """Quadrature-free first-order approximation to the rotation curve.

    Assembles the phased moving frame from the second and third
    derivatives of the second-order approximant and anchors it at x0; the
    value at t0 is x0 exactly.  A scalar t gives a rotation; an array of
    times of shape S gives rotations of shape S + (3, 3).
    """
    if p.beta <= 0.0 or p.b_degenerate:
        raise DegenerateB("closed-form cubic requires beta > 0")
    x0 = as_rotation(x0)
    # the anchor frame y(t0) is evaluated with the requested times
    ts = np.append(p.t0, t)
    v2, v3 = _approximants(p, ts, (2, 3))
    with np.errstate(all="ignore"):
        out = _lift(x0, rotation_phase_approx(p, ts), v2, v3)[1:]
    _check_finite(t, out)
    out[ts[1:] == p.t0] = x0
    return out.reshape(np.shape(t) + (3, 3))


def so3_distance(r1, r2):
    """(Frobenius distance, geodesic angle) between two rotations, as two
    floats; stacks of shape S + (3, 3) give two arrays of shape S.

    With M = R1^T R2 the angle is atan2(|vee(M - M^T)| / 2, (tr M - 1) / 2):
    the sine and cosine of the angle each enter with an absolute error of
    a few eps, so the angle is accurate to about eps at every separation
    (acos of the cosine alone loses half the digits near 0 and pi)."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    diff = r1 - r2
    diff = diff.reshape(diff.shape[:-2] + (1, 9))
    fro = np.sqrt(diff @ np.swapaxes(diff, -1, -2))[..., 0, 0]
    m = np.swapaxes(r1, -1, -2) @ r2
    a = m[..., 2, 1] - m[..., 1, 2]
    b = m[..., 0, 2] - m[..., 2, 0]
    c = m[..., 1, 0] - m[..., 0, 1]
    sin_angle = 0.5 * np.sqrt(a * a + b * b + c * c)
    cos_angle = 0.5 * (np.trace(m, axis1=-2, axis2=-1) - 1.0)
    angle = np.arctan2(sin_angle, cos_angle)
    if fro.ndim == 0:
        return float(fro), float(angle)
    return fro, angle
