"""Lie-quadratic integration on so(3) and the rotation curves it drives.

A Lie quadratic V satisfies V'' = [V', V] + C for a constant C, or
equivalently V''' = [V'', V].  Both the bracket constant C and the squared
acceleration c = <V'', V''> are conserved along solutions, which gives the
integrator its built-in accuracy check.  The associated rotation curve
solves the left-invariant linear equation x' = x ad(V(t)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .algebra import ad_matrix, as_vector, bracket, renormalize, rot_exp, rotation_error
from .errors import StepTooLarge

NULL_TOL = 1e-12        # |C| at or below this counts as a null quadratic
C_DRIFT_LIMIT = 1e-6    # drift of c beyond this raises StepTooLarge


def conserved_constant(v, v1, v2) -> np.ndarray:
    """Bracket constant of a quadratic from one jet: V'' - [V', V]."""
    return as_vector(v2) - bracket(v1, v)


def is_null(constant) -> bool:
    """A quadratic is null when its bracket constant vanishes."""
    return float(np.linalg.norm(as_vector(constant))) <= NULL_TOL


@dataclass(frozen=True)
class QuadraticIVP:
    """Initial data (V, V', V'') at t0 for integration up to t1."""

    t0: float
    t1: float
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v0", as_vector(self.v0))
        object.__setattr__(self, "v1", as_vector(self.v1))
        object.__setattr__(self, "v2", as_vector(self.v2))
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValueError("interval endpoints must be finite")
        if not self.t0 < self.t1:
            raise ValueError(f"need t0 < t1, got [{self.t0}, {self.t1}]")


@dataclass(frozen=True)
class QuadraticTrajectory:
    """Dense solution samples (V, V', V'') plus the conserved pair (C, c).

    Values between grid nodes come from cubic Hermite interpolation; the
    third derivative is always obtained from the equation itself as
    [V'', V], never by differencing.
    """

    grid: np.ndarray
    v: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    C: np.ndarray
    c: float

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def t1(self) -> float:
        return float(self.grid[-1])

    @property
    def null(self) -> bool:
        return is_null(self.C)

    @cached_property
    def _splines(self):
        v3 = np.cross(self.v2, self.v)
        return (
            CubicHermiteSpline(self.grid, self.v, self.v1),
            CubicHermiteSpline(self.grid, self.v1, self.v2),
            CubicHermiteSpline(self.grid, self.v2, v3),
        )

    def eval(self, t, deriv: int = 0) -> np.ndarray:
        """Interpolated V and derivatives; deriv in 0..3.

        Accepts scalar or array times; the third derivative is assembled
        as [V''(t), V(t)].
        """
        if deriv == 3:
            return np.cross(self.eval(t, 2), self.eval(t, 0))
        if deriv not in (0, 1, 2):
            raise ValueError("derivative order must be in 0..3")
        return self._splines[deriv](t)

    def third_derivative_grid(self) -> np.ndarray:
        """[V'', V] at the grid nodes."""
        return np.cross(self.v2, self.v)

    def constant_series(self) -> np.ndarray:
        """V'' - [V', V] at every grid node (constant up to solver error)."""
        return self.v2 - np.cross(self.v1, self.v)

    def accel_series(self) -> np.ndarray:
        """<V'', V''> at every grid node (constant up to solver error)."""
        return np.einsum("ij,ij->i", self.v2, self.v2)

    def conservation_drift(self) -> tuple[float, float]:
        """(max |C(t) - C(t0)|, max |c(t) - c(t0)|) over the grid."""
        dc = float(np.max(np.linalg.norm(self.constant_series() - self.C, axis=1)))
        da = float(np.max(np.abs(self.accel_series() - self.c)))
        return dc, da

    def near_geodesic_gauge(self) -> tuple[float, float]:
        """Sup norms (max |V'|, max |V''|) over the grid.

        Small values of both are the operational gauge for a nearly
        geodesic rotation curve.
        """
        return (
            float(np.max(np.linalg.norm(self.v1, axis=1))),
            float(np.max(np.linalg.norm(self.v2, axis=1))),
        )


@dataclass(frozen=True)
class RotationTrajectory:
    """Time-sampled curve in SO(3)."""

    grid: np.ndarray
    rotations: np.ndarray

    def index_of(self, t: float) -> int:
        """Index of the grid node at time t (must lie on the grid)."""
        idx = int(np.argmin(np.abs(self.grid - t)))
        scale = max(1.0, abs(float(self.grid[-1])))
        if abs(float(self.grid[idx]) - t) > 1e-9 * scale:
            raise ValueError(f"time {t} is not a grid node")
        return idx

    def at_time(self, t: float) -> np.ndarray:
        return self.rotations[self.index_of(t)]

    def second_rows(self) -> np.ndarray:
        """Second row of every sample; the standard planar trace of the curve."""
        return self.rotations[:, 1, :]

    def max_rotation_error(self) -> float:
        """Worst orthogonality/determinant defect over all samples."""
        return max(rotation_error(r) for r in self.rotations)


def _uniform_grid(t0: float, t1: float, step: float) -> tuple[np.ndarray, float, int]:
    if not step > 0.0:
        raise ValueError("step must be positive")
    if step > (t1 - t0):
        raise ValueError("step exceeds the interval length")
    n = max(1, int(round((t1 - t0) / step)))
    h = (t1 - t0) / n
    grid = t0 + h * np.arange(n + 1)
    grid[-1] = t1
    return grid, h, n


def _quadratic_rhs(state: np.ndarray) -> np.ndarray:
    out = np.empty(9)
    out[0:3] = state[3:6]
    out[3:6] = state[6:9]
    # [V'', V] written out to keep the hot loop cheap
    v0, v1_, v2_ = state[0], state[1], state[2]
    a0, a1, a2 = state[6], state[7], state[8]
    out[6] = a1 * v2_ - a2 * v1_
    out[7] = a2 * v0 - a0 * v2_
    out[8] = a0 * v1_ - a1 * v0
    return out


def integrate_quadratic(ivp: QuadraticIVP, step: float) -> QuadraticTrajectory:
    """Fixed-step classic RK4 for V''' = [V'', V].

    The 9-dimensional first-order system carries (V, V', V'').  The
    conserved squared acceleration c is monitored over the whole grid and
    StepTooLarge is raised when its drift exceeds C_DRIFT_LIMIT, which
    signals that the step must shrink.
    """
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

    constant = conserved_constant(ivp.v0, ivp.v1, ivp.v2)
    accel = float(ivp.v2 @ ivp.v2)
    accel_drift = np.abs(np.einsum("ij,ij->i", states[:, 6:9], states[:, 6:9]) - accel)
    max_drift = float(np.max(accel_drift))
    # written so that a NaN drift (an overflowed trajectory) also raises
    if not max_drift <= C_DRIFT_LIMIT:
        raise StepTooLarge(
            f"acceleration drift {max_drift:.3g} at step {h:.3g}; use a smaller step")
    return QuadraticTrajectory(
        grid=grid,
        v=states[:, 0:3].copy(),
        v1=states[:, 3:6].copy(),
        v2=states[:, 6:9].copy(),
        C=constant,
        c=accel,
    )


def integrate_cubic(x0, velocity, step: float, t0: float | None = None,
                    t1: float | None = None, renorm_every: int = 16) -> RotationTrajectory:
    """RK4 for the left-invariant equation x' = x ad(V(t)).

    `velocity` is either a QuadraticTrajectory (dense-evaluated on its own
    interval) or a callable t -> 3-vector, in which case t0 and t1 must be
    given.  The running state is snapped back onto SO(3) every
    `renorm_every` steps (0 disables renormalization).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3, 3) or rotation_error(x0) > 1e-8:
        raise ValueError("x0 is not a rotation matrix")
    if isinstance(velocity, QuadraticTrajectory):
        t0 = velocity.t0 if t0 is None else t0
        t1 = velocity.t1 if t1 is None else t1
        sample = lambda ts: np.atleast_2d(velocity.eval(ts))
    else:
        if t0 is None or t1 is None:
            raise ValueError("callable velocity requires explicit t0 and t1")
        sample = lambda ts: np.array([as_vector(velocity(t)) for t in ts])

    grid, h, n = _uniform_grid(t0, t1, step)
    v_nodes = sample(grid)
    v_mids = sample(grid[:-1] + 0.5 * h)

    rots = np.empty((n + 1, 3, 3))
    rots[0] = x0
    x = x0.copy()
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
    return RotationTrajectory(grid=grid, rotations=rots)


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
