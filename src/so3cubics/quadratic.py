"""Lie-quadratic integration on so(3) and the rotation curves it drives.

A Lie quadratic V satisfies V'' = [V', V] + C for a constant C, or
equivalently V''' = [V'', V].  Both the bracket constant C and the squared
acceleration c = <V'', V''> are conserved along solutions, which gives the
integrator its built-in accuracy check.  The associated rotation curve
solves the left-invariant linear equation x' = x ad(V(t)).

Between grid nodes a trajectory is read through one cubic Hermite
interpolant (`Hermite`) of its whole jet (V, V', V''), whose slopes are
(V', V'', [V'', V]).  `Hermite` is written here in numpy but does scipy's
CubicHermiteSpline arithmetic operation for operation, so its values are
bit-identical to scipy's; times outside the grid extrapolate the end
cubics, as scipy's do.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import as_rotation, as_vector, bracket, rot_exp, rotation_error
from .errors import StepTooLarge

NULL_TOL = 1e-12        # |C| at or below this counts as a null quadratic
C_DRIFT_LIMIT = 1e-6    # drift of C or c beyond this raises StepTooLarge


def conserved_constant(v, v1, v2) -> np.ndarray:
    """Bracket constant of a quadratic from one jet: V'' - [V', V]."""
    return as_vector(v2) - bracket(v1, v)


def is_null(constant) -> bool:
    """A quadratic is null when its bracket constant vanishes."""
    return float(np.linalg.norm(as_vector(constant))) <= NULL_TOL


class Hermite:
    """Piecewise cubic Hermite interpolant of values and slopes given at
    strictly increasing nodes x, both of shape (N,) + trailing.

    Every step is scipy's CubicHermiteSpline (a PPoly), so values are
    bit-identical to scipy's:

    * on [x_i, x_{i+1}], with dx = x_{i+1} - x_i, slope = (y_{i+1} - y_i)/dx
      and t = (m_i + m_{i+1} - 2 slope)/dx, the cubic in s = time - x_i has
      the coefficients (t/dx, (slope - m_i)/dx - t, m_i, y_i) of s^3..s^0;
    * a time takes the interval searchsorted(x, time, "right") - 1, clipped
      to the first and the last, so times outside [x_0, x_{N-1}]
      extrapolate the end cubics and NaN gives NaN;
    * the cubic is summed by powers, ((0 + c3 + c2 s) + c1 s^2) + c0 s^3
      with s^2 = s s and s^3 = s^2 s; Horner's rule differs in the last bit.

    Values of shape (N, K) + rest are read as K parts, their slices along
    axis 1, and may also be given as tuples of K arrays of shape (N,) + rest,
    which spares building the stack.  `c` holds the coefficients of s^3..s^0
    with the node axis after the part axis: shape (4, N - 1) for scalar
    values, (4, K, N - 1) + rest otherwise (scipy's c is (4, N - 1) +
    trailing).  So the build and every evaluation step run on contiguous
    arrays the size of one part, and one `take` gathers coefficient k of a
    part at every time.
    """

    def __init__(self, x, values, slopes):
        self.x = x = np.asarray(x, dtype=float)
        dx = np.diff(x)
        if x.ndim != 1 or x.size < 2 or not np.all(dx > 0.0):
            raise ValueError("nodes must be a strictly increasing 1-D array of 2 or more")
        stacked = isinstance(values, tuple) or np.ndim(values) > 1
        if stacked and not isinstance(values, tuple):
            values, slopes = (tuple(np.moveaxis(np.asarray(a, dtype=float), 1, 0))
                              for a in (values, slopes))
        parts = [(np.asarray(y, dtype=float), np.asarray(m, dtype=float))
                 for y, m in (zip(values, slopes, strict=True) if stacked
                              else [(values, slopes)])]
        rest = parts[0][0].shape[1:]
        if any(y.shape != (x.size,) + rest or m.shape != y.shape for y, m in parts):
            raise ValueError("values and slopes must have shape (len(x),) + trailing")
        n = x.size - 1
        self.c = np.empty((4,) + (len(parts),) * stacked + (n,) + rest)
        dx = np.repeat(dx, math.prod(rest)).reshape((n,) + rest)
        for d, (y, m) in enumerate(parts):
            # in scipy's order; c1 holds slope and c0 holds t until each is done
            c3, c2, c1, c0 = (self.c[k, d] if stacked else self.c[k] for k in (3, 2, 1, 0))
            c3[...] = y[:-1]
            c2[...] = m[:-1]
            np.subtract(y[1:], c3, out=c1)
            c1 /= dx
            np.add(c2, m[1:], out=c0)
            c0 -= 2.0 * c1
            c0 /= dx
            c1 -= c2
            c1 /= dx
            c1 -= c0
            c0 /= dx

    def __call__(self, t, component: int | None = None) -> np.ndarray:
        """Values at times t, shape t.shape + trailing; with `component`
        (values with parts only), that part alone, shape t.shape + rest,
        whose coefficients are the only ones gathered."""
        t = np.asarray(t, dtype=float)
        ts = t.ravel()
        i = np.searchsorted(self.x, ts, side="right")
        i -= 1
        np.clip(i, 0, self.x.size - 2, out=i)
        s = ts - self.x[i]
        rest = self.c.shape[3:]
        if rest:
            # s repeated over a part's entries, so that no step broadcasts
            # along a short axis
            s = np.repeat(s, math.prod(rest)).reshape(s.shape + rest)
        if self.c.ndim == 2 or component is not None:
            out = _power_sum(self.c if component is None else self.c[:, component], i, s)
        else:
            out = np.empty(ts.shape + self.c.shape[1:2] + rest)
            for d in range(self.c.shape[1]):
                out[:, d] = _power_sum(self.c[:, d], i, s)
        return out.reshape(t.shape + out.shape[1:])


def _power_sum(c, i, s) -> np.ndarray:
    """The cubics with coefficients c (s^3..s^0 along the first axis) of the
    intervals i, at offsets s, summed in scipy's order."""
    out = np.take(c[3], i, axis=0, mode="clip")
    out += 0.0          # scipy starts from 0.0, which turns a -0.0 into 0.0
    term = np.take(c[2], i, axis=0, mode="clip")
    term *= s
    out += term
    z = s * s
    np.take(c[1], i, axis=0, out=term, mode="clip")
    term *= z
    out += term
    z *= s
    np.take(c[0], i, axis=0, out=term, mode="clip")
    term *= z
    out += term
    return out


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

    Values between grid nodes come from one cubic Hermite interpolant of
    the jet (V, V', V''); the third derivative is always obtained from the
    equation itself as [V'', V], never by differencing.
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
    def _interpolant(self) -> Hermite:
        return Hermite(self.grid, (self.v, self.v1, self.v2),
                       (self.v1, self.v2, self.third_derivative_grid()))

    def jet(self, t) -> np.ndarray:
        """Interpolated (V, V', V'') at scalar or array times, shape
        t.shape + (3, 3): row d is the d-th derivative, bit for bit
        eval(t, d)."""
        return self._interpolant(t)

    def eval(self, t, deriv: int = 0) -> np.ndarray:
        """Interpolated V and derivatives; deriv in 0..3.

        Accepts scalar or array times; the third derivative is assembled
        as [V''(t), V(t)].
        """
        if deriv == 3:
            jet = self.jet(t)
            return np.cross(jet[..., 2, :], jet[..., 0, :])
        if deriv not in (0, 1, 2):
            raise ValueError("derivative order must be in 0..3")
        return self._interpolant(t, deriv)

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
        return rotation_error(self.rotations)


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


def integrate_quadratic(ivp: QuadraticIVP, step: float) -> QuadraticTrajectory:
    """Fixed-step classic RK4 for V''' = [V'', V].

    The 9-dimensional first-order system carries (V, V', V'') in plain
    float locals.  Each stage sum is written in the order of the vector
    form y + (h/2) k and y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), so the
    result equals that form's bit for bit.  The conserved bracket constant
    C and squared acceleration c are monitored over the whole grid, and
    StepTooLarge is raised when the drift of either exceeds C_DRIFT_LIMIT,
    which signals that the step must shrink.
    """
    grid, h, n = _uniform_grid(ivp.t0, ivp.t1, step)
    hh = 0.5 * h
    h6 = h / 6.0
    # V = (x0, x1, x2), V' = (y0, y1, y2), V'' = (z0, z1, z2)
    x0, x1, x2 = ivp.v0.tolist()
    y0, y1, y2 = ivp.v1.tolist()
    z0, z1, z2 = ivp.v2.tolist()
    states = array("d", (x0, x1, x2, y0, y1, y2, z0, z1, z2))
    for _ in range(n):
        # stage j evaluates the right-hand side (V', V'', [V'', V]) at
        # (uj, dj, aj), giving the slopes (dj, aj, bj); stage 1 is at (x, y, z)
        b10 = z1 * x2 - z2 * x1
        b11 = z2 * x0 - z0 * x2
        b12 = z0 * x1 - z1 * x0
        u20, u21, u22 = x0 + hh * y0, x1 + hh * y1, x2 + hh * y2
        d20, d21, d22 = y0 + hh * z0, y1 + hh * z1, y2 + hh * z2
        a20, a21, a22 = z0 + hh * b10, z1 + hh * b11, z2 + hh * b12
        b20 = a21 * u22 - a22 * u21
        b21 = a22 * u20 - a20 * u22
        b22 = a20 * u21 - a21 * u20
        u30, u31, u32 = x0 + hh * d20, x1 + hh * d21, x2 + hh * d22
        d30, d31, d32 = y0 + hh * a20, y1 + hh * a21, y2 + hh * a22
        a30, a31, a32 = z0 + hh * b20, z1 + hh * b21, z2 + hh * b22
        b30 = a31 * u32 - a32 * u31
        b31 = a32 * u30 - a30 * u32
        b32 = a30 * u31 - a31 * u30
        u40, u41, u42 = x0 + h * d30, x1 + h * d31, x2 + h * d32
        d40, d41, d42 = y0 + h * a30, y1 + h * a31, y2 + h * a32
        a40, a41, a42 = z0 + h * b30, z1 + h * b31, z2 + h * b32
        b40 = a41 * u42 - a42 * u41
        b41 = a42 * u40 - a40 * u42
        b42 = a40 * u41 - a41 * u40
        x0 = x0 + h6 * (((y0 + 2.0 * d20) + 2.0 * d30) + d40)
        x1 = x1 + h6 * (((y1 + 2.0 * d21) + 2.0 * d31) + d41)
        x2 = x2 + h6 * (((y2 + 2.0 * d22) + 2.0 * d32) + d42)
        y0 = y0 + h6 * (((z0 + 2.0 * a20) + 2.0 * a30) + a40)
        y1 = y1 + h6 * (((z1 + 2.0 * a21) + 2.0 * a31) + a41)
        y2 = y2 + h6 * (((z2 + 2.0 * a22) + 2.0 * a32) + a42)
        z0 = z0 + h6 * (((b10 + 2.0 * b20) + 2.0 * b30) + b40)
        z1 = z1 + h6 * (((b11 + 2.0 * b21) + 2.0 * b31) + b41)
        z2 = z2 + h6 * (((b12 + 2.0 * b22) + 2.0 * b32) + b42)
        states.extend((x0, x1, x2, y0, y1, y2, z0, z1, z2))

    values = np.frombuffer(states, dtype=float).reshape(n + 1, 9)
    traj = QuadraticTrajectory(
        grid=grid,
        v=values[:, 0:3].copy(),
        v1=values[:, 3:6].copy(),
        v2=values[:, 6:9].copy(),
        C=conserved_constant(ivp.v0, ivp.v1, ivp.v2),
        c=float(ivp.v2 @ ivp.v2),
    )
    _gate_drift("bracket constant C",
                np.linalg.norm(traj.constant_series() - traj.C, axis=1), grid, h)
    _gate_drift("squared acceleration c", np.abs(traj.accel_series() - traj.c), grid, h)
    return traj


def _gate_drift(quantity: str, drift: np.ndarray, grid: np.ndarray, h: float) -> None:
    """Raise StepTooLarge when the worst drift of a conserved quantity
    exceeds C_DRIFT_LIMIT.  Written so that a NaN drift (an overflowed
    trajectory) also raises, at its first NaN node."""
    k = int(np.argmax(drift))
    if not drift[k] <= C_DRIFT_LIMIT:
        raise StepTooLarge(
            f"{quantity} drifted by {drift[k]:.3g} (limit {C_DRIFT_LIMIT:g}), worst at "
            f"step index {k}, t={float(grid[k])!r}, with step {h:.3g}; use a smaller step")


# Gauss-Legendre nodes of a step, as fractions of it, and the weight of the
# commutator term of the fourth-order Magnus expansion
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_MAGNUS_COMMUTATOR = math.sqrt(3.0) / 12.0


def integrate_cubic(x0, velocity, step: float, t0: float | None = None,
                    t1: float | None = None) -> RotationTrajectory:
    """Fourth-order Magnus method for the left-invariant equation x' = x ad(V(t)).

    Each step multiplies by one exact rotation, x_{k+1} = x_k rot_exp(W_k)
    with W_k = h/2 (V_a + V_b) - (sqrt(3)/12) h^2 [V_b, V_a], where V_a and
    V_b are V at the two Gauss-Legendre nodes of the step.  Every W_k and
    its exponential is computed in one batch; only the running product is
    sequential.  The curve stays on SO(3) to rounding, so it is never
    renormalized.

    `velocity` is either a QuadraticTrajectory (dense-evaluated on its own
    interval) or a callable t -> 3-vector, in which case t0 and t1 must be
    given.
    """
    x0 = as_rotation(x0)
    if isinstance(velocity, QuadraticTrajectory):
        t0 = velocity.t0 if t0 is None else t0
        t1 = velocity.t1 if t1 is None else t1
        sample = lambda ts: np.atleast_2d(velocity.eval(ts))
    else:
        if t0 is None or t1 is None:
            raise ValueError("callable velocity requires explicit t0 and t1")
        sample = lambda ts: np.array([as_vector(velocity(t)) for t in ts])

    grid, h, n = _uniform_grid(t0, t1, step)
    va, vb = (sample(grid[:-1] + node * h) for node in _GAUSS_NODES)
    omega = (0.5 * h) * (va + vb) - (_MAGNUS_COMMUTATOR * h * h) * np.cross(vb, va)
    steps = rot_exp(omega)

    rots = np.empty((n + 1, 3, 3))
    rots[0] = x = x0
    for k in range(n):
        x = x @ steps[k]
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
