"""Lie-quadratic integration on so(3) and the rotation curves it drives.

A Lie quadratic V satisfies V'' = [V', V] + C for a constant C, or
equivalently V''' = [V'', V].  Both the bracket constant C and the squared
acceleration c = <V'', V''> are conserved along solutions, which gives the
integrator its built-in accuracy check.  The associated rotation curve
solves the left-invariant linear equation x' = x ad(V(t)).

The RK4 step loop of `integrate_quadratic` runs in a small C kernel,
`_rk4.c`, which also keeps, as it writes each node, the max and the first
argmax of the drifts of C and c and of |V'| and |V''|: the peaks that the
conservation gates, `conservation_drift` and `near_geodesic_gauge` read.
The Magnus steps of `integrate_cubic` are one pass of another,
`_magnus.c`: each step's Magnus vector, its Rodrigues exponential and the
blocked running product of the steps, and its largest defect.
`_native.kernel(name)` serves each through its `_bind_<name>`: compiled on
first use (never at import), cached per machine, and used only after a
self-check matches its Python twin (`_rk4_python`, `_magnus_python`) byte
for byte.  Where any of that fails, the twin runs, with the same bits and no
warning; nothing of the package's own chooses between them.

Between grid nodes every derivative d = 0, 1, 2 of a trajectory is the
cubic Hermite interpolant of its node values with derivative d + 1 as
slope ([V'', V] for d = 2).  At one fixed fraction theta of every step
(the Gauss nodes of `integrate_cubic`, the midpoints of the quadrature
phase) `QuadraticTrajectory.at_fraction` reads it through the four
Hermite weights of theta, with no search and no division.  All other
times go through `hermite`, which computes the cubics of only the
intervals that the requested times fall in and keeps no coefficient
table.  It writes scipy's CubicHermiteSpline formula directly, so its
values are bit-identical to scipy's.  For d = 2 `QuadraticTrajectory.eval`
forms [V'', V] at the bracketing nodes only; `third_derivative_grid`, the
whole grid of it, serves `at_fraction` and the reconstruction.
Times outside the grid extrapolate the end cubics, as scipy's do; the
evaluators of a trajectory (`QuadraticTrajectory.eval` and `jet`, the
trajectory branch of `integrate_cubic`) first pass their times through
`check_times`, which raises OutOfDomain for a time that is not finite or
lies off the trajectory's interval.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _native
from .algebra import (_dot, _length, _product, _rot_exp, _rotation_error, _scaled_length,
                      as_rotation, as_vector, bracket, rotation_error)
from .errors import OutOfDomain, StepTooLarge

NULL_TOL = 1e-12        # |C| at or below this counts as a null quadratic
C_DRIFT_LIMIT = 1e-6    # drift of C or c beyond this raises StepTooLarge
DOMAIN_ULPS = 4         # float spacings a time may lie outside [t0, t1]

# one RK4 node (V, V', V'') as nine native doubles
_NODE = struct.Struct("9d")


def conserved_constant(v, v1, v2) -> np.ndarray:
    """Bracket constant of a quadratic from one jet: V'' - [V', V]."""
    return as_vector(v2) - bracket(v1, v)


def is_null(constant) -> bool:
    """A quadratic is null when its bracket constant's `_scaled_length` is at most NULL_TOL."""
    return _scaled_length(as_vector(constant))[2] <= NULL_TOL


def _domain_slack(t0: float, t1: float) -> float:
    """DOMAIN_ULPS float spacings of max(|t0|, |t1|), a time's rounding slack."""
    return DOMAIN_ULPS * math.ulp(max(abs(t0), abs(t1)))


def _nearest(nodes: np.ndarray, targets, tol: float = math.inf) -> np.ndarray:
    """Index of the node nearest each target time (`nodes` ascending; the lower
    on a tie), or -1 where that node is farther than `tol`, as from a NaN."""
    targets = np.asarray(targets, dtype=float)
    hi = np.minimum(np.searchsorted(nodes, targets), len(nodes) - 1)
    lo = np.maximum(hi - 1, 0)
    idx = np.where(targets - nodes[lo] <= nodes[hi] - targets, lo, hi)
    return np.where(np.abs(nodes[idx] - targets) <= tol, idx, -1)


def check_times(t, t0: float, t1: float) -> None:
    """Raise OutOfDomain at the first time (in C order) that is not finite
    or lies outside [t0, t1] widened by `_domain_slack`; sample times that
    overshoot an end by rounding pass."""
    slack = _domain_slack(t0, t1)
    t = np.asarray(t, dtype=float)
    # written so that NaN fails too
    ok = (t >= t0 - slack) & (t <= t1 + slack)
    if not np.all(ok):
        bad = float(t.flat[np.argmin(ok)])
        raise OutOfDomain(f"time {bad!r} lies outside the interval [{t0!r}, {t1!r}]")


def hermite(x, y, m, t) -> np.ndarray:
    """Piecewise cubic Hermite interpolant of values y and slopes m, both of
    shape (N,) + trailing, given at strictly increasing nodes x, at times t;
    shape t.shape + trailing.

    Only the intervals that t falls in are computed, each by scipy's
    CubicHermiteSpline arithmetic, so values are bit-identical to scipy's:

    * a time takes the interval searchsorted(x, time, "right") - 1, clipped
      to the first and the last, so times outside [x_0, x_{N-1}]
      extrapolate the end cubics and NaN gives NaN;
    * on [x_i, x_{i+1}], with dx = x_{i+1} - x_i, slope = (y_{i+1} - y_i)/dx
      and w = ((m_i + m_{i+1}) - 2 slope)/dx, the cubic in s = time - x_i
      has the coefficients (w/dx, (slope - m_i)/dx - w, m_i, y_i) of
      s^3..s^0;
    * the cubic is summed by powers, ((0 + y_i + m_i s) + c1 s^2) + c0 s^3
      with s^2 = s s and s^3 = s^2 s; Horner's rule differs in the last bit.
    """
    x = _checked_nodes(x)
    y = np.asarray(y, dtype=float)
    m = np.asarray(m, dtype=float)
    if y.shape[:1] != x.shape or m.shape != y.shape:
        raise ValueError("values and slopes must have shape (len(x),) + trailing")
    return _hermite(x, y, m.__getitem__, t)


def _checked_nodes(x) -> np.ndarray:
    """x as a float array, or ValueError unless it is 1-D, of two or more
    nodes, each finite and above the one before (naming the first that is not)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("nodes must be a strictly increasing 1-D array of 2 or more")
    # written so that NaN fails too
    bad = ~np.isfinite(x)
    bad[1:] |= ~(x[1:] > x[:-1])
    k = int(np.argmax(bad))
    if bad[k]:
        raise ValueError(f"nodes must be a strictly increasing array of finite times; "
                         f"node {k} is {float(x[k])!r}")
    return x


def _hermite(x: np.ndarray, y: np.ndarray, slopes, t) -> np.ndarray:
    """`hermite` on float arrays it has already checked, its slopes read as
    rows: slopes(i) is m[i] for an integer array i of node indices."""
    t = np.asarray(t, dtype=float)
    ts = t.ravel()
    i = np.clip(np.searchsorted(x, ts, side="right") - 1, 0, x.size - 2)
    y0, y1, (m0, m1) = y[i], y[i + 1], slopes(np.stack((i, i + 1)))
    # dx and s broadcast against the trailing axes
    column = ts.shape + (1,) * (y.ndim - 1)
    dx = (x[i + 1] - x[i]).reshape(column)
    s = (ts - x[i]).reshape(column)
    slope = (y1 - y0) / dx
    w = ((m0 + m1) - 2.0 * slope) / dx
    c1 = (slope - m0) / dx - w
    c0 = w / dx
    # scipy's sum starts from 0.0, which turns a -0.0 into 0.0
    out = (((0.0 + y0) + m0 * s) + c1 * (s * s)) + c0 * (s * s * s)
    return out.reshape(t.shape + y.shape[1:])


@dataclass(frozen=True)
class QuadraticIVP:
    """Initial data (V, V', V'') at t0 for integration up to t1."""

    t0: float
    t1: float
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        for name in ("v0", "v1", "v2"):
            object.__setattr__(self, name, as_vector(getattr(self, name)))
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValueError("interval endpoints must be finite")
        if not self.t0 < self.t1:
            raise ValueError(f"need t0 < t1, got [{self.t0}, {self.t1}]")


@dataclass(frozen=True)
class QuadraticTrajectory:
    """Dense solution samples (V, V', V'') plus the conserved pair (C, c).

    Values between grid nodes come from cubic Hermite interpolation
    (`hermite`) of the jet (V, V', V''); the third derivative is always
    obtained from the equation itself as [V'', V], never by differencing.
    The grid has shape (n + 1,) with n >= 1, the planes V, V', V'' shape
    (n + 1, 3) and C shape (3,), else ValueError names the field; the grid
    then goes through `hermite`'s node check, which names the first node
    that is not finite or not above the one before.  All five are held as
    C-contiguous float64 (an array that is so already is kept, not copied),
    which the C kernels read as they are.  The values of the planes, C and
    c are not checked here: the conservation gates of `integrate_quadratic`
    and the reconstruction's checks read them.
    """

    grid: np.ndarray
    v: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    C: np.ndarray
    c: float

    def __post_init__(self):
        nodes = np.shape(self.grid)
        if len(nodes) != 1 or nodes[0] < 2:
            raise ValueError(f"grid has shape {nodes}; expected (n + 1,) with n >= 1")
        for name, shape in (("grid", nodes), ("v", nodes + (3,)), ("v1", nodes + (3,)),
                            ("v2", nodes + (3,)), ("C", (3,))):
            value = np.asarray(getattr(self, name), np.float64, order="C")
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}; expected {shape}")
            object.__setattr__(self, name, value)
        _checked_nodes(self.grid)

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def t1(self) -> float:
        return float(self.grid[-1])

    @property
    def null(self) -> bool:
        return is_null(self.C)

    def jet(self, t) -> np.ndarray:
        """Interpolated (V, V', V'') at scalar or array times, shape
        t.shape + (3, 3): row d is the d-th derivative, bit for bit
        eval(t, d)."""
        return np.stack([self.eval(t, d) for d in range(3)], axis=-2)

    def eval(self, t, deriv: int = 0) -> np.ndarray:
        """Interpolated V and derivatives; deriv in 0..3.

        Accepts scalar or array times within the grid's interval (see
        `check_times`); others raise OutOfDomain.  Derivative d is the
        Hermite interpolant of its node values with derivative d + 1 as
        slope, for d = 2 [V'', V] formed at the nodes that bracket t only
        (those rows of `third_derivative_grid`, bit for bit); the third
        derivative is assembled as [V''(t), V(t)].
        """
        if deriv == 3:
            return np.cross(self.eval(t, 2), self.eval(t))
        if deriv not in (0, 1, 2):
            raise ValueError("derivative order must be in 0..3")
        check_times(t, self.t0, self.t1)
        nodes = (self.v, self.v1, self.v2)
        slopes = nodes[deriv + 1].__getitem__ if deriv < 2 else (
            lambda i: np.cross(self.v2[i], self.v[i]))
        return _hermite(self.grid, nodes[deriv], slopes, t)

    def at_fraction(self, theta: float, deriv: int = 0) -> np.ndarray:
        """Derivative `deriv` (0..2) of the interpolant at grid[k] + theta
        (grid[k+1] - grid[k]) for every step k, shape (n, 3), for theta in
        [0, 1].

        The same cubics as `eval`, read through the four Hermite weights of
        theta, h00 y_k + h01 y_{k+1} + dx_k (h10 m_k + h11 m_{k+1}): no
        interval search, no gather and no division.  Equal to `eval` at
        those times to rounding; theta = 0 gives the node values.
        """
        if deriv not in (0, 1, 2):
            raise ValueError("derivative order must be in 0..2")
        # written so that NaN fails too
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"fraction {theta!r} lies outside [0, 1]")
        t2 = theta * theta
        t3 = t2 * theta
        nodes = (self.v, self.v1, self.v2, self._v3)
        y, m = nodes[deriv], nodes[deriv + 1]
        dx = np.diff(self.grid)[:, None]
        out = (2.0 * t3 - 3.0 * t2 + 1.0) * y[:-1]
        out += (3.0 * t2 - 2.0 * t3) * y[1:]
        out += dx * ((t3 - 2.0 * t2 + theta) * m[:-1] + (t3 - t2) * m[1:])
        return out

    def third_derivative_grid(self) -> np.ndarray:
        """[V'', V] at the grid nodes: one read-only array, computed once,
        for the readers of every node (`at_fraction`, the reconstruction)."""
        return self._v3

    @cached_property
    def _v3(self) -> np.ndarray:
        v3 = np.cross(self.v2, self.v)
        v3.flags.writeable = False
        return v3

    def conservation_drift(self) -> tuple[float, float]:
        """(max |C(t) - C(t0)|, max |c(t) - c(t0)|) over the grid; NaN
        where a drift is NaN."""
        (dc, _), (da, _), _, _ = self._drift_scan
        return dc, da

    @cached_property
    def _drift_scan(self) -> tuple[tuple[float, int], ...]:
        """(max, first argmax) of |C(t) - C|, |c(t) - c|, |V'| and |V''| over
        the nodes, a NaN counting as the max, as in np.argmax: the step
        loop's for `integrate_quadratic`'s trajectories, else `_drift_python`'s."""
        return _drift_python((self.v, self.v1, self.v2), self.C, self.c)

    def near_geodesic_gauge(self) -> tuple[float, float]:
        """Sup norms (max |V'|, max |V''|) over the grid.

        Small values of both are the operational gauge for a nearly
        geodesic rotation curve.
        """
        _, _, (v1, _), (v2, _) = self._drift_scan
        return v1, v2


@dataclass(frozen=True)
class RotationTrajectory:
    """Time-sampled curve in SO(3)."""

    grid: np.ndarray
    rotations: np.ndarray

    def at_time(self, t: float) -> np.ndarray:
        """The rotation at the `_nearest` grid node; OutOfDomain past `_domain_slack`."""
        idx = int(_nearest(self.grid, t, _domain_slack(self.grid[0], self.grid[-1])))
        if idx < 0:
            raise OutOfDomain(f"time {t} is not a grid node")
        return self.rotations[idx]

    def second_rows(self) -> np.ndarray:
        """Second row of every sample; the standard planar trace of the curve."""
        return self.rotations[:, 1, :]

    def max_rotation_error(self) -> float:
        """Worst orthogonality/determinant defect over all samples: the Magnus
        pass's for `integrate_cubic`'s curves, else `rotation_error`, once."""
        return self._defect

    _defect = cached_property(lambda self: rotation_error(self.rotations))


def _drift_python(planes, C, c) -> tuple[tuple[float, int], ...]:
    """`QuadraticTrajectory._drift_scan` of the planes V, V', V'' and the
    pair (C, c), c(t) = <V'', V''>, in numpy and with no float warning: the
    twin of the peaks of `_rk4.c`, operation for operation."""
    v, v1, v2 = planes
    with np.errstate(over="ignore", invalid="ignore"):
        series = (_length((v2 - np.cross(v1, v)) - C), np.abs(_dot(v2, v2) - c), _length(v1),
                  _length(v2))
        peaks = [int(np.argmax(s)) for s in series]
    return tuple((float(s[k]), k) for s, k in zip(series, peaks))


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

    The step loop runs on the 9-dimensional first-order system (V, V', V'')
    in plain doubles.  Each stage sum is written in the order of the vector
    form y + (h/2) k and y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), so the
    result equals that form's bit for bit.  The loop is the C kernel of
    `_rk4.c` where `_native.kernel("rk4")` serves it, and otherwise the
    Python loop `_rk4_python`; the two give the same bits.  Either writes
    V, V' and V'' straight into the three planes of one (3, n + 1, 3)
    array, which the trajectory keeps, and returns its `_drift_scan`, the
    peaks over the nodes it wrote.  So the conserved bracket constant C and
    squared acceleration c are monitored over the whole grid, and
    StepTooLarge, naming the worst node, is raised when the drift of either
    exceeds C_DRIFT_LIMIT or is NaN, which signals that the step must
    shrink; `conservation_drift` and `near_geodesic_gauge` read the same
    peaks.  An initial jet whose C or c overflows raises StepTooLarge before
    the first step, since no step helps; the float warnings of an
    overflowing jet or trajectory are kept quiet.
    """
    grid, h, n = _uniform_grid(ivp.t0, ivp.t1, step)
    with np.errstate(over="ignore", invalid="ignore"):
        C = conserved_constant(ivp.v0, ivp.v1, ivp.v2)
        c = float(_dot(ivp.v2, ivp.v2))
    for quantity, value in (("bracket constant C", C), ("squared acceleration c", c)):
        if not np.all(np.isfinite(value)):
            raise StepTooLarge(f"{quantity} of the initial jet overflows to "
                               f"{np.asarray(value).tolist()}; no step size helps")
    nodes, jet = np.empty((3, n + 1, 3)), np.concatenate([ivp.v0, ivp.v1, ivp.v2])
    peaks = (_native.kernel("rk4") or _rk4_python)(jet, h, n, C, c, nodes)
    traj = QuadraticTrajectory(grid=grid, v=nodes[0], v1=nodes[1], v2=nodes[2], C=C, c=c)
    object.__setattr__(traj, "_drift_scan", peaks)
    (dc, kc), (da, ka), _, _ = peaks
    _gate_drift("bracket constant C", dc, kc, grid, h)
    _gate_drift("squared acceleration c", da, ka, grid, h)
    return traj


def _rk4_python(jet: np.ndarray, h: float, n: int, C: np.ndarray, c: float,
                out: np.ndarray) -> tuple[tuple[float, int], ...]:
    """n RK4 steps of size h from the initial (V, V', V'') `jet`, written into
    the planes V, V', V'' of `out`, shape (3, n + 1, 3), and their peaks with
    (C, c), `_drift_python`'s: the Python twin of `_rk4.c`, step for step."""
    hh = 0.5 * h
    h6 = h / 6.0
    # V = (x0, x1, x2), V' = (y0, y1, y2), V'' = (z0, z1, z2)
    x0, x1, x2, y0, y1, y2, z0, z1, z2 = jet.tolist()
    size = _NODE.size
    states = bytearray(size * (n + 1))
    pack = _NODE.pack_into
    pack(states, 0, x0, x1, x2, y0, y1, y2, z0, z1, z2)
    for offset in range(size, size * (n + 1), size):
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
        pack(states, offset, x0, x1, x2, y0, y1, y2, z0, z1, z2)

    out[...] = np.frombuffer(states, dtype=float).reshape(n + 1, 3, 3).swapaxes(0, 1)
    return _drift_python(out, C, c)


# the self-check's initial (V, V', V''), step and step count: a step this
# large keeps the last bits of every stage sum in the states (whose entries
# stay below 4 in size), so reassociating any one of the nine final sums,
# scaling one by 1 + 2^-52 or contracting to fused multiply-adds changes 222
# to 535 of the 585 numbers
_CHECK_JET = (-0.98, 0.92, 0.72, 0.22, 0.63, 0.19, 0.81, -0.51, -0.11)
_CHECK_STEP = 0.2
_CHECK_STEPS = 64


def _bind_rk4(library):
    """`library`'s step loop, its arrays typed as ndarrays, as a function
    with `_rk4_python`'s signature, and its self-check against it on the
    IVPs of `_rk4_checks`, compared by the states written and the peaks."""
    import ctypes

    steps = library.rk4_quadratic
    steps.argtypes = (_native.DOUBLES_IN, ctypes.c_double, ctypes.c_longlong, _native.DOUBLES_IN,
                      ctypes.c_double, _native.DOUBLES_OUT, _native.DOUBLES_OUT, _native.INT64_OUT)
    steps.restype = None

    def rk4(jet, h, n, C, c, out):
        peaks, nodes = np.empty(4), np.empty(4, dtype=np.int64)
        steps(jet, h, n, C, c, out, peaks, nodes)
        return tuple(zip(peaks.tolist(), nodes.tolist()))

    return rk4, [(rk4, _rk4_python, case) for case in _rk4_checks()]


def _rk4_checks() -> list[tuple[np.ndarray, float, int, np.ndarray, float, np.ndarray]]:
    """The step loop's self-check: (jet, h, n, C, c, out), each jet with its
    own C and c, for `_CHECK_STEPS` steps of `_CHECK_STEP` from: `_CHECK_JET`;
    V = V'' = 0 and a drawn V', which then stays exactly constant, so |V'|
    and |V''| tie at every node and peak at node 0; that jet with V' near
    2e307, whose |V'|^2 overflows at every node and whose V overflows to inf
    at node 45, where V'' turns to NaN; drawn V, V', V'' scaled by 1e-3, 1
    and 1e-17, where |V'| peaks at node 0 but |V'|^2 at node 64; and a drawn
    jet below 1/2, its seed one for which reassociating any sum of the four
    series changes some case's result (all drawn by `_native._draws`)."""
    ties = np.concatenate([np.zeros(3), _native._draws(3, 5), np.zeros(3)])
    split = _native._draws(9, 63) * np.repeat([1e-3, 1.0, 1e-17], 3)
    jets = (np.array(_CHECK_JET), ties, ties * 2e307, split, 0.5 * _native._draws(9, 557))
    return [(jet, _CHECK_STEP, _CHECK_STEPS, jet[6:] - np.cross(jet[3:6], jet[:3]),
             float(_dot(jet[6:], jet[6:])), np.zeros((3, _CHECK_STEPS + 1, 3))) for jet in jets]


def _gate_drift(quantity: str, drift: float, k: int, grid: np.ndarray, h: float) -> None:
    """Raise StepTooLarge when the worst drift of a conserved quantity,
    `drift` at node k, exceeds C_DRIFT_LIMIT.  Written so that a NaN drift
    (an overflowed trajectory, whose worst node is its first NaN node)
    also raises."""
    if not drift <= C_DRIFT_LIMIT:
        raise StepTooLarge(
            f"{quantity} drifted by {drift:.3g} (limit {C_DRIFT_LIMIT:g}), worst at "
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
    V_b are V at the two Gauss-Legendre nodes of the step.  The running
    product is a blocked prefix product (blocks of L = ceil(sqrt(n)) steps),
    so each rotation is a product of at most about 2 sqrt(n) factors, and
    every 3x3 product is summed in one fixed order.  The W_k, exponentials,
    product and its largest defect (`max_rotation_error`) are one pass of
    `_magnus.c` where `_native.kernel("magnus")` serves it, else its numpy
    twin `_magnus_python`, with the same bits.  A W_k whose squared norm is
    not finite raises ValueError naming k and t = grid[k].  The curve
    stays on SO(3) to rounding, so it is never renormalized.

    `velocity` is either a QuadraticTrajectory (dense-evaluated on its own
    interval, or on a given [t0, t1] within it, else OutOfDomain) or a
    callable t -> 3-vector, in which case t0 and t1 must be given.  When
    the step grid is the trajectory's own grid, V_a and V_b are read by
    `QuadraticTrajectory.at_fraction` at the two Gauss fractions; other
    grids read them through `eval`.
    """
    x0 = as_rotation(x0)
    if isinstance(velocity, QuadraticTrajectory):
        t0 = velocity.t0 if t0 is None else t0
        t1 = velocity.t1 if t1 is None else t1
        check_times([t0, t1], velocity.t0, velocity.t1)
        sample = lambda ts: np.atleast_2d(velocity.eval(ts))
    else:
        if t0 is None or t1 is None:
            raise ValueError("callable velocity requires explicit t0 and t1")
        sample = lambda ts: np.array([as_vector(velocity(t)) for t in ts])

    grid, h, _ = _uniform_grid(t0, t1, step)
    if isinstance(velocity, QuadraticTrajectory) and np.array_equal(grid, velocity.grid):
        va, vb = (velocity.at_fraction(node) for node in _GAUSS_NODES)
    else:
        va, vb = (sample(grid[:-1] + node * h) for node in _GAUSS_NODES)
    rotations, defect = (_native.kernel("magnus") or _magnus_python)(x0, va, vb, h, grid)
    curve = RotationTrajectory(grid=grid, rotations=rotations)
    object.__setattr__(curve, "_defect", defect)
    return curve


def _magnus_python(x0: np.ndarray, va: np.ndarray, vb: np.ndarray, h: float,
                   grid: np.ndarray) -> tuple[np.ndarray, float]:
    """The rotations x0, x0 S_0, ..., x0 S_0 ... S_{n-1}, shape (n + 1, 3,
    3), of n Magnus steps S_k = rot_exp(W_k) of size h on `grid`, from V at
    the Gauss nodes of every step, va and vb, shape (n, 3), and their
    `rotation_error`: the numpy twin of `_magnus.c`, operation for
    operation.  integrate_cubic's ValueError is raised here, and no float
    warning escapes.  It calls the bodies of rot_exp and rotation_error, so
    that the kernel's self-check calls no public function."""
    with np.errstate(over="ignore", invalid="ignore"):
        omega = (0.5 * h) * (va + vb) - (_MAGNUS_COMMUTATOR * h * h) * np.cross(vb, va)
        # rot_exp's squared norm of W, not finite where W is not
        if not np.all(finite := np.isfinite(_dot(omega, omega))):
            k = int(np.argmin(finite))
            raise ValueError(f"Magnus vector W has a non-finite squared norm at step index {k}, "
                             f"t={float(grid[k])!r}")
        rotations = _running_product(x0, _rot_exp(omega))
        return rotations, _rotation_error(rotations)


def _running_product(x0: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The prefix products x0, x0 S_0, x0 S_0 S_1, ... of n >= 1 step
    rotations S_k, shape (n + 1, 3, 3), by a blocked scan.

    The steps are cut into blocks of L = ceil(sqrt(n)), the tail of the last
    block padded with identities.  L - 1 batched products form the prefix
    products inside every block at once, then one product per block
    applies the carry (x0, then the last row of the block before).  The
    factors keep their left-to-right order, so row k + 1 is x0 S_0 ... S_k
    up to rounding and row 0 is x0 itself; each row is a product of at most
    about 2 sqrt(n) factors.  Every product is `_product`'s.  The returned
    rows are a view of a buffer that holds fewer than L rotations beyond
    n + 1.
    """
    n = len(steps)
    size = math.isqrt(n - 1) + 1
    count = -(-n // size)
    out = np.empty((count * size + 1, 3, 3))
    out[0] = x0
    out[1:n + 1] = steps
    out[n + 1:] = np.eye(3)
    blocks = out[1:].reshape(count, size, 3, 3)
    for j in range(1, size):
        blocks[:, j] = _product(blocks[:, j - 1], blocks[:, j])
    carry = out[0]
    for block in blocks:
        block[...] = _product(carry, block)
        carry = block[-1]
    return out[:n + 1]


def _bind_magnus(library):
    """`library`'s Magnus pass, its arrays typed as ndarrays, as a function
    with `_magnus_python`'s signature, and its self-check against
    `_magnus_python` on the steps of `_magnus_checks`.  A pass that stops at
    a step hands the call to the twin, which raises its ValueError."""
    import ctypes

    steps = library.magnus_steps
    steps.argtypes = (_native.DOUBLES_IN, _native.DOUBLES_IN, ctypes.c_longlong, ctypes.c_double,
                      ctypes.c_double, _native.DOUBLES_OUT, _native.DOUBLES_OUT)
    steps.restype = ctypes.c_longlong

    def magnus(x0: np.ndarray, va: np.ndarray, vb: np.ndarray, h: float,
               grid: np.ndarray) -> tuple[np.ndarray, float]:
        # both are (n, 3), n >= 1: V at the Gauss nodes of a grid's steps
        n = len(va)
        out, worst = np.empty((n + 1, 3, 3)), np.empty(1)
        out[0] = x0
        if steps(va, vb, n, 0.5 * h, _MAGNUS_COMMUTATOR * h * h, out, worst) >= 0:
            return _magnus_python(x0, va, vb, h, grid)
        return out, float(worst[0])

    return magnus, [(magnus, _magnus_python, case) for case in _magnus_checks()]


# the self-check's step sizes (the first makes W = va where vb = 0) and its
# angles |W|: zero (np.sinc's guard), squares that underflow, an angle near
# the limit 0, a plain one, the zeros of sin(|W|/2) and sin(|W|), where a
# and b have their sharpest last bits, and a large one
_CHECK_MAGNUS_H = (2.0, 0.3)
_CHECK_MAGNUS_W = (0.0, 1e-300, 1e-8, 1.0, math.pi, 2.0 * math.pi, 1e3)


def _magnus_checks() -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]]:
    """The Magnus pass's self-check: (x0, va, vb, h, grid) for n = 1, 2, 3,
    4, 5, 9, 10 and 17 steps, block sizes 1 to 5 with and without identity
    padding in the twin.  At h = 2 every even step has vb = 0, so its W is
    va, whose norm runs through `_CHECK_MAGNUS_W` in the direction of a
    drawn unit vector; every other step has drawn va and vb of sizes 1e-8
    to 1e2 (`_native._draws`).  At h = 0.3 every step is drawn, and two
    cases end on a step whose W is finite but overflows its squared norm
    and on a NaN step.  Over 17 steps of |W| < 9e-3, x0 (I + 1e-9 E) for
    E = e_i e_j^T or J / 3 (J all ones) makes each defect term the largest,
    at row 0 but for det; J's case with step 12 turning J's axis onto e0
    and step 13 back has it at row 13; x0[0, 1] = inf over two steps gives
    NaN defects at row 1, infinite ones at row 2.  The seed of x0 is one
    for which reassociating any defect term changes some case's result."""
    x0 = _rot_exp(_native._draws(3, 42))
    cases = []
    for n in (1, 2, 3, 4, 5, 9, 10, 17):
        va, vb, units = np.reshape(_native._draws(9 * n, 1999 + n), (3, n, 3))
        va, vb = (va, vb) * 10.0 ** (np.arange(2 * n) % 11 - 8).reshape(2, n, 1)
        units /= _length(units)[:, None]
        norms = np.resize(np.roll(_CHECK_MAGNUS_W, n), n)
        designed = va.copy(), vb.copy()
        designed[0][::2] = units[::2] * norms[::2, None]
        designed[1][::2] = 0.0
        cases += [(x0, *designed, _CHECK_MAGNUS_H[0]), (x0, va, vb, _CHECK_MAGNUS_H[1])]
    huge, va = va.copy(), va.copy()
    huge[-1] = (1e200, 0.0, 0.0)
    va[-1, 1] = math.nan
    cases += [(x0, huge, vb, _CHECK_MAGNUS_H[1]), (x0, va, vb, _CHECK_MAGNUS_H[1])]
    es = np.concatenate([np.eye(9)[[0, 4, 8, 1, 2, 5]].reshape(6, 3, 3), np.full((1, 3, 3), 1 / 3)])
    offs = x0 + 1e-9 * _product(x0, es)
    small, turn = np.reshape(_native._draws(51, 2029), (17, 3)) * 5e-3, np.zeros((17, 3))
    turn[12:14] = np.outer([1.0, -1.0], [0.0, -1.0, 1.0]) * (math.acos(3.0 ** -0.5) / math.sqrt(2))
    infinite = np.where(np.arange(9).reshape(3, 3) == 1, math.inf, x0)
    cases += [(off, steps, 0.0 * steps, _CHECK_MAGNUS_H[0]) for off, steps in
              [*zip(offs, [small] * 7), (offs[-1], turn), (infinite, small[:2])]]
    return [(*case, case[3] * np.arange(len(case[1]) + 1.0)) for case in cases]
