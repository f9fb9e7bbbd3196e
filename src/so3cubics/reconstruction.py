"""Recovery of rotation curves from their Lie quadratics.

A non-degenerate quadratic determines its cubic up to left translation
through a single quadrature: with the moving frame adapted to
(V'', V''') and the phase angle

    phi(t) = sqrt(c) * integral_{t0}^{t} (c - <C, V''(s)>) / |V'''(s)|^2 ds,

the curve y(t) = plane_rotation(phi(t)) frame_from_pair(V''(t), V'''(t))
satisfies x(t) = x0 y(t0)^T y(t); both rotation curves below are this
one lift (`_lift`), each 3x3 product of it summed as ((a_i0 b_0j + a_i1
b_1j) + a_i2 b_2j), in the recon kernel's second entry or its numpy twin,
with the same bits on every machine.  The integrand is read at the
trajectory's nodes and, at the Simpson midpoints, from V and V''
interpolated at the fraction 1/2 of every step
(`QuadraticTrajectory.at_fraction`), with V''' = [V'', V].  The
cumulative phase is kept at the grid nodes, with the integrand as its
slope, and read at other times through `quadratic.hermite`: scipy's
arithmetic bit for bit.  Times off the trajectory's interval raise
OutOfDomain (`quadratic.check_times`).

`ReconstructionInput` makes one pass over the grid for all of it: V''' and
|V'''|^2 at the nodes, V and V'' at the midpoints, the integrand at both,
the Simpson increments and their running sum in sequence, as np.cumsum
adds, the smallest |V'''|^2 at the nodes and at the midpoints (the first,
a NaN counting as the smallest, as np.argmin finds it), and the frames of
every node's pair (V'', V''').  Every dot product in it, those of
`frame_from_pair` too, is summed as (a0 b0 + a1 b1) + a2 b2
(`algebra._dot`), so its bits are the same on every machine.  The pass is
the C kernel of `_recon.c` where `_native.kernel("recon")` serves it, else
its numpy twin `_recon_python`, with the same bits; a pair that leaves the
normal float range, or that `frame_from_pair` refuses, sends the whole
pass to the twin.

For nearly constant quadratics both the phase and the frame have
closed-form counterparts built from the second-order approximant, and the
same lift of them is a quadrature-free approximation to the cubic itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _native
from .algebra import (GRAM_RTOL, _dot, _frame_from_pair, _frobenius, _plane_rotation, _product,
                      _rot_exp, as_rotation, as_vectors, frame_from_pair)
# second_approximant: perfbench/selftest.py checks the tracer through this name
from .approximants import (ApproxParams, _approximants, _check_finite,  # noqa: F401
                           second_approximant)
from .errors import DegenerateB, DegenerateFrame, DegenerateThirdDerivative
from .quadratic import QuadraticTrajectory, RotationTrajectory, _hermite, check_times

THIRD_DERIV_TOL = 1e-10   # |V'''| below this makes the quadrature singular
ACCEL_TOL = 1e-12         # c below this means a reparameterised geodesic


class _Quadrature(NamedTuple):
    """One pass of `ReconstructionInput` over a trajectory's grid."""

    node: tuple[int, float]    # the first smallest |V'''|^2 at the nodes: (index, value)
    mid: tuple[int, float]     # the same at the step midpoints
    slopes: np.ndarray         # sqrt(c) times the integrand at the nodes
    phase: np.ndarray          # the cumulative phase at the nodes
    frames: np.ndarray | None  # frame_from_pair(V'', V''') at the nodes; None where it raises


@dataclass(frozen=True)
class ReconstructionInput:
    """A quadratic trajectory plus the initial rotation it should lift to.

    Requires non-degenerate acceleration (c > ACCEL_TOL) and a third
    derivative bounded away from zero on the whole grid; quadratics
    violating the latter are reparameterised geodesics for which the
    quadrature does not apply.  Construction makes the grid's one pass and
    raises DegenerateThirdDerivative where c is too small, or |V'''| is too
    small at a node or, the nodes passing, at a step midpoint.  Each check
    is written so that a NaN fails it.  A C that is not finite, or c = inf,
    raises ValueError before the pass.
    """

    trajectory: QuadraticTrajectory
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", as_rotation(self.x0))
        traj = self.trajectory
        if not traj.c > ACCEL_TOL:
            # V'' = 0 makes V''' = [V'', V] vanish too
            raise DegenerateThirdDerivative(f"degenerate acceleration: c = {traj.c:.3g}")
        for name, value in (("C", traj.C), ("c", traj.c)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} is {np.asarray(value).tolist()}; expected finite values")
        kernel = _native.kernel("recon")
        with np.errstate(all="ignore"):
            quadrature = (kernel.quadrature if kernel else _recon_python)(traj)
        object.__setattr__(self, "_quadrature", quadrature)
        k, sq = quadrature.node
        if not sq > THIRD_DERIV_TOL ** 2:
            raise DegenerateThirdDerivative(f"|V'''| dips to {math.sqrt(sq):.3g} on "
                                            f"the grid, at node {k}, t={float(traj.grid[k])!r}")
        k, sq = quadrature.mid
        if not sq > THIRD_DERIV_TOL ** 2:
            mid = 0.5 * (traj.grid[k] + traj.grid[k + 1])
            raise DegenerateThirdDerivative(f"|V'''| dips to {math.sqrt(sq):.3g} at the "
                                            f"midpoint t={float(mid)!r}")


def _recon_python(traj: QuadraticTrajectory) -> _Quadrature:
    """`ReconstructionInput`'s pass in numpy: the twin of `_recon.c`'s pass,
    operation for operation, with `frame_from_pair`'s body for the frames."""
    v3 = traj.third_derivative_grid()
    v2m = traj.at_fraction(0.5, 2)
    v3m = np.cross(v2m, traj.at_fraction(0.5))
    node_sq, mid_sq = _dot(v3, v3), _dot(v3m, v3m)
    g_nodes = (traj.c - _dot(traj.v2, traj.C)) / node_sq
    g_mids = (traj.c - _dot(v2m, traj.C)) / mid_sq
    increments = np.diff(traj.grid) / 6.0 * (g_nodes[:-1] + 4.0 * g_mids + g_nodes[1:])
    root = math.sqrt(traj.c)
    try:
        frames = _frame_from_pair(traj.v2, v3) if np.isfinite(v3).all() else None
    except DegenerateFrame:
        frames = None
    return _Quadrature(_least(node_sq), _least(mid_sq), root * g_nodes,
                       root * np.concatenate([[0.0], np.cumsum(increments)]), frames)


def _least(values: np.ndarray) -> tuple[int, float]:
    """(index, value) of the first smallest value, a NaN counting as the smallest."""
    k = int(np.argmin(values))
    return k, float(values[k])


class _ReconKernel(NamedTuple):
    """The recon kernel's pass and lift, as `_recon_python` and `_lift_python`."""

    quadrature: Callable[[QuadraticTrajectory], _Quadrature]
    lift: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _bind_recon(library):
    """`library`'s pass and lift, their arrays typed as ndarrays, as a
    `_ReconKernel`, and its self-check against `_recon_python` on the
    trajectories of `_recon_checks` and `_lift_python` on `_lift_checks`."""
    import ctypes

    walk = library.recon_pass
    walk.argtypes = (*(_native.DOUBLES_IN,) * 4, ctypes.c_longlong, _native.DOUBLES_IN,
                     *(ctypes.c_double,) * 3, *(_native.DOUBLES_OUT,) * 3, _native.INT64_OUT,
                     _native.DOUBLES_OUT)
    walk.restype = ctypes.c_longlong

    def recon(traj: QuadraticTrajectory) -> _Quadrature:
        # the trajectory holds the shapes, dtype and layout the kernel reads
        count = len(traj.grid)
        slopes, phase = np.empty((2, count))
        frames = np.empty((count, 3, 3))
        at = np.empty(2, dtype=np.int64)
        least = np.empty(2)
        if walk(traj.grid, traj.v, traj.v1, traj.v2, count, traj.C, float(traj.c),
                math.sqrt(traj.c), GRAM_RTOL, slopes, phase, frames, at, least) >= 0:
            return _recon_python(traj)
        return _Quadrature(*zip(at.tolist(), least.tolist()), slopes, phase, frames)

    library.lift.argtypes = (*(_native.DOUBLES_IN,) * 3, ctypes.c_longlong, _native.DOUBLES_OUT)
    library.lift.restype = None

    def lift(x0: np.ndarray, phi: np.ndarray, frames: np.ndarray) -> np.ndarray:
        # phi and frames as the pass or approx_cubic made them; x0 as given
        out = np.empty((len(phi), 3, 3))
        library.lift(np.ascontiguousarray(x0), phi, frames, len(phi), out)
        return out

    return _ReconKernel(recon, lift), [
        *((recon, _recon_python, (traj,)) for traj in _recon_checks()),
        *((lift, _lift_python, case) for case in _lift_checks())]


def _recon_checks() -> list[QuadraticTrajectory]:
    """The pass's self-check: drawn rows (V, V', V'') of sizes 1e-2 to 1e2
    on a grid of 24 drawn steps of 0.05 to 0.15; those rows with, at node 7,
    a V'' whose squares overflow or a NaN in V, which send the pass to the
    twin; the first step alone; the drawn rows with, at node 7, a pair whose
    Gram determinant equals (GRAM_RTOL |V''|^2) |V'''|^2 to the last bit
    (V''' = (-2^-21, 0, 0) from the rounding of V'' x V alone), which sends
    it to the twin too; rows that repeat every three nodes on the grid 0, 1,
    ..., 9, so that the smallest |V'''|^2 ties at the nodes (4.6e-23, at or
    below THIRD_DERIV_TOL^2) and at the midpoints, where the first one
    counts; and those rows with a NaN in V' at node 5, which makes the
    midpoints on either side NaN."""
    rows = np.reshape(_native._draws(25 * 9, 2011), (25, 3, 3))
    rows *= 10.0 ** (np.arange(25 * 3) % 5 - 2).reshape(25, 3, 1)
    grid = np.concatenate([[0.0], np.cumsum(0.1 + 0.05 * _native._draws(24, 1999))])
    overflow, nan, edge = rows.copy(), rows.copy(), rows.copy()
    overflow[7, 2] = [1e200, -1e200, 3.0]
    nan[7, 0] = [math.nan, 0.0, 1.0]
    edge[7, 0] = [4.663170527372157e22, 4.02572632481319e16, 2.3534415066196276e16]
    edge[7, 2] = [0.12481112456129922, 1.0774974383343209e-7, 6.299055102236703e-8]
    tiny = [[1e-6, 1e-6, 3e-6], [0.0, 1e-6, 0.0], [1e-6, 2e-6, 0.0]]
    period = np.tile(np.stack([rows[0], tiny, rows[1]]), (4, 1, 1))[:10]
    gap = period.copy()
    gap[5, 1, 1] = math.nan
    return [*(_check_trajectory(grid, each) for each in (rows, edge, overflow, nan)),
            _check_trajectory(grid[:2], rows[:2]),
            *(_check_trajectory(np.arange(10.0), each) for each in (period, gap))]


def _lift_checks() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The lift's self-check: (x0, phases, frames) for 1, 2, 3 and 40
    nodes, x0 the identity or a drawn rotation, every third phase 0, -0,
    +-pi, 1e3 or 1e300 and the others drawn of sizes 1e-2 to 1e2, and the
    frames of drawn pairs or drawn 3x3 matrices of sizes 1e-3 to 1e3."""
    x0s, cases = (np.eye(3), _rot_exp(_native._draws(3, 42))), []
    for n in (1, 2, 3, 40):
        drawn = np.reshape(_native._draws(16 * n, 3001 + n), (n, 16))
        phases = drawn[:, 0] * 10.0 ** (np.arange(n) % 5 - 2)
        phases[::3] = np.resize([0.0, -0.0, math.pi, -math.pi, 1e3, 1e300], len(phases[::3]))
        raw = drawn[:, 1:10].reshape(n, 3, 3) * 10.0 ** (np.arange(9 * n) % 7 - 3).reshape(n, 3, 3)
        cases += [(x0, phases, frames) for x0 in x0s
                  for frames in (raw, _frame_from_pair(drawn[:, 10:13], drawn[:, 13:]))]
    return cases


def _check_trajectory(grid: np.ndarray, rows: np.ndarray) -> QuadraticTrajectory:
    """The trajectory of rows (V, V', V'') on grid, with a drawn C and c = 0.75."""
    return QuadraticTrajectory(grid=grid, v=rows[:, 0], v1=rows[:, 1], v2=rows[:, 2],
                               C=_native._draws(3, 7), c=0.75)


def rotation_phase(recon: ReconstructionInput, t) -> float | np.ndarray:
    """The quadrature phase phi(t); phi(t0) = 0.  Times off the
    trajectory's interval raise OutOfDomain."""
    traj = recon.trajectory
    check_times(t, traj.t0, traj.t1)
    out = _hermite(traj.grid, recon._quadrature.phase, recon._quadrature.slopes.__getitem__, t)
    return float(out) if np.ndim(t) == 0 else out


def reconstruct_cubic(recon: ReconstructionInput) -> RotationTrajectory:
    """The quadrature phase's lift (`_lift`) on the trajectory grid, with
    the frames of the input's pass; a pair that `frame_from_pair` refuses
    raises its error here, a DegenerateFrame naming the node's index k and
    t = grid[k]."""
    traj = recon.trajectory
    phase, frames = recon._quadrature.phase, recon._quadrature.frames
    if frames is None:
        # the pass met a pair that frame_from_pair refuses: raise its error
        _frame_from_pair(as_vectors(traj.v2), as_vectors(traj.third_derivative_grid()), traj.grid)
    return RotationTrajectory(grid=traj.grid, rotations=_lift(recon.x0, phase, frames))


def _lift(x0: np.ndarray, phi: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """x0 y(t0)^T y(t) for the phased moving frame y = plane_rotation(phi)
    frames, from n >= 1 phases and frames of (V'', V''') at times from t0
    on, every 3x3 product summed as `algebra._product` sums it; row 0 is
    x0 itself.  The lift of `_recon.c` where `_native.kernel("recon")`
    serves it, else its numpy twin `_lift_python`, with the same bits."""
    kernel = _native.kernel("recon")
    return (kernel.lift if kernel else _lift_python)(x0, phi, frames)


def _lift_python(x0: np.ndarray, phi: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """`_lift` in numpy: the twin of `_recon.c`'s lift, operation for
    operation, with `plane_rotation`'s body."""
    ys = _product(_plane_rotation(phi), frames)
    rots = _product(_product(x0, ys[0].T), ys)
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
    derivatives of the second-order approximant and anchors it at x0 by
    `reconstruct_cubic`'s lift (`_lift`); the value at t0 is x0 exactly.  A
    scalar t gives a rotation; an array of times of shape S gives rotations
    of shape S + (3, 3).  A pair that `frame_from_pair` refuses raises its
    DegenerateFrame, naming the sample's time.
    """
    if p.beta <= 0.0 or p.b_degenerate:
        raise DegenerateB("closed-form cubic requires beta > 0")
    x0 = as_rotation(x0)
    # the anchor frame y(t0) is evaluated with the requested times
    ts = np.append(p.t0, t)
    v2, v3 = _approximants(p, ts, (2, 3))
    with np.errstate(all="ignore"):
        phase = rotation_phase_approx(p, ts)
        try:
            frames = frame_from_pair(v2, v3)
        except DegenerateFrame:
            _frame_from_pair(v2, v3, ts)   # the same error, naming the sample's time
        out = _lift(x0, phase, frames)[1:]
    _check_finite(t, out)
    out[ts[1:] == p.t0] = x0
    return out.reshape(np.shape(t) + (3, 3))


def so3_distance(r1, r2):
    """(Frobenius distance, geodesic angle) between two rotations, as two
    floats; stacks of shape S + (3, 3) give two arrays of shape S.

    The distance is `algebra._frobenius`'s, summed in one order on every
    machine.  With M = R1^T R2 the angle is atan2(|vee(M - M^T)| / 2,
    (tr M - 1) / 2): its sine and cosine each enter with an absolute error
    of a few eps, so it is accurate to about eps at every separation (acos
    of the cosine alone loses half the digits near 0 and pi).  M is
    `algebra._product`'s and tr M is (m00 + m11) + m22, each summed in one
    order on every machine.  A matrix with a NaN or infinite entry raises
    ValueError."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if not (np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))):
        raise ValueError("rotations have non-finite entries")
    fro = _frobenius(r1, r2)
    m = _product(np.swapaxes(r1, -1, -2), r2)
    a = m[..., 2, 1] - m[..., 1, 2]
    b = m[..., 0, 2] - m[..., 2, 0]
    c = m[..., 1, 0] - m[..., 0, 1]
    sin_angle = 0.5 * np.sqrt(a * a + b * b + c * c)
    cos_angle = 0.5 * ((m[..., 0, 0] + m[..., 1, 1]) + m[..., 2, 2] - 1.0)
    angle = np.arctan2(sin_angle, cos_angle)
    return (float(fro), float(angle)) if fro.ndim == 0 else (fro, angle)
