"""Exact 3D linear algebra for so(3) and SO(3).

Vectors in so(3) are identified with Euclidean 3-vectors through the
adjoint map, so the Lie bracket is the cross product and the Euclidean
inner product is ad-invariant.  Rotations are plain 3x3 arrays acting on
column vectors.  `rot_exp` and `rotation_error` are written entry by
entry on whole stacks, with no stacked 3x3 matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame, ZeroDirection

GRAM_RTOL = 1e-12          # relative Gram-determinant floor for frame_from_pair
FRAME_TOL = 1e-12          # largest rotation_error of a Frame's triple
# the normal float range that frame_from_pair keeps its squared norms and
# Gram determinants in
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
# the ValueError message of a vector with a NaN or infinite component, and
# of rot_exp's vector whose squared norm overflows
_NOT_FINITE = "vector has non-finite components"


def as_vector(v) -> np.ndarray:
    """Coerce to a finite float 3-vector."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(_NOT_FINITE)
    return arr


def as_rotation(x) -> np.ndarray:
    """Coerce to a finite float 3x3 rotation matrix, to within 1e-8."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (3, 3) or not np.all(np.isfinite(arr)) or rotation_error(arr) > 1e-8:
        raise ValueError("x0 is not a rotation matrix")
    return arr


def bracket(u, v) -> np.ndarray:
    """Lie bracket on so(3) ~ E^3: the cross product u x v."""
    u = as_vector(u)
    v = as_vector(v)
    return np.array([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])


def as_vectors(v) -> np.ndarray:
    """Coerce to a finite float array of 3-vectors, shape S + (3,)."""
    arr = np.asarray(v, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"expected 3-vectors, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(_NOT_FINITE)
    return arr


def rot_exp(v) -> np.ndarray:
    """Matrix exponential of ad(v), the skew matrix with ad(v) w = v x w, by
    the closed Rodrigues form.

    With a = sin(theta)/theta and b = (1 - cos(theta))/theta^2, theta = |v|,
    the exponential I + a K + b K^2 of K = ad(v) is written entry by
    entry from the components (x, y, z): K^2 = v v^T - theta^2 I, so the
    diagonal is 1 - b (y^2 + z^2) and so on, and the entry (0, 1) is
    b x y - a z.  Both coefficients are written through sinc, so the
    zero-angle limit is exact rather than a truncated series.  A stack of
    vectors, shape S + (3,), gives rotations of shape S + (3, 3).  A
    vector that is not finite, or whose squared norm theta^2 overflows
    (|v| above about 1.3e154), raises ValueError.
    """
    return _rot_exp(as_vectors(v))


def _rot_exp(v: np.ndarray) -> np.ndarray:
    """`rot_exp` of a float array of finite 3-vectors: ValueError where a
    squared norm overflows, and no float warning."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    with np.errstate(over="ignore"):
        xx, yy, zz = x * x, y * y, z * z
        theta2 = xx + yy + zz
    if not np.all(np.isfinite(theta2)):
        raise ValueError("vector's squared norm overflows (|v| above about 1.3e154)")
    theta = np.sqrt(theta2)
    a = np.sinc(theta / np.pi)
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    ax, ay, az = a * x, a * y, a * z
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    out = np.empty(v.shape + (3,))
    out[..., 0, 0] = 1.0 - b * (yy + zz)
    out[..., 0, 1] = bxy - az
    out[..., 0, 2] = bxz + ay
    out[..., 1, 0] = bxy + az
    out[..., 1, 1] = 1.0 - b * (xx + zz)
    out[..., 1, 2] = byz - ax
    out[..., 2, 0] = bxz - ay
    out[..., 2, 1] = byz + ax
    out[..., 2, 2] = 1.0 - b * (xx + yy)
    return out


def rotation_error(r) -> float:
    """Max of the entrywise orthogonality defect |R^T R - I| and |det R - 1|;
    for a stack of matrices, shape S + (3, 3), the worst over the stack.

    R^T R is read as the six dot products of the columns of R, and the
    determinant by cofactors along the first row, each over the whole stack.
    """
    return _rotation_error(np.asarray(r, dtype=float))


def _rotation_error(r: np.ndarray) -> float:
    """`rotation_error` of a float array of 3x3 matrices."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(r, (-2, -1), (0, 1))
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    defects = np.stack([
        a * a + d * d + g * g - 1.0,
        b * b + e * e + h * h - 1.0,
        c * c + f * f + i * i - 1.0,
        a * b + d * e + g * h,
        a * c + d * f + g * i,
        b * c + e * f + h * i,
        det - 1.0,
    ])
    return float(np.max(np.abs(defects)))


@dataclass(frozen=True)
class Frame:
    """Positively oriented orthonormal triple (f0, f1, f2) with scale d > 0.

    f0 is the unit axis of the underlying constant angular velocity and d
    its magnitude, so the base velocity is d * f0.  The pair (f1, f2)
    spans the plane orthogonal to f0 with bracket(f0, f1) == f2 and
    bracket(f2, f0) == f1: its rows' `rotation_error` is at most FRAME_TOL.
    A vector's coordinates in the frame are its `_dot`s with f0, f1 and f2;
    the transverse ones are encoded as z = <v, f1> + i <v, f2>, on which
    ad(f0) acts as multiplication by i, and `from_complex` maps z back.
    """

    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    d: float

    def __post_init__(self):
        for name in ("f0", "f1", "f2"):
            object.__setattr__(self, name, as_vector(getattr(self, name)))
        object.__setattr__(self, "d", float(self.d))
        if not self.d > 0.0:
            raise ValueError("frame scale d must be positive")
        if not rotation_error(np.array([self.f0, self.f1, self.f2])) <= FRAME_TOL:
            raise ValueError("frame is not a positively oriented orthonormal triple")

    @property
    def base(self) -> np.ndarray:
        """The constant angular velocity d * f0 the frame is adapted to."""
        return self.d * self.f0

    def from_complex(self, z) -> np.ndarray:
        """Re z f1 + Im z f2, the vector of transverse coordinate z; a complex
        array of shape S gives vectors of shape S + (3,)."""
        return np.multiply.outer(np.real(z), self.f1) + np.multiply.outer(np.imag(z), self.f2)


def frame_from_axis(axis) -> Frame:
    """Deterministic orthonormal frame adapted to a nonzero axis vector.

    f0 is the normalized axis; f1 is the projection onto the f0-orthogonal
    plane of the standard basis vector least aligned with f0 (lowest index
    on ties); f2 completes the positively oriented triple.  Lengths are
    `_scaled_length`'s, so no square overflows; d = |v|.
    """
    scaled, length, d = _scaled_length(as_vector(axis))
    if d <= 1e-12:
        raise ZeroDirection("axis norm is below 1e-12")
    f0 = scaled / length
    idx = int(np.argmin(np.abs(f0)))
    f1 = np.eye(3)[idx] - f0[idx] * f0
    f1 /= _length(f1)
    f2 = bracket(f0, f1)
    return Frame(f0, f1, f2, d)


def plane_rotation(angle) -> np.ndarray:
    """Clockwise rotation by `angle` in the first two coordinates.

    An array of angles of shape S gives rotations of shape S + (3, 3).  An
    angle that is not finite raises ValueError.
    """
    if not np.all(np.isfinite(angle)):
        raise ValueError("angle is not finite")
    return _plane_rotation(angle)


def _plane_rotation(angle) -> np.ndarray:
    """`plane_rotation`'s body."""
    c = np.cos(angle)
    s = np.sin(angle)
    out = np.zeros(np.shape(angle) + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def frame_from_pair(x1, x2) -> np.ndarray:
    """Rotation whose rows are an orthonormal frame adapted to (x1, x2).

    Rows are, in order: the normalized x1-orthogonal part of x2, the
    normalized cross product x1 x x2, and x1 / |x1|.  Requires the pair to
    be linearly independent; each row is invariant under positive scaling
    of either input.  Stacks of pairs, shape S + (3,), give rotations of
    shape S + (3, 3); a degenerate pair raises DegenerateFrame naming the
    first offending (flat) index.

    The squared norms and <x1, x2> are summed as (a0 b0 + a1 b1) + a2 b2
    on every machine (`_dot`), the Gram determinant is |x1|^2 |x2|^2 -
    <x1, x2>^2, and a pair is degenerate where it is at most GRAM_RTOL
    |x1|^2 |x2|^2 or |x1|^2 is 0.  A pair whose squared norms or Gram
    determinant leave the normal float range is first scaled by powers of
    two, each vector to a largest component in [1/2, 1).  That scaling is
    exact and leaves the rows unchanged, so pairs of any finite magnitude
    give their frame, and all other pairs are computed as given.
    """
    return _frame_from_pair(as_vectors(x1), as_vectors(x2))


def _frame_from_pair(x1: np.ndarray, x2: np.ndarray, times: np.ndarray | None = None) -> np.ndarray:
    """`frame_from_pair` of float arrays of finite 3-vectors; with `times`,
    one time for each (flat) pair, its DegenerateFrame names times[k]
    beside the index k."""
    x1, x2 = np.broadcast_arrays(x1, x2)
    shape = x1.shape
    x1 = x1.reshape(-1, 3)
    x2 = x2.reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        n1sq, n2sq, dot, gram = _gram(x1, x2)
        off = ~((n1sq * n2sq <= _HUGE) & (np.minimum(np.minimum(n1sq, n2sq), gram) >= _TINY))
    given = x1, x2
    if np.any(off):
        x1, x2 = x1.copy(), x2.copy()
        x1[off], x2[off] = _unit_scale(x1[off]), _unit_scale(x2[off])
        n1sq[off], n2sq[off], dot[off], gram[off] = _gram(x1[off], x2[off])
    bad = (gram <= GRAM_RTOL * n1sq * n2sq) | (n1sq == 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        where = f" at index {k}" if len(shape) > 1 else ""
        where += f", t={float(times[k])!r}," if times is not None else ""
        scale = n1sq[k] * n2sq[k]
        raise DegenerateFrame(
            f"relative Gram determinant {gram[k] / scale if scale else 0.0:.3g} at or below "
            f"{GRAM_RTOL:g}{where} for norms {math.hypot(*given[0][k]):.3g}, "
            f"{math.hypot(*given[1][k]):.3g}")
    n1 = np.sqrt(n1sq)[:, None]
    sg = np.sqrt(gram)[:, None]
    return np.stack([
        (n1 * x2 - (dot[:, None] / n1) * x1) / sg,
        np.cross(x1, x2) / sg,
        x1 / n1,
    ], axis=-2).reshape(shape + (3,))


def _gram(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, ...]:
    """|x1|^2, |x2|^2, <x1, x2> and the Gram determinant of row pairs."""
    n1sq, n2sq, dot = _dot(x1, x1), _dot(x2, x2), _dot(x1, x2)
    return n1sq, n2sq, dot, n1sq * n2sq - dot * dot


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a0 b0 + a1 b1) + a2 b2 over the last axis, summed in that order on
    every machine (the orders of einsum and matmul depend on numpy's build
    and the CPU)."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of (stacks of) 3x3 matrices a and b, entry (i, j)
    summed as ((a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j) on every machine
    (matmul's order depends on numpy's build and the CPU): five ufunc calls."""
    return ((a[..., :, 0:1] * b[..., 0:1, :] + a[..., :, 1:2] * b[..., 1:2, :])
            + a[..., :, 2:3] * b[..., 2:3, :])


def _length(v: np.ndarray) -> np.ndarray:
    """|v| = sqrt(_dot(v, v)) over the last axis: the one length of 3-vectors."""
    return np.sqrt(_dot(v, v))


def _scaled_length(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(v 2^-e, its `_length`, |v|) for the 2^e that brings the largest |v_i|
    of a finite 3-vector v into [1/2, 1), so no square over- or underflows;
    |v| is that length times 2^e, with no warning, inf where |v| overflows."""
    _, e = np.frexp(np.max(np.abs(v)))
    length = _length(scaled := np.ldexp(v, -e))
    with np.errstate(over="ignore"):
        return scaled, length, float(np.ldexp(length, e))


def _frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|A - B|_F over the last two axes of 3x3 stacks, the one distance of
    rotations: the rows of the difference squared by `_dot`, added as
    (r0 + r1) + r2, then the square root, in that order on every machine."""
    r0, r1, r2 = (_dot(row, row) for row in np.moveaxis(a - b, -2, 0))
    return np.sqrt((r0 + r1) + r2)


def _unit_scale(x: np.ndarray) -> np.ndarray:
    """Rows of x scaled by powers of two to a largest |component| in [1/2, 1)."""
    _, e = np.frexp(np.max(np.abs(x), axis=-1))
    return np.ldexp(x, -e[:, None])
