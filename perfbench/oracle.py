"""Independent accuracy reference for the benchmark.

Integrates the joint 18-dimensional system

    V' = V1,  V1' = V2,  V2' = V2 x V,  x' = x ad(V)

with scipy's DOP853 at rtol = atol = 1e-13.  It shares no code with
so3cubics: the right-hand side is written out here, and the rotation
equation uses the row form (row_i of x)' = row_i x V of x' = x ad(V).
Several initial-value problems on one interval are stacked into one
system, so a whole ensemble costs about as much as its hardest member.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

RTOL = ATOL = 1e-13


def _cross(a, b):
    return np.stack([
        a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
        a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
        a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
    ], axis=-1)


def _rhs(_t, y):
    s = y.reshape(-1, 18)
    v, v2 = s[:, 0:3], s[:, 6:9]
    rows = s[:, 9:18].reshape(-1, 3, 3)
    out = np.empty_like(s)
    out[:, 0:6] = s[:, 3:9]
    out[:, 6:9] = _cross(v2, v)
    out[:, 9:18] = _cross(rows, v[:, None, :]).reshape(-1, 9)
    return out.reshape(-1)


class Reference:
    """Dense reference solutions of B stacked problems on [t0, t1]."""

    def __init__(self, t0: float, t1: float, jets):
        """`jets` is a (B, 3, 3) array of initial (V, V', V'') at t0;
        every rotation curve starts at the identity."""
        jets = np.asarray(jets, dtype=float).reshape(-1, 9)
        y0 = np.hstack([jets, np.tile(np.eye(3).reshape(9), (len(jets), 1))])
        self.count = len(jets)
        self._sol = solve_ivp(_rhs, (t0, t1), y0.reshape(-1), method="DOP853",
                              rtol=RTOL, atol=ATOL, dense_output=True)
        if not self._sol.success:
            raise RuntimeError(f"reference integration failed: {self._sol.message}")

    def _states(self, member: int, times) -> np.ndarray:
        y = self._sol.sol(np.asarray(times, dtype=float))      # (18 B, N)
        return y.reshape(self.count, 18, -1)[member].T          # (N, 18)

    def quadratic(self, times, member: int = 0) -> np.ndarray:
        """(N, 9) array of (V, V', V'') at the given times."""
        return self._states(member, times)[:, 0:9]

    def rotation(self, times, member: int = 0) -> np.ndarray:
        """(N, 3, 3) rotations x(t) with x(t0) = I."""
        return self._states(member, times)[:, 9:18].reshape(-1, 3, 3)
