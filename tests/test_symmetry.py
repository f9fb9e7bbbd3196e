"""The equations' own invariances, checked on computed values.

V''' = [V'', V] is equivariant under rotations (the bracket is the cross
product), reversible in time (W(t) = -V(T - t)) and scale invariant
(W(t) = λ V(λ t)).  Each test integrates the transformed initial data and
compares the transformed trajectory node by node.  The approximants are
fitted to rotated initial data and compared by value on a grid of times,
and the rotation curves from the identity (integrated, reconstructed and
closed-form) are conjugated by the rotation.  At the CLI, a run with
rotated `base`, `perturbation` and `projection` rows writes the projected
and error columns of the unrotated run.  No fitted parameter is
compared: `frame_from_axis` picks its f1 by
coordinate axis, so the parameters change under rotation while every
approximant value is equivariant.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG3_BASE, fig3_ivp
from so3cubics.algebra import rot_exp
from so3cubics.approximants import (first_approximant, fit_params, second_approximant,
                                    taylor2_baseline)
from so3cubics.cli import main
from so3cubics.harness import KINDS, default_config
from so3cubics.quadratic import QuadraticIVP, integrate_cubic, integrate_quadratic
from so3cubics.reconstruction import ReconstructionInput, approx_cubic, reconstruct_cubic

FIG3_STEP = 1e-3          # the figure3 default step
FIG3_DELTA = 0.05         # the figure3 default delta
FIG3_TIMES = np.linspace(0.0, 10.0, 101)


@pytest.fixture(scope="module")
def fig3_trajectory():
    return integrate_quadratic(fig3_ivp(FIG3_DELTA), FIG3_STEP)


def _jet(traj):
    return np.hstack([traj.v, traj.v1, traj.v2])


angle = st.floats(-np.pi, np.pi, allow_nan=False)


# ------------------------------------------------------- integrate_quadratic

@settings(max_examples=20, deadline=None)
@given(st.tuples(angle, angle, angle))
def test_integrate_quadratic_is_rotation_equivariant(fig3_trajectory, axis_angle):
    # the rotated jet (R V0, R V1, R V2) integrates to R V(t)
    R = rot_exp(np.array(axis_angle))
    ivp = fig3_ivp(FIG3_DELTA)
    rotated = integrate_quadratic(QuadraticIVP(ivp.t0, ivp.t1, R @ ivp.v0, R @ ivp.v1,
                                               R @ ivp.v2), FIG3_STEP)
    expected = np.hstack([fig3_trajectory.v @ R.T, fig3_trajectory.v1 @ R.T,
                          fig3_trajectory.v2 @ R.T])
    assert np.max(np.abs(_jet(rotated) - expected)) < 1e-13


@pytest.mark.parametrize("delta", [0.01, 0.02, 0.05, 0.1])
def test_integrate_quadratic_is_time_reversible(delta):
    # W(t) = -V(T - t) solves the same equation from (-V(T), V'(T), -V''(T));
    # RK4 is not a symmetric method, so W meets -V(T - t) only to its own
    # error: at most 5.6e-16 over these deltas
    traj = integrate_quadratic(fig3_ivp(delta), FIG3_STEP)
    back = integrate_quadratic(QuadraticIVP(traj.t0, traj.t1, -traj.v[-1], traj.v1[-1],
                                            -traj.v2[-1]), FIG3_STEP)
    expected = np.hstack([-traj.v[::-1], traj.v1[::-1], -traj.v2[::-1]])
    assert np.max(np.abs(_jet(back) - expected)) < 1e-14


@pytest.mark.parametrize("lam", [2.0, 0.5, 4.0])
def test_integrate_quadratic_scaling_is_exact_for_powers_of_two(lam):
    # W(t) = λ V(λ t) has the jet (λ V0, λ² V1, λ³ V2) on [t0/λ, t1/λ]; at
    # step h/λ every RK4 operation of W is λ^k times that of V, which is
    # exact in binary floating point when λ is a power of two
    ivp = fig3_ivp(FIG3_DELTA)
    step = 1e-2
    traj = integrate_quadratic(ivp, step)
    scaled = integrate_quadratic(QuadraticIVP(ivp.t0 / lam, ivp.t1 / lam, lam * ivp.v0,
                                              lam**2 * ivp.v1, lam**3 * ivp.v2), step / lam)
    assert np.array_equal(scaled.grid, traj.grid / lam)
    assert np.array_equal(scaled.v, lam * traj.v)
    assert np.array_equal(scaled.v1, lam**2 * traj.v1)
    assert np.array_equal(scaled.v2, lam**3 * traj.v2)


# ------------------------------------------------------------- approximants

def _rotated_ivp(R):
    ivp = fig3_ivp(FIG3_DELTA)
    return ivp, QuadraticIVP(ivp.t0, ivp.t1, R @ ivp.v0, R @ ivp.v1, R @ ivp.v2)


@settings(max_examples=20, deadline=None)
@given(st.tuples(angle, angle, angle))
def test_approximants_are_rotation_equivariant(axis_angle):
    # fitted with base R base to the rotated jet, V1 and V2 become R V1 and
    # R V2 at every derivative order
    R = rot_exp(np.array(axis_angle))
    ivp, rot = _rotated_ivp(R)
    p = fit_params(FIG3_BASE, FIG3_DELTA, ivp.v0, ivp.v1, ivp.v2, ivp.t0)
    q = fit_params(R @ FIG3_BASE, FIG3_DELTA, rot.v0, rot.v1, rot.v2, rot.t0)
    for approximant in (first_approximant, second_approximant):
        for deriv in range(4):
            expected = approximant(p, FIG3_TIMES, deriv) @ R.T
            assert np.max(np.abs(approximant(q, FIG3_TIMES, deriv) - expected)) < 1e-13


@settings(max_examples=20, deadline=None)
@given(st.tuples(angle, angle, angle))
def test_taylor2_baseline_is_rotation_equivariant(axis_angle):
    R = rot_exp(np.array(axis_angle))
    ivp, rot = _rotated_ivp(R)
    expected = taylor2_baseline(ivp, FIG3_TIMES) @ R.T
    assert np.max(np.abs(taylor2_baseline(rot, FIG3_TIMES) - expected)) < 1e-13


# ------------------------------------------------------------ rotation curves
# Rotating base and perturbation by R conjugates the curve that starts at
# the identity: x(t) becomes R x(t) R^T, since ad(R V) = R ad(V) R^T.

IDENTITY = np.eye(3)


def _conjugated(R, x):
    return R @ x @ R.T


@settings(max_examples=20, deadline=None)
@given(st.tuples(angle, angle, angle))
def test_approx_cubic_is_conjugation_equivariant(axis_angle):
    R = rot_exp(np.array(axis_angle))
    ivp, rot = _rotated_ivp(R)
    p = fit_params(FIG3_BASE, FIG3_DELTA, ivp.v0, ivp.v1, ivp.v2, ivp.t0)
    q = fit_params(R @ FIG3_BASE, FIG3_DELTA, rot.v0, rot.v1, rot.v2, rot.t0)
    expected = _conjugated(R, approx_cubic(p, IDENTITY, FIG3_TIMES))
    assert np.max(np.abs(approx_cubic(q, IDENTITY, FIG3_TIMES) - expected)) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.tuples(angle, angle, angle))
def test_integrated_and_reconstructed_cubics_are_conjugation_equivariant(fig3_trajectory,
                                                                         axis_angle):
    R = rot_exp(np.array(axis_angle))
    _, rot = _rotated_ivp(R)
    rotated = integrate_quadratic(rot, FIG3_STEP)
    for curve in (lambda traj: integrate_cubic(IDENTITY, traj, FIG3_STEP),
                  lambda traj: reconstruct_cubic(ReconstructionInput(traj, IDENTITY))):
        expected = _conjugated(R, curve(fig3_trajectory).rotations)
        assert np.max(np.abs(curve(rotated).rotations - expected)) < 1e-12


# ---------------------------------------------------------------- the CLI
# Rotating base and perturbation by R rotates every quadratic curve by R,
# and rotating the rows of the projection too (P becomes P R^T) leaves every
# projected column as it was; errors are distances, so they stay too.  The
# rotation curves are conjugated, x(t) becoming R x(t) R^T, which keeps
# their Frobenius and angle distances.

def _relation_columns(out, name, R):
    """The columns of one run into `out` that the rotation leaves unchanged:
    projected and error columns, or the distances of the rotation kinds."""
    config = default_config(name)
    command, path = KINDS[name].command, out.with_suffix(".json")
    path.write_text(json.dumps({
        "step": 0.01, "stride": 0.25, "formats": ["csv", "json"],
        "base": (R @ np.asarray(config.base)).tolist(),
        "perturbation": (np.asarray(config.pert) @ R.T).tolist(),
        "projection": (np.asarray(config.projection) @ R.T).tolist()}))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    with open(out / f"{command}.csv", newline="") as f:
        header, *rows = csv.reader(f)
    report = json.loads((out / f"{command}.json").read_text())
    if name == "cubic-compare":
        keys = ("reconstruction_max_frobenius", "approx_max_frobenius", "approx_max_angle")
        return [report[key] for key in keys]
    keep = (("frobenius", "angle") if name == "figure3"
            else tuple(h for h in header if h.endswith(("_px", "_py"))))
    columns = [float(row[header.index(h)]) for row in rows for h in keep]
    if name == "figure3":
        return columns
    series = report["series"]
    errors = [series[curve][delta] for curve in sorted(series) for delta in sorted(series[curve])]
    maxima = [report["maxima"][curve] for curve in sorted(report["maxima"])]
    return columns + list(np.ravel(errors)) + list(np.ravel(maxima))


@pytest.mark.parametrize("name", ["figure1", "figure2", "quadratic-compare", "figure3",
                                  "cubic-compare"])
def test_cli_runs_with_rotated_inputs_write_the_same_values(tmp_path, name):
    plain = np.array(_relation_columns(tmp_path / "plain", name, IDENTITY))
    for seed in (5, 6):
        R = rot_exp(np.random.default_rng(seed).normal(size=3))
        rotated = np.array(_relation_columns(tmp_path / f"seed{seed}", name, R))
        assert rotated.shape == plain.shape
        assert np.max(np.abs(rotated - plain)) <= 1e-12
