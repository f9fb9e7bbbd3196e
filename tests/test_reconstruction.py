import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import FIG3_BASE, fig1_ivp, fig3_ivp, require_kernel, twins_only
from oracles import loop_frobenius, pair_distance
from so3cubics import _native, quadratic, reconstruction
from so3cubics.algebra import (GRAM_RTOL, _dot, _frobenius, _gram, frame_from_axis,
                               frame_from_pair, plane_rotation, rot_exp, rotation_error)
from so3cubics.approximants import ApproxParams, fit_params, second_approximant
from so3cubics.errors import DegenerateB, DegenerateFrame, DegenerateThirdDerivative
from so3cubics.quadratic import (QuadraticIVP, QuadraticTrajectory, RotationTrajectory,
                                 integrate_cubic, integrate_quadratic)
from so3cubics.reconstruction import (ReconstructionInput, approx_cubic,
                                      reconstruct_cubic, rotation_phase,
                                      rotation_phase_approx, so3_distance)

# Grid-refinement reference for the quadrature phase at t = 5 on the
# figure1 family: values at steps 1e-3 and 5e-4 agree to 2e-16.
FIG1_PHASE_AT_5 = 0.042013606899980065


@pytest.fixture(scope="module")
def fig1_recon(fig1_trajectory):
    return ReconstructionInput(fig1_trajectory, np.eye(3))


def fig3_params(delta=0.05):
    ivp = fig3_ivp(delta)
    return fit_params(FIG3_BASE, delta, ivp.v0, ivp.v1, ivp.v2, 0.0)


# ------------------------------------------------------------ rotation_phase

def test_phase_vanishes_at_start(fig1_recon):
    assert rotation_phase(fig1_recon, 0.0) == 0.0


def test_phase_matches_refinement_oracle(fig1_recon):
    fine = integrate_quadratic(fig1_ivp(), 5e-4)
    refined = rotation_phase(ReconstructionInput(fine, np.eye(3)), 5.0)
    coarse = rotation_phase(fig1_recon, 5.0)
    assert abs(coarse - refined) < 1e-10   # oracle acceptance gate
    assert abs(coarse - FIG1_PHASE_AT_5) < 1e-10


def test_phase_reads_the_trajectory_at_the_midpoint_of_every_step(fig1_recon):
    # the Simpson phase with its midpoint V and V'' read through eval at the
    # midpoint times; the library reads the same cubics at the fraction 1/2
    traj = fig1_recon.trajectory
    grid = traj.grid
    mids = 0.5 * (grid[:-1] + grid[1:])

    def integrand(v2, v):
        v3 = np.cross(v2, v)
        return (traj.c - v2 @ traj.C) / np.einsum("ij,ij->i", v3, v3)

    g_nodes = integrand(traj.v2, traj.v)
    g_mids = integrand(traj.eval(mids, 2), traj.eval(mids))
    increments = np.diff(grid) / 6.0 * (g_nodes[:-1] + 4.0 * g_mids + g_nodes[1:])
    phase = math.sqrt(traj.c) * np.concatenate([[0.0], np.cumsum(increments)])
    got, slope = fig1_recon._quadrature.phase, fig1_recon._quadrature.slopes
    assert np.max(np.abs(got - phase)) <= 1e-14 * np.max(np.abs(phase))
    np.testing.assert_allclose(slope, math.sqrt(traj.c) * g_nodes, rtol=1e-15, atol=0.0)


def test_degenerate_third_derivative_rejected():
    # axial initial data keeps V on the axis, so V''' vanishes identically
    ivp = QuadraticIVP(0.0, 2.0, [1.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0])
    traj = integrate_quadratic(ivp, 1e-3)
    with pytest.raises(DegenerateThirdDerivative):
        ReconstructionInput(traj, np.eye(3))


def test_degenerate_third_derivative_names_node_and_time():
    # the same axial trajectory: |V'''| vanishes first at node 0, t = 0.0
    ivp = QuadraticIVP(0.0, 2.0, [1.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0])
    traj = integrate_quadratic(ivp, 1e-3)
    with pytest.raises(DegenerateThirdDerivative, match=r"at node 0, t=0\.0$"):
        ReconstructionInput(traj, np.eye(3))


def test_degenerate_third_derivative_at_a_midpoint_names_it():
    # V = (0, 0, 1) constant and V'' = y0, y1 at the nodes 0 and 1, y1 chosen so
    # that the Hermite interpolant of V'' (slopes [V'', V]) vanishes at t = 0.5:
    # |V'''| is 1 at both nodes and 0 up to rounding at the midpoint
    y0 = np.array([1.0, 0.0, 0.0])
    jy0 = np.cross(y0, [0.0, 0.0, 1.0])
    y1 = -y0 + (2.0 * y0 - 8.0 * jy0) / 17.0
    traj = QuadraticTrajectory(grid=np.array([0.0, 1.0]), v=np.tile([0.0, 0.0, 1.0], (2, 1)),
                               v1=np.zeros((2, 3)), v2=np.array([y0, y1]),
                               C=np.zeros(3), c=1.0)
    assert np.linalg.norm(traj.eval(0.5, 2)) < 1e-15
    with pytest.raises(DegenerateThirdDerivative, match=r"at the midpoint t=0\.5$"):
        ReconstructionInput(traj, np.eye(3))


def test_zero_acceleration_rejected():
    ivp = QuadraticIVP(0.0, 2.0, [1.0, 0.0, 0.0], [0.0, 0.1, 0.0], np.zeros(3))
    traj = integrate_quadratic(ivp, 1e-3)
    with pytest.raises((ValueError, DegenerateThirdDerivative)):
        ReconstructionInput(traj, np.eye(3))


# --------------------------------------------------------- reconstruct_cubic

def test_reconstruction_starts_at_anchor(fig1_trajectory):
    x0 = rot_exp([0.3, -0.1, 0.8])
    recon = ReconstructionInput(fig1_trajectory, x0)
    rt = reconstruct_cubic(recon)
    np.testing.assert_array_equal(rt.rotations[0], x0)


def test_reconstruction_matches_direct_integration(fig1_recon, fig1_trajectory):
    xr = reconstruct_cubic(fig1_recon)
    xi = integrate_cubic(np.eye(3), fig1_trajectory, 1e-3)
    diff = np.max(np.linalg.norm(xr.rotations - xi.rotations, axis=(1, 2)))
    assert diff < 1e-6
    assert xr.max_rotation_error() < 1e-10


def test_reconstruction_against_a_reference_keeps_its_largest_distance(
        fig1_recon, fig1_trajectory, recon_engine):
    # the lift's distance from the integrated curve is np.max of _frobenius
    # over the two stacks, bit for bit, with the kernel and with the twin;
    # the rotations are those lifted without a reference; a Fortran-ordered
    # reference is read as it is, and one off the grid is refused
    xi = integrate_cubic(np.eye(3), fig1_trajectory, 1e-3)
    xr, plain = reconstruct_cubic(fig1_recon, xi), reconstruct_cubic(fig1_recon)
    assert plain.reference_distance is None and xr.rotations.tobytes() == plain.rotations.tobytes()
    assert xr.reference_distance == float(np.max(_frobenius(xi.rotations, xr.rotations)))
    assert 0.0 < xr.reference_distance < 1e-6
    fortran = RotationTrajectory(xi.grid, np.asfortranarray(xi.rotations))
    assert reconstruct_cubic(fig1_recon, fortran).reference_distance == xr.reference_distance
    for off in (RotationTrajectory(xi.grid[:-1], xi.rotations[:-1]),
                RotationTrajectory(xi.grid + 1.0, xi.rotations)):
        with pytest.raises(ValueError, match="not on the trajectory's grid"):
            reconstruct_cubic(fig1_recon, off)


def test_reconstruction_left_equivariance(fig1_trajectory):
    g = rot_exp([0.7, 0.2, -0.4])
    base = reconstruct_cubic(ReconstructionInput(fig1_trajectory, np.eye(3)))
    moved = reconstruct_cubic(ReconstructionInput(fig1_trajectory, g))
    translated = np.einsum("ij,kjl->kil", g, base.rotations)
    assert np.max(np.abs(moved.rotations - translated)) < 1e-13


# ------------------------------------------------------ rotation_phase_approx

def test_phase_approx_vanishes_at_start():
    p = fig3_params()
    assert rotation_phase_approx(p, p.t0) == 0.0


def test_phase_approx_linear_without_affine_oscillation():
    frame = frame_from_axis([1.0, 0.0, 0.0])
    p = ApproxParams(delta=0.05, frame=frame, t0=0.0, c0=0.0, c1=0.0, c2=0.1,
                     a01=0.3, a02=-0.2, a11=0.0, a12=0.0, beta=0.4, gamma=1.1)
    slope = p.delta * math.sqrt(p.rho ** 2 + 1.0) * p.beta
    for t in (0.5, 1.0, 2.5):
        assert abs(rotation_phase_approx(p, t) - slope * t) < 1e-14


def test_phase_approx_two_algebraic_forms_agree():
    # the sqrt(rho^2+1) form versus the sqrt(4 c2^2 + d^4 beta^2) form
    for delta in (0.05, 0.02):
        p = fig3_params(delta)
        d = p.frame.d
        for t in (0.7, 1.0, 3.1):
            u = d * (t - p.t0)
            osc = (p.a11 * (math.cos(p.gamma - u) - math.cos(p.gamma))
                   + p.a12 * (math.sin(p.gamma - u) - math.sin(p.gamma)))
            alt = (p.delta * math.sqrt(4 * p.c2 ** 2 + d ** 4 * p.beta ** 2)
                   * ((t - p.t0) / d ** 2 + osc / (d ** 4 * p.beta)))
            assert abs(rotation_phase_approx(p, t) - alt) < 1e-14


def test_phase_approx_requires_oscillatory_part():
    base = np.array([1.0, 0.0, 0.0])
    p = fit_params(base, 0.05, base + 0.05 * np.array([0.0, 1.0, 0.0]),
                   np.zeros(3), np.zeros(3))
    assert p.b_degenerate
    with pytest.raises(DegenerateB):
        rotation_phase_approx(p, 1.0)


def test_phase_approx_first_order_accuracy():
    errors = {}
    for delta in (0.04, 0.02):
        ivp = fig3_ivp(delta, t1=5.0)
        traj = integrate_quadratic(ivp, 1e-3)
        p = fit_params(FIG3_BASE, delta, ivp.v0, ivp.v1, ivp.v2, 0.0)
        recon = ReconstructionInput(traj, np.eye(3))
        times = np.arange(0.0, 5.0 + 1e-9, 0.1)
        errors[delta] = max(abs(rotation_phase(recon, t)
                                - rotation_phase_approx(p, t)) for t in times)
    ratio = errors[0.04] / errors[0.02]
    assert 3.0 <= ratio <= 5.0


# ---------------------------------------------------------------- approx_cubic

def test_approx_cubic_starts_at_anchor():
    p = fig3_params()
    x0 = rot_exp([0.1, 0.5, -0.3])
    np.testing.assert_array_equal(approx_cubic(p, x0, 0.0), x0)


def test_approx_cubic_early_accuracy_late_degradation():
    delta = 0.05
    ivp = fig3_ivp(delta)
    traj = integrate_quadratic(ivp, 1e-3)
    xref = integrate_cubic(np.eye(3), traj, 1e-3)
    p = fig3_params(delta)
    dist = {}
    for t in (1.0, 2.0, 6.0, 8.0):
        xa = approx_cubic(p, np.eye(3), t)
        assert rotation_error(xa) < 1e-12
        dist[t] = so3_distance(xa, xref.at_time(t))[0]
    assert max(dist[1.0], dist[2.0]) < min(dist[6.0], dist[8.0])


def test_approx_cubic_order_at_fixed_time():
    errors = {}
    for delta in (0.04, 0.02):
        ivp = fig3_ivp(delta, t1=3.0)
        traj = integrate_quadratic(ivp, 1e-3)
        xref = integrate_cubic(np.eye(3), traj, 1e-3)
        p = fit_params(FIG3_BASE, delta, ivp.v0, ivp.v1, ivp.v2, 0.0)
        errors[delta] = so3_distance(approx_cubic(p, np.eye(3), 3.0),
                                     xref.at_time(3.0))[0]
    ratio = errors[0.04] / errors[0.02]
    assert 3.0 <= ratio <= 5.0


def test_approx_cubic_left_equivariance():
    p = fig3_params()
    g = rot_exp([0.6, -0.1, 0.3])
    x0 = rot_exp([0.2, 0.4, -0.5])
    for t in (0.0, 1.5, 4.0):
        np.testing.assert_allclose(approx_cubic(p, g @ x0, t),
                                   g @ approx_cubic(p, x0, t), atol=1e-13)


def test_approx_cubic_rejects_degenerate_b():
    base = np.array([1.0, 0.0, 0.0])
    p = fit_params(base, 0.05, base + np.array([0.0, 0.05, 0.0]),
                   np.zeros(3), np.zeros(3))
    with pytest.raises(DegenerateB):
        approx_cubic(p, np.eye(3), 1.0)


# ---------------------------------------------------------------- so3_distance

def test_distance_to_self_is_zero():
    r = rot_exp([0.2, -0.7, 0.4])
    fro, angle = so3_distance(r, r)
    assert fro == 0.0
    # R^T R is symmetric to the last bit, so its skew part and the angle vanish
    assert angle == 0.0


def test_distance_half_turn():
    fro, angle = so3_distance(np.eye(3), np.diag([1.0, -1.0, -1.0]))
    assert abs(fro - 2.0 * math.sqrt(2.0)) < 1e-14
    assert abs(angle - math.pi) < 1e-14


def test_distance_small_angle():
    fro, angle = so3_distance(np.eye(3), rot_exp([0.1, 0.0, 0.0]))
    assert abs(angle - 0.1) < 1e-12
    assert fro > 0.0


def test_distance_angle_is_accurate_at_every_separation():
    rng = np.random.default_rng(7)
    thetas = np.geomspace(1e-10, math.pi, 400)
    axes = rng.normal(size=(400, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    r1 = rot_exp(rng.normal(size=(400, 3)))
    r2 = r1 @ rot_exp(thetas[:, None] * axes)
    fro, angle = so3_distance(r1, r2)
    assert np.max(np.abs(angle - thetas)) <= 2e-15
    # ||R1 - R2|| = 2 sqrt(2) sin(angle / 2)
    assert np.max(np.abs(fro - 2.0 * math.sqrt(2.0) * np.sin(thetas / 2.0))) <= 1e-14
    assert so3_distance(r1, r1)[1].tolist() == [0.0] * 400
    assert so3_distance(np.eye(3), np.diag([1.0, -1.0, -1.0]))[1] == math.pi


_axes = arrays(float, (6, 2, 3), elements=st.floats(-4.0, 4.0))


@settings(max_examples=50, deadline=None)
@given(_axes, st.floats(1e-9, 1.0))
def test_stacked_distance_matches_scalar_loop_bit_for_bit(axes, scale):
    # pairs at every separation: near (scaled) and far (independent)
    r1 = rot_exp(axes[:, 0])
    r2 = np.concatenate([r1[:3] @ rot_exp(scale * axes[:3, 1]), rot_exp(axes[3:, 1])])
    fro, angle = so3_distance(r1, r2)
    pairs = [so3_distance(a, b) for a, b in zip(r1, r2)]
    assert all(type(x) is float for pair in pairs for x in pair)
    assert pairs == [pair_distance(a, b) for a, b in zip(r1, r2)]
    assert np.array_equal(fro, [f for f, _ in pairs])
    assert np.array_equal(angle, [a for _, a in pairs])
    grid_fro, grid_angle = so3_distance(r1.reshape(2, 3, 3, 3), r2.reshape(2, 3, 3, 3))
    assert np.array_equal(grid_fro, fro.reshape(2, 3))
    assert np.array_equal(grid_angle, angle.reshape(2, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distance_refuses_non_finite_matrices(bad):
    r = rot_exp([[0.3, -0.2, 0.1], [0.0, 1.0, 0.5]])
    off = r.copy()
    off[1, 2, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r1, r2 in ((r, off), (off, r), (np.eye(3), np.full((3, 3), bad))):
            with pytest.raises(ValueError, match="non-finite"):
                so3_distance(r1, r2)


# zeros of both signs, and entries near 1, 1e150 and 1e-150 of either sign,
# mixed within one matrix; every squared row stays finite
_entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0),
                     st.floats(-2.0, 2.0).map(lambda x: x * 1e150),
                     st.floats(-2.0, 2.0).map(lambda x: x * 1e-150))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3), (1, 3, 3), (5, 3, 3), (2, 3, 3, 3)]).flatmap(
    lambda shape: st.tuples(arrays(float, shape, elements=_entries),
                            arrays(float, shape, elements=_entries))))
def test_frobenius_matches_scalar_loop_bit_for_bit(pair):
    a, b = pair
    fro = _frobenius(a, b)
    assert fro.shape == a.shape[:-2]
    assert np.array_equal(fro, loop_frobenius(a, b))


# ------------------------------------------------------------ x0 validation

@pytest.mark.parametrize("x0", [np.diag([1.0, 1.0, -1.0]), np.zeros((2, 3)),
                                np.full((3, 3), np.nan)],
                         ids=["reflection", "shape-2x3", "nan"])
@pytest.mark.parametrize("entry", ["integrate_cubic", "ReconstructionInput", "approx_cubic"])
def test_entry_points_reject_a_non_rotation_x0(fig1_trajectory, entry, x0):
    calls = {
        "integrate_cubic": lambda: integrate_cubic(x0, fig1_trajectory, 1e-2),
        "ReconstructionInput": lambda: ReconstructionInput(fig1_trajectory, x0),
        "approx_cubic": lambda: approx_cubic(fig3_params(), x0, 1.0),
    }
    with pytest.raises(ValueError, match="x0 is not a rotation matrix"):
        calls[entry]()


# ------------------------------------------------------------ the one pass

@pytest.fixture(params=["kernel", "twin"])
def recon_engine(request):
    """Run a test on the pass's C kernel, then on its numpy twin."""
    if request.param == "kernel":
        require_kernel("recon")
        yield request.param
    else:
        with twins_only("recon"):
            yield request.param


def _nan_at(traj, plane, k):
    """traj with a NaN in component 1 of node k of `plane` (v or v1)."""
    planes = {"v": traj.v.copy(), "v1": traj.v1.copy()}
    planes[plane][k, 1] = math.nan
    return QuadraticTrajectory(grid=traj.grid, v=planes["v"], v1=planes["v1"], v2=traj.v2,
                               C=traj.C, c=traj.c)


def test_a_nan_node_raises_at_that_node(fig1_trajectory, recon_engine):
    traj = _nan_at(fig1_trajectory, "v", 1234)
    with pytest.raises(DegenerateThirdDerivative,
                       match=r"dips to nan on the grid, at node 1234, t=1\.234$"):
        ReconstructionInput(traj, np.eye(3))


def test_a_nan_midpoint_raises_at_construction(fig1_trajectory, recon_engine):
    # V' enters only the midpoints, on either side of its node; the first counts
    with pytest.raises(DegenerateThirdDerivative, match=r"dips to nan at the midpoint t=1\.2335$"):
        ReconstructionInput(_nan_at(fig1_trajectory, "v1", 1234), np.eye(3))


def test_a_nan_acceleration_is_refused(fig1_trajectory):
    traj = fig1_trajectory
    nan_c = QuadraticTrajectory(grid=traj.grid, v=traj.v, v1=traj.v1, v2=traj.v2, C=traj.C,
                                c=math.nan)
    with pytest.raises(DegenerateThirdDerivative, match="degenerate acceleration: c = nan"):
        ReconstructionInput(nan_c, np.eye(3))


@pytest.mark.parametrize("field, value, shown",
                         [("C", [math.nan, 0.0, 0.0], r"C is \[nan, 0\.0, 0\.0\]"),
                          ("C", [math.inf, 0.0, 0.0], r"C is \[inf, 0\.0, 0\.0\]"),
                          ("c", math.inf, "c is inf")])
def test_a_non_finite_constant_is_refused(fig1_trajectory, recon_engine, field, value, shown):
    # the integrand (c - <C, V''>) / |V'''|^2 would be NaN at every node
    traj = replace(fig1_trajectory, **{field: np.array(value) if field == "C" else value})
    with pytest.raises(ValueError, match=rf"^{shown}; expected finite values$"):
        ReconstructionInput(traj, np.eye(3))


# a row (V, V', V'') put into a trajectory at one node by the property
# below: V'' nearly along (1, 0, 0) with V''' = V'' x V = (lam, 0, 0) from
# rounding alone, a relative Gram determinant of 6e-15 ("gram") or of
# GRAM_RTOL, Gram determinant and bound equal to the last bit ("edge");
# |V'''|^2 = 4.6e-23 ("node"); V'' past the normal range ("off"); a NaN in
# V ("nan")
_PASS_ROWS = {"gram": [[1.8e23, 1.368e16, 3.06e15], [0.0, 0.0, 0.0], [1.0, 7.6e-8, 1.7e-8]],
              "edge": [[4.663170527372157e22, 4.02572632481319e16, 2.3534415066196276e16],
                       [0.0, 0.0, 0.0],
                       [0.12481112456129922, 1.0774974383343209e-7, 6.299055102236703e-8]],
              "node": [[1e-6, 1e-6, 3e-6], [0.0, 1e-6, 0.0], [1e-6, 2e-6, 0.0]],
              "off": [[0.5, 0.25, 1.0], [0.0, 0.1, 0.0], [1e200, -1e200, 3.0]],
              "nan": [[math.nan, 0.0, 1.0], [0.0, 0.1, 0.0], [0.3, 0.2, 0.1]]}


def _vanishing_midpoint(rows, grid, k):
    """rows with V = (0, 0, 1) and V' = 0 at the nodes k and k + 1, and
    V''(k + 1) such that the midpoint V'' of step k vanishes up to rounding:
    (y0 + y1) / 2 + dx (y0 x V - y1 x V) / 8 = 0."""
    e3 = np.array([0.0, 0.0, 1.0])
    dx = grid[k + 1] - grid[k]
    ad = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])   # y -> y x e3
    y0 = rows[k, 2]
    rows[k:k + 2, 0], rows[k:k + 2, 1] = e3, 0.0
    rows[k + 1, 2] = np.linalg.solve(0.5 * np.eye(3) - dx / 8.0 * ad,
                                     -(0.5 * y0 + dx / 8.0 * ad @ y0))
    return rows


def _pass_outcome(traj):
    """What the library makes of the pass: the phase, its slopes, the
    frames and the lifted rotations, or the first typed error."""
    try:
        recon = ReconstructionInput(traj, np.eye(3))
        phase, slopes = recon._quadrature.phase, recon._quadrature.slopes
        lifted = reconstruct_cubic(recon).rotations
    except (DegenerateThirdDerivative, DegenerateFrame) as exc:
        return type(exc), str(exc)
    return (phase.tobytes(), slopes.tobytes(), recon._quadrature.frames.tobytes(),
            lifted.tobytes())


_special = st.tuples(st.integers(0, 2 ** 31), st.sampled_from([*sorted(_PASS_ROWS), "mid"]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 40), st.just(5_000)), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.lists(_special, max_size=3))
@example(1, 0, False, [])
@example(5_000, 1, True, [])
@example(12, 2, True, [(3, "gram")])
@example(12, 2, False, [(4, "edge")])
@example(12, 3, False, [(3, "node"), (7, "node")])
@example(12, 4, True, [(5, "mid")])
@example(12, 5, False, [(0, "nan")])
@example(12, 6, True, [(11, "off")])
def test_recon_pass_matches_the_numpy_twin_bit_for_bit(steps, seed, uneven, specials):
    # random planes of sizes 1e-2 to 1e2 on uniform or uneven grids of 1 to
    # 40 steps or 5,000, with rows that send the pass to the twin (a
    # Gram-degenerate pair, an overflowing V'', a NaN in V) or make the
    # library raise (a degenerate node or midpoint, the NaN)
    require_kernel("recon")
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(steps + 1, 3, 3)) * 10.0 ** rng.integers(-2, 3, size=(steps + 1, 3, 1))
    spacing = rng.uniform(0.5, 1.5, size=steps) if uneven else np.ones(steps)
    grid = np.concatenate([[0.0], np.cumsum(1e-2 * spacing)])
    for k, kind in specials:
        if kind == "mid":
            rows = _vanishing_midpoint(rows, grid, k % steps)
        else:
            rows[k % (steps + 1)] = _PASS_ROWS[kind]
    traj = QuadraticTrajectory(grid=grid, v=rows[:, 0], v1=rows[:, 1], v2=rows[:, 2],
                               C=rng.normal(size=3), c=float(rng.uniform(0.1, 2.0)))
    ours = _pass_outcome(traj)
    with twins_only("recon"):
        assert _pass_outcome(traj) == ours
    # the pass itself, the smallest |V'''|^2 (NaN matching NaN) included,
    # also where the library raises before it reads all of it
    assert _native._same_outcome(_native.kernel("recon").quadrature, reconstruction._recon_python,
                                 (traj,))


def test_recon_self_check_shows_a_reassociated_midpoint_read(monkeypatch):
    # the midpoints read as h00 y0 + (h01 y1 + dx (h10 m0 + h11 m1)), not in
    # at_fraction's order (h00 y0 + h01 y1) + dx (...), change the phase of
    # some self-check case, so a kernel that reads them so is refused
    cases = reconstruction._recon_checks()
    with np.errstate(all="ignore"):
        phases = [reconstruction._recon_python(traj).phase for traj in cases]

    def reassociated(traj, theta, deriv=0):
        h00, h01, h10, h11 = quadratic._hermite_weights(theta)
        y, m = (traj.v, traj.v1, traj.v2, traj.third_derivative_grid())[deriv:deriv + 2]
        dx = np.diff(traj.grid)[:, None]
        return h00 * y[:-1] + (h01 * y[1:] + dx * (h10 * m[:-1] + h11 * m[1:]))

    monkeypatch.setattr(QuadraticTrajectory, "at_fraction", reassociated)
    with np.errstate(all="ignore"):
        moved = [reconstruction._recon_python(traj).phase for traj in cases]
    assert any(a.tobytes() != b.tobytes() for a, b in zip(phases, moved))


def test_recon_self_check_covers_ties_nan_and_the_twin():
    cases = reconstruction._recon_checks()
    with np.errstate(all="ignore"):
        passes = [reconstruction._recon_python(traj) for traj in cases]
        v3 = [np.cross(traj.v2, traj.v) for traj in cases]
        node_sq = [_dot(w, w) for w in v3]
        v2_sq = [_dot(traj.v2, traj.v2) for traj in cases]
    # one step, and uneven steps
    assert {len(traj.grid) for traj in cases} >= {2, 25}
    assert any(np.ptp(np.diff(traj.grid)) > 0.0 for traj in cases)
    # a smallest |V'''|^2 at or below THIRD_DERIV_TOL^2 that ties with a
    # later node, and a tie at the midpoints; a NaN midpoint
    assert any(np.count_nonzero(sq == sq.min()) > 1 and sq.min() <= 1e-20 for sq in node_sq)
    mids = [traj.at_fraction(0.5, 2) for traj in cases]
    assert any(len(np.unique(m, axis=0)) < len(m) for m in mids)
    assert any(math.isnan(p.mid[1]) for p in passes)
    # the passes the kernel sends to its twin: a Gram-degenerate pair at a
    # node whose |V'''|^2 passes the tolerance, a NaN node, and an
    # overflowing V'', which the twin scales into range
    assert any(p.frames is None and p.node[1] > 1e-20 for p in passes)
    assert any(p.frames is None and math.isnan(p.node[1]) for p in passes)
    assert any(np.isinf(sq).any() and p.frames is not None for sq, p in zip(v2_sq, passes))


def _with_row(traj, k, kind):
    """traj with the node k replaced by the row `_PASS_ROWS[kind]`."""
    rows = np.stack([traj.v, traj.v1, traj.v2], axis=1)
    rows[k] = _PASS_ROWS[kind]
    return QuadraticTrajectory(grid=traj.grid, v=rows[:, 0], v1=rows[:, 1], v2=rows[:, 2],
                               C=traj.C, c=traj.c)


@pytest.mark.parametrize("kind, relative", [("gram", "6e-15"), ("edge", "1e-12")])
def test_a_gram_degenerate_pair_raises_in_reconstruct_cubic(fig1_trajectory, recon_engine,
                                                           kind, relative):
    # a relative Gram determinant below GRAM_RTOL, or equal to it to the
    # last bit ("at or below"); |V'''| passes at that node, so
    # construction and the phase succeed
    traj = _with_row(fig1_trajectory, 3000, kind)
    gram = _gram(traj.v2[3000], np.cross(traj.v2[3000], traj.v[3000]))
    assert (gram[3] == GRAM_RTOL * gram[0] * gram[1]) == (kind == "edge")
    recon = ReconstructionInput(traj, np.eye(3))
    rotation_phase(recon, 1.0)
    with pytest.raises(DegenerateFrame, match=rf"relative Gram determinant {relative} at or "
                                              rf"below 1e-12 at index 3000, t=3\.0, for norms "):
        reconstruct_cubic(recon)


def test_a_gram_degenerate_closed_form_pair_names_its_sample_time(monkeypatch):
    # V2''' along V2'' at the second sample, index 2 after the anchor t0
    approximants = reconstruction._approximants

    def parallel(p, ts, orders):
        v2, v3 = approximants(p, ts, orders)
        v3[2] = -3.0 * v2[2]
        return np.stack([v2, v3])

    monkeypatch.setattr(reconstruction, "_approximants", parallel)
    with pytest.raises(DegenerateFrame, match=r"at or below 1e-12 at index 2, t=1\.5, for norms "):
        approx_cubic(fig3_params(), np.eye(3), [1.0, 1.5, 2.0])


def test_an_overflowing_pair_gives_its_scaled_frame(fig1_trajectory, recon_engine):
    traj = _with_row(fig1_trajectory, 3000, "off")
    recon = ReconstructionInput(traj, np.eye(3))
    v3 = np.cross(traj.v2[3000], traj.v[3000])
    np.testing.assert_array_equal(recon._quadrature.frames[3000],
                                  frame_from_pair(traj.v2[3000], v3))



# ----------------------------------------------------------------- the lift

_LIFT_PHASES = (0.0, -0.0, math.pi, -math.pi, 1e3, 1e300, math.nan, math.inf, -math.inf)


def _canonical_nan(a):
    """The bytes of a with every NaN the same NaN."""
    return np.where(np.isnan(a), math.nan, a).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(1), st.just(2), st.integers(1, 40), st.just(5_001)),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["identity", "drawn", "transposed"]),
       st.booleans(), st.lists(st.tuples(st.integers(0, 2 ** 31), st.sampled_from(_LIFT_PHASES)),
                               max_size=4))
@example(1, 0, "identity", True, [])
@example(2, 1, "drawn", False, [(0, math.nan), (1, math.inf)])
@example(5_001, 2, "transposed", True, [(7, 1e300), (8, -0.0), (9, math.pi)])
def test_lift_matches_the_numpy_twin_bit_for_bit(n, seed, x0_kind, paired, specials):
    # phases of sizes 1e-2 to 1e2 with special values among them; frames of
    # drawn pairs or drawn 3x3 matrices of sizes 1e-3 to 1e3; x0 the
    # identity, a drawn rotation or its transpose, which is not C-ordered;
    # the same lift against drawn reference rotations, with the largest
    # distance from them, bit for bit, NaN where a phase is not finite
    kernel = require_kernel("recon")
    rng = np.random.default_rng(seed)
    x0 = np.eye(3) if x0_kind == "identity" else rot_exp(rng.normal(size=3))
    x0 = x0.T if x0_kind == "transposed" else x0
    phases = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3, size=n)
    for k, value in specials:
        phases[k % n] = value
    if paired:
        frames = frame_from_pair(*rng.normal(size=(2, n, 3)))
    else:
        frames = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 3, 3))
    reference = rot_exp(rng.normal(size=(n, 3)))
    with np.errstate(all="ignore"):
        ours, none = kernel.lift(x0, phases, frames)
        twin, twin_none = reconstruction._lift_python(x0, phases, frames)
        against, farthest = kernel.lift(x0, phases, frames, reference)
        expected = reconstruction._lift_python(x0, phases, frames, reference)[1]
    assert none is None and twin_none is None and against.tobytes() == ours.tobytes()
    assert repr(farthest) == repr(expected) and math.isnan(farthest) == np.isnan(ours).any()
    np.testing.assert_array_equal(ours[0], x0)
    # a phase that is not finite has NaN cos and sin, and the operand order
    # of a product may drop a NaN's sign
    if not np.isfinite(phases).all():
        assert _canonical_nan(ours) == _canonical_nan(twin)
    else:
        assert ours.tobytes() == twin.tobytes()


def test_lift_self_check_covers_one_node_special_phases_and_raw_frames():
    cases = [case[:3] for case in reconstruction._lift_checks()]
    assert {len(phases) for _, phases, _ in cases} >= {1, 2, 40}
    assert any(np.array_equal(x0, np.eye(3)) for x0, _, _ in cases)
    assert any(rotation_error(frames) > 1.0 for _, _, frames in cases)
    assert any(rotation_error(frames) < 1e-15 for _, _, frames in cases)
    phases = np.concatenate([phases for _, phases, _ in cases])
    assert {0.0, math.pi, -math.pi, 1e3, 1e300} <= set(phases.tolist())
    assert np.signbit(phases[phases == 0.0]).any()


def test_lift_self_check_places_the_largest_distance_and_a_nan():
    # against its two references the self-check's lift is farthest at row
    # 17 alone, by a margin far above rounding, and NaN at row 5, where the
    # largest distance is NaN, as in np.max
    cases = [case for case in reconstruction._lift_checks() if len(case) == 4]
    distances = [_frobenius(reference, reconstruction._lift_python(*case)[0])
                 for *case, reference in cases]
    assert len(cases) == 2 and int(np.argmax(distances[0])) == 17
    assert distances[0][17] > 1.2 * np.delete(distances[0], 17).max()
    assert np.isnan(distances[1]).tolist() == [k == 5 for k in range(40)]
    assert reconstruction._lift_python(*cases[0])[1] == distances[0][17]
    assert math.isnan(reconstruction._lift_python(*cases[1])[1])


def _matmul_lift(x0, phi, frames):
    """The lift by numpy's stacked matmul, in the order of numpy's build."""
    ys = plane_rotation(phi) @ frames
    rots = x0 @ ys[0].T @ ys
    rots[0] = x0
    return rots


@pytest.mark.parametrize("x0", [np.eye(3), rot_exp([0.3, -0.1, 0.8])])
def test_lifted_curves_are_within_rounding_of_a_matmul_lift(x0, recon_engine):
    # the rot-long grid (the figure3 family on [0, 5], h = 1e-3) and
    # figure3's 501 samples on [0, 10]
    recon = ReconstructionInput(integrate_quadratic(fig3_ivp(0.05, t1=5.0), 1e-3), x0)
    quadrature = recon._quadrature
    lifted = reconstruct_cubic(recon).rotations
    assert np.max(np.abs(lifted - _matmul_lift(x0, quadrature.phase, quadrature.frames))) <= 1e-15
    p, times = fig3_params(), np.linspace(0.0, 10.0, 501)
    ts = np.append(p.t0, times)
    frames = frame_from_pair(second_approximant(p, ts, 2), second_approximant(p, ts, 3))
    expected = _matmul_lift(x0, rotation_phase_approx(p, ts), frames)[1:]
    assert np.max(np.abs(approx_cubic(p, x0, times) - expected)) <= 1e-15
