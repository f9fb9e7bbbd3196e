import itertools
import math
import re
import sysconfig
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import CubicHermiteSpline

from conftest import (FIG1_CONSTANT, FIG1_V0, FIG1_V1, FIG1_V2, fig1_ivp, fig3_ivp,
                      forget_kernels, off_twins, require_kernel, twins_only)
from oracles import (matmul_running_product, quadratic_residual, rk4_quadratic, rk4_rotation,
                     sequential_product, subgroup_product_velocity)
from so3cubics import _native, quadratic
from so3cubics.algebra import _dot, rot_exp, rotation_error
from so3cubics.cli import main
from so3cubics.errors import OutOfDomain, StepTooLarge
from so3cubics.quadratic import (_GAUSS_NODES, C_DRIFT_LIMIT, DOMAIN_ULPS, QuadraticIVP,
                                 QuadraticTrajectory, RotationTrajectory, conserved_constant,
                                 hermite, integrate_cubic, integrate_quadratic, is_null)
from so3cubics.reconstruction import ReconstructionInput, rotation_phase

# Richardson step-halving reference for V(2) of the figure1 family:
# values at steps 2e-3 and 1e-3 agree to 3.6e-15.
FIG1_V_AT_2 = np.array([0.997002130385742, -0.0045723859613742, 0.0025309024338188])


# --------------------------------------------------------- conserved constant

def test_conserved_constant_reference_values():
    ivp = fig1_ivp()
    c = conserved_constant(ivp.v0, ivp.v1, ivp.v2)
    np.testing.assert_allclose(c, FIG1_CONSTANT, atol=1e-15)
    assert not is_null(c)


def test_conserved_constant_geodesic_is_null():
    c = conserved_constant([0.7, -0.2, 0.1], np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(c, np.zeros(3))
    assert is_null(c)


def test_conserved_constant_affine_line_through_origin_is_null():
    # V(t) = t D at t = 0: value zero, slope D, curvature zero
    d = np.array([0.3, 0.4, -0.2])
    c = conserved_constant(np.zeros(3), d, np.zeros(3))
    assert is_null(c)


def test_initial_third_derivative_consistent_with_equation():
    ivp = fig1_ivp()
    v3 = np.cross(ivp.v2, ivp.v0)
    np.testing.assert_allclose(v3, [0.00002, 0.005035, 0.005031], atol=1e-15)


# ------------------------------------------------------- integrate_quadratic

def test_integrate_constant_data_stays_constant():
    d = np.array([0.4, -0.1, 0.9])
    traj = integrate_quadratic(QuadraticIVP(0.0, 3.0, d, np.zeros(3), np.zeros(3)), 1e-2)
    assert np.max(np.abs(traj.v - d)) < 1e-14
    assert np.max(np.abs(traj.v1)) < 1e-14


def test_integrate_conserves_bracket_constant(fig1_trajectory):
    series = fig1_trajectory.v2 - np.cross(fig1_trajectory.v1, fig1_trajectory.v)
    drift = np.max(np.linalg.norm(series - fig1_trajectory.C, axis=1))
    assert drift < 1e-9
    np.testing.assert_allclose(fig1_trajectory.C, FIG1_CONSTANT, atol=1e-15)


def test_c_drift_at_the_first_node_is_zero():
    # c is summed as the drift scan sums c(t), (a0 b0 + a1 b1) + a2 b2, and
    # not in the order of numpy's BLAS, which differs for many vectors
    jets = np.random.default_rng(5).normal(size=(200, 3))
    for v2 in [FIG1_V2, *jets]:
        traj = integrate_quadratic(QuadraticIVP(0.0, 0.01, FIG1_V0, FIG1_V1, v2), 1e-3)
        first = np.stack([traj.v, traj.v1, traj.v2])[:, :1]
        assert quadratic._drift_python(first, traj.C, traj.c)[1] == (0.0, 0), v2


def test_integrate_matches_step_halving_oracle():
    short = fig1_ivp(t1=2.0)
    ivp = QuadraticIVP(0.0, 2.0, short.v0, short.v1, short.v2)
    coarse = integrate_quadratic(ivp, 2e-3).v[-1]
    fine = integrate_quadratic(ivp, 1e-3).v[-1]
    assert np.max(np.abs(coarse - fine)) < 1e-10   # oracle acceptance gate
    np.testing.assert_allclose(fine, FIG1_V_AT_2, atol=1e-12)


def test_integrate_rk4_order(engine):
    ivp = QuadraticIVP(0.0, 2.0, [1.0, 0.2, -0.1], [0.3, 0.1, 0.0], [0.0, -0.2, 0.25])
    ref = integrate_quadratic(ivp, 1e-4).v[-1]
    errs = [np.linalg.norm(integrate_quadratic(ivp, h).v[-1] - ref)
            for h in (0.02, 0.01)]
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_integrate_rejects_drifting_step(engine):
    ivp = QuadraticIVP(0.0, 5.0, [0.0, 0.0, 3.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0])
    with pytest.raises(StepTooLarge):
        integrate_quadratic(ivp, 0.5)


def test_integrate_rejects_overflowed_trajectory(engine):
    # the state overflows and turns to NaN, whose drift compares False
    ivp = QuadraticIVP(0.0, 25.0, [3.0, 1.0, 0.0], [0.5, -1.0, 2.0], [1.0, 1.0, -1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepTooLarge):
        integrate_quadratic(ivp, 0.05)


def test_integrate_rejects_bracket_constant_drift(engine):
    # C drifts by 1.1e-5 while c stays within 1e-8, so only the C gate fires
    ivp = QuadraticIVP(0.0, 1.0, [0.0, -0.3, 0.2], [-0.2, 0.6, 0.2], [0.3, -0.2, -0.7])
    states = rk4_quadratic(ivp, 0.2)
    accel = np.einsum("ij,ij->i", states[:, 6:9], states[:, 6:9])
    assert np.max(np.abs(accel - accel[0])) < 0.1 * C_DRIFT_LIMIT
    with pytest.raises(StepTooLarge,
                       match=r"bracket constant C drifted by 1\.\d+e-05 .* step index \d, t="):
        integrate_quadratic(ivp, 0.2)
    integrate_quadratic(ivp, 0.02)


@pytest.mark.parametrize("jet, match", [
    # c = |V''|^2 overflows
    ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e300]],
     r"squared acceleration c of the initial jet overflows to inf; no step size helps"),
    # [V', V] overflows to inf - inf
    ([[1e160] * 3] * 3, r"bracket constant C of the initial jet overflows to \[.*nan"),
    # C and c are finite, the first steps overflow to NaN
    ([[0.0, 0.0, 0.0], [0.0, 0.0, -1e100], [-1e100, -1e100, 0.0]],
     r"drifted by nan .* step index 1, t=0\.001,"),
])
def test_overflowing_initial_jets_raise_step_too_large_without_warnings(jet, match, engine):
    ivp = QuadraticIVP(0.0, 1.0, *jet)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge, match=match):
            integrate_quadratic(ivp, 1e-3)


@pytest.mark.parametrize("argv", [["cubic", "--delta", "1e300"],
                                  ["quadratic", "--delta", "1e160"]])
def test_cli_overflowing_initial_jet_exits_3_without_warnings(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "of the initial jet overflows" in err and "no step size helps" in err
    assert "smaller step" not in err and "Traceback" not in err


component = st.floats(-1.0, 1.0, allow_nan=False)
vectors = st.tuples(component, component, component).map(np.array)


# the engine fixture is set once per test, not per example, as it should be
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vectors, vectors, vectors, st.floats(0.5, 2.0), st.floats(2e-3, 5e-3))
# the two ends of the state buffer: one step (n = 1), and the ensemble's
# 20,000 steps on [0, 20]; a node left unwritten would read as a zero row
@example(np.array([0.3, -0.8, 0.5]), np.array([0.2, 0.1, -0.4]),
         np.array([-0.6, 0.3, 0.9]), 0.004, 0.004)
@example(FIG1_V0, FIG1_V1, FIG1_V2, 20.0, 1e-3)
def test_integrate_matches_vector_rk4_bit_for_bit(engine, v0, v1, v2, t1, step):
    # steps this small keep every draw within the drift gates (worst ~1e-7)
    ivp = QuadraticIVP(0.0, t1, v0, v1, v2)
    traj = integrate_quadratic(ivp, step)
    states = rk4_quadratic(ivp, step)
    assert np.array_equal(np.hstack([traj.v, traj.v1, traj.v2]), states)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vectors, vectors, vectors, st.floats(0.5, 3.0), st.floats(0.01, 0.2))
def test_returned_trajectory_drift_is_within_the_gate(engine, v0, v1, v2, t1, step):
    # the gates and conservation_drift read one drift series, so what
    # integrate_quadratic returns reports at most C_DRIFT_LIMIT; steps this
    # large make many draws raise instead
    ivp = QuadraticIVP(0.0, t1, v0, v1, v2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate_quadratic(ivp, step)
    except StepTooLarge:
        return
    dc, da = traj.conservation_drift()
    assert dc <= C_DRIFT_LIMIT and da <= C_DRIFT_LIMIT


def test_drift_series_sums_every_row_in_one_fixed_order():
    # random rows, on which numpy's einsum sums in another order for many,
    # a row whose squares overflow and a NaN row, against plain floats
    rng = np.random.default_rng(5)
    v, v1, v2 = rng.normal(size=(3, 300, 3)) * 10.0 ** rng.integers(-3, 4, size=(3, 300, 1))
    v2[7] = [1e200, -1e200, 3.0]
    v1[11, 1] = math.nan
    traj = QuadraticTrajectory(grid=np.arange(300.0), v=v, v1=v1, v2=v2,
                               C=rng.normal(size=3), c=float(rng.uniform()))
    # each row's drifts, as the scan of that row alone
    scans = [quadratic._drift_python(np.stack([v, v1, v2])[:, k:k + 1], traj.C, traj.c)
             for k in range(300)]
    dc, da = ([scan[j][0] for scan in scans] for j in (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        rows_c = (traj.v2 - np.cross(traj.v1, traj.v) - traj.C).tolist()

    def squared(a0, a1, a2):
        return (a0 * a0 + a1 * a1) + a2 * a2

    np.testing.assert_array_equal(dc, [math.sqrt(squared(*row)) for row in rows_c])
    np.testing.assert_array_equal(da, [abs(squared(*row) - traj.c) for row in v2.tolist()])
    assert math.isinf(dc[7]) and math.isinf(da[7]) and math.isnan(dc[11])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vectors, vectors, vectors, st.floats(0.5, 3.0), st.floats(0.01, 0.2))
@example(FIG1_V0, FIG1_V1, FIG1_V2, 20.0, 1e-3)
def test_integrated_peaks_are_the_numpy_scan_of_the_planes(engine, v0, v1, v2, t1, step):
    # integrate_quadratic's peaks are those of the planes it returns, read
    # in the one pass that writes them: the numpy scan runs within the
    # Python loop only, and not again for the gates or either reader
    calls = []
    scan = quadratic._drift_python
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadratic, "_drift_python", lambda *args: calls.append(args) or scan(*args))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                traj = integrate_quadratic(QuadraticIVP(0.0, t1, v0, v1, v2), step)
        except StepTooLarge:
            return
        traj.conservation_drift(), traj.near_geodesic_gauge()
    assert len(calls) == (engine == "python")
    with np.errstate(over="ignore", invalid="ignore"):
        twin = scan((traj.v, traj.v1, traj.v2), traj.C, traj.c)
    # repr round-trips every float, the sign of a zero included
    assert repr(traj._drift_scan) == repr(twin)


def test_a_hand_built_trajectory_scans_its_planes_once(monkeypatch):
    calls = []
    scan = quadratic._drift_python
    monkeypatch.setattr(quadratic, "_drift_python", lambda *args: calls.append(args) or scan(*args))
    traj = QuadraticTrajectory(grid=np.arange(3.0), v=np.eye(3), v1=np.ones((3, 3)),
                               v2=np.diag([1.0, 2.0, 3.0]), C=np.zeros(3), c=1.0)
    assert traj.near_geodesic_gauge() == (math.sqrt(3.0), 3.0)
    # C(t) = (1, -1, 1), (1, 2, -1), (-1, 1, 3) and c(t) = 1, 4, 9 at the nodes
    assert traj.conservation_drift() == (math.sqrt(11.0), 8.0)
    assert len(calls) == 1


# what a special jet holds: V = V'' = 0, after which V' stays constant and
# |V'| and |V''| tie at every node; a scale past 1e100, whose states
# overflow to inf and then NaN; a NaN entry
_JETS = ("ties", "overflow", "nan")


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 64), st.just(20_000)), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sets(st.sampled_from(_JETS)))
@example(1, 0, True, set())
@example(20_000, 1, True, set())
@example(64, 2, True, {"ties"})
@example(64, 3, False, {"ties", "overflow"})
@example(30, 4, True, {"nan"})
def test_rk4_pass_and_its_peaks_match_the_python_loop_bit_for_bit(n, seed, own, specials):
    # the states and the four (max, first argmax) pairs of the kernel's one
    # pass against the Python loop's, on random jets of sizes 1e-3 to 1e2 at
    # steps up to 0.2, for 1 to 64 steps or the ensemble's 20,000, with the
    # jet's own C and c or drawn ones, and with ties, overflows and NaNs
    steps = require_kernel("rk4")
    rng = np.random.default_rng(seed)
    jet = rng.normal(size=9) * 10.0 ** rng.integers(-3, 3, size=9)
    h = float(rng.uniform(1e-3, 0.2))
    if "ties" in specials:
        jet[[0, 1, 2, 6, 7, 8]] = 0.0
    if "overflow" in specials:
        jet *= 10.0 ** rng.integers(100, 300)
    if "nan" in specials:
        jet[rng.integers(9)] = math.nan
    v, v1, v2 = jet.reshape(3, 3)
    with np.errstate(all="ignore"):
        C, c = ((v2 - np.cross(v1, v), float(_dot(v2, v2))) if own
                else (rng.normal(size=3), float(rng.uniform())))
        ours, twin = np.empty((2, 3, n + 1, 3))
        peaks = steps(jet, h, n, C, c, ours)
        expected = quadratic._rk4_python(jet, h, n, C, c, twin)
    # a NaN of the jet keeps its sign through an operation or loses it to
    # the other NaN operand as the compiler orders the operands, so with
    # one the states are equal up to NaN payloads (and NaN matches NaN);
    # every NaN that a finite jet makes is the one default NaN
    np.testing.assert_array_equal(ours, twin)
    assert "nan" in specials or ours.tobytes() == twin.tobytes()
    assert [k for _, k in peaks] == [k for _, k in expected]
    # every maximum is NaN or a number >= +0.0, so equality (NaN matching
    # NaN) is equality of the bits up to a NaN's payload
    np.testing.assert_array_equal([m for m, _ in peaks], [m for m, _ in expected])
    if specials == {"ties"}:
        assert [k for _, k in peaks[2:]] == [0, 0]


def test_rk4_self_check_covers_ties_a_root_square_split_overflow_and_nan():
    runs, squares = [], []
    with np.errstate(all="ignore"):
        for *args, out in quadratic._rk4_checks():
            out = out.copy()
            runs.append((quadratic._rk4_python(*args, out), out))
            squares.append(_dot(out[1], out[1]))
    # V' constant and V'' = 0 at every node, so |V'| and |V''| peak at node 0
    assert any(np.all(out[1] == out[1, 0]) and not out[2].any() and
               [k for _, k in peaks[2:]] == [0, 0] for peaks, out in runs)
    # the argmax of |V'| is not the argmax of |V'|^2
    assert any(peaks[2][1] != int(np.argmax(sq)) for (peaks, _), sq in zip(runs, squares))
    # states that overflow to inf and turn to NaN, and a NaN maximum
    assert any(np.isinf(out).any() and np.isnan(out).any() for _, out in runs)
    assert any(math.isnan(m) for peaks, _ in runs for m, _ in peaks)
    assert all(not np.isnan(out[:, 0]).any() for _, out in runs)


def _outcome(ivp, step):
    """The state bytes of integrate_quadratic, or its StepTooLarge message."""
    try:
        traj = integrate_quadratic(ivp, step)
    except StepTooLarge as exc:
        return str(exc)
    return np.hstack([traj.v, traj.v1, traj.v2]).tobytes()


scaled = st.tuples(vectors, st.floats(-3.0, 2.0)).map(lambda p: p[0] * 10.0 ** p[1])


@settings(max_examples=100, deadline=None)
@given(scaled, scaled, scaled, st.floats(0.5, 3.0), st.floats(1e-3, 0.2))
def test_kernel_and_python_loop_give_the_same_states_or_message(v0, v1, v2, t1, step):
    # jets of size 1e-3 to 1e2 at steps up to 0.2: many draws overflow or
    # drift past a gate, and both engines must then say the same
    require_kernel("rk4")
    ivp = QuadraticIVP(0.0, t1, v0, v1, v2)
    kernel = _outcome(ivp, step)
    with twins_only("rk4"):
        assert _outcome(ivp, step) == kernel


def _runs_the_python_loop(monkeypatch):
    """integrate_quadratic runs the Python loop, silently, and gives the
    vector form's states bit for bit."""
    calls = []
    python_loop = quadratic._rk4_python
    monkeypatch.setattr(quadratic, "_rk4_python",
                        lambda *args: calls.append(args) or python_loop(*args))
    ivp = fig1_ivp(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_quadratic(ivp, 1e-2)
    assert len(calls) == 1 and _native.kernel("rk4") is None
    assert np.array_equal(np.hstack([traj.v, traj.v1, traj.v2]), rk4_quadratic(ivp, 1e-2))


def test_kernel_is_built_once_into_the_cache_directory(fresh_loader):
    require_kernel("rk4")
    # one built file and no temporary left behind, named for what built it
    built, = (fresh_loader / "cache" / "so3cubics").iterdir()
    assert re.fullmatch(r"rk4-[0-9a-f]{16}\.so", built.name)
    forget_kernels()
    stamp = built.stat().st_mtime_ns
    assert _native.kernel("rk4") is not None
    assert built.stat().st_mtime_ns == stamp


def test_missing_compiler_runs_the_python_loop(fresh_loader, monkeypatch):
    config = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-compiler" if name == "CC" else config(name))
    _runs_the_python_loop(monkeypatch)
    # the temporary the build would have written is gone
    assert not any((fresh_loader / "cache" / "so3cubics").iterdir())


def test_cache_path_that_is_a_file_runs_the_python_loop(fresh_loader, monkeypatch):
    blocker = fresh_loader / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    _runs_the_python_loop(monkeypatch)


def test_failed_self_check_runs_the_python_loop(fresh_loader, monkeypatch):
    # the self-check compares against a Python loop one ulp off in its last state
    python_loop = quadratic._rk4_python
    monkeypatch.setattr(*off_twins()["rk4"])
    assert _native.kernel("rk4") is None
    monkeypatch.setattr(quadratic, "_rk4_python", python_loop)
    _runs_the_python_loop(monkeypatch)


def test_failed_rk4_self_check_gates_by_the_twin(fresh_loader, monkeypatch):
    ivp = QuadraticIVP(0.0, 5.0, [0.0, 0.0, 3.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0])
    with pytest.raises(StepTooLarge) as gated:
        integrate_quadratic(ivp, 0.5)
    forget_kernels()
    # the self-check compares against a twin one ulp off in its last state
    twin = quadratic._rk4_python
    monkeypatch.setattr(*off_twins()["rk4"])
    assert _native.kernel("rk4") is None
    calls = []
    monkeypatch.setattr(quadratic, "_rk4_python", lambda *args: calls.append(args) or twin(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge) as again:
            integrate_quadratic(ivp, 0.5)
    assert len(calls) == 1 and str(again.value) == str(gated.value)


def test_integrate_returns_separate_contiguous_arrays(fig1_trajectory):
    # a caller that writes into one of V, V', V'' cannot change another
    parts = (fig1_trajectory.v, fig1_trajectory.v1, fig1_trajectory.v2)
    for part in parts:
        assert part.dtype == np.float64 and part.flags.c_contiguous
    for a, b in itertools.combinations(parts, 2):
        assert not np.shares_memory(a, b)


def test_integrate_validates_step():
    ivp = fig1_ivp()
    with pytest.raises(ValueError):
        integrate_quadratic(ivp, 0.0)
    with pytest.raises(ValueError):
        integrate_quadratic(ivp, 10.0)


def test_dense_interpolation_matches_fine_grid(fig1_trajectory):
    fine = integrate_quadratic(fig1_ivp(), 5e-4)
    for t in (0.12345, 1.77777, 4.5):
        idx = int(round(t / 5e-4))
        np.testing.assert_allclose(fig1_trajectory.eval(fine.grid[idx]),
                                   fine.v[idx], atol=1e-11)


def _same_floats(a, b) -> bool:
    """Equal element for element, the sign of every zero included."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hermite_matches_scipy_bit_for_bit(data):
    n = data.draw(st.integers(2, 25), label="nodes")
    trailing = data.draw(st.sampled_from([(), (1,), (3,), (3, 3), (4, 3)]), label="trailing")
    gaps = data.draw(hnp.arrays(float, n - 1, elements=st.floats(1e-3, 2.0)))
    x = data.draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    entries = hnp.arrays(float, (n,) + trailing, elements=st.floats(-1e3, 1e3))
    values, slopes = data.draw(entries), data.draw(entries)
    fractions = data.draw(hnp.arrays(float, data.draw(st.integers(1, 20)),
                                     elements=st.floats(0.0, 1.0)))
    times = np.concatenate([x[0] + fractions * (x[-1] - x[0]), x, [x[0], x[-1]]])

    ref = CubicHermiteSpline(x, values, slopes)
    assert _same_floats(hermite(x, values, slopes, times), ref(times))
    for t in (times[0], x[-1]):
        assert hermite(x, values, slopes, t).shape == trailing
        assert _same_floats(hermite(x, values, slopes, t), ref(t))
    grid = times[: 2 * (times.size // 2)].reshape(2, -1)
    assert _same_floats(hermite(x, values, slopes, grid), ref(grid))


def test_hermite_matches_scipy_off_the_grid_and_on_signed_zeros():
    x = np.array([0.0, 0.5, 1.25, 2.0])
    values, slopes = np.sin(x), np.cos(x)
    times = np.array([-3.0, -1e-300, 2.0 + 1e-12, 40.0, np.nan])
    assert _same_floats(hermite(x, values, slopes, times),
                        CubicHermiteSpline(x, values, slopes)(times))
    # at t = 0 every term of the sum is -0.0; scipy's sum starts from 0.0
    x, values, slopes = np.array([0.0, 1.0]), np.array([-0.0, -3.0]), np.array([-1.0, -6.0])
    ours = hermite(x, values, slopes, 0.0)
    assert _same_floats(ours, CubicHermiteSpline(x, values, slopes)(0.0))
    assert not np.signbit(ours)


@pytest.mark.parametrize("x, y, m, match", [
    ([0.0, 1.0, 1.0], np.zeros(3), np.zeros(3), "nodes"),             # repeated node
    ([0.0, 2.0, 1.0], np.zeros(3), np.zeros(3), "nodes"),             # decreasing
    ([0.0, np.nan, 1.0], np.zeros(3), np.zeros(3), "nodes"),          # NaN node
    ([0.0], np.zeros(1), np.zeros(1), "nodes"),                       # one node
    ([[0.0, 1.0]], np.zeros((1, 2)), np.zeros((1, 2)), "nodes"),      # 2-D nodes
    ([0.0, 1.0, 2.0], np.zeros((2, 3)), np.zeros((2, 3)), "shape"),   # too few values
    ([0.0, 1.0, 2.0], np.zeros((3, 3)), np.zeros((3, 2)), "shape"),   # slopes differ
    ([0.0, 1.0, 2.0], np.zeros(3), np.zeros((3, 1)), "shape"),        # slopes differ
])
def test_hermite_rejects_bad_nodes_and_shapes(x, y, m, match):
    with pytest.raises(ValueError, match=match):
        hermite(x, y, m, 0.5)


@pytest.mark.parametrize("field, value, match", [
    ("grid", np.zeros(1), r"grid has shape \(1,\); expected \(n \+ 1,\) with n >= 1"),
    ("grid", np.zeros((5, 1)), r"grid has shape \(5, 1\); expected"),
    ("v", np.zeros((5, 2)), r"v has shape \(5, 2\); expected \(5, 3\)"),
    ("v1", np.zeros((5, 4)), r"v1 has shape \(5, 4\); expected \(5, 3\)"),
    ("v2", np.zeros((4, 3)), r"v2 has shape \(4, 3\); expected \(5, 3\)"),
    ("C", np.zeros(2), r"C has shape \(2,\); expected \(3,\)"),
    ("C", np.zeros((1, 3)), r"C has shape \(1, 3\); expected \(3,\)"),
])
def test_trajectory_refuses_planes_of_the_wrong_shape(field, value, match):
    # one typed error at construction, before numpy meets the planes in
    # the drift scan, the Magnus pass or the reconstruction
    planes = {"grid": np.arange(5.0), "v": np.ones((5, 3)), "v1": np.zeros((5, 3)),
              "v2": np.ones((5, 3)), "C": np.ones(3)}
    with pytest.raises(ValueError, match=match):
        QuadraticTrajectory(**{**planes, field: value}, c=1.0)


def test_trajectory_checks_its_grid_as_hermite_checks_its_nodes():
    # one check, one message: repeated, swapped, NaN and infinite nodes
    zeros = np.zeros((3, 3))
    for grid in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                 [-np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="nodes must be a strictly increasing") as hermites:
            hermite(grid, zeros, zeros, 0.5)
        with pytest.raises(ValueError, match="nodes must be a strictly increasing") as ours:
            QuadraticTrajectory(grid=np.array(grid), v=zeros, v1=zeros, v2=zeros,
                                C=np.zeros(3), c=0.0)
        assert str(ours.value) == str(hermites.value)


@pytest.mark.parametrize("spoil, node", [
    (lambda grid: np.put(grid, 1234, grid[1233]), 1234),
    (lambda grid: np.put(grid, [1233, 1234], grid[[1234, 1233]]), 1234),
    (lambda grid: np.put(grid, 1234, math.nan), 1234),
    (lambda grid: np.put(grid, -1, math.inf), 5000),
], ids=["repeated", "swapped", "nan", "infinite-end"])
def test_a_grid_that_is_not_finite_and_increasing_is_refused_at_construction(
        fig1_trajectory, spoil, node):
    # a repeated or swapped node once reached the reconstruction, which
    # returned rotations for it; a NaN node showed as a NaN midpoint there
    traj = fig1_trajectory
    grid = traj.grid.copy()
    spoil(grid)
    shown = re.escape(f"; node {node} is {float(grid[node])!r}")
    with pytest.raises(ValueError, match=rf"^nodes must be a strictly increasing .*{shown}$"):
        QuadraticTrajectory(grid=grid, v=traj.v, v1=traj.v1, v2=traj.v2, C=traj.C, c=traj.c)


def test_a_trajectory_holds_its_arrays_as_contiguous_float64(fig1_trajectory):
    traj = fig1_trajectory
    # the planes of integrate_quadratic's buffer are kept, not copied
    assert traj.v.base is traj.v1.base is traj.v2.base is not None
    rows = np.arange(15.0).reshape(5, 3)
    held = QuadraticTrajectory(grid=np.arange(5, dtype=np.float32), v=np.asfortranarray(rows),
                               v1=rows[:, ::-1], v2=rows.astype(int), C=[1, 2, 3], c=1.0)
    for name in ("grid", "v", "v1", "v2", "C"):
        array = getattr(held, name)
        assert array.dtype == np.float64 and array.flags.c_contiguous
    assert held.v1.tolist() == rows[:, ::-1].tolist()


def test_jet_rows_are_eval_bit_for_bit(fig1_trajectory):
    traj = fig1_trajectory
    shifted = np.linspace(traj.t0, traj.t1, 101) + 1.234e-4
    # the last shifted time lies past t1, where both evaluators refuse
    for read in (traj.jet, lambda t: traj.eval(t, 2)):
        with pytest.raises(OutOfDomain, match="time 5.0001234 "):
            read(shifted)
    times = np.concatenate([shifted[:-1], traj.grid[::250], [traj.t1]])
    jet = traj.jet(times)
    assert jet.shape == times.shape + (3, 3)
    slopes = (traj.v1, traj.v2, traj.third_derivative_grid())
    for d, (values, slope) in enumerate(zip((traj.v, traj.v1, traj.v2), slopes)):
        assert _same_floats(jet[..., d, :], traj.eval(times, d))
        # the per-derivative scipy splines the jet interpolant replaced
        assert _same_floats(jet[..., d, :], CubicHermiteSpline(traj.grid, values, slope)(times))
    assert _same_floats(traj.eval(times, 3), np.cross(jet[..., 2, :], jet[..., 0, :]))
    assert traj.jet(1.5).shape == (3, 3)
    assert _same_floats(traj.jet(1.5)[2], traj.eval(1.5, 2))


@cache
def _nonuniform_trajectory():
    """The figure3 trajectory kept at hand-picked nodes whose gaps span
    1e-3 to 1.2: node values of a solution on a non-uniform grid."""
    fine = integrate_quadratic(fig3_ivp(0.05, t1=5.0), 1e-3)
    keep = [0, 1, 3, 4, 10, 35, 36, 200, 201, 850, 2050, 2400, 2401, 3333, 4500, 4999, 5000]
    return QuadraticTrajectory(grid=fine.grid[keep], v=fine.v[keep], v1=fine.v1[keep],
                               v2=fine.v2[keep], C=fine.C, c=fine.c)


@pytest.mark.parametrize("theta", [0.0, _GAUSS_NODES[0], 0.5, _GAUSS_NODES[1], 1.0])
@pytest.mark.parametrize("deriv", [0, 1, 2])
@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
def test_at_fraction_matches_eval_at_the_same_fraction_of_every_step(
        fig1_trajectory, grid, deriv, theta):
    traj = fig1_trajectory if grid == "uniform" else _nonuniform_trajectory()
    got = traj.at_fraction(theta, deriv)
    ref = traj.eval(traj.grid[:-1] + theta * np.diff(traj.grid), deriv)
    assert got.shape == (len(traj.grid) - 1, 3)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    if theta == 0.0:
        assert np.array_equal(got, (traj.v, traj.v1, traj.v2)[deriv][:-1])


@pytest.mark.parametrize("theta, deriv", [(-0.1, 0), (1.5, 0), (math.nan, 0), (0.5, 3)])
def test_at_fraction_rejects_fractions_off_the_step_and_high_derivatives(
        fig1_trajectory, theta, deriv):
    with pytest.raises(ValueError):
        fig1_trajectory.at_fraction(theta, deriv)


@cache
def _slope_trajectories():
    """Trajectories on a uniform grid, a non-uniform grid and a 2-node grid."""
    uneven = _nonuniform_trajectory()
    ends = [0, -1]
    two = QuadraticTrajectory(grid=uneven.grid[ends], v=uneven.v[ends], v1=uneven.v1[ends],
                              v2=uneven.v2[ends], C=uneven.C, c=uneven.c)
    return {"uniform": integrate_quadratic(fig1_ivp(1.0), 1e-2), "nonuniform": uneven,
            "two nodes": two}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["uniform", "nonuniform", "two nodes"]), st.data())
def test_eval_second_derivative_is_hermite_with_the_whole_grid_slopes(grid, data):
    # eval(t, 2) forms [V'', V] at the bracketing nodes only; its bytes are
    # those of the interpolant with third_derivative_grid() as slopes
    kept = _slope_trajectories()[grid]
    traj = QuadraticTrajectory(grid=kept.grid, v=kept.v, v1=kept.v1, v2=kept.v2, C=kept.C,
                               c=kept.c)
    times = data.draw(st.lists(st.one_of(st.floats(traj.t0, traj.t1),
                                         st.sampled_from(list(traj.grid))), max_size=12))
    times = np.array([*times, traj.t0, traj.t1])
    cases = [times, times[0], times[-1], times.reshape(1, -1), np.zeros(0), np.zeros((2, 0))]
    got = [traj.eval(t, 2) for t in cases]
    assert "_v3" not in traj.__dict__
    for t, ours in zip(cases, got):
        ref = hermite(traj.grid, traj.v2, traj.third_derivative_grid(), t)
        assert ours.shape == ref.shape == np.shape(t) + (3,)
        assert ours.tobytes() == ref.tobytes()


def test_eval_and_jet_leave_the_whole_grid_third_derivative_uncomputed():
    traj = integrate_quadratic(fig1_ivp(1.0), 1e-2)
    times = np.linspace(traj.t0, traj.t1, 41)
    for read in (lambda t: traj.eval(t, 2), lambda t: traj.eval(t, 3), traj.jet):
        read(times)
        read(0.5)
    assert "_v3" not in traj.__dict__


def test_third_derivative_grid_is_computed_once_and_read_only():
    traj = integrate_quadratic(fig1_ivp(1.0), 1e-2)
    v3 = traj.third_derivative_grid()
    assert traj.third_derivative_grid() is v3
    assert not v3.flags.writeable
    assert _same_floats(v3, np.cross(traj.v2, traj.v))


def test_near_geodesic_gauge(fig1_trajectory):
    sup_v1, sup_v2 = fig1_trajectory.near_geodesic_gauge()
    assert 0 < sup_v1 < 0.05
    assert 0 < sup_v2 < 0.05


# ------------------------------------------------------------ domain contract

@cache
def _fig3_pieces():
    """figure3's [0, 10] trajectory at step 0.01 and its reconstruction input."""
    traj = integrate_quadratic(fig3_ivp(0.05), 0.01)
    return traj, ReconstructionInput(traj, np.eye(3))


# the band of accepted times around [0, 10]
_SLACK = DOMAIN_ULPS * math.ulp(10.0)
_LO, _HI = -_SLACK, 10.0 + _SLACK
_OFF = [math.nan, math.inf, -math.inf, 1e150, -1e150, 50.0, -3.0,
        math.nextafter(_HI, math.inf), math.nextafter(_LO, -math.inf)]
_ON = [0.0, 10.0, _LO, _HI, math.nextafter(10.0, math.inf), 5.0]


def _unchecked(name, t):
    """What the evaluator `name` computes at t, read through `hermite` alone."""
    traj, recon = _fig3_pieces()
    if name == "phase":
        return hermite(traj.grid, recon._quadrature.phase, recon._quadrature.slopes, t)
    nodes = (traj.v, traj.v1, traj.v2, traj.third_derivative_grid())
    rows = [hermite(traj.grid, nodes[d], nodes[d + 1], t) for d in range(3)]
    if name == "jet":
        return np.stack(rows, axis=-2)
    return np.cross(rows[2], rows[0]) if name == 3 else rows[name]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_OFF + _ON), st.floats(0.0, 10.0)), min_size=1,
                max_size=4),
       st.sampled_from([0, 1, 2, 3, "jet", "phase"]), st.booleans())
def test_trajectory_evaluators_take_times_in_the_interval_only(times, name, scalar):
    traj, recon = _fig3_pieces()
    t = np.float64(times[0]) if scalar else np.array(times)
    read = {"jet": traj.jet, "phase": lambda t: rotation_phase(recon, t)}.get(
        name, lambda t: traj.eval(t, name))
    bad = [x for x in np.ravel(t) if not _LO <= x <= _HI]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if bad:
            with pytest.raises(OutOfDomain, match=re.escape(f"time {float(bad[0])!r} ")):
                read(t)
            return
        out = read(t)
    assert np.all(np.isfinite(out))
    assert _same_floats(np.asarray(out), _unchecked(name, t))


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
@pytest.mark.parametrize("name, trailing", [
    (0, (3,)), (1, (3,)), (2, (3,)), (3, (3,)), ("jet", (3, 3)), ("phase", ()),
    ("hermite", ()), ("hermite", (3,)),
])
def test_trajectory_evaluators_take_empty_time_arrays(name, trailing, shape):
    # results of shape S + trailing, as for any other array of times
    traj, recon = _fig3_pieces()
    t = np.zeros(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name == "hermite":
            column = slice(None) if trailing else 0
            out = hermite(traj.grid, traj.v[:, column], traj.v1[:, column], t)
        else:
            read = {"jet": traj.jet, "phase": lambda t: rotation_phase(recon, t)}.get(
                name, lambda t: traj.eval(t, name))
            out = read(t)
    assert out.shape == shape + trailing
    assert out.dtype == np.float64


@pytest.mark.parametrize("t0, t1, first_bad", [
    (20.0, 30.0, 20.0), (math.nan, 5.0, math.nan), (0.0, math.inf, math.inf),
    (-1e150, 5.0, -1e150), (2.0, math.nextafter(_HI, math.inf), math.nextafter(_HI, math.inf)),
    (2.0, 8.0, None), (_LO, _HI, None),
])
def test_integrate_cubic_takes_a_subinterval_of_its_trajectory(t0, t1, first_bad, engine):
    traj, _ = _fig3_pieces()
    if first_bad is not None:
        with pytest.raises(OutOfDomain, match=re.escape(f"time {first_bad!r} ")):
            integrate_cubic(np.eye(3), traj, 0.01, t0, t1)
        return
    curve = integrate_cubic(np.eye(3), traj, 0.01, t0, t1)
    assert curve.grid[0] == t0 and curve.grid[-1] == t1
    assert curve.max_rotation_error() < 1e-13


# ----------------------------------------------------------- integrate_cubic

def test_integrate_cubic_zero_velocity(engine):
    x0 = rot_exp([0.2, 0.1, -0.4])
    rt = integrate_cubic(x0, lambda t: np.zeros(3), 1e-2, t0=0.0, t1=1.0)
    assert np.max(np.abs(rt.rotations - x0)) < 1e-14


def test_integrate_cubic_refuses_a_step_whose_squared_norm_overflows(engine):
    # W = 0.1 (1e200, 0, 0) is finite, but |W|^2 is not: the same ValueError
    # as a W that is not finite, at any step, naming the first such step
    # and its time, and no float warning
    for first_bad, where in ((0.0, "step index 0, t=0.0"), (0.55, "step index 5, t=0.5")):
        velocity = lambda t: np.array([1e200 if t > first_bad else 1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"non-finite squared norm at {where}$"):
                integrate_cubic(np.eye(3), velocity, 0.1, t0=0.0, t1=1.0)
    # just below the overflow the steps are rotations
    rt = integrate_cubic(np.eye(3), lambda t: np.array([1e154, 0.0, 0.0]), 0.1, t0=0.0, t1=1.0)
    assert rt.max_rotation_error() < 1e-12


def test_integrate_cubic_constant_velocity_is_subgroup(engine):
    d = np.array([0.3, -0.5, 0.8])
    x0 = rot_exp([0.1, 0.7, 0.2])
    rt = integrate_cubic(x0, lambda t: d, 1e-3, t0=0.0, t1=2.0)
    for t in (0.5, 1.0, 2.0):
        expected = x0 @ rot_exp(t * d)
        np.testing.assert_allclose(rt.at_time(t), expected, atol=1e-9)


def test_integrate_cubic_constant_velocity_is_exact(engine):
    # with a constant velocity every Magnus step is the exact exponential
    d = np.array([0.3, -0.5, 0.8])
    x0 = rot_exp([0.1, 0.7, 0.2])
    rt = integrate_cubic(x0, lambda t: d, 1e-2, t0=0.0, t1=2.0)
    expected = np.einsum("ij,kjl->kil", x0, rot_exp(np.multiply.outer(rt.grid, d)))
    assert np.max(np.abs(rt.rotations - expected)) < 1e-13


@pytest.mark.parametrize("ivp", [fig1_ivp(), fig3_ivp(0.05, t1=5.0)], ids=["figure1", "figure3"])
def test_integrate_cubic_matches_rk4_oracle(ivp, engine):
    traj = integrate_quadratic(ivp, 1e-3)
    rt = integrate_cubic(np.eye(3), traj, 1e-3)
    ref = rk4_rotation(np.eye(3), traj, 2.5e-4)[::4]
    assert np.max(np.linalg.norm(rt.rotations - ref, axis=(1, 2))) < 1e-10
    assert rt.max_rotation_error() < 1e-12


def test_integrate_cubic_fourth_order(engine):
    # x(t) = exp(t a) exp(t b) has the body velocity subgroup_product_velocity
    a = np.array([0.7, -0.2, 0.4])
    b = np.array([0.1, 0.9, -0.5])
    exact = rot_exp(2.0 * a) @ rot_exp(2.0 * b)
    errs = [np.linalg.norm(integrate_cubic(np.eye(3), lambda t: subgroup_product_velocity(a, b, t),
                                           h, t0=0.0, t1=2.0).rotations[-1] - exact)
            for h in (0.1, 0.05)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 17, 24, 25, 26, 997, 5000])
def test_integrate_cubic_blocked_product_matches_sequential(n, engine):
    # a velocity that is constant on each step makes every Magnus step
    # exactly rot_exp(h w_k): both Gauss nodes read w_k and the commutator
    # vanishes, so the steps are known and only the running product differs
    rng = np.random.default_rng(n)
    w = rng.normal(size=(n, 3)) * n
    x0 = rot_exp([0.4, -1.1, 0.6])
    rt = integrate_cubic(x0, lambda t: w[int(t * n)], 1.0 / n, t0=0.0, t1=1.0)
    ref = sequential_product(x0, rot_exp((1.0 / n) * w))
    assert rt.rotations.shape == (n + 1, 3, 3)
    assert np.max(np.linalg.norm(rt.rotations - ref, axis=(1, 2))) < 1e-13
    assert np.array_equal(rt.rotations[0], x0)
    assert rt.max_rotation_error() < 1e-13


def test_integrate_cubic_on_the_trajectory_grid_matches_the_callable_path(engine):
    # on its own grid a trajectory is read at the Gauss fractions of every
    # step; a callable reads the same cubics through eval at h-spaced times
    traj = integrate_quadratic(fig3_ivp(0.05, t1=2.0), 1e-3)
    x0 = rot_exp([0.3, -0.2, 0.9])
    fast = integrate_cubic(x0, traj, 1e-3)
    slow = integrate_cubic(x0, lambda t: traj.eval(t), 1e-3, t0=traj.t0, t1=traj.t1)
    assert np.array_equal(fast.grid, traj.grid)
    assert np.max(np.abs(fast.rotations - slow.rotations)) < 1e-13
    assert np.array_equal(fast.rotations[0], x0)


def test_integrate_cubic_left_invariance(fig1_trajectory, engine):
    g = rot_exp([0.3, -0.2, 0.9])
    base = integrate_cubic(np.eye(3), fig1_trajectory, 1e-3)
    moved = integrate_cubic(g, fig1_trajectory, 1e-3)
    translated = np.einsum("ij,kjl->kil", g, base.rotations)
    assert np.max(np.abs(moved.rotations - translated)) < 1e-10


def test_integrate_cubic_rejects_bad_start(fig1_trajectory, engine):
    with pytest.raises(ValueError):
        integrate_cubic(1.5 * np.eye(3), fig1_trajectory, 1e-3)


@pytest.mark.parametrize("t1", [5.0, 50.0], ids=["rot-long", "long-horizon"])
def test_integrate_cubic_stays_within_rounding_of_the_matmul_product(t1, engine):
    # the 5,000 steps of the bench's rot-long and the 50,000 of CI's
    # long-horizon cubic, against the same steps in matmul's products
    # (measured 6.6e-15 and 2.5e-14; defects 1.4e-14 and 3.3e-14)
    traj = integrate_quadratic(fig3_ivp(0.05, t1=t1), 1e-3)
    x0 = rot_exp([0.3, -0.2, 0.9])
    rt = integrate_cubic(x0, traj, 1e-3)
    _, h, _ = quadratic._uniform_grid(traj.t0, traj.t1, 1e-3)
    va, vb = (traj.at_fraction(node) for node in _GAUSS_NODES)
    omega = (0.5 * h) * (va + vb) - (quadratic._MAGNUS_COMMUTATOR * h * h) * np.cross(vb, va)
    ref = matmul_running_product(x0, rot_exp(omega))
    assert np.max(np.linalg.norm(rt.rotations - ref, axis=(1, 2))) <= 1e-13
    assert rt.max_rotation_error() <= 1e-13
    assert np.array_equal(rt.rotations[0], x0)


def _magnus_outcome(magnus, *args):
    """The rotation bytes of a Magnus pass and the bytes of its largest
    defect, or its ValueError message."""
    try:
        rotations, worst = magnus(*args)
    except ValueError as exc:
        return str(exc)
    return rotations.tobytes(), np.float64(worst).tobytes()


# an entry of va or vb that makes its step's W not finite, or finite with
# an overflowing squared norm (1e200, which no other entry cancels): its
# step (modulo n), its column of (va, vb) and its value
bad_entries = st.tuples(st.integers(0, 2 ** 31), st.integers(0, 5),
                        st.sampled_from([math.nan, math.inf, -math.inf, 1e200]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 300), st.just(5000)), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 2.0), st.floats(-12.0, 3.0), st.lists(bad_entries, max_size=2))
@example(1, 0, 2.0, 3.0, [])
@example(5000, 1, 1e-3, -12.0, [(17, 4, math.nan)])
@example(17, 2, 0.5, 0.0, [(0, 0, math.inf), (9, 1, -math.inf)])
@example(17, 3, 2.0, 0.0, [(16, 3, 1e200)])
def test_magnus_pass_matches_the_numpy_twin_bit_for_bit(n, seed, h, low, bad):
    # every step is zero (va = vb = 0), single (vb = 0 and |W| = 10^U(low, 3)
    # up to rounding) or a pair (random va and vb, |W| up to about 2e2); a
    # NaN or infinite entry makes both engines raise rot_exp's ValueError
    magnus = require_kernel("magnus")
    rng = np.random.default_rng(seed)
    x0 = rot_exp(rng.normal(size=3))
    kind = rng.integers(0, 3, size=n)
    scale = (10.0 ** rng.uniform(low, 3.0, size=n))[:, None]
    va, vb = rng.normal(size=(2, n, 3))
    va[kind == 1] *= 2.0 * scale[kind == 1] / (h * np.linalg.norm(va[kind == 1], axis=1)[:, None])
    va[kind == 2] *= np.minimum(scale[kind == 2], 30.0) / h
    vb[kind == 2] *= np.minimum(scale[kind == 2], 30.0) / h
    va[kind == 0] = 0.0
    vb[kind != 2] = 0.0
    for k, column, value in bad:
        (va, vb)[column // 3][k % n, column % 3] = value
    grid = 0.5 + h * np.arange(n + 1.0)
    ours = _magnus_outcome(magnus, x0, va, vb, h, grid)
    assert ours == _magnus_outcome(quadratic._magnus_python, x0, va, vb, h, grid)
    if bad:
        # every bad entry makes its own step's W or squared norm non-finite
        k = min(k % n for k, _, _ in bad)
        assert ours == ("Magnus vector W has a non-finite squared norm at step index "
                        f"{k}, t={float(grid[k])!r}")
    else:
        rotations = np.frombuffer(ours[0]).reshape(n + 1, 3, 3)
        worst = rotation_error(rotations)
        assert ours[1] == np.float64(worst).tobytes()
        assert np.array_equal(rotations[0], x0) and worst < 1e-12


def test_magnus_self_check_covers_block_sizes_and_angles():
    # step counts 1 to 17 (block sizes 1 to 5, the twin's last block padded
    # or not), and every angle of _CHECK_MAGNUS_W as a W of its own
    cases = quadratic._magnus_checks()
    counts = {len(va) for _, va, _, _, _ in cases}
    assert counts == {1, 2, 3, 4, 5, 9, 10, 17}
    sizes = {n: math.isqrt(n - 1) + 1 for n in counts}
    assert {n % sizes[n] == 0 for n in counts if sizes[n] > 1} == {True, False}
    norms = [math.hypot(*row) for _, va, vb, h, _ in cases if h == 2.0
             for row, zero in zip(va.tolist(), ~vb.any(axis=1)) if zero]
    for angle in quadratic._CHECK_MAGNUS_W:
        assert any(abs(norm - angle) <= 1e-15 * angle for norm in norms), angle
    # passes that end on a NaN step and on a finite W whose squared norm
    # overflows, where both engines raise
    assert any(not np.all(np.isfinite(va)) for _, va, _, _, _ in cases)
    assert any(np.all(np.isfinite(va)) and np.max(np.abs(va)) > 1e154
               for _, va, _, _, _ in cases)
    # every grid is the steps' own
    assert all(np.array_equal(grid, h * np.arange(len(va) + 1.0)) for _, va, _, h, grid in cases)


def _defect_terms(rotations):
    """|R^T R - I| at (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2) and
    |det R - 1| of each rotation, by matmul and np.linalg: shape (n + 1, 7)."""
    gram = np.swapaxes(rotations, 1, 2) @ rotations - np.eye(3)
    rows, cols = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    return np.abs(np.column_stack([gram[:, rows, cols], np.linalg.det(rotations) - 1.0]))


def test_magnus_self_check_places_the_largest_defect():
    # each of the seven defect terms is the largest of some case, by a
    # margin far above rounding; one case has its largest defect at row 0
    # alone (x0's, which a running maximum started past x0 misses), one at
    # a single row past the first block; and one has a NaN defect before
    # a last row of infinite ones, where NaN is the largest, as in np.max
    terms, at_row_0, later, nan_first = set(), False, False, False
    for x0, va, vb, h, grid in quadratic._magnus_checks():
        with np.errstate(all="ignore"):
            try:
                rotations, worst = quadratic._magnus_python(x0, va, vb, h, grid)
            except ValueError:
                continue
            defects, last = _defect_terms(rotations), rotation_error(rotations[-1])
        if math.isnan(worst):
            nan_first |= last == math.inf
            continue
        by_term, by_row = defects.max(axis=0), defects.max(axis=1)
        top = np.sort(by_term)
        if top[-1] > 1e-12 and top[-1] > (1.0 + 1e-6) * top[-2]:
            terms.add(int(np.argmax(by_term)))
        row = int(np.argmax(by_row))
        alone = by_row[row] > 1e-12 and by_row[row] > (1.0 + 1e-6) * np.delete(by_row, row).max()
        at_row_0 |= alone and row == 0
        later |= alone and (row - 1) // (math.isqrt(len(va) - 1) + 1) >= 1
    assert terms == set(range(7)) and at_row_0 and later and nan_first


def test_failed_magnus_self_check_runs_the_twin(fresh_loader, monkeypatch):
    traj = integrate_quadratic(fig1_ivp(1.0), 1e-2)
    expected = integrate_cubic(np.eye(3), traj, 1e-2).rotations
    forget_kernels()
    # the self-check compares against a twin one ulp off in its last entry
    twin = quadratic._magnus_python
    monkeypatch.setattr(*off_twins()["magnus"])
    assert _native.kernel("magnus") is None
    calls = []
    monkeypatch.setattr(quadratic, "_magnus_python",
                        lambda *args: calls.append(args) or twin(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = integrate_cubic(np.eye(3), traj, 1e-2)
    assert len(calls) == 1 and curve.rotations.tobytes() == expected.tobytes()
    assert curve.max_rotation_error() == rotation_error(expected)


@pytest.mark.parametrize("velocity", ["trajectory", "callable"])
def test_magnus_pass_matches_rotation_error_in_the_defect_it_returns(velocity, engine, monkeypatch):
    # max_rotation_error() of an integrated curve is the pass's own value,
    # bit for bit rotation_error's, with no second pass over the rotations;
    # x0 is 2e-9 off the group, so the defect is more than rounding
    traj = integrate_quadratic(fig3_ivp(0.05, t1=2.0), 1e-3)
    x0 = rot_exp([0.3, -0.2, 0.9]) * (1.0 + 1e-9)
    if velocity == "trajectory":
        rt = integrate_cubic(x0, traj, 1e-3)
    else:
        rt = integrate_cubic(x0, lambda t: traj.eval(t), 1e-3, t0=0.0, t1=2.0)
    expected = rotation_error(rt.rotations)
    calls = []
    monkeypatch.setattr(quadratic, "rotation_error", lambda r: calls.append(r) or expected)
    assert rt.max_rotation_error().hex() == expected.hex() and not calls
    assert 1e-9 < expected < 1e-8


def test_hand_built_rotation_trajectory_takes_rotation_error_once(monkeypatch):
    rotations = rot_exp(np.outer(np.linspace(0.0, 1.0, 5), [0.3, -0.2, 0.9]))
    rotations[2, 0, 1] += 3e-9
    rt = RotationTrajectory(grid=np.linspace(0.0, 1.0, 5), rotations=rotations)
    calls = []
    monkeypatch.setattr(quadratic, "rotation_error",
                        lambda r: calls.append(r) or rotation_error(r))
    assert rt.max_rotation_error().hex() == rotation_error(rotations).hex()
    assert rt.max_rotation_error().hex() == rotation_error(rotations).hex()
    assert len(calls) == 1 and calls[0] is rotations


def test_rotation_trajectory_lookup(fig1_trajectory):
    rt = integrate_cubic(np.eye(3), fig1_trajectory, 1e-2)
    np.testing.assert_array_equal(rt.at_time(0.0), rt.rotations[0])
    np.testing.assert_array_equal(rt.at_time(5.0), rt.rotations[-1])
    with pytest.raises(ValueError):
        rt.at_time(0.005)
    # abs(nan) > tol is False, which once let a NaN time pick the first node
    with pytest.raises(ValueError, match="not a grid node"):
        rt.at_time(float("nan"))
    assert rt.second_rows().shape == (len(rt.grid), 3)


@pytest.mark.parametrize("t", [math.nan, 5.0, -0.5, 0.25])
def test_rotation_trajectory_lookup_raises_out_of_domain(t):
    # NaN, past either end, and on the interval between the two nodes
    rt = integrate_cubic(np.eye(3), lambda s: np.array([1.0, 0.0, 0.0]), 1.0, 0.0, 1.0)
    assert len(rt.grid) == 2
    with pytest.raises(OutOfDomain, match="is not a grid node"):
        rt.at_time(t)


def test_rotation_trajectory_lookup_far_from_the_origin():
    # at t ~ 1e7 a tolerance of 1e-9 |t1| = 0.01 once took a time half a step
    # off its nearest node; the same offset on [0, 1] always raised
    rt = integrate_cubic(np.eye(3), lambda s: np.array([1.0, 0.0, 0.0]), 1e-3, 1e7, 1e7 + 1)
    with pytest.raises(OutOfDomain, match="is not a grid node"):
        rt.at_time(1e7 + 0.0105)
    node = float(rt.grid[11])
    for t in (node, math.nextafter(node, math.inf)):
        np.testing.assert_array_equal(rt.at_time(t), rt.rotations[11])


# --------------------------------------------------- subgroup product curves

def test_product_velocity_at_zero_is_sum():
    a = np.array([0.3, 0.1, -0.7])
    b = np.array([-0.2, 0.5, 0.4])
    np.testing.assert_allclose(subgroup_product_velocity(a, b, 0.0), a + b, atol=1e-15)


def test_product_velocity_trivial_second_factor():
    a = np.array([0.3, 0.1, -0.7])
    for t in (0.0, 0.7, 2.0):
        np.testing.assert_allclose(subgroup_product_velocity(a, np.zeros(3), t), a,
                                   atol=1e-15)


def test_product_velocity_matches_finite_difference_reduction():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    t = np.pi / 2
    h = 1e-6
    x = lambda s: rot_exp(s * a) @ rot_exp(s * b)
    dx = (x(t + h) - x(t - h)) / (2 * h)
    m = x(t).T @ dx
    fd = np.array([m[2, 1], m[0, 2], m[1, 0]])
    np.testing.assert_allclose(subgroup_product_velocity(a, b, t), fd, atol=1e-9)


# --------------------------------------------------------- quadratic_residual

def test_residual_of_integrated_trajectory(fig1_trajectory):
    grid = fig1_trajectory.grid[::10]
    assert quadratic_residual(fig1_trajectory, grid) < 1e-6


def test_residual_orthogonal_product_curve():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 2.0, 0.0])
    grid = np.arange(0.0, 1.0 + 1e-12, 5e-3)
    curve = lambda t: subgroup_product_velocity(a, b, t)
    assert quadratic_residual(curve, grid) < 1e-6


def test_residual_non_orthogonal_product_curve():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([1.0, 1.0, 0.0])
    grid = np.arange(0.0, 1.0 + 1e-12, 5e-3)
    curve = lambda t: subgroup_product_velocity(a, b, t)
    assert quadratic_residual(curve, grid) >= 0.1


def test_residual_constant_curve_is_zero():
    # zero up to the noise floor of the h^3-divided difference stencil
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    assert quadratic_residual(lambda t: np.array([0.4, -0.1, 0.9]), grid) < 1e-9


def test_residual_requires_uniform_grid():
    with pytest.raises(ValueError):
        quadratic_residual(lambda t: np.zeros(3), np.array([0, 1, 2, 4, 5, 6, 7.0]))
