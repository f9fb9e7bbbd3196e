"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and
enforces the stated tolerance and runtime budget.  Criteria:

1. conservation of (C, c) on a long integration, with the reference
   bracket constant reproduced;
2. quadrature reconstruction agrees with direct integration on random
   non-degenerate problems;
3. convergence orders of the approximants (ratio bands for halved deltas);
4. parameter-fit regression against the reference table;
5. qualitative error orderings of the figure families;
6. the orthogonality criterion for products of one-parameter subgroups;
7. closed forms agree with brute-force quadrature;
8. every emitted rotation satisfies the group invariants.
"""

import time

import numpy as np
import pytest

from conftest import FIG1_CONSTANT, FIG3_BASE, fig1_ivp, fig3_ivp
from so3cubics.algebra import (frame_from_axis, frame_from_pair, plane_rotation,
                               rot_exp, rotation_error)
from so3cubics.approximants import (first_approximant, fit_params, second_approximant,
                                    second_correction, taylor2_baseline)
from so3cubics.quadratic import QuadraticIVP, integrate_cubic, integrate_quadratic
from so3cubics.reconstruction import (ReconstructionInput, approx_cubic,
                                      reconstruct_cubic, rotation_phase,
                                      rotation_phase_approx, so3_distance)

from oracles import (axial_rotation, brute_force_correction, integrate_poly_axial,
                     quadratic_residual, renormalize, subgroup_product_velocity)


def report(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def long_trajectory():
    return integrate_quadratic(fig1_ivp(t1=25.0), 1e-3)


def test_criterion_1_conservation():
    start = time.perf_counter()
    traj = integrate_quadratic(fig1_ivp(t1=25.0), 1e-3)
    c_drift, a_drift = traj.conservation_drift()
    const_err = float(np.max(np.abs(traj.C - FIG1_CONSTANT)))
    elapsed = time.perf_counter() - start
    ok = c_drift <= 1e-8 and a_drift <= 1e-8 and const_err <= 1e-7 and elapsed < 5.0
    report("criterion 1 (conservation)", ok,
           f"drift C {c_drift:.3g}, drift c {a_drift:.3g}, "
           f"constant err {const_err:.3g}, {elapsed:.2f}s")


def test_criterion_2_reconstruction_equivalence():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    worst = 0.0
    produced = 0
    while produced < 10:
        base = rng.normal(size=3)
        base *= (0.8 + 0.4 * rng.random()) / np.linalg.norm(base)
        delta = 0.02 + 0.06 * rng.random()
        ivp = QuadraticIVP(0.0, 5.0, base + delta * rng.normal(size=3),
                           delta * rng.normal(size=3), delta * rng.normal(size=3))
        traj = integrate_quadratic(ivp, 1e-3)
        v3 = traj.third_derivative_grid()
        if traj.c <= 1e-8 or float(np.min(np.linalg.norm(v3, axis=1))) <= 1e-8:
            continue  # resample degenerate draws
        produced += 1
        xi = integrate_cubic(np.eye(3), traj, 1e-3)
        xr = reconstruct_cubic(ReconstructionInput(traj, np.eye(3)))
        worst = max(worst, float(np.max(np.linalg.norm(
            xi.rotations - xr.rotations, axis=(1, 2)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report("criterion 2 (reconstruction equivalence)", ok,
           f"worst Frobenius {worst:.3g} over 10 problems, {elapsed:.2f}s")


def test_criterion_3_convergence_orders():
    start = time.perf_counter()
    errors = {name: {} for name in ("first", "second", "phase", "approx")}
    for delta in (0.04, 0.02):
        ivp = fig3_ivp(delta, t1=5.0)
        traj = integrate_quadratic(ivp, 1e-3)
        params = fit_params(FIG3_BASE, delta, ivp.v0, ivp.v1, ivp.v2, 0.0)
        times = np.arange(0.0, 5.0 + 1e-9, 0.01)
        vd = traj.eval(times)
        errors["first"][delta] = max(
            np.linalg.norm(first_approximant(params, t) - vd[i])
            for i, t in enumerate(times))
        errors["second"][delta] = max(
            np.linalg.norm(second_approximant(params, t) - vd[i])
            for i, t in enumerate(times))
        recon = ReconstructionInput(traj, np.eye(3))
        phases = rotation_phase(recon, times)
        errors["phase"][delta] = max(
            abs(phases[i] - rotation_phase_approx(params, t))
            for i, t in enumerate(times))
        xref = integrate_cubic(np.eye(3), traj, 1e-3)
        idx = np.round(times / 1e-3).astype(int)
        errors["approx"][delta] = max(
            np.linalg.norm(approx_cubic(params, np.eye(3), xref.grid[i])
                           - xref.rotations[i]) for i in idx)
    ratios = {name: errs[0.04] / errs[0.02] for name, errs in errors.items()}
    elapsed = time.perf_counter() - start
    in_band = (3.0 <= ratios["first"] <= 5.0 and 3.0 <= ratios["approx"] <= 5.0
               and 3.0 <= ratios["phase"] <= 5.0 and 6.0 <= ratios["second"] <= 10.0)
    ok = in_band and elapsed < 60.0
    report("criterion 3 (convergence orders)", ok,
           "ratios first %.2f, second %.2f, phase %.2f, approx %.2f, %.1fs"
           % (ratios["first"], ratios["second"], ratios["phase"],
              ratios["approx"], elapsed))


def test_criterion_4_parameter_regression():
    start = time.perf_counter()
    delta = 0.05
    ivp = fig3_ivp(delta)
    p = fit_params(FIG3_BASE, delta, ivp.v0, ivp.v1, ivp.v2, 0.0)
    expected = {
        "c0": 0.0, "c1": 0.0, "c2": 0.125,
        "beta": np.sqrt(2.0) / 4.0, "gamma": 5.0 * np.pi / 4.0,
        "a01": 1.25, "a02": 0.25, "a11": 0.25, "a12": 0.25,
    }
    worst = max(abs(getattr(p, name) - value) for name, value in expected.items())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report("criterion 4 (parameter regression)", ok,
           f"worst deviation {worst:.3g}, {elapsed:.3f}s")


def test_criterion_5_qualitative_orderings(long_trajectory):
    ivp = fig1_ivp(t1=25.0)
    params = fit_params([1.0, 0.0, 0.0], 0.01, ivp.v0, ivp.v1, ivp.v2, 0.0)

    times5 = np.arange(0.0, 5.0 + 1e-9, 0.01)
    vd5 = long_trajectory.eval(times5)
    taylor_err = max(np.linalg.norm(taylor2_baseline(ivp, t) - vd5[i])
                     for i, t in enumerate(times5))
    first_err5 = max(np.linalg.norm(first_approximant(params, t) - vd5[i])
                     for i, t in enumerate(times5))
    report("criterion 5a (taylor worse than first order)",
           taylor_err > first_err5,
           f"taylor {taylor_err:.3g} vs first {first_err5:.3g}")

    times25 = np.arange(0.0, 25.0 + 1e-9, 0.01)
    vd25 = long_trajectory.eval(times25)
    first_err = max(np.linalg.norm(first_approximant(params, t) - vd25[i])
                    for i, t in enumerate(times25))
    second_err = max(np.linalg.norm(second_approximant(params, t) - vd25[i])
                     for i, t in enumerate(times25))
    report("criterion 5b (second order improves on first)",
           second_err < first_err,
           f"second {second_err:.3g} vs first {first_err:.3g}")

    delta = 0.05
    ivp3 = fig3_ivp(delta)
    traj3 = integrate_quadratic(ivp3, 1e-3)
    xref = integrate_cubic(np.eye(3), traj3, 1e-3)
    p3 = fit_params(FIG3_BASE, delta, ivp3.v0, ivp3.v1, ivp3.v2, 0.0)
    angle = {t: so3_distance(approx_cubic(p3, np.eye(3), t), xref.at_time(t))[1]
             for t in (2.0, 6.0)}
    report("criterion 5c (early fidelity, late degradation)",
           angle[2.0] < angle[6.0],
           f"angle(2) {angle[2.0]:.3g} vs angle(6) {angle[6.0]:.3g}")


def test_criterion_6_subgroup_product_orthogonality():
    grid = np.arange(0.0, 1.0 + 1e-12, 5e-3)
    a = np.array([1.0, 0.0, 0.0])
    res_orth = quadratic_residual(
        lambda t: subgroup_product_velocity(a, np.array([0.0, 2.0, 0.0]), t), grid)
    res_skew = quadratic_residual(
        lambda t: subgroup_product_velocity(a, np.array([1.0, 1.0, 0.0]), t), grid)
    ok = res_orth <= 1e-6 and res_skew >= 0.1
    report("criterion 6 (orthogonality criterion)", ok,
           f"orthogonal residual {res_orth:.3g}, skew residual {res_skew:.3g}")


def test_criterion_7_closed_forms_vs_brute_force():
    ivp = fig1_ivp()
    params = fit_params([1.0, 0.0, 0.0], 0.01, ivp.v0, ivp.v1, ivp.v2, 0.0)
    ts, f2o, v2o = brute_force_correction(params, 5.0)
    worst = 0.0
    for k in range(400, 8001, 400):   # 20 sample times
        f2c, v2c = second_correction(params, ts[k])
        worst = max(worst, abs(f2c - f2o[k]), float(np.max(np.abs(v2c - v2o[k]))))

    from scipy.integrate import quad
    frame = frame_from_axis([0.6, -0.2, 1.1])
    coeffs = [0.3, -0.5, 0.2, 0.1]
    t = 1.3
    got = integrate_poly_axial(frame, coeffs, t, 0.0)
    quad_err = 0.0
    for vec in (frame.f0, frame.f1, frame.f2):
        target = np.array([
            quad(lambda s: np.polynomial.polynomial.polyval(s, coeffs)
                 * (axial_rotation(frame, s, 0.0) @ vec)[i],
                 0.0, t, epsabs=1e-13, epsrel=1e-13)[0]
            for i in range(3)])
        quad_err = max(quad_err, float(np.max(np.abs(got @ vec - target))))
    ok = worst <= 1e-8 and quad_err <= 1e-10
    report("criterion 7 (closed form vs brute force)", ok,
           f"correction err {worst:.3g}, integral err {quad_err:.3g}")


def test_criterion_8_rotation_invariants():
    rng = np.random.default_rng(20260808)
    produced = []
    for _ in range(25):
        produced.append(rot_exp(rng.normal(size=3)))
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        produced.append(frame_from_pair(x1, x2))
        produced.append(plane_rotation(float(rng.normal())))
    frame = frame_from_axis([0.5, 0.4, -0.8])
    produced.extend(axial_rotation(frame, t, 0.0) for t in (0.3, 2.0, 11.0))
    skew = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]])
    produced.append(renormalize(np.eye(3) + 1e-4 * skew))

    short = integrate_quadratic(fig1_ivp(t1=2.0), 1e-3)
    xi = integrate_cubic(np.eye(3), short, 1e-3)
    produced.extend(xi.rotations[::100])
    xr = reconstruct_cubic(ReconstructionInput(short, np.eye(3)))
    produced.extend(xr.rotations[::100])
    delta = 0.05
    ivp3 = fig3_ivp(delta, t1=5.0)
    p3 = fit_params(FIG3_BASE, delta, ivp3.v0, ivp3.v1, ivp3.v2, 0.0)
    produced.extend(approx_cubic(p3, np.eye(3), t) for t in (0.5, 2.5, 5.0))

    worst = max(rotation_error(r) for r in produced)
    ok = worst <= 1e-10
    report("criterion 8 (rotation invariants)", ok,
           f"worst defect {worst:.3g} over {len(produced)} rotations")
