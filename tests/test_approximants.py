import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from conftest import FIG3_BASE, fig1_ivp, fig3_ivp
from oracles import (ad_matrix, axial_rotation, brute_force_correction, closed_form_phase,
                     endomorphisms, integrate_poly_axial, matrix_second_correction,
                     polyexp_approx_cubic, polyexp_closed_forms, polyexp_values,
                     quadratic_residual, second_correction_deriv2, second_correction_deriv3,
                     taylor2_values, transverse_vectors)
from so3cubics.algebra import frame_from_axis
from so3cubics.approximants import (B_DEGENERACY_TOL, ApproxParams, first_approximant,
                                    fit_params, second_approximant, second_correction,
                                    taylor2_baseline)
from so3cubics.errors import DegenerateB, OutOfDomain
from so3cubics.quadratic import integrate_quadratic
from so3cubics.reconstruction import approx_cubic, rotation_phase_approx


def fig3_params(delta=0.05):
    ivp = fig3_ivp(delta)
    return fit_params(FIG3_BASE, delta, ivp.v0, ivp.v1, ivp.v2, 0.0)


def fig1_params(delta=0.01):
    ivp = fig1_ivp()
    return fit_params([1.0, 0.0, 0.0], delta, ivp.v0, ivp.v1, ivp.v2, 0.0)


# ----------------------------------------------------------------- fit_params

def test_fit_reference_parameter_table():
    p = fig3_params()
    assert abs(p.c0) < 1e-12 and abs(p.c1) < 1e-12
    assert abs(p.c2 - 0.125) < 1e-12
    assert abs(p.beta - math.sqrt(2.0) / 4.0) < 1e-12
    assert abs(p.gamma - 5.0 * math.pi / 4.0) < 1e-12
    assert abs(p.a01 - 1.25) < 1e-12
    assert abs(p.a02 - 0.25) < 1e-12
    assert abs(p.a11 - 0.25) < 1e-12
    assert abs(p.a12 - 0.25) < 1e-12
    assert not p.b_degenerate


def test_fit_zero_perturbations_flagged():
    base = np.array([1.0, 0.0, 0.0])
    p = fit_params(base, 0.05, base, np.zeros(3), np.zeros(3))
    assert p.b_degenerate
    assert p.beta == 0.0 and p.gamma == 0.0
    for coeff in (p.c0, p.c1, p.c2, p.a01, p.a02, p.a11, p.a12):
        assert coeff == 0.0


def test_fit_round_trip_random_perturbations(rng):
    for _ in range(20):
        base = rng.normal(size=3)
        base *= (0.5 + rng.random()) / np.linalg.norm(base)
        delta = 0.01 + 0.06 * rng.random()
        v0 = base + delta * rng.normal(size=3)
        v1 = delta * rng.normal(size=3)
        v2 = delta * rng.normal(size=3)
        p = fit_params(base, delta, v0, v1, v2, t0=0.0)
        np.testing.assert_allclose(first_approximant(p, 0.0, 0), v0, atol=1e-12)
        np.testing.assert_allclose(first_approximant(p, 0.0, 1), v1, atol=1e-12)
        np.testing.assert_allclose(first_approximant(p, 0.0, 2), v2, atol=1e-12)


def test_fit_angle_just_below_zero():
    # atan2 returns -1e-17 here, which the modulo rounds up to 2 pi
    base = np.array([1.0, 0.0, 0.0])
    p = fit_params(base, 0.05, base, np.zeros(3), 0.05 * np.array([0.0, -1.0, 1e-17]))
    assert p.gamma == 0.0
    np.testing.assert_allclose(first_approximant(p, 0.0, 2), [0.0, -0.05, 0.0],
                               atol=1e-15)


def test_fit_validates_inputs():
    with pytest.raises(ValueError):
        fit_params([1, 0, 0], 0.0, [1, 0, 0], np.zeros(3), np.zeros(3))


def test_fit_refuses_overflowing_perturbations_with_no_float_warning():
    # dividing by a subnormal delta overflows: the ValueError comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scaled perturbations are not finite"):
            fit_params([1, 0, 0], 1e-320, [1, 0.5, 0], [0, 1, 0], [0, 0, 1])


def test_fit_and_rho_refuse_an_axis_length_whose_square_overflows():
    # d = |base| = 1e200: d ** 2 of a Python float raises OverflowError;
    # both raise the documented ValueError instead, with no float warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"axis length d = 1e\+200 overflows in d \*\* 2"):
            fit_params([1e200, 0, 0], 0.05, [1e200, 1, 0], [0, 1, 0], [0, 0, 1])
        fitted = fit_params([1, 0, 0], 0.05, [1, 1, 0], [0, 1, 0], [0, 0, 1])
        huge = replace(fitted, frame=frame_from_axis([1e200, 0, 0]))
        with pytest.raises(ValueError, match=r"overflows in d \*\* 2"):
            huge.rho
        with pytest.raises(ValueError, match=r"overflows in d \*\* 2"):
            rotation_phase_approx(huge, 1.0)
        assert math.isfinite(fitted.rho)


def test_closed_forms_refuse_an_axis_length_whose_fourth_power_overflows():
    # d = 1e80 squares, but d ** 3 and d ** 4 of a Python float raise
    # OverflowError in the correction's kernels, which every closed form
    # builds; each raises the documented ValueError instead, with no float
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = fit_params([1e80, 0, 0], 0.05, [1e80, 1, 0], [0, 1, 0], [0, 0, 1])
        for evaluate in (first_approximant, second_approximant, second_correction):
            with pytest.raises(ValueError, match=r"axis length d = 1e\+80 overflows in d \*\* 4"):
                evaluate(p, 1.0)


def _loop_dot(a, b):
    """(a0 b0 + a1 b1) + a2 b2 in Python floats, `algebra._dot`'s order."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (a0 * b0 + a1 * b1) + a2 * b2


@settings(max_examples=60, deadline=None)
@given(arrays(float, (4, 3), elements=st.floats(-2.0, 2.0)), st.floats(0.005, 0.1))
def test_fit_coordinates_match_scalar_loop_bit_for_bit(jet, delta):
    # every coordinate in the frame is summed in _dot's order, on every
    # machine (1-D matmul sums in numpy's and the CPU's order)
    base, v0, v1, v2 = jet
    assume(np.max(np.abs(base)) > 0.1)
    p = fit_params(base, delta, v0, v1, v2)
    f = p.frame
    d, f0, f1, f2 = f.d, f.f0.tolist(), f.f1.tolist(), f.f2.tolist()
    scaled = [[(x - d * y) / delta for x, y in zip(v0.tolist(), f0)],
              [x / delta for x in v1.tolist()], [x / delta for x in v2.tolist()]]
    axial = [_loop_dot(q, f0) for q in scaled]
    perp = [complex(_loop_dot(q, f1), _loop_dot(q, f2)) for q in scaled]
    assert [p.c0, p.c1, p.c2] == [axial[0], axial[1], 0.5 * axial[2]]
    assert p.b_degenerate == (abs(perp[2]) <= B_DEGENERACY_TOL)
    bc = 0j if p.b_degenerate else -perp[2] / d ** 2
    a0c, a1c = perp[0] - bc, perp[1] + d * 1j * bc
    assert [p.a01, p.a02, p.a11, p.a12] == [a0c.real, a0c.imag, a1c.real, a1c.imag]
    assert p.beta == abs(bc)
    gamma = math.atan2(bc.imag, bc.real) % (2.0 * math.pi)
    assert p.gamma == (0.0 if gamma == 2.0 * math.pi else gamma)


def test_params_json_round_trip():
    # to_dict carries every scalar field and frame vector bit for bit
    p = fig3_params()
    data = json.loads(json.dumps(p.to_dict()))
    for name in ("delta", "t0", "beta", "gamma", "b_degenerate"):
        assert data[name] == getattr(p, name)
    assert data["q"] == [p.c0, p.c1, p.c2]
    assert data["a0"] == [p.a01, p.a02]
    assert data["a1"] == [p.a11, p.a12]
    for name in ("f0", "f1", "f2"):
        np.testing.assert_array_equal(data["frame"][name], getattr(p.frame, name))
    assert data["frame"]["d"] == p.frame.d


def test_params_derived_quantities():
    p = fig3_params()
    assert abs(p.rho - (-2.0 * p.c2 / (p.frame.d ** 2 * p.beta))) < 1e-15
    # the first-order approximant has constant squared acceleration
    c_hat = p.delta ** 2 * (4 * p.c2 ** 2 + p.frame.d ** 4 * p.beta ** 2)
    accel = first_approximant(p, np.linspace(0.0, 10.0, 101), 2)
    np.testing.assert_allclose(np.einsum("ij,ij->i", accel, accel), c_hat, rtol=1e-14)


def test_rho_undefined_for_degenerate_b():
    base = np.array([1.0, 0.0, 0.0])
    p = fit_params(base, 0.05, base, np.zeros(3), np.zeros(3))
    with pytest.raises(DegenerateB):
        p.rho


# ---------------------------------------------------------- first_approximant

def test_first_approximant_zero_perturbation_is_constant():
    base = np.array([1.0, 0.0, 0.0])
    p = fit_params(base, 0.05, base, np.zeros(3), np.zeros(3))
    for t in (0.0, 1.3, 7.0):
        np.testing.assert_allclose(first_approximant(p, t, 0), base, atol=1e-15)
        for j in (1, 2, 3):
            np.testing.assert_allclose(first_approximant(p, t, j), np.zeros(3),
                                       atol=1e-15)


def test_first_approximant_initial_values():
    delta = 0.05
    p = fig3_params(delta)
    np.testing.assert_allclose(first_approximant(p, 0.0, 0), [1.0, delta, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(first_approximant(p, 0.0, 2), np.full(3, delta / 4),
                               atol=1e-15)


def test_first_approximant_derivative_consistency():
    p = fig3_params()
    h = 1e-5
    for j in (1, 2, 3):
        for t in (0.4, 1.3, 3.7):
            fd = (first_approximant(p, t + h, j - 1)
                  - first_approximant(p, t - h, j - 1)) / (2 * h)
            np.testing.assert_allclose(first_approximant(p, t, j), fd, atol=1e-8)


# -------------------------------------------------------------- endomorphisms

def test_endomorphisms_vanish_at_start():
    frame = frame_from_axis([0.5, -0.4, 1.2])
    ends = endomorphisms(frame, 2.0, 2.0)
    assert np.max(np.abs(ends.l0)) == 0.0
    assert np.max(np.abs(ends.mb)) == 0.0
    assert np.max(np.abs(ends.l1)) < 1e-15
    assert np.max(np.abs(ends.m0)) < 1e-15
    assert np.max(np.abs(ends.m1)) < 1e-15


def test_endomorphisms_against_independent_coefficient_evaluation():
    # rebuild each kernel from scratch in frame coordinates and conjugate
    frame = frame_from_axis([1.0, 0.0, 0.0])
    d = frame.d
    t = math.pi / 2
    u = d * t
    cu, su = math.cos(u), math.sin(u)
    e_f = np.array([[1, 0, 0], [0, cu, su], [0, -su, cu]], dtype=float)
    i_f = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    one = np.eye(3)
    q = np.column_stack([frame.f0, frame.f1, frame.f2])
    conj = lambda m: q @ m @ q.T
    expected = {
        "l0": (-u * one + (u * u / 2 - 1) * i_f + i_f @ e_f) / d,
        "l1": ((u * u / 2 - 3) * one + 2 * u * i_f + 3 * e_f + u * i_f @ e_f) / d ** 2,
        "m0": ((u * u / 2 - 1) * one + u * i_f + e_f) / d ** 3,
        "m1": ((u ** 3 / 6 - u) * one + (u * u / 2 - 1) * i_f + i_f @ e_f) / d ** 4,
        "mb": (2 * (e_f - one) + u * i_f @ (e_f + one)) / d ** 3,
    }
    ends = endomorphisms(frame, t, 0.0)
    for name, mat in expected.items():
        np.testing.assert_allclose(getattr(ends, name) @ frame.f1,
                                   conj(mat) @ frame.f1, atol=1e-13)
        np.testing.assert_allclose(getattr(ends, name) @ frame.f2,
                                   conj(mat) @ frame.f2, atol=1e-13)


# -------------------------------------------------------- integrate_poly_axial

def test_integral_of_axial_rotation_identity():
    frame = frame_from_axis([0.3, 0.8, -0.5])
    t = 2.0
    got = integrate_poly_axial(frame, [1.0], t, 0.0)
    expected = (ad_matrix(frame.f0) / frame.d
                @ (axial_rotation(frame, t, 0.0) - np.eye(3))
                + t * np.outer(frame.f0, frame.f0))
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_integral_vanishes_at_start():
    frame = frame_from_axis([0.3, 0.8, -0.5])
    got = integrate_poly_axial(frame, [0.5, -1.0, 2.0, 0.25], 1.5, 1.5)
    assert np.max(np.abs(got)) < 1e-15


def test_integral_matches_adaptive_quadrature():
    frame = frame_from_axis([1.0, 0.0, 0.0])
    t = 1.0
    got = integrate_poly_axial(frame, [0.0, 1.0], t, 0.0) @ frame.f1
    expected = np.array([
        quad(lambda s: s * (axial_rotation(frame, s, 0.0) @ frame.f1)[i],
             0.0, t, epsabs=1e-13, epsrel=1e-13)[0]
        for i in range(3)])
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_iterated_integral_matches_nested_quadrature():
    frame = frame_from_axis([0.0, 0.0, 1.5])
    coeffs = [0.2, 0.7, -0.3]
    t = 1.2
    got = integrate_poly_axial(frame, coeffs, t, 0.0, repeat=2) @ frame.f1
    inner = lambda s: integrate_poly_axial(frame, coeffs, s, 0.0) @ frame.f1
    expected = np.array([
        quad(lambda s: inner(s)[i], 0.0, t, epsabs=1e-12, epsrel=1e-12)[0]
        for i in range(3)])
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_integral_rejects_high_degree():
    frame = frame_from_axis([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        integrate_poly_axial(frame, [1.0, 1.0, 1.0, 1.0, 1.0], 1.0, 0.0)


# ----------------------------------------------------------- second correction

def test_second_correction_vanishes_at_start():
    p = fig3_params()
    f2, v2 = second_correction(p, p.t0)
    assert abs(f2) < 1e-15
    assert np.max(np.abs(v2)) < 1e-15


def test_second_correction_without_oscillatory_part():
    # B = 0 kills the axial component and the integral term
    frame = frame_from_axis([1.0, 0.0, 0.0])
    p = ApproxParams(delta=0.05, frame=frame, t0=0.0, c0=0.1, c1=-0.2, c2=0.3,
                     a01=0.7, a02=-0.4, a11=0.2, a12=0.5, beta=0.0, gamma=0.0)
    t = 1.7
    f2, v2 = second_correction(p, t)
    assert f2 == 0.0
    ends = endomorphisms(frame, t, 0.0)
    a0, a1, _ = transverse_vectors(p)
    expected = 4.0 * p.c2 * (ends.m0 @ a0 + ends.m1 @ a1)
    np.testing.assert_allclose(v2, expected, atol=1e-14)


def test_second_correction_matches_brute_force():
    p = fig1_params()
    ts, f2o, v2o = brute_force_correction(p, 5.0)
    for k in (1600, 3200, 4800, 6400, 8000):
        f2c, v2c = second_correction(p, ts[k])
        assert abs(f2c - f2o[k]) < 1e-10
        assert np.max(np.abs(v2c - v2o[k])) < 1e-10


def test_second_correction_closed_derivatives_match_differences():
    # 4th-order central second difference of the order-0 values
    p = fig3_params()
    h = 1e-3
    stencil = ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12),
               (2, -1 / 12))
    for t in (0.9, 2.6):
        samples = {k: second_correction(p, t + k * h) for k, _ in stencil}
        fd_f2 = sum(w * samples[k][0] for k, w in stencil) / h ** 2
        fd_v2 = sum(w * samples[k][1] for k, w in stencil) / h ** 2
        f2dd, v2dd = second_correction(p, t, 2)
        assert abs(f2dd - fd_f2) < 1e-8
        np.testing.assert_allclose(v2dd, fd_v2, atol=1e-8)


def test_third_correction_derivative_matches_differences():
    # 4th-order central first difference of the closed second derivatives
    p = fig3_params()
    h = 1e-3
    stencil = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))
    for t in (0.9, 2.6):
        samples = {k: second_correction(p, t + k * h, 2) for k, _ in stencil}
        fd_f2 = sum(w * samples[k][0] for k, w in stencil) / h
        fd_v2 = sum(w * samples[k][1] for k, w in stencil) / h
        f2d3, v2d3 = second_correction(p, t, 3)
        assert abs(f2d3 - fd_f2) < 1e-8
        np.testing.assert_allclose(v2d3, fd_v2, atol=1e-8)


# random jets near a constant velocity, with their fitted parameters
jets = st.builds(
    lambda base, scale, delta, triple: (base * scale / np.linalg.norm(base), delta, triple),
    arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 0.1),
    st.floats(0.5, 2.0), st.floats(0.005, 0.05),
    arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)))
time_arrays = arrays(float, st.integers(1, 12), elements=st.floats(0.0, 25.0))


def jet_params(jet):
    base, delta, (p0, p1, p2) = jet
    return fit_params(base, delta, base + delta * p0, delta * p1, delta * p2, 0.0)


@settings(max_examples=40, deadline=None)
@given(jets, time_arrays)
def test_array_evaluation_matches_scalar_loop(jet, times):
    p = jet_params(jet)
    for deriv in range(4):
        for fn in (first_approximant, second_approximant):
            loop = np.array([fn(p, t, deriv) for t in times])
            np.testing.assert_allclose(fn(p, times, deriv), loop, rtol=1e-14, atol=1e-14)
    if p.b_degenerate:
        return
    loop = np.array([rotation_phase_approx(p, t) for t in times])
    np.testing.assert_allclose(rotation_phase_approx(p, times), loop, rtol=1e-14,
                               atol=1e-14)
    loop = np.array([approx_cubic(p, np.eye(3), t) for t in times])
    np.testing.assert_allclose(approx_cubic(p, np.eye(3), times), loop, rtol=1e-14,
                               atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(jets, time_arrays)
def test_second_correction_matches_oracles(jet, times):
    # the matrix kernels at order 0, the hand-derived forms at orders 2 and 3
    p = jet_params(jet)
    for deriv, oracle in ((0, matrix_second_correction), (2, second_correction_deriv2),
                          (3, second_correction_deriv3)):
        f2, v2 = second_correction(p, times, deriv)
        f2o, v2o = (np.array(x) for x in zip(*(oracle(p, t) for t in times)))
        scale = 1.0 + max(np.max(np.abs(f2o)), np.max(np.abs(v2o)))
        np.testing.assert_allclose(f2, f2o, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(v2, v2o, rtol=0.0, atol=1e-12 * scale)


def test_scalar_time_keeps_shapes():
    # the approximants and approx_cubic are covered by the scalar-loop test
    p = fig3_params()
    f2, v2 = second_correction(p, 1.5, 1)
    assert np.shape(f2) == () and v2.shape == (3,)
    assert isinstance(rotation_phase_approx(p, 1.5), float)
    assert taylor2_baseline(fig1_ivp(), np.linspace(0.0, 3.0, 4)).shape == (4, 3)
    with pytest.raises(ValueError):
        second_correction(p, 1.5, 4)


# ------------------------------------- tables against the numpy.polynomial oracle

# parameters drawn as the benchmark's ivp-ensemble draws them: |base| in
# [0.5, 2], an N(0, 1) triple (here within 4 standard deviations) and delta
# log-uniform in [0.005, 0.05], evaluated over its interval [0, 20]
ensemble_jets = st.builds(
    lambda base, scale, log_delta, triple: (base * scale / np.linalg.norm(base),
                                            math.exp(log_delta), triple),
    arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 0.1),
    st.floats(0.5, 2.0), st.floats(math.log(0.005), math.log(0.05)),
    arrays(float, (3, 3), elements=st.floats(-4.0, 4.0)))
ENSEMBLE_TIMES = np.linspace(0.0, 20.0, 201)


def _library_values(p, t, deriv):
    """(V1, f2, v2, V2), in the order of oracles.polyexp_values."""
    return (first_approximant(p, t, deriv), *second_correction(p, t, deriv),
            second_approximant(p, t, deriv))


@settings(max_examples=40, deadline=None)
@given(ensemble_jets)
def test_tables_match_polyexp_oracle(jet):
    # numpy's vectorised complex product rounds some products differently
    # from Python's scalar one: last-digit differences, at most 1.6e-15 of
    # each series' largest value over 600 draws
    p = jet_params(jet)
    jets = polyexp_closed_forms(p)
    for deriv in range(4):
        expected = polyexp_values(p, ENSEMBLE_TIMES, deriv, jets)
        for got, want in zip(_library_values(p, ENSEMBLE_TIMES, deriv), expected):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# With B along f1 (gamma = 0) every complex product that builds the tables
# has a factor with a zero component, which numpy's vectorised product and
# Python's scalar one round alike: the tables then equal the oracle's bit
# for bit whatever the frame and the other coefficients.
@settings(max_examples=40, deadline=None)
@given(arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(lambda v: np.linalg.norm(v) > 0.1),
       arrays(float, 7, elements=st.floats(-3.0, 3.0)), st.floats(0.0, 3.0),
       st.floats(0.005, 0.05), st.floats(-1.0, 1.0))
def test_tables_equal_polyexp_oracle_bit_for_bit_with_b_along_f1(base, coeffs, beta, delta, t0):
    c0, c1, c2, a01, a02, a11, a12 = map(float, coeffs)
    p = ApproxParams(delta=delta, frame=frame_from_axis(base), t0=t0, c0=c0, c1=c1, c2=c2,
                     a01=a01, a02=a02, a11=a11, a12=a12, beta=beta, gamma=0.0)
    jets = polyexp_closed_forms(p)
    times = np.linspace(-5.0, 20.0, 101)
    for deriv in range(4):
        for got, want in zip(_library_values(p, times, deriv),
                             polyexp_values(p, times, deriv, jets)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("delta", [0.005, 0.01, 0.02, 0.04, 0.05, 0.1])
def test_tables_equal_polyexp_oracle_bit_for_bit_on_figure3_family(delta):
    p = fig3_params(delta)
    jets = polyexp_closed_forms(p)
    for t in (np.linspace(-5.0, 15.0, 201), 0.0, 2.5, -1.25):
        for deriv in range(4):
            got = _library_values(p, t, deriv)
            for name, a, b in zip(("V1", "f2", "v2", "V2"), got,
                                  polyexp_values(p, t, deriv, jets)):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (name, deriv, t)


# ------------------------------------------------------------------ the domain

FIG3_JETS = polyexp_closed_forms(fig3_params())
extreme_times = st.sampled_from([math.nan, math.inf, -math.inf, 1e150, -1e150])


def _closed_form_cases(t, deriv):
    """(library call, oracle call) for each of the six closed-form evaluators."""
    p, ivp, x0 = fig3_params(), fig3_ivp(0.05), np.eye(3)
    return [
        (lambda: first_approximant(p, t, deriv),
         lambda: polyexp_values(p, t, deriv, FIG3_JETS)[0]),
        (lambda: second_correction(p, t, deriv),
         lambda: polyexp_values(p, t, deriv, FIG3_JETS)[1:3]),
        (lambda: second_approximant(p, t, deriv),
         lambda: polyexp_values(p, t, deriv, FIG3_JETS)[3]),
        (lambda: taylor2_baseline(ivp, t), lambda: taylor2_values(ivp, t)),
        (lambda: rotation_phase_approx(p, t), lambda: closed_form_phase(p, t)),
        (lambda: approx_cubic(p, x0, t), lambda: polyexp_approx_cubic(p, x0, t, FIG3_JETS)),
    ]


@settings(max_examples=60, deadline=None)
@given(st.one_of(extreme_times, st.floats(-10.0, 20.0)), st.integers(0, 3))
def test_closed_forms_return_oracle_values_or_raise_out_of_domain(t, deriv):
    # on the figure3 family the tables equal the oracle's bit for bit: where
    # the oracle is finite the value comes back unchanged, elsewhere the
    # evaluator raises OutOfDomain, and no floating-point warning escapes
    for evaluate, oracle in _closed_form_cases(t, deriv):
        try:
            expected = oracle()
        except ValueError:   # frame_from_pair refuses non-finite derivatives
            expected = (math.nan,)
        parts = expected if isinstance(expected, tuple) else (expected,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if all(np.all(np.isfinite(x)) for x in parts):
                got = evaluate()
                got = got if isinstance(got, tuple) else (got,)
                assert [np.asarray(x).tobytes() for x in got] == \
                    [np.asarray(x).tobytes() for x in parts]
            else:
                with pytest.raises(OutOfDomain, match="closed form is not finite at t = "):
                    evaluate()


def test_out_of_domain_names_the_first_bad_time():
    times = np.array([1.0, 2.0, math.inf, math.nan])
    for evaluate, _ in _closed_form_cases(times, 2):
        with pytest.raises(OutOfDomain, match=r"at t = inf$"):
            evaluate()
    with pytest.raises(OutOfDomain, match=r"at t = 1e\+150$"):
        second_approximant(fig3_params(), np.array([[0.5], [1e150]]))
    assert issubclass(OutOfDomain, ValueError)


@pytest.mark.parametrize("shape", [(0,), (0, 2), (2, 0)])
def test_closed_forms_take_empty_time_arrays(shape):
    # results of shape S + trailing, as for any other array of times
    trailing = [[(3,)], [(), (3,)], [(3,)], [(3,)], [()], [(3, 3)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (evaluate, _), expected in zip(_closed_form_cases(np.zeros(shape), 2), trailing):
            got = evaluate()
            got = got if isinstance(got, tuple) else (got,)
            assert [np.shape(x) for x in got] == [shape + e for e in expected]


# ---------------------------------------------------------- second_approximant

def test_second_approximant_zero_perturbation_is_constant():
    base = np.array([1.0, 0.0, 0.0])
    p = fit_params(base, 0.05, base, np.zeros(3), np.zeros(3))
    for t in (0.0, 2.2):
        np.testing.assert_allclose(second_approximant(p, t, 0), base, atol=1e-15)
        for j in (1, 2, 3):
            np.testing.assert_allclose(second_approximant(p, t, j), np.zeros(3),
                                       atol=1e-15)


def test_second_approximant_initial_second_derivative():
    p = fig3_params()
    np.testing.assert_allclose(second_approximant(p, p.t0, 2),
                               first_approximant(p, p.t0, 2), atol=1e-15)


def test_second_approximant_derivative_consistency():
    p = fig3_params()
    h = 1e-4
    stencil = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))
    for j in (1, 2, 3):
        for t in (0.7, 2.9):
            fd = sum(w * second_approximant(p, t + k * h, j - 1) for k, w in stencil) / h
            np.testing.assert_allclose(second_approximant(p, t, j), fd, atol=1e-8)


def test_second_approximant_beats_first_on_long_interval():
    delta = 0.05
    ivp = fig3_ivp(delta, t1=5.0)
    traj = integrate_quadratic(ivp, 1e-3)
    p = fig3_params(delta)
    times = np.arange(0.0, 5.0 + 1e-9, 0.05)
    vd = traj.eval(times)
    e1 = max(np.linalg.norm(first_approximant(p, t) - vd[i])
             for i, t in enumerate(times))
    e2 = max(np.linalg.norm(second_approximant(p, t) - vd[i])
             for i, t in enumerate(times))
    assert e2 < e1


def test_second_approximant_residual_order():
    residuals = {}
    for delta in (0.04, 0.02):
        p = fig3_params(delta)
        grid = np.arange(0.0, 5.0 + 1e-12, 5e-3)
        residuals[delta] = quadratic_residual(lambda t: second_approximant(p, t), grid)
    ratio = residuals[0.04] / residuals[0.02]
    assert 6.0 <= ratio <= 10.0


def test_approximants_invariant_under_delta_gauge():
    ivp = fig1_ivp()
    p_small = fit_params([1, 0, 0], 0.01, ivp.v0, ivp.v1, ivp.v2, 0.0)
    p_large = fit_params([1, 0, 0], 0.036, ivp.v0, ivp.v1, ivp.v2, 0.0)
    for t in (0.7, 3.3):
        np.testing.assert_allclose(first_approximant(p_small, t),
                                   first_approximant(p_large, t), atol=1e-14)
        np.testing.assert_allclose(second_approximant(p_small, t),
                                   second_approximant(p_large, t), atol=1e-14)


# ------------------------------------------------------------ taylor baseline

def test_taylor_baseline_at_start():
    ivp = fig1_ivp()
    np.testing.assert_allclose(taylor2_baseline(ivp, 0.0), ivp.v0, atol=1e-15)


def test_taylor_baseline_constant_data():
    from so3cubics.quadratic import QuadraticIVP
    d = np.array([0.4, -0.1, 0.9])
    ivp = QuadraticIVP(0.0, 5.0, d, np.zeros(3), np.zeros(3))
    np.testing.assert_allclose(taylor2_baseline(ivp, 3.7), d, atol=1e-15)


def test_taylor_baseline_worse_than_first_approximant(fig1_trajectory):
    ivp = fig1_ivp()
    p = fig1_params()
    times = np.arange(0.0, 5.0 + 1e-9, 0.05)
    vd = fig1_trajectory.eval(times)
    e1 = max(np.linalg.norm(first_approximant(p, t) - vd[i])
             for i, t in enumerate(times))
    ety = max(np.linalg.norm(taylor2_baseline(ivp, t) - vd[i])
              for i, t in enumerate(times))
    assert ety > e1
