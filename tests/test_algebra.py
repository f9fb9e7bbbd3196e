import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (NotNearRotation, ad_matrix, axial_rotation, matmul_rot_exp,
                     matmul_rotation_error, moving_frame, renormalize, rot_exp_error)
from so3cubics.algebra import (Frame, _length, _scaled_length, bracket, frame_from_axis,
                               frame_from_pair, plane_rotation, rot_exp,
                               rotation_error)
from so3cubics.errors import DegenerateFrame, ZeroDirection
from so3cubics.quadratic import NULL_TOL, is_null

component = st.floats(-2.0, 2.0, allow_nan=False)
vectors = st.tuples(component, component, component).map(np.array)
nonzero_vectors = vectors.filter(lambda v: np.linalg.norm(v) > 0.1)
unit_vectors = nonzero_vectors.map(lambda v: v / np.linalg.norm(v))


# ------------------------------------------------------------------ bracket

def test_bracket_canonical():
    np.testing.assert_allclose(bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])


def test_bracket_self_vanishes():
    v = np.array([0.3, -1.2, 0.7])
    np.testing.assert_allclose(bracket(v, v), np.zeros(3))


@given(nonzero_vectors)
def test_bracket_frame_closure(axis):
    frame = frame_from_axis(axis)
    np.testing.assert_allclose(bracket(frame.f0, frame.f1), frame.f2, atol=1e-12)
    np.testing.assert_allclose(bracket(frame.f2, frame.f0), frame.f1, atol=1e-12)


@given(unit_vectors, unit_vectors, unit_vectors)
def test_jacobi_identity(u, v, w):
    total = (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
             + bracket(w, bracket(u, v)))
    assert np.max(np.abs(total)) < 1e-12


@given(unit_vectors, unit_vectors, unit_vectors)
def test_ad_invariance(u, v, w):
    lhs = bracket(u, v) @ w
    rhs = -(v @ bracket(u, w))
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- ad_matrix

def test_ad_matrix_zero():
    np.testing.assert_array_equal(ad_matrix([0, 0, 0]), np.zeros((3, 3)))


def test_ad_matrix_action():
    np.testing.assert_allclose(ad_matrix([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])


def test_ad_matrix_skew():
    m = ad_matrix([1, 2, 3])
    np.testing.assert_array_equal(m.T, -m)


@given(vectors, vectors)
def test_ad_matrix_matches_bracket(u, v):
    np.testing.assert_allclose(ad_matrix(u) @ v, bracket(u, v), atol=1e-12)


# ------------------------------------------------------------------ rot_exp

def test_rot_exp_zero():
    np.testing.assert_array_equal(rot_exp([0, 0, 0]), np.eye(3))


def test_rot_exp_half_turn():
    np.testing.assert_allclose(rot_exp([math.pi, 0, 0]),
                               np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_rot_exp_subgroup_property():
    v = np.array([0.1, 0.2, 0.3])
    np.testing.assert_allclose(rot_exp(3 * v), rot_exp(v) @ rot_exp(2 * v), atol=1e-14)


@given(unit_vectors, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_rot_exp_one_parameter(v, t, s):
    lhs = rot_exp((t + s) * v)
    rhs = rot_exp(t * v) @ rot_exp(s * v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(vectors)
def test_rot_exp_is_rotation(v):
    assert rotation_error(rot_exp(v)) < 1e-12


@given(st.integers(1, 6).flatmap(lambda n: st.lists(vectors, min_size=2 * n, max_size=2 * n)))
def test_batched_exp_and_ad_match_scalar_loops(vs):
    for stack in (np.array(vs), np.array(vs).reshape(2, -1, 3)):
        for f in (rot_exp, ad_matrix):
            batched = f(stack)
            assert batched.shape == stack.shape + (3,)
            loop = np.array([f(v) for v in vs]).reshape(batched.shape)
            assert np.max(np.abs(batched - loop)) <= 1e-15


def test_scalar_exp_and_ad_keep_shapes():
    assert rot_exp([0.1, 0.2, 0.3]).shape == (3, 3)
    assert ad_matrix([0.1, 0.2, 0.3]).shape == (3, 3)
    with pytest.raises(ValueError):
        rot_exp([[0.1, 0.2]])
    with pytest.raises(ValueError):
        ad_matrix([[0.1, 0.2, math.nan]])


def test_rot_exp_refuses_a_squared_norm_that_overflows():
    # |v| above about 1.3e154: theta^2 overflows, as for a vector that is
    # not finite, with no float warning; just below it, a rotation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ([1e200, 0.0, 0.0], [[0.1, 0.2, 0.3], [1e154, 1e154, 0.0]]):
            with pytest.raises(ValueError, match="squared norm overflows"):
                rot_exp(v)
        assert rotation_error(rot_exp([1e154, 0.0, 0.0])) < 1e-12


def test_rotation_error_of_a_stack_is_the_worst():
    rots = rot_exp(np.array([[0.1, 0.2, 0.3], [0.0, -1.0, 2.0], [0.5, 0.5, 0.5]]))
    bent = rots.copy()
    bent[1, 0, 0] += 1e-7
    assert rotation_error(rots) < 1e-14
    assert rotation_error(bent) == rotation_error(bent[1])


def test_rotation_error_determinant_matches_linalg():
    # rotation_error(m) is max(|m^T m - I|, |det m - 1|); matrices whose
    # determinant defect is the larger one by a clear margin read the
    # closed-form determinant back, to compare with np.linalg.det
    rng = np.random.default_rng(7)
    rots = rot_exp(rng.normal(size=(500, 3)))
    # s Q with Q a rotation or a reflection: |det - 1| = |+-s^3 - 1| > |s^2 - 1|
    scales = rng.uniform(0.8, 1.2, size=(500, 1, 1))
    scaled = np.concatenate([scales * rots, scales * rots * np.array([1.0, 1.0, -1.0])])
    general = rng.uniform(-1.0, 1.0, size=(2000, 3, 3))
    for stack in (rots, scaled, general):
        dets = np.linalg.det(stack)
        ortho = np.max(np.abs(np.swapaxes(stack, -1, -2) @ stack - np.eye(3)), axis=(-2, -1))
        errors = np.array([rotation_error(m) for m in stack])
        assert np.max(np.abs(errors - np.maximum(ortho, np.abs(dets - 1.0)))) <= 1e-15
        by_det = np.abs(dets - 1.0) > ortho + 1e-12
        assert np.max(np.abs(errors - np.abs(dets - 1.0))[by_det], initial=0.0) <= 1e-15
        if stack is not rots:
            assert np.count_nonzero(by_det) >= 100
    assert rotation_error(rots) <= 1e-14
    assert rotation_error(np.diag([1.0, 1.0, -1.0])) == 2.0


def test_rotation_error_of_a_matrix_and_its_stack_agree():
    rng = np.random.default_rng(3)
    bent = rot_exp(rng.normal(size=3))
    bent[2, 1] += 3e-9
    for shape in [(1,), (4, 1), (1, 2, 1)]:
        stack = np.broadcast_to(bent, shape + (3, 3))
        assert rotation_error(stack) == rotation_error(bent)


# a stack of shape (3,), (k, 3) or (2, k, 3): directions times an angle in
# [0, pi] or a magnitude down to 1e-300
magnitudes = st.one_of(st.floats(0.0, math.pi), st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e))
rotation_vector_stacks = st.integers(1, 6).flatmap(
    lambda k: st.sampled_from([(), (k,), (2, k)])).flatmap(
    lambda shape: st.tuples(hnp.arrays(float, shape + (3,), elements=component),
                            hnp.arrays(float, shape, elements=magnitudes)))


# A bound on every entry of rot_exp(v) and of matmul_rot_exp(v) against the
# exact exp(ad v) for |v| = theta <= pi, to first order in U = 2**-53: each +,
# -, *, / and sqrt rounds by at most U, and numpy's sin lies within one ulp (2U).
# - theta from the three squares: 2.5U.  np.sinc multiplies theta / fl(pi) or
#   theta / fl(2 pi) back by fl(pi), which cancels: 2U more, 4.5U.
# - b = sinc(theta / 2)^2 / 2: sin(y) / y has the condition |y cot y - 1| <= 1
#   for y <= pi / 2, so 4.5U + 2U (sin) + U (divide), doubled by the square,
#   plus U: 16U.  a = sinc(theta) has the absolute error |cos theta - a| 4.5U
#   + 3U a, where |cos theta - a| <= 1 on [0, pi].
# - a diagonal entry 1 - b (y^2 + z^2), where b (y^2 + z^2) <= 1 - cos theta
#   <= 2: 2 (16U + 3U) + U = 39U.  An off-diagonal entry b x y - a z, where
#   |b x y| <= 1, |a z| <= sin theta <= 1 and |z| <= pi: (16U + 2U) + U
#   + (4.5 pi U + 3U) + U < 38U.
# matmul_rot_exp rounds the same factors no more often (K @ K forms x y in one
# product and y^2 + z^2 in one sum), so the two agree to twice the bound.  At
# |v| = pi each is measured at up to about 12U, and they differ by up to 16U.
ROT_EXP_ERR = 39 * 2.0 ** -53
# a vector of size pi at which rot_exp and matmul_rot_exp differ by 1.55e-15
PI_VECTOR = np.array([0.0, -1.7691060863603998, 2.5961255856163716])


def test_rot_exp_and_its_matmul_form_keep_the_derived_bound():
    # 300 directions at |v| = pi, where the errors peak, 100 magnitudes over
    # [0, pi], and PI_VECTOR
    rng = np.random.default_rng(18)
    directions = rng.normal(size=(400, 3))
    sizes = np.concatenate([np.full(300, math.pi), rng.uniform(0.0, math.pi, 100)])
    v = np.vstack([directions * (sizes / np.linalg.norm(directions, axis=1))[:, None],
                   PI_VECTOR])
    assert rot_exp_error(v, rot_exp(v)) <= ROT_EXP_ERR
    assert rot_exp_error(v, matmul_rot_exp(v)) <= ROT_EXP_ERR
    assert np.max(np.abs(rot_exp(v) - matmul_rot_exp(v))) <= 2 * ROT_EXP_ERR


@given(rotation_vector_stacks, hnp.arrays(float, (3, 3), elements=st.floats(-0.1, 0.1)))
@example((PI_VECTOR, np.linalg.norm(PI_VECTOR)), np.zeros((3, 3)))
def test_rot_exp_and_rotation_error_match_their_matmul_forms(stack, bend):
    directions, size = stack
    norms = np.linalg.norm(directions, axis=-1)
    v = directions * (size / np.maximum(norms, 1e-3))[..., None]
    rots = rot_exp(v)
    assert rots.shape == v.shape + (3,)
    assert np.max(np.abs(rots - matmul_rot_exp(v))) <= 2 * ROT_EXP_ERR
    for m in (rots, rots + bend):
        assert abs(rotation_error(m) - matmul_rotation_error(m)) <= 1e-15


# ----------------------------------------------------------- axial_rotation

def test_axial_rotation_identity_at_start():
    frame = frame_from_axis([0.4, -0.3, 1.1])
    np.testing.assert_allclose(axial_rotation(frame, 2.5, 2.5), np.eye(3), atol=1e-15)


def test_axial_rotation_frame_coordinates_quarter_turn():
    frame = frame_from_axis([0.3, -1.2, 0.4])
    t = (math.pi / 2) / frame.d
    q = np.column_stack([frame.f0, frame.f1, frame.f2])
    m = q.T @ axial_rotation(frame, t, 0.0) @ q
    expected = np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
    np.testing.assert_allclose(m, expected, atol=1e-12)


@given(nonzero_vectors, st.floats(-4.0, 4.0))
def test_axial_rotation_fixes_axis(axis, t):
    frame = frame_from_axis(axis)
    np.testing.assert_allclose(axial_rotation(frame, t, 0.0) @ frame.f0, frame.f0,
                               atol=1e-12)


@given(nonzero_vectors, st.floats(-4.0, 4.0))
def test_axial_rotation_commutes_with_axis_bracket(axis, t):
    frame = frame_from_axis(axis)
    im = ad_matrix(frame.f0)
    e = axial_rotation(frame, t, 0.0)
    assert np.max(np.abs(im @ e - e @ im)) < 1e-12


@given(nonzero_vectors)
def test_axis_bracket_squares_to_minus_one_transverse(axis):
    frame = frame_from_axis(axis)
    im2 = ad_matrix(frame.f0) @ ad_matrix(frame.f0)
    np.testing.assert_allclose(im2 @ frame.f1, -frame.f1, atol=1e-12)
    np.testing.assert_allclose(im2 @ frame.f2, -frame.f2, atol=1e-12)


# ------------------------------------------------------------ plane_rotation

def test_plane_rotation_zero():
    np.testing.assert_array_equal(plane_rotation(0.0), np.eye(3))


def test_plane_rotation_quarter_turn():
    expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
    np.testing.assert_allclose(plane_rotation(math.pi / 2), expected, atol=1e-16)


def test_plane_rotation_inverse():
    np.testing.assert_allclose(plane_rotation(1.3) @ plane_rotation(-1.3),
                               np.eye(3), atol=1e-15)


def test_plane_rotation_composition():
    np.testing.assert_allclose(plane_rotation(0.4) @ plane_rotation(0.9),
                               plane_rotation(1.3), atol=1e-15)


def test_plane_rotation_refuses_an_angle_that_is_not_finite():
    # a typed error, not a NaN matrix after two float warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for angle in (math.inf, -math.inf, math.nan, [0.0, math.inf]):
            with pytest.raises(ValueError, match="angle is not finite"):
                plane_rotation(angle)


# ----------------------------------------------------------- frame_from_pair

def test_frame_from_pair_canonical():
    np.testing.assert_allclose(frame_from_pair([0, 0, 1], [1, 0, 0]), np.eye(3),
                               atol=1e-15)


def test_frame_from_pair_scale_invariance():
    np.testing.assert_allclose(frame_from_pair([0, 0, 2], [5, 0, 0]), np.eye(3),
                               atol=1e-15)


def test_frame_from_pair_direct_formula():
    # row-by-row evaluation for x1=(1,1,0), x2=(0,1,0)
    s = frame_from_pair([1, 1, 0], [0, 1, 0])
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(s[0], [-r, r, 0.0], atol=1e-15)
    np.testing.assert_allclose(s[1], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(s[2], [r, r, 0.0], atol=1e-15)
    assert rotation_error(s) < 1e-14


@given(nonzero_vectors, nonzero_vectors)
def test_frame_from_pair_is_rotation_or_degenerate(x1, x2):
    # full 1e-12 orthogonality is claimed away from the degeneracy
    # boundary; cancellation in the Gram determinant degrades the rows
    # like eps / (relative Gram)
    n1sq = float(x1 @ x1)
    n2sq = float(x2 @ x2)
    gram = n1sq * n2sq - float(x1 @ x2) ** 2
    assume(gram > 1e-2 * n1sq * n2sq)
    s = frame_from_pair(x1, x2)
    assert rotation_error(s) < 1e-12
    np.testing.assert_allclose(s[2], x1 / np.linalg.norm(x1), atol=1e-12)


def test_frame_from_pair_near_boundary_still_near_orthogonal():
    # relative Gram 1e-8: defect bounded by ~eps / 1e-8
    s = frame_from_pair([1.0, 0.0, 0.0], [1.0, 1e-4, 0.0])
    assert rotation_error(s) < 1e-6


def test_frame_from_pair_rejects_parallel():
    with pytest.raises(DegenerateFrame):
        frame_from_pair([1, 2, 0], [2, 4, 0])
    with pytest.raises(DegenerateFrame):
        frame_from_pair([1, 0, 0], [0, 0, 0])


def test_frame_from_pair_batch_matches_single_and_names_first_degenerate():
    x1 = np.array([[1.0, 0.0, 0.0], [0.3, -1.2, 0.5], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    x2 = np.array([[0.0, 1.0, 0.0], [0.7, 0.1, -0.4], [2.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
    np.testing.assert_array_equal(frame_from_pair(x1[:2], x2[:2]),
                                  [frame_from_pair(a, b) for a, b in zip(x1[:2], x2[:2])])
    with pytest.raises(DegenerateFrame, match="at index 2 "):
        frame_from_pair(x1, x2)


@pytest.mark.parametrize("x1, x2, k", [
    ([1e155, 0.0, 0.0], [1e150, 1e154, 0.0], -520),     # squared norms overflow
    ([1e-170, 0.0, 0.0], [1e-170, 1e-171, 0.0], 570),   # squared norms underflow
])
def test_frame_from_pair_at_extreme_magnitudes(x1, x2, k):
    # the rows are those of the same pair scaled into range, with no warning
    in_range = frame_from_pair(np.ldexp(x1, k), np.ldexp(x2, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(frame_from_pair(x1, x2), in_range)
        stacked = frame_from_pair([[0.3, -1.2, 0.5], x1], [[0.7, 0.1, -0.4], x2])
    np.testing.assert_array_equal(stacked, [frame_from_pair([0.3, -1.2, 0.5], [0.7, 0.1, -0.4]),
                                            in_range])


milli = st.integers(-1000, 1000).map(lambda n: n / 1000.0)
milli_vectors = st.tuples(milli, milli, milli).map(np.array)


@given(milli_vectors, milli_vectors, st.integers(-900, 900), st.integers(-900, 900))
def test_frame_from_pair_is_unchanged_by_power_of_two_scaling(x1, x2, k1, k2):
    try:
        frame = frame_from_pair(x1, x2)
    except DegenerateFrame:
        with pytest.raises(DegenerateFrame):
            frame_from_pair(np.ldexp(x1, k1), np.ldexp(x2, k2))
        return
    np.testing.assert_array_equal(frame_from_pair(np.ldexp(x1, k1), np.ldexp(x2, k2)), frame)


# -------------------------------------------------------------- moving_frame

def test_moving_frame_substitution():
    w = lambda t: np.array([math.cos(t), math.sin(t), 0.0])
    dw = lambda t: np.array([-math.sin(t), math.cos(t), 0.0])
    np.testing.assert_allclose(moving_frame(w, dw, 0.0),
                               frame_from_pair([1, 0, 0], [0, 1, 0]), atol=1e-15)


def test_moving_frame_constant_curve_degenerate():
    w = lambda t: np.array([1.0, 0.0, 0.0])
    dw = lambda t: np.zeros(3)
    with pytest.raises(DegenerateFrame):
        moving_frame(w, dw, 0.3)


def test_moving_frame_on_second_approximant_derivatives():
    from so3cubics.approximants import fit_params, second_approximant
    delta = 0.05
    params = fit_params([1, 0, 0], delta, [1.0, delta, 0.0],
                        [0.0, 0.0, delta / 2], np.full(3, delta / 4))
    s = moving_frame(lambda t: second_approximant(params, t, 2),
                     lambda t: second_approximant(params, t, 3), 1.0)
    assert rotation_error(s) < 1e-12


# ------------------------------------------------------------ frame_from_axis

def test_frame_from_axis_canonical():
    frame = frame_from_axis([1, 0, 0])
    np.testing.assert_allclose(frame.f0, [1, 0, 0])
    np.testing.assert_allclose(frame.f1, [0, 1, 0])
    np.testing.assert_allclose(frame.f2, [0, 0, 1])
    assert frame.d == 1.0


def test_frame_from_axis_scaled():
    frame = frame_from_axis([0, 0, 2])
    np.testing.assert_allclose(frame.f0, [0, 0, 1])
    assert frame.d == 2.0
    assert abs(frame.f1 @ frame.f0) < 1e-15


def test_frame_from_axis_diagonal_direction():
    frame = frame_from_axis(np.ones(3) / math.sqrt(3.0))
    basis = np.array([frame.f0, frame.f1, frame.f2])
    np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(bracket(frame.f0, frame.f1), frame.f2, atol=1e-12)


def test_frame_from_axis_rejects_zero():
    with pytest.raises(ZeroDirection):
        frame_from_axis([0.0, 0.0, 1e-13])


@pytest.mark.parametrize("scale", [665, -665], ids=["1e200", "1e-200"])
def test_frame_from_axis_of_a_huge_or_tiny_axis(scale):
    # the length is taken of the axis scaled by a power of two, so no
    # square overflows or underflows: a 1e200 axis has the frame of the
    # axis it scales, bit for bit, and d its true size; a 1e-200 axis
    # raises ZeroDirection; no float warning either way
    axis = np.array([0.6, -0.2, 1.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale < 0:
            with pytest.raises(ZeroDirection, match="below 1e-12"):
                frame_from_axis(np.ldexp(axis, scale))
            return
        frame, huge = frame_from_axis(axis), frame_from_axis(np.ldexp(axis, scale))
    for mine, its in zip((huge.f0, huge.f1, huge.f2), (frame.f0, frame.f1, frame.f2)):
        assert mine.tobytes() == its.tobytes()
    assert huge.d == math.ldexp(frame.d, scale) and 1e200 < huge.d < 1e201
    assert frame_from_axis([1e200, 0.0, 0.0]).d == 1e200


@pytest.mark.parametrize("constant, null", [
    ([1e200, 0.0, 0.0], False), ([0.0, -1e200, 1e200], False), ([0.0, 1e-13, 0.0], True),
    ([1e-200, 0.0, -1e-200], True), ([0.0, 0.0, NULL_TOL], True),
    ([0.0, 0.0, math.nextafter(NULL_TOL, 1.0)], False), ([0.0, 0.0, 0.0], True)],
    ids=["1e200", "two-1e200", "1e-13", "two-1e-200", "tol", "past-tol", "zero"])
def test_is_null_takes_the_scaled_length_of_a_huge_or_tiny_constant(constant, null):
    # is_null takes frame_from_axis's length, of C scaled by a power of
    # two: no square overflows, and no float warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_null(constant) is null


@given(hnp.arrays(float, 3, elements=st.floats(-1e100, 1e100).filter(
    lambda x: x == 0.0 or abs(x) > 1e-100)))
def test_scaled_length_is_the_length_where_no_square_overflows(v):
    # scaling by a power of two is exact, so where no square over- or
    # underflows the length is _length's bit for bit, is_null's answer too
    assert _scaled_length(v)[2] == float(_length(v))
    assert is_null(v) == (float(_length(v)) <= NULL_TOL)


def test_frame_validates_orthonormality():
    with pytest.raises(ValueError):
        Frame([1, 0, 0], [0.5, 0.5, 0], [0, 0, 1], 1.0)
    with pytest.raises(ValueError):
        # orthonormal but negatively oriented
        Frame([1, 0, 0], [0, 0, 1], [0, 1, 0], 1.0)


# --------------------------------------------------------------- renormalize

def test_renormalize_fixes_exact_rotation():
    r = rot_exp([0.4, -0.2, 0.8])
    np.testing.assert_allclose(renormalize(r), r, atol=1e-14)


def test_renormalize_small_perturbation():
    skew = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]])
    r = np.eye(3) + 1e-6 * skew
    out = renormalize(r)
    assert rotation_error(out) < 1e-12


def test_renormalize_rejects_far_matrix():
    with pytest.raises(NotNearRotation):
        renormalize(2.0 * np.eye(3))


def test_renormalize_after_long_integration(fig1_trajectory):
    from so3cubics.quadratic import integrate_cubic
    # 1e4 steps of x' = x ad(V) on [0, 5] at half step
    rt = integrate_cubic(np.eye(3), fig1_trajectory, 5e-4)
    final = renormalize(rt.rotations[-1])
    assert abs(np.linalg.det(final) - 1.0) < 1e-12
