"""The writers' bytes are those of the standard formatters they replace:
`csv.writer` for tables, `json.dumps(indent=2, sort_keys=True)` for
payloads, and an f-string `:.2f` per coordinate for SVG polylines."""

import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from so3cubics.output import (CSV_BLOCK_ROWS, KERNEL_MIN_FLOATS, SvgCurve, project_points,
                              render_svg, write_csv, write_json)

SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                  2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-05, 1e-04]

_floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_subnormal=True)

# a small pool of cells, so that most cells of a table drawn from it repeat:
# both zeros, NaNs with different payloads (quiet, negative, signalling),
# both infinities and 17-digit floats
POOL = np.concatenate([
    [0.0, -0.0, float("inf"), float("-inf"), 0.1, 1 / 3, -2 / 3, 1e16 / 3],
    np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF4000000000000],
             dtype=np.uint64).view(np.float64),
])

_shapes = st.tuples(st.integers(0, 2 * CSV_BLOCK_ROWS + 3), st.integers(1, 4))
_tables = (arrays(float, _shapes, elements=_floats)
           | arrays(np.intp, _shapes, elements=st.integers(0, len(POOL) - 1)).map(POOL.take))


def _block_boundary_table() -> np.ndarray:
    """Cells of the last row of the first block repeated, sign-swapped
    zeros included, in the first row of the second."""
    table = np.resize(POOL, (CSV_BLOCK_ROWS + 2, 3))
    table[CSV_BLOCK_ROWS - 1] = [-0.0, 0.0, 1 / 3]
    table[CSV_BLOCK_ROWS] = [0.0, -0.0, 1 / 3]
    return table


def _float32_table() -> np.ndarray:
    with np.errstate(invalid="ignore"):   # the cast quiets the signalling NaN
        return np.resize(POOL, (40, 3)).astype(np.float32)


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


# ------------------------------------------------------------------------ CSV

@settings(max_examples=80, deadline=None)
@given(_tables)
@example(np.empty((0, 3)))
@example(np.empty((3, 0)))
@example(np.array(SPECIAL_FLOATS).reshape(-1, 1))
@example(np.resize(np.array(SPECIAL_FLOATS), (CSV_BLOCK_ROWS + 1, 3)))
@example(_float32_table())
@example(np.resize(POOL, (4, 30)).T)
@example(np.resize(POOL, (30, 8))[:, ::3])
@example(_block_boundary_table())
def test_csv_float_table_matches_csv_writer(tmp_path_factory, rows):
    header = [f"c{j}" for j in range(rows.shape[1])]
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", header, rows)
    assert path.read_bytes() == _csv_writer_bytes(header, rows.tolist())


@pytest.mark.parametrize("rows", [3 * CSV_BLOCK_ROWS, 3 * CSV_BLOCK_ROWS - 1])
def test_csv_tables_longer_than_a_block(tmp_path, rows):
    table = np.random.default_rng(rows).normal(size=(rows, 5)) * 10.0 ** np.arange(-8, 12, 4)
    table[::97, 2] = -0.0
    path = write_csv(tmp_path / "t.csv", list("abcde"), table)
    assert path.read_bytes() == _csv_writer_bytes(list("abcde"), table.tolist())


def test_csv_non_float_arrays_go_through_csv_writer(tmp_path):
    rows = np.array([[1, -2], [3, 4]])
    path = write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert path.read_bytes() == b"a,b\r\n1,-2\r\n3,4\r\n"


# ------------------------------------------------------------------------ SVG

@settings(max_examples=60, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 60), st.just(2)),
              elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, 1e-9])))
@example(np.array([[1e6, 1e6], [1e6, 1e6]]))
def test_svg_polyline_matches_per_point_fstring(points):
    # a marker at every point: the markers still format one f-string per
    # coordinate, from the same pixel coordinates as the polyline
    curve = SvgCurve("c", points, markers=[(x, y, "") for x, y in points.tolist()])
    svg = render_svg([curve])
    polyline = re.search(r'points="([^"]*)"', svg).group(1)
    circles = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)
    assert polyline == " ".join(f"{x},{y}" for x, y in circles)
    assert len(circles) == len(points)
    # every point lies inside the plot frame, a flat curve included
    coords = np.array([point.split(",") for point in polyline.split()], dtype=float)
    assert ((coords >= 56.0) & (coords <= [664.0, 484.0])).all()


@settings(max_examples=60, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 40), st.just(3)), elements=st.floats(-1e3, 1e3)),
       arrays(float, (2, 3), elements=st.floats(-1.0, 1.0)))
def test_projection_matches_scalar_loop_bit_for_bit(points, projection):
    # each coordinate is summed as (x0 r0 + x1 r1) + x2 r2 on every machine
    # (matmul sums in numpy's and the CPU's order)
    expected = [[(x0 * r0 + x1 * r1) + x2 * r2 for r0, r1, r2 in projection.tolist()]
                for x0, x1, x2 in points.tolist()]
    assert project_points(points, projection).tolist() == expected


@pytest.mark.parametrize("value", [0.0, -0.0, -0.004, float("nan"), float("inf"),
                                   float("-inf"), 1e300])
def test_percent_format_matches_fstring(value):
    assert "%.2f,%.2f" % (value, -value) == f"{value:.2f},{-value:.2f}"


# ----------------------------------------------------------------------- JSON

def _listed(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_dumps_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, default=_listed) + "\n").encode()


_ndarrays = (arrays(float, st.sampled_from([(), (0,), (4,), (3, 2), (0, 3)]), elements=_floats)
             | arrays(np.int64, st.sampled_from([(), (3,), (2, 2)])))
_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
           | _floats | _floats.map(np.float64) | st.text() | _ndarrays)
_keys = st.text() | st.sampled_from(["é", "☃", "a\nb", '"q"'])
_payloads = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(_floats, min_size=1, max_size=8)
                   | st.dictionaries(_keys, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_keys, _payloads, max_size=6) | _payloads)
@example({"times": [0.0, 0.5, 1.0], "v": np.arange(6.0).reshape(2, 3), "n": 3,
          "nested": {"b": (1, "x", None), "a": [True, False, float("nan")]},
          "empty": {"l": [], "t": (), "d": {}, "a": np.empty((0, 2))}})
@example({2: "int", 0.5: "float", -1: "int", 1e300: "float"})
@example({True: "true", False: "false", 2: "int", 0.5: "float"})
@example({float("nan"): "nan"})
@example({None: "none"})
@example({1: "int", "a": "str"})
@example({"x": [1.0, float("inf"), -0.0], "y": [float("-inf")], "z": np.array(1e-7)})
def test_json_matches_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "p.json"
    try:
        expected = _json_dumps_bytes(payload)
    except TypeError:   # mixed key types cannot be sorted
        with pytest.raises(TypeError):
            write_json(path, payload)
        return
    assert write_json(path, payload).read_bytes() == expected


# lists and arrays long enough for the float-text kernel: finite floats,
# NaN and the infinities, and lists that mix in ints or numpy floats
_finite = st.floats(allow_nan=False, allow_infinity=False)
_long = (arrays(float, st.sampled_from([(KERNEL_MIN_FLOATS,), (40,), (KERNEL_MIN_FLOATS, 1),
                                        (1, KERNEL_MIN_FLOATS), (8, 2), (16, 3), (5, 7)]),
                elements=_finite | _floats)
         | st.lists(_finite | _floats, min_size=KERNEL_MIN_FLOATS, max_size=40)
         | st.lists(_finite | st.integers() | _finite.map(np.float64),
                    min_size=KERNEL_MIN_FLOATS, max_size=20))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(max_size=3), _long | st.lists(_long, max_size=3), max_size=4))
@example({"a": np.arange(16.0) / 3, "b": np.arange(48.0).reshape(16, 3) / 7,
          "c": [0.1] * KERNEL_MIN_FLOATS, "d": [0.1] * (KERNEL_MIN_FLOATS - 1) + [1],
          "e": [np.float64(0.5)] * KERNEL_MIN_FLOATS, "f": np.full(KERNEL_MIN_FLOATS, np.nan),
          "g": [np.arange(20.0) * 1e-5, np.full((4, 4), -0.0)]})
def test_json_of_long_float_lists_and_arrays_matches_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "p.json"
    assert write_json(path, payload).read_bytes() == _json_dumps_bytes(payload)


@pytest.mark.parametrize("value", [{1, 2}, 1j, b"x", object(), np.int64(1), np.bool_(True),
                                   {(1, 2): 0}, {"a": 1, 1: "a"}])
def test_json_rejects_what_json_rejects(tmp_path, value):
    payload = {"key": [1.0, value]}
    with pytest.raises(TypeError):
        _json_dumps_bytes(payload)
    with pytest.raises(TypeError):
        write_json(tmp_path / "p.json", payload)
