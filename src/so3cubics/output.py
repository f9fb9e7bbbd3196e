"""Deterministic CSV/JSON/SVG writers for the experiment harness.

An artifact is data: a table (a header and its rows), a JSON payload, or
a list of SVG curves.  Each format has one writer, which takes arrays as
they are and formats their floats in bulk.  `_float_text` writes the
floats of a float table, `CSV_BLOCK_ROWS` rows at a time, and those of a
1-D or 2-D float array in a JSON payload that holds `KERNEL_MIN_FLOATS` or
more floats, all finite.  It runs the C kernel of `_floattext.c`:
Schubfach's shortest digits in `float.__repr__`'s layout, each float's
text written straight into the joined text in one pass.  Where that kernel
cannot be had (see `_native`), or the array holds NaN or an infinity, the
same text comes from `repr` in Python: one `%` format call per block with
each distinct float formatted once.  JSON lists and the other arrays'
lists are written item by item; the harness keeps every series that grows
with the sample count an array, so its lists grow only with the number of
deltas.  An SVG polyline's points go through `_fixed_text`, the same
kernel's second text: `%.2f` of every coordinate from an exact product in
C, in the same one pass.  Where the kernel cannot be had, or a coordinate
is NaN, an infinity or 1e13 or more, the polyline takes one `%.2f` format
call in Python.  The bytes are those of `csv.writer`, of
`json.dumps(indent=2, sort_keys=True)` and of `%.2f`: floats in tables and
payloads take their shortest round-trip form, so a given config always
produces byte-identical files, with the kernel or without it.
SVG plots are plain polyline renders of orthographically projected
curves; every SVG has a CSV twin carrying the exact plotted numbers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _native
from .algebra import _dot
from .quadratic import QuadraticTrajectory

SCHEMA_PREFIX = "so3cubics"

# fixed palette: numeric reference, first-order, second-order, baseline
CURVE_COLORS = {
    "reference": "#1f6feb",
    "first": "#2da44e",
    "second": "#cf222e",
    "taylor2": "#57606a",
    "approx": "#cf222e",
}


# rows of a float table per format call: bounds the formatting buffers
CSV_BLOCK_ROWS = 1024
# fewest floats of a JSON list or array that go to the float-text kernel;
# shorter ones cost less in Python than a kernel call does
KERNEL_MIN_FLOATS = 16
# bytes of the joined text that one float may use, ROOM in _floattext.c
_ROOM = 40
# an SVG's width and height in pixels, and the margin of its plot frame
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 720, 540, 56.0


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write a table: a 2-D array, or a list of rows of strings and numbers.

    Floats are written in their shortest round-trip form (`repr`, as the
    csv module writes them), so a table's floats read back bit for bit.  A
    2-D float array is formatted `CSV_BLOCK_ROWS` rows at a time by
    `_float_text`, with the excel dialect's `\\r\\n` line ends; other rows
    go through `csv.writer`.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                fh.write(_float_text(rows[start:start + CSV_BLOCK_ROWS], ",", "\r\n"))
                fh.write("\r\n")
        else:
            writer.writerows(rows.tolist() if isinstance(rows, np.ndarray) else rows)
    return path


def _float_text(values: np.ndarray, sep: str, row_sep: str) -> str:
    """The `repr` of every float of the 2-D array `values`, those of a row
    joined by `sep` and the rows joined by `row_sep`: by the float-text
    kernel where it can be had, else by `_float_text_python`."""
    kernel = _native.kernel("floattext")
    return (kernel.shortest if kernel else _float_text_python)(values, sep, row_sep)


def _fixed_text(values: np.ndarray, sep: str, row_sep: str) -> str:
    """`_float_text` with the `%.2f` text of every float in place of its
    `repr`: by the float-text kernel where it can be had, else by
    `_fixed_text_python`."""
    kernel = _native.kernel("floattext")
    return (kernel.fixed2 if kernel else _fixed_text_python)(values, sep, row_sep)


def _float_text_python(values: np.ndarray, sep: str, row_sep: str) -> str:
    """`_float_text` in Python: one `%` format call over `_float_texts`."""
    line = sep.join(["%s"] * values.shape[1])
    return row_sep.join([line] * len(values)) % _float_texts(values)


def _fixed_text_python(values: np.ndarray, sep: str, row_sep: str) -> str:
    """`_fixed_text` in Python: one `%` format call."""
    line = sep.join(["%.2f"] * values.shape[1])
    return row_sep.join([line] * len(values)) % tuple(values.ravel().tolist())


def _float_texts(block: np.ndarray) -> tuple:
    """The `repr` of every float of `block`, row by row, with `repr` called
    once per distinct float.  Floats are told apart by their bits, so 0.0
    and -0.0 keep their own texts."""
    flat = np.ascontiguousarray(block, dtype=np.float64).ravel()
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    return tuple(texts[inverse])


class _FloatKernel(NamedTuple):
    """The float-text kernel's two texts: `shortest` with
    `_float_text_python`'s signature and `fixed2` with
    `_fixed_text_python`'s."""

    shortest: Callable[[np.ndarray, str, str], str]
    fixed2: Callable[[np.ndarray, str, str], str]


# the self-check's finite floats, before 480 drawn ones: both zeros, the
# ends of the subnormal and normal ranges, both sides of each switch
# between fixed and exponent notation, 1e23 and its upper neighbour, which
# has 1e23 on the bound of its interval and may not take it, 2^50 plus a
# quarter or three, halfway between two 17-digit texts, and 2^64 and
# 2^-24, whose closer lower neighbour decides their digits
_CHECK_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
                 9999999999999998.0, 1e-05, 0.0001, 100.0, -0.1, 1 / 3, 2.0 ** 63, 1.5e300,
                 9.5e-7, -1e22, 1e23, 1.0000000000000001e23, 5e-310, 2.0 ** 50 + 0.25,
                 2.0 ** 50 + 0.75, 2.0 ** 64, 2.0 ** -24)

# the fixed-point self-check's finite floats below 1e13, before the ties
# k/8, the neighbours of k + 0.005 and 240 drawn pixel values: both zeros,
# tiny negatives (-0.00), halves of a cent that are not ties and the
# largest floats below the 1e13 cut, whose text rounds up to 1e13
_CHECK_FIXED = (0.0, -0.0, -0.001, -1e-300, -5e-324, 5e-324, 0.005, -0.005, 0.015, 2.675, 1.005,
                -2.675, math.nextafter(1e13, 0.0), -math.nextafter(1e13, 0.0))

# floats that the kernel leaves to the twins, each among finite ones: NaN
# and the infinities, and for %.2f 1e13 and more
_CHECK_LEFT = (math.nan, math.inf, -math.inf)
_CHECK_LEFT_FIXED = (*_CHECK_LEFT, 1e13, -1e13, 1e28, -1e28)


def _bind_floattext(library):
    """`library`'s two float texts, and their self-checks against their
    Python twins on two check tables each, drawn by `_native._draws`: one
    of finite floats that the kernel writes itself, and one that holds the
    floats it leaves to the twin.  Its arrays are typed as ndarrays.

    The kernel writes the text of every float of the array into the joined
    text in one pass, and returns -1 where a float has no text in C: NaN
    and the infinities, and for `%.2f` also 1e13 or more.  Then the twin
    writes the whole array, with the same bytes.
    """
    import ctypes

    def joined(entry, twin):
        """The text of the kernel's `entry` as a function with `twin`'s
        signature, which runs `twin` where `entry` leaves the array to it."""
        entry.argtypes = (_native.DOUBLES_IN, ctypes.c_longlong, ctypes.c_longlong,
                          ctypes.c_char_p, ctypes.c_longlong, ctypes.c_char_p,
                          ctypes.c_longlong, _native.BYTES_OUT)
        entry.restype = ctypes.c_longlong

        def text(values: np.ndarray, sep: str, row_sep: str) -> str:
            # a caller's table or payload may hold a strided or float32 array
            values = np.ascontiguousarray(values, dtype=np.float64)
            rows, cols = values.shape
            sep_bytes, row_bytes = sep.encode(), row_sep.encode()
            out = np.empty((rows * cols + 1) * _ROOM + rows * cols * len(sep_bytes)
                           + rows * len(row_bytes), dtype=np.uint8)
            size = entry(values, rows, cols, sep_bytes, len(sep_bytes), row_bytes,
                         len(row_bytes), out)
            return twin(values, sep, row_sep) if size < 0 else str(out.data[:size], "ascii")

        return text

    kernel = _FloatKernel(joined(library.shortest_text, _float_text_python),
                          joined(library.fixed2_text, _fixed_text_python))
    # the kernel's own texts, None where it leaves the array to the twin: on
    # finite floats the self-check compares these, so a kernel that left
    # them to the twin would fail it
    own_shortest, own_fixed2 = (joined(entry, lambda *args: None)
                                for entry in (library.shortest_text, library.fixed2_text))

    draws = _native._draws(1200, 2010)
    # 240 bit patterns of three 31-bit states each, which the draws are exactly
    high, mid, low = ((draws[:720] + 1.0) * 2.0 ** 30).astype(np.uint64).reshape(3, 240)
    shortest = np.concatenate([_CHECK_FLOATS, (high << 33 ^ mid << 2 ^ low).view(np.float64),
                               draws[720:960] * 10.0 ** (np.arange(240) % 28 - 8)])
    shortest = shortest[np.isfinite(shortest)]
    shortest = shortest[:len(shortest) // 3 * 3].reshape(-1, 3)
    cents = np.arange(-20.0, 20.0) + 0.005
    # 240 pixel values; dividing by the inexact 1e-3 fills every bit of them
    fixed = np.concatenate([_CHECK_FIXED, np.arange(-40, 40) / 8.0, np.nextafter(cents, -np.inf),
                            np.nextafter(cents, np.inf), draws[960:] / 1e-3]).reshape(-1, 2)
    return kernel, [
        (own_shortest, _float_text_python, (shortest, ", ", "\r\n")),
        (kernel.shortest, _float_text_python,
         (np.array([*_CHECK_LEFT, *_CHECK_FLOATS[:3]]).reshape(-1, 3), ", ", "\r\n")),
        (own_fixed2, _fixed_text_python, (fixed, ",", " ")),
        (kernel.fixed2, _fixed_text_python,
         (np.array([*_CHECK_LEFT_FIXED, 1.005]).reshape(-1, 2), ",", " "))]


def write_json(path: Path, payload) -> Path:
    """Write a payload as `json.dumps(payload, indent=2, sort_keys=True)`
    writes it, with a final newline; arrays in it are written as the
    (nested) lists of their `tolist()`, by `_float_text` where
    `_json_array` takes them, and lists item by item.  Each top-level entry
    is written as soon as it is rendered."""
    path = Path(path)
    with path.open("w") as fh:
        fh.writelines(_json_dict(payload, "\n") if isinstance(payload, dict)
                      else [_json(payload, "\n")])
        fh.write("\n")
    return path


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(obj, nl: str) -> str:
    """JSON text of one value whose line starts with `nl` (a newline and
    its indent), as json's pure-Python encoder writes it."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _JSON_CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in obj]) + nl + "]"
    if isinstance(obj, dict):
        return "".join(_json_dict(obj, nl))
    if isinstance(obj, np.ndarray):
        return _json_array(obj, nl) or _json(obj.tolist(), nl)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_array(obj: np.ndarray, nl: str) -> str | None:
    """The JSON text of a 1-D or 2-D float64 array of `KERNEL_MIN_FLOATS`
    or more finite floats by `_float_text`, the same as that of its
    `tolist()`; None for any other array."""
    if not (obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size >= KERNEL_MIN_FLOATS
            and np.isfinite(obj).all()):
        return None
    inner = nl + "  "
    if obj.ndim == 1:
        return "[" + inner + _float_text(obj[None], "," + inner, "") + nl + "]"
    row = inner + "  "
    body = _float_text(obj, "," + row, inner + "]," + inner + "[" + row)
    return "[" + inner + "[" + row + body + inner + "]" + nl + "]"


def _json_dict(obj: dict, nl: str):
    """The pieces of a dict's JSON text: one per entry, keys sorted.  A key
    that is a number, a bool or None is quoted as its JSON text."""
    if not obj:
        yield "{}"
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, value in sorted(obj.items()):
        if not (isinstance(key, (str, int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        text = key if isinstance(key, str) else _json(key, nl)
        yield sep + encode_basestring_ascii(text) + ": " + _json(value, inner)
        sep = "," + inner
    yield nl + "}"


QUADRATIC_CSV_HEADER = [
    "t",
    "v_x", "v_y", "v_z",
    "dv_x", "dv_y", "dv_z",
    "ddv_x", "ddv_y", "ddv_z",
]


def quadratic_table(traj: QuadraticTrajectory, times=None) -> np.ndarray:
    """Rows (t, V, V', V'') at the given times (the grid by default)."""
    times = traj.grid if times is None else np.asarray(times, dtype=float)
    return np.column_stack([times, traj.jet(times).reshape(-1, 9)])


def quadratic_to_dict(traj: QuadraticTrajectory) -> dict:
    return {
        "schema": f"{SCHEMA_PREFIX}-quadratic-v1",
        "grid": traj.grid,
        "v": traj.v,
        "dv": traj.v1,
        "ddv": traj.v2,
        "constant": traj.C,
        "accel": traj.c,
        "null": traj.null,
    }


ROTATION_CSV_HEADER = ["t"] + [f"r{i}{j}" for i in range(3) for j in range(3)]


def rotation_table(times, rotations) -> np.ndarray:
    """Rows (t, r00..r22): each time followed by its rotation, row-major."""
    return np.column_stack([times, np.reshape(rotations, (-1, 9))])


def rotation_to_dict(times, rotations) -> dict:
    """The payload of `rotation_table`'s arguments, each rotation a row-major
    row of nine floats; C-contiguous float arrays go in as they are."""
    return {"schema": f"{SCHEMA_PREFIX}-rotation-v1", "grid": np.asarray(times, dtype=float),
            "rotations": np.asarray(rotations, dtype=float).reshape(-1, 9)}


@dataclass
class SvgCurve:
    """One polyline: projected 2D points plus optional labelled markers."""

    name: str
    points: np.ndarray          # (N, 2)
    color: str = "#1f6feb"
    dashed: bool = False
    markers: list = field(default_factory=list)   # [(x, y, label)]


def project_points(points3d: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """Orthographic projection of (N, 3) points onto two axis rows: each
    coordinate is `algebra._dot` of the points with one row."""
    points = np.asarray(points3d, dtype=float)
    return _dot(points[..., None, :], np.asarray(projection, dtype=float))


def render_svg(curves: list[SvgCurve], title: str = "") -> str:
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    pts = np.vstack([c.points for c in curves if len(c.points)])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    # a flat extent is widened relative to its magnitude: far from the
    # origin a fixed floor falls below the float spacing and stays flat
    span = np.maximum(hi - lo, 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    extent = np.array([width - 2 * margin, height - 2 * margin])

    def to_px(points) -> np.ndarray:
        """Pixel coordinates (x, y) of (N, 2) data points, as an (N, 2) array."""
        scaled = (np.reshape(points, (-1, 2)) - lo) / span * extent
        return np.column_stack([margin + scaled[:, 0], height - margin - scaled[:, 1]])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#d0d7de"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2}" y="{margin - 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    for corner, anchor, (x, y) in zip((lo, hi), ("start", "end"), to_px([lo, hi]).tolist()):
        parts.append(f'<text x="{x:.1f}" y="{height - margin + 16:.1f}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="10">{corner[0]:.3g}</text>')
        parts.append(f'<text x="{margin - 6:.1f}" y="{y:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{corner[1]:.3g}</text>')
    legend_y = margin + 4.0
    for curve in curves:
        coords = _fixed_text(to_px(curve.points), ",", " ")
        dash = ' stroke-dasharray="6,4"' if curve.dashed else ""
        parts.append(f'<polyline fill="none" stroke="{curve.color}" stroke-width="1.5"'
                     f'{dash} points="{coords}"/>')
        parts.append(f'<text x="{width - margin + 4:.1f}" y="{legend_y:.1f}" '
                     f'font-family="sans-serif" font-size="10" fill="{curve.color}">'
                     f'{curve.name}</text>')
        legend_y += 14.0
        marks = to_px([marker[:2] for marker in curve.markers]).tolist()
        for (x, y), (_, _, label) in zip(marks, curve.markers):
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{curve.color}"/>')
            if label:
                parts.append(f'<text x="{x + 5:.2f}" y="{y - 5:.2f}" '
                             f'font-family="sans-serif" font-size="9">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path: Path, curves: list[SvgCurve], title: str = "") -> Path:
    path = Path(path)
    path.write_text(render_svg(curves, title=title))
    return path
