"""Deterministic CSV/JSON/SVG writers for the experiment harness.

An artifact is data: a table (a header and its rows), a JSON payload, or
a list of SVG curves.  Each format has one writer, which takes arrays as
they are and formats them without a Python call per value.  Tables and
payloads are written with shortest round-trip float formatting, so a
given config always produces byte-identical files.  SVG plots are plain
polyline renders of orthographically projected curves; every SVG has a
CSV twin carrying the exact plotted numbers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write a table: a 2-D array, or a list of rows of strings and numbers.

    The csv module writes every Python float in its shortest round-trip
    form, so a table's floats read back bit for bit.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows.tolist() if isinstance(rows, np.ndarray) else rows)
    return path


def write_json(path: Path, payload: dict) -> Path:
    """Write a payload; arrays in it are written as (nested) lists."""
    path = Path(path)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_array_to_list)
        fh.write("\n")
    return path


def _array_to_list(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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


def rotation_to_dict(table: np.ndarray) -> dict:
    """The payload of a rotation table: its times and its rotations."""
    return {
        "schema": f"{SCHEMA_PREFIX}-rotation-v1",
        "grid": table[:, 0],
        "rotations": table[:, 1:],
    }


@dataclass
class SvgCurve:
    """One polyline: projected 2D points plus optional labelled markers."""

    name: str
    points: np.ndarray          # (N, 2)
    color: str = "#1f6feb"
    dashed: bool = False
    markers: list = field(default_factory=list)   # [(x, y, label)]


def project_points(points3d: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """Orthographic projection of (N, 3) points onto two axis rows."""
    return np.asarray(points3d, dtype=float) @ np.asarray(projection, dtype=float).T


def render_svg(curves: list[SvgCurve], title: str = "",
               width: int = 720, height: int = 540, margin: float = 56.0) -> str:
    pts = np.vstack([c.points for c in curves if len(c.points)])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    extent = np.array([width - 2 * margin, height - 2 * margin])

    def to_px(points) -> list:
        """Pixel coordinates [x, y] of (N, 2) data points."""
        scaled = (np.reshape(points, (-1, 2)) - lo) / span * extent
        return np.column_stack([margin + scaled[:, 0],
                                height - margin - scaled[:, 1]]).tolist()

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
    for corner, anchor, (x, y) in zip((lo, hi), ("start", "end"), to_px([lo, hi])):
        parts.append(f'<text x="{x:.1f}" y="{height - margin + 16:.1f}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="10">{corner[0]:.3g}</text>')
        parts.append(f'<text x="{margin - 6:.1f}" y="{y:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{corner[1]:.3g}</text>')
    legend_y = margin + 4.0
    for curve in curves:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in to_px(curve.points))
        dash = ' stroke-dasharray="6,4"' if curve.dashed else ""
        parts.append(f'<polyline fill="none" stroke="{curve.color}" stroke-width="1.5"'
                     f'{dash} points="{coords}"/>')
        parts.append(f'<text x="{width - margin + 4:.1f}" y="{legend_y:.1f}" '
                     f'font-family="sans-serif" font-size="10" fill="{curve.color}">'
                     f'{curve.name}</text>')
        legend_y += 14.0
        marks = to_px([marker[:2] for marker in curve.markers])
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
