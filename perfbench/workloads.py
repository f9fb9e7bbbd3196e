"""The benchmark's workloads: the inputs of each operation and the checks
that its written artifacts must pass.

An operation (op) is one in-process `so3cubics.cli.main(argv)` call that
writes into a fresh output directory.  The initial data of every op are
written out here rather than taken from the library's defaults, so the
independent reference integrates the problem the op was meant to solve.
This module imports nothing beyond numpy, so a fresh interpreter can build
a workload's inputs without loading the reference solver.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Initial data of the figure1/figure2 demonstration family (delta = 0.01)
# and the unit-gauge perturbation triple of the figure3 family.
FIG1_JET = ((1.005, 0.006, -0.01), (-0.005, -0.00449, 0.0), (0.001, -0.005, 0.005))
FIG3_BASE = (1.0, 0.0, 0.0)
FIG3_PERT = ((0.0, 1.0, 0.0), (0.0, 0.0, 0.5), (0.25, 0.25, 0.25))
FIG3_DELTA = 0.05

# Integrated output must lie this close to the reference (Euclidean norm
# for V, V', V''; Frobenius norm for rotations).  These are gates against
# gross failure; the ref_err_max metric tracks smaller changes.  RK4 errors
# grow like |V|^5: over 300 ensemble draws the worst was 5.4e-9 (V'' where
# |V| reaches 20); the fixed inputs stay below 6e-10 for V (quad-dense) and
# 3.2e-9 for rotations (rot-dense, step 0.01).
REF_TOL_QUADRATIC = 1e-6
REF_TOL_ROTATION = 1e-8
# The reconstruction error cubic.json reports must stay below this.  It is
# the library's own figure, so the reconstructed curve is also checked in
# cubic.svg, the only artifact that holds it, against the reference.
RECON_TOL = 1e-6
# cubic.svg writes pixel coordinates with two decimals, so its curves can
# be checked against the reference only to a few hundredths of a pixel.
SVG_TOL_PX = 0.05
# The closed forms are fitted to the initial data, so at t0 they must
# reproduce the reference up to rounding.
T0_TOL = 1e-12
# On inputs fixed in this file, the closed-form error may not exceed twice
# its value at the commit that defined the benchmark; a broken closed form
# is typically off by far more.
APPROX_LIMIT_FACTOR = 2.0
QUAD_DENSE_APPROX = 4.17e-3
ROT_DENSE_APPROX = 1.17
ROT_LONG_APPROX = 9.32e-2
ANCHOR_APPROX = 9.0e-4


class CheckFailed(Exception):
    """An op's artifacts failed a correctness check."""


def _jet(base, triple, delta: float) -> tuple:
    """Initial (V, V', V'') = (base + delta p0, delta p1, delta p2), as the
    harness builds it from a config."""
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in triple)
    return (tuple(np.asarray(base, dtype=float) + delta * p0),
            tuple(delta * p1), tuple(delta * p2))


FIG3_JET = _jet(FIG3_BASE, FIG3_PERT, FIG3_DELTA)


@dataclass(frozen=True)
class OpInput:
    """Everything one op needs, and what its check compares against."""

    argv: tuple[str, ...]
    config: dict | None      # written to `config.json` before the op when given
    jet: tuple               # initial (V, V', V'') the reference integrates
    t0: float
    t1: float
    approx_limit: float | None   # closed-form error limit; None for random draws

    @property
    def fixed(self) -> bool:
        """True for inputs fixed in this file, False for seeded draws."""
        return self.approx_limit is not None

    def prepare(self, work: Path) -> list[str]:
        """Write the op's config (if any) and return the full argv."""
        argv = list(self.argv) + ["--out", str(work / "out")]
        if self.config is not None:
            path = work / "config.json"
            path.write_text(json.dumps(self.config, sort_keys=True))
            argv += ["--config", str(path)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    artifacts: tuple[str, ...]
    times: tuple[float, float]       # (stride, t1) of the emitted sample times
    op: Callable[[int, int], OpInput]    # (seed, op index) -> the op's input


def _quad_dense(seed, index):
    return OpInput(("figure2", "--step", "0.025", "--stride", "0.05",
                    "--formats", "csv,json,svg"), None, FIG1_JET, 0.0, 25.0,
                   APPROX_LIMIT_FACTOR * QUAD_DENSE_APPROX)


def _rot_dense(seed, index):
    return OpInput(("figure3", "--step", "0.01", "--stride", "0.02"), None,
                   FIG3_JET, 0.0, 10.0, APPROX_LIMIT_FACTOR * ROT_DENSE_APPROX)


# Axis rows of the orthographic projection that cubic.svg is drawn with.
ROT_LONG_PROJECTION = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _rot_long(seed, index):
    config = {"kind": "cubic-compare", "interval": [0.0, 5.0], "step": 1e-3,
              "delta": FIG3_DELTA, "base": list(FIG3_BASE),
              "perturbation": [list(p) for p in FIG3_PERT], "stride": 0.5,
              "projection": [list(p) for p in ROT_LONG_PROJECTION],
              "formats": ["csv", "json", "svg"]}
    return OpInput(("cubic",), config, FIG3_JET, 0.0, 5.0,
                   APPROX_LIMIT_FACTOR * ROT_LONG_APPROX)


ENSEMBLE_INTERVAL = (0.0, 20.0)


def draw_ivp(seed: int, index: int):
    """The index-th random IVP of the ensemble for a seed: (base, triple, delta).

    base: uniform random direction with magnitude U[0.5, 2]; triple: N(0, 1)
    entries; delta: log-uniform in [0.005, 0.05].
    """
    rng = np.random.default_rng([seed, index])
    direction = rng.normal(size=3)
    base = direction / np.linalg.norm(direction) * rng.uniform(0.5, 2.0)
    triple = rng.normal(size=(3, 3))
    delta = float(np.exp(rng.uniform(math.log(0.005), math.log(0.05))))
    return base, triple, delta


def ensemble_op(base, triple, delta, approx_limit=None) -> OpInput:
    config = {"kind": "quadratic-compare", "interval": list(ENSEMBLE_INTERVAL),
              "step": 1e-3, "delta": delta, "base": [float(x) for x in base],
              "perturbation": [[float(x) for x in p] for p in triple],
              "stride": 0.5, "formats": ["csv"]}
    return OpInput(("quadratic",), config, _jet(base, triple, delta), *ENSEMBLE_INTERVAL,
                   approx_limit)


def _ivp_ensemble(seed, index):
    return ensemble_op(*draw_ivp(seed, index))


def anchor_op() -> OpInput:
    """A fixed ensemble-shaped op (the figure1 family on the ensemble's
    interval).  It runs once per ivp-ensemble process, outside the timed
    window, and supplies that workload's accuracy metrics, which must not
    depend on the seed."""
    base = (1.0, 0.0, 0.0)
    triple = ((0.5, 0.6, -1.0), (-0.5, -0.449, 0.0), (0.1, -0.5, 0.5))
    return ensemble_op(base, triple, 0.01, APPROX_LIMIT_FACTOR * ANCHOR_APPROX)


WORKLOADS = {w.name: w for w in (
    Workload("quad-dense", ("figure2.csv", "figure2.json", "figure2.svg"),
             (0.05, 25.0), _quad_dense),
    Workload("rot-dense", ("figure3.csv", "figure3.json", "figure3.svg"),
             (0.02, 10.0), _rot_dense),
    Workload("rot-long", ("cubic.csv", "cubic.json", "cubic_trajectory.json", "cubic.svg"),
             (0.5, 5.0), _rot_long),
    Workload("ivp-ensemble", ("quadratic.csv", "trajectory.csv"), (0.5, 20.0), _ivp_ensemble),
)}


# ---------------------------------------------------------------------------
# artifacts and checks
# ---------------------------------------------------------------------------

def read_artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def digest(artifacts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(artifacts.items()):
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _reject_constant(token):
    raise CheckFailed(f"non-finite number {token} in JSON")


def _csv(data: bytes, name: str) -> tuple[list[str], np.ndarray]:
    text = data.decode()
    header, _, body = text.partition("\n")
    columns = header.strip().split(",")
    try:
        values = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{name}: unreadable CSV: {exc}") from exc
    if values.shape[1] != len(columns):
        raise CheckFailed(f"{name}: {values.shape[1]} values for {len(columns)} columns")
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{name}: non-finite value")
    return columns, values


def _grid(workload: Workload) -> np.ndarray:
    """The sample times the workload's artifacts must hold."""
    stride, t1 = workload.times
    return stride * np.arange(int(math.floor(t1 / stride + 1e-9)) + 1)


def _check_times(times: np.ndarray, workload: Workload, artifact: str) -> None:
    expected = _grid(workload)
    if times.shape != expected.shape or np.max(np.abs(times - expected)) > 1e-9:
        raise CheckFailed(f"{artifact}: sample times differ from the grid "
                          f"{workload.times[0]} apart on [0, {workload.times[1]}]")


def _check_cubic_svg(name: str, data: bytes, workload: Workload, reference,
                     member: int) -> None:
    """Compare cubic.svg's two polylines, the integrated and the
    reconstructed second rows, with the reference's second rows.

    The plot's scale is fitted per axis to the integrated polyline, so the
    check does not depend on the plot's size or margins; the reconstructed
    polyline must then lie on the reference under the same scale.
    """
    lines = re.findall(rb'<polyline[^>]*\bpoints="([^"]*)"', data)
    if len(lines) != 2:
        raise CheckFailed(f"{name}: {len(lines)} polylines, expected 2")
    curves = [np.array([[float(v) for v in point.split(b",")] for point in line.split()])
              for line in lines]
    rows = reference.rotation(_grid(workload), member)[:, 1, :]
    expected = rows @ np.asarray(ROT_LONG_PROJECTION).T
    for curve in curves:
        if curve.shape != expected.shape:
            raise CheckFailed(f"{name}: {len(curve)} points, expected {len(expected)}")
    worst = 0.0
    for axis in range(2):
        design = np.column_stack([expected[:, axis], np.ones(len(expected))])
        scale, *_ = np.linalg.lstsq(design, curves[0][:, axis], rcond=None)
        if not abs(scale[0]) > 1.0:
            # a flat polyline fits any curve at scale 0
            raise CheckFailed(f"{name}: polyline does not follow the reference")
        for curve in curves:
            worst = max(worst, float(np.max(np.abs(design @ scale - curve[:, axis]))))
    if not worst <= SVG_TOL_PX:
        raise CheckFailed(f"{name}: second rows off the reference by {worst:.3g} px")


def _vec_err(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.linalg.norm(values - ref, axis=-1)


@dataclass
class CheckResult:
    ref_err: float      # worst integrated-output deviation from the reference
    approx_err: float   # worst closed-form deviation from the reference


def check_op(workload: Workload, op: OpInput, artifacts: dict[str, bytes],
             reference, member: int = 0) -> CheckResult:
    """Check one op's artifacts against the reference; raise CheckFailed.

    `reference` is an oracle.Reference and `member` the op's problem in it.
    Times and values are read back from the artifacts, so a wrong reported
    time or a NaN that got past the library shows here.
    """
    missing = set(workload.artifacts) - set(artifacts)
    if missing:
        raise CheckFailed(f"missing artifacts {sorted(missing)}")
    errors = {"quadratic": [0.0], "rotation": [0.0], "approx": [], "recon": [0.0]}
    for name, data in sorted(artifacts.items()):
        try:
            _check_artifact(workload, name, data, reference, member, errors)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"{name}: malformed: {exc!r}") from exc
    ref_q, ref_x, recon = (max(errors[k]) for k in ("quadratic", "rotation", "recon"))
    if not ref_q <= REF_TOL_QUADRATIC:
        raise CheckFailed(f"integrated quadratic off the reference by {ref_q:.3g}")
    if not ref_x <= REF_TOL_ROTATION:
        raise CheckFailed(f"integrated rotation off the reference by {ref_x:.3g}")
    if not recon <= RECON_TOL:
        raise CheckFailed(f"reconstruction disagrees with integration by {recon:.3g}")
    if not errors["approx"]:
        raise CheckFailed("no closed-form output")
    approx_err = max(errors["approx"])
    if op.fixed and not approx_err <= op.approx_limit:
        raise CheckFailed(f"closed form off the reference by {approx_err:.3g} "
                          f"(limit {op.approx_limit:.3g})")
    return CheckResult(ref_err=max(ref_q, ref_x), approx_err=approx_err)


def _check_artifact(workload, name, data, reference, member, errors) -> None:
    """Add one artifact's worst deviations from the reference to `errors`."""
    if name.endswith(".svg"):
        if re.search(rb"\b(nan|inf)\b", data):
            raise CheckFailed(f"{name}: non-finite coordinate")
        if name == "cubic.svg":
            _check_cubic_svg(name, data, workload, reference, member)
        return
    if name.endswith(".json"):
        payload = json.loads(data, parse_constant=_reject_constant)
        if name == "cubic.json":
            errors["recon"].append(float(payload["reconstruction_max_frobenius"]))
            errors["approx"].append(float(payload["approx_max_frobenius"]))
        elif name == "cubic_trajectory.json":
            times = np.array(payload["grid"], dtype=float)
            _check_times(times, workload, name)
            rots = np.array(payload["rotations"], dtype=float).reshape(-1, 3, 3)
            diff = rots - reference.rotation(times, member)
            errors["rotation"].append(np.max(np.linalg.norm(diff, axis=(1, 2))))
        return
    columns, values = _csv(data, name)
    times = values[:, 0]
    _check_times(times, workload, name)

    def cols(*names):
        return values[:, [columns.index(n) for n in names]]

    if name in ("figure2.csv", "quadratic.csv"):
        v = reference.quadratic(times, member)[:, 0:3]
        errors["quadratic"].append(np.max(_vec_err(cols("reference_x", "reference_y",
                                                       "reference_z"), v)))
        second = _vec_err(cols("second_x", "second_y", "second_z"), v)
        if not second[0] <= T0_TOL:
            raise CheckFailed(f"{name}: second approximant misses V(t0) by {second[0]:.3g}")
        errors["approx"].append(np.max(second))
    elif name == "trajectory.csv":
        jet = reference.quadratic(times, member)
        got = cols(*(f"{p}{c}" for p in ("v_", "dv_", "ddv_") for c in "xyz"))
        errors["quadratic"].extend(np.max(_vec_err(got[:, k:k + 3], jet[:, k:k + 3]))
                                   for k in (0, 3, 6))
    elif name == "figure3.csv":
        row = reference.rotation(times, member)[:, 1, :]
        errors["rotation"].append(np.max(_vec_err(cols("ref_x", "ref_y", "ref_z"), row)))
        approx = _vec_err(cols("approx_x", "approx_y", "approx_z"), row)
        if not approx[0] <= T0_TOL:
            raise CheckFailed(f"{name}: closed-form curve misses x0 by {approx[0]:.3g}")
        errors["approx"].append(np.max(approx))
    elif name == "cubic.csv":
        rots = cols(*(f"r{i}{j}" for i in range(3) for j in range(3))).reshape(-1, 3, 3)
        diff = rots - reference.rotation(times, member)
        errors["rotation"].append(np.max(np.linalg.norm(diff, axis=(1, 2))))
