"""Experiment runner: integrates reference trajectories, evaluates the
closed-form approximants against them, and emits CSV/JSON/SVG artifacts.

All experiments are driven by an ExperimentConfig.  Initial conditions are
stored as a base angular velocity plus a unit-gauge perturbation triple
(p0, p1, p2); the quadratic integrated for perturbation size delta starts
from (base + delta p0, delta p1, delta p2).  The built-in defaults
reproduce the package's two demonstration families:

* figure1/figure2 - a non-null quadratic near (1, 0, 0) with a fixed,
  slightly irregular perturbation, on [0, 5] and [0, 25];
* figure3 - the rotation curve of a nearly constant quadratic with a
  clean rational perturbation on [0, 10], compared against its
  quadrature-free approximation.

Each kind is one row of `KINDS`: its CLI subcommand (also its artifact
file stem), help line, builder, grid sampling and config defaults.
`config_from_dict` type-checks every entry of JSON-keyed layers (a config
file, the CLI flags), merges them key by key and validates the result once.

Every kind runs through one pipeline, `run_experiment`: a validated
config; one set of sample times; the pieces the kind needs (quadratic,
rotation curve, reconstruction, fitted parameters), each built at most
once per delta; named series evaluated at those times; and one emission
step.  A kind hands that step its artifacts as data: a table (a header and
its rows), the SVG curves, the report dict and any extra files as (file
name, table or payload); the emission step picks each file's writer from
its suffix.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .approximants import (ApproxParams, first_approximant, fit_params,
                           second_approximant, taylor2_baseline)
from .errors import ConfigError, DegenerateB
from .output import (CURVE_COLORS, QUADRATIC_CSV_HEADER, ROTATION_CSV_HEADER, SCHEMA_PREFIX,
                     SvgCurve, project_points, quadratic_table, quadratic_to_dict,
                     rotation_table, rotation_to_dict, write_csv, write_json, write_svg)
from .quadratic import (QuadraticIVP, QuadraticTrajectory, RotationTrajectory, _domain_slack,
                        integrate_cubic, integrate_quadratic)
from .reconstruction import (ReconstructionInput, approx_cubic, reconstruct_cubic,
                             rotation_phase, rotation_phase_approx, so3_distance)

# largest integration-step and sample counts a config may ask for
MAX_STEPS = 1_000_000
MAX_SAMPLES = 100_000
# steps and strides must span at least this many float spacings of the
# interval endpoints, so that grid and sample times are strictly increasing
MIN_SPACING_ULPS = 256
# a marker or integer time is shown where it matches a sample time this closely
TIME_TOL = 1e-9

# convergence-ratio pass bands for halved deltas, by approximant
RATIO_BANDS = {
    "first": (3.0, 5.0),
    "second": (6.0, 10.0),
    "approx_cubic": (3.0, 5.0),
    "phase": (3.0, 5.0),
}

# perturbation triples of the figure1/figure2 and of the figure3 families,
# both around the base (1, 0, 0)
_FIG1_PERT = ((0.5, 0.6, -1.0), (-0.5, -0.449, 0.0), (0.1, -0.5, 0.5))
_FIG3_PERT = ((0.0, 1.0, 0.0), (0.0, 0.0, 0.5), (0.25, 0.25, 0.25))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    t0: float
    t1: float
    step: float = 1e-3
    deltas: tuple = (0.01,)
    base: tuple = (1.0, 0.0, 0.0)
    pert: tuple = _FIG1_PERT
    out_dir: str = "out"
    formats: tuple = ("csv", "json", "svg")
    stride: float = 0.01
    projection: tuple = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    budget: float = 1e-3

    def validate(self) -> "ExperimentConfig":
        _kind(self.kind)
        if not (np.isfinite(self.t0) and np.isfinite(self.t1) and self.t0 < self.t1):
            raise ConfigError(f"degenerate interval [{self.t0}, {self.t1}]")
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if self.step > self.t1 - self.t0:
            raise ConfigError("step exceeds the interval length")
        if not (self.t1 - self.t0) / self.step <= MAX_STEPS:
            raise ConfigError(f"more than MAX_STEPS={MAX_STEPS} integration steps")
        if not 0 < self.stride < math.inf:
            raise ConfigError("stride must be positive and finite")
        resolution = MIN_SPACING_ULPS * np.spacing(max(abs(self.t0), abs(self.t1)))
        for name, value in (("step", self.step), ("stride", self.stride)):
            if not (self.t0 + value) - self.t0 >= resolution:
                raise ConfigError(f"{name} {value:g} is below the {resolution:.3g} that the "
                                  f"interval endpoints resolve")
        if self._sample_count() > MAX_SAMPLES:
            raise ConfigError(f"more than MAX_SAMPLES={MAX_SAMPLES} sample times")
        if not self.formats or not set(self.formats) <= {"csv", "json", "svg"}:
            raise ConfigError("formats must be a nonempty subset of csv/json/svg")
        if not self.deltas:
            raise ConfigError("at least one delta is required")
        if not all(math.isfinite(d) for d in self.deltas):
            raise ConfigError("deltas must be finite")
        if any(d < 0 for d in self.deltas):
            raise ConfigError("deltas must be nonnegative")
        _finite_array(self.base, (3,), "base must be a finite 3-vector")
        _finite_array(self.pert, (3, 3), "perturbation must hold three finite 3-vectors")
        if self.kind == "converge":
            if len(self.deltas) < 2:
                raise ConfigError("converge needs at least two deltas")
            if any(b >= a for a, b in zip(self.deltas, self.deltas[1:])):
                raise ConfigError("converge deltas must be strictly decreasing")
            if any(d <= 0 for d in self.deltas):
                raise ConfigError("converge deltas must be positive")
            if self._sample_count() < 2:
                # at t0 alone every error is 0 and no ratio is defined
                raise ConfigError("converge needs at least two sample times")
        elif len(self.deltas) > 1:
            raise ConfigError(f"{self.kind} takes one delta, got {len(self.deltas)}")
        _finite_array(self.projection, (2, 3), "projection must be two finite 3-vectors")
        if not 0 < self.budget < math.inf:
            raise ConfigError("budget must be positive and finite")
        if "svg" in self.formats and "csv" not in self.formats:
            # every SVG gets a CSV twin carrying the exact plotted numbers
            return replace(self, formats=tuple(self.formats) + ("csv",))
        return self

    def ivp(self, delta: float) -> QuadraticIVP:
        if delta == 0.0:
            raise DegenerateB("zero perturbation leaves no oscillatory component")
        base = np.asarray(self.base, dtype=float)
        p0, p1, p2 = (np.asarray(p, dtype=float) for p in self.pert)
        return QuadraticIVP(self.t0, self.t1, base + delta * p0, delta * p1, delta * p2)

    def sample_times(self) -> np.ndarray:
        return self.t0 + self.stride * np.arange(self._sample_count())

    def _sample_count(self) -> int:
        """How many t0 + k stride lie at or below t1 plus the slack `check_times`
        accepts; floor((t1 - t0) / stride) is one off at most."""
        end = self.t1 + _domain_slack(self.t0, self.t1)
        k = int((self.t1 - self.t0) / self.stride)
        return k + (self.t0 + self.stride * (k + 1) <= end) + (self.t0 + self.stride * k <= end)

    def to_dict(self) -> dict:
        """The config under the JSON keys of `_CONFIG_KEYS` but the "delta"
        alias, tuples as lists; `config_from_dict` reads it back."""
        out = {"schema": f"{SCHEMA_PREFIX}-config-v1", "interval": [self.t0, self.t1]}
        for key, (field, _) in _CONFIG_KEYS.items():
            if key not in out and key != "delta":
                out[key] = _lists(getattr(self, field))
        return out


def _lists(value):
    """`value` with every tuple or list in it, at any depth, as a list."""
    return [_lists(x) for x in value] if isinstance(value, (tuple, list)) else value


def _finite_array(value, shape: tuple, message: str) -> None:
    """Raise ConfigError(message) unless `value` is a finite array of `shape`."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{message}: {exc}") from exc
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ConfigError(message)


def _kind(name) -> "Kind":
    """The `KINDS` row of a kind name; ConfigError for any other value."""
    if not isinstance(name, str) or name not in KINDS:
        raise ConfigError(f"unknown kind {name!r}; expected one of {tuple(KINDS)}")
    return KINDS[name]


def default_config(kind: str, out_dir: str = "out") -> ExperimentConfig:
    return ExperimentConfig(kind=kind, out_dir=out_dir, **_kind(kind).defaults)


def _number(key: str, value) -> float:
    """A JSON number, int or float but not bool, in the float range."""
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{key} must be a JSON number in the float range, got {value!r:.40}")


def _string(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


def _array(key: str, value, depth: int = 1, leaf=_number) -> tuple:
    """A JSON array nested `depth` deep, as nested tuples of its leaves
    parsed by `leaf`; shapes are checked by `validate`."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a JSON array, got {value!r:.40}")
    return tuple(_array(key, x, depth - 1, leaf) if depth > 1 else leaf(f"{key} entry", x)
                 for x in value)


def _interval(key: str, value) -> tuple:
    if len(interval := _array(key, value)) != 2:
        raise ConfigError("interval must be [t0, t1]")
    return interval


# JSON key -> (the ExperimentConfig field it sets, the parser of its value);
# "deltas" follows "delta", so that it wins where one dict holds both
_CONFIG_KEYS = {
    "kind": ("kind", _string),
    "interval": ("interval", _interval),
    "step": ("step", _number),
    "delta": ("deltas", lambda key, value: (_number(key, value),)),
    "deltas": ("deltas", _array),
    "base": ("base", _array),
    "perturbation": ("pert", lambda key, value: _array(key, value, 2)),
    "output_dir": ("out_dir", _string),
    "formats": ("formats", lambda key, value: _array(key, value, 1, _string)),
    "stride": ("stride", _number),
    "projection": ("projection", lambda key, value: _array(key, value, 2)),
    "budget": ("budget", _number),
}
# accepted and ignored; "renorm_every" is from when rotations were renormalized
_IGNORED_KEYS = {"schema", "renorm_every"}


def config_from_dict(*layers: dict, kind: str | None = None) -> ExperimentConfig:
    """The validated config of JSON-keyed dicts: every entry of every layer
    is parsed, later layers override earlier ones key by key, and `kind`
    applies where no layer names one."""
    fields = {}
    for data in layers:
        unknown = set(data) - set(_CONFIG_KEYS) - _IGNORED_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, (field, parse) in _CONFIG_KEYS.items():
            if key in data:
                fields[field] = parse(key, data[key])
    kind = fields.pop("kind", kind)
    if kind is None:
        raise ConfigError("config does not specify a kind")
    if "interval" in fields:
        fields["t0"], fields["t1"] = fields.pop("interval")
    return replace(default_config(kind), **fields).validate()


def read_config(path) -> dict:
    """The JSON object a config file holds."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:    # ValueError: bad JSON, or an int too long
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


@dataclass
class RunResult:
    files: list
    report: dict        # what the run's JSON report file holds, arrays where it has lists


@dataclass
class _Pieces:
    """What the series of one delta are computed from; each piece is built
    on first use, so a kind pays only for the pieces it needs, once."""

    config: ExperimentConfig
    delta: float

    @cached_property
    def ivp(self) -> QuadraticIVP:
        return self.config.ivp(self.delta)

    @cached_property
    def traj(self) -> QuadraticTrajectory:
        return integrate_quadratic(self.ivp, self.config.step)

    @cached_property
    def params(self) -> ApproxParams:
        ivp = self.ivp
        return fit_params(np.asarray(self.config.base, dtype=float), self.delta,
                          ivp.v0, ivp.v1, ivp.v2, ivp.t0)

    @cached_property
    def xref(self) -> RotationTrajectory:
        return integrate_cubic(np.eye(3), self.traj, self.config.step)

    @cached_property
    def recon(self) -> ReconstructionInput:
        return ReconstructionInput(self.traj, np.eye(3))


@dataclass
class _Artifacts:
    """One run's output as data: <stem>.csv holds the `table`, a header and
    its rows (a 2-D array, or a list of rows of strings and numbers);
    <stem>.svg plots the `curves` under the `title`; <stem>.json holds the
    `report`; `dumps` are extra files as (file name, table or payload)."""

    table: tuple
    curves: list
    title: str
    report: dict
    dumps: tuple = ()


def _nearest(nodes: np.ndarray, targets, tol: float = math.inf) -> np.ndarray:
    """Index of the node nearest each target time (`nodes` ascending), or -1
    where that node is farther than `tol` from the target."""
    targets = np.asarray(targets, dtype=float)
    hi = np.minimum(np.searchsorted(nodes, targets), len(nodes) - 1)
    lo = np.maximum(hi - 1, 0)
    idx = np.where(targets - nodes[lo] <= nodes[hi] - targets, lo, hi)
    return np.where(np.abs(nodes[idx] - targets) <= tol, idx, -1)


def _samples(config: ExperimentConfig, grid=None) -> tuple[np.ndarray, np.ndarray]:
    """(times, idx): the times every series of a run is evaluated at and
    written with.  Without a grid, the exact sample times and their own
    indices; with the integration grid, the distinct grid nodes nearest the
    sample times and their indices into the grid."""
    times = config.sample_times()
    if grid is None:
        return times, np.arange(len(times))
    idx = np.unique(_nearest(grid, times))
    return grid[idx], idx


def _matches(times: np.ndarray, wanted) -> list[tuple[float, int]]:
    """(wanted time, sample index) for each wanted time that is one of the
    evaluated times to within TIME_TOL; the others are left out."""
    return [(float(t), int(i)) for t, i in zip(wanted, _nearest(times, wanted, TIME_TOL))
            if i >= 0]


def _markers(points: np.ndarray, labels: list[tuple[int, str]]) -> list:
    return [(points[i][0], points[i][1], label) for i, label in labels]


def _error_report(config: ExperimentConfig, times: np.ndarray, series: dict) -> dict:
    """The report of error series (name -> {delta -> errors at `times`}),
    with their maxima and, over several deltas, the ratios of consecutive
    maxima, checked against the expected-order bands where one is set."""
    deltas = [float(d) for d in config.deltas]
    maxima = {name: [float(by_delta[d].max()) for d in deltas]
              for name, by_delta in series.items()}
    ratios, bands, passed = {}, {}, {}
    if len(deltas) >= 2:
        for name, values in maxima.items():
            ratios[name] = [a / b for a, b in zip(values, values[1:])]
            if name in RATIO_BANDS:
                lo, hi = bands[name] = list(RATIO_BANDS[name])
                passed[name] = [lo <= r <= hi for r in ratios[name]]
    return {
        "schema": f"{SCHEMA_PREFIX}-report-v1",
        "deltas": deltas,
        "times": times,
        "series": {name: {repr(float(d)): e for d, e in by_delta.items()}
                   for name, by_delta in series.items()},
        "maxima": maxima,
        "ratios": ratios,
        "bands": bands,
        "passed": passed,
        "config": config.to_dict(),
    }


def _curve_errors(p: _Pieces, times: np.ndarray) -> tuple[dict, dict]:
    """The integrated quadratic, both approximants and the Taylor baseline
    at `times`, and the distances of the last three from the first."""
    curves = {
        "reference": np.atleast_2d(p.traj.eval(times)),
        "first": first_approximant(p.params, times),
        "second": second_approximant(p.params, times),
        "taylor2": taylor2_baseline(p.ivp, times),
    }
    errors = {name: np.linalg.norm(vals - curves["reference"], axis=1)
              for name, vals in curves.items() if name != "reference"}
    return curves, errors


def _curve_table(config: ExperimentConfig, times: np.ndarray, curves: dict):
    """CSV header and rows of 3D curves at `times`, each followed by its
    projected 2D coordinates (`name_x` .. `name_py`), and the projections."""
    proj = np.asarray(config.projection, dtype=float)
    projected = {name: project_points(vals, proj) for name, vals in curves.items()}
    header = ["t"] + [f"{name}_{c}" for name in curves for c in ("x", "y", "z", "px", "py")]
    rows = np.column_stack([times, *(np.column_stack([curves[name], projected[name]])
                                     for name in curves)])
    return header, rows, projected


def _quadratic_kind(config, pieces, times, idx) -> _Artifacts:
    """figure1, figure2, quadratic-compare: the integrated quadratic against
    both approximants and the degree-2 Taylor baseline; figure2 also
    reports when each first exceeds the error budget."""
    (p,) = pieces
    curves, errors = _curve_errors(p, times)
    report = _error_report(config, times, {name: {p.delta: err}
                                           for name, err in errors.items()})
    report.update(constant=p.traj.C.tolist(), accel=p.traj.c, params=p.params.to_dict())
    marks = [config.t0, config.t0 + 2.0]
    if config.kind == "figure2":
        over = {name: err > config.budget for name, err in errors.items()}
        report["breach_times"] = {name: float(times[mask.argmax()]) if mask.any() else None
                                  for name, mask in over.items()}
        report["budget"] = config.budget
        marks.append(config.t0 + 22.5)

    header, rows, projected = _curve_table(config, times, curves)
    labels = [(i, f"t={times[i]:g}") for _, i in _matches(times, marks)]
    svg = [SvgCurve(name, projected[name], CURVE_COLORS[name], dashed=(name == "taylor2"),
                    markers=_markers(projected[name], labels)) for name in curves]

    dumps = ()
    if config.kind == "quadratic-compare":
        report["near_geodesic_gauge"] = list(p.traj.near_geodesic_gauge())
        dumps = (("trajectory.csv", (QUADRATIC_CSV_HEADER, quadratic_table(p.traj, times))),
                 ("trajectory.json", quadratic_to_dict(p.traj)))
    title = f"{KINDS[config.kind].command}: quadratic vs approximants"
    return _Artifacts((header, rows), svg, title, report, dumps)


def _figure3(config, pieces, times, idx) -> _Artifacts:
    """Second rows of the integrated rotation curve and of its
    quadrature-free approximation, with their distance series."""
    (p,) = pieces
    approx = approx_cubic(p.params, np.eye(3), times)
    fro, angle = so3_distance(approx, p.xref.rotations[idx])
    report = _error_report(config, times, {"approx_frobenius": {p.delta: fro},
                                           "approx_angle": {p.delta: angle}})
    report["params"] = p.params.to_dict()
    report["rotation_defect_max"] = p.xref.max_rotation_error()
    # the integers nearest the samples, so the cost grows with the sample
    # count, not with t1 - t0; + 0.0 turns a rounded -0.0 into 0.0
    int_times = _matches(times, np.unique(np.round(times)) + 0.0)
    report["angle_at_integer_times"] = {repr(t): float(angle[i]) for t, i in int_times}

    header, rows, projected = _curve_table(
        config, times, {"ref": p.xref.second_rows()[idx], "approx": approx[:, 1, :]})
    labels = [(i, f"{t:g}") for t, i in int_times]
    svg = [SvgCurve(name, projected[key], CURVE_COLORS[color],
                    markers=_markers(projected[key], labels))
           for name, key, color in (("integrated", "ref", "reference"),
                                    ("closed-form", "approx", "approx"))]
    table = (header + ["frobenius", "angle"], np.column_stack([rows, fro, angle]))
    return _Artifacts(table, svg, "figure3: second rows of the rotation curve", report)


_PALETTE = ("#1f6feb", "#2da44e", "#cf222e", "#8250df", "#bf8700")


def _converge(config, pieces, times, idx) -> _Artifacts:
    """Max errors of every approximant for each delta, with consecutive
    ratios checked against the expected-order bands."""
    series = {name: {} for name in ("first", "second", "taylor2", "approx_cubic", "phase")}
    for p in pieces:
        _, errors = _curve_errors(p, times)
        for name, err in errors.items():
            series[name][p.delta] = err
        series["approx_cubic"][p.delta] = np.linalg.norm(
            approx_cubic(p.params, np.eye(3), times) - p.xref.rotations[idx], axis=(1, 2))
        series["phase"][p.delta] = np.abs(rotation_phase(p.recon, times)
                                          - rotation_phase_approx(p.params, times))
    report = _error_report(config, times, series)
    report["rotation_defect_max"] = max(p.xref.max_rotation_error() for p in pieces)

    header = ["approximant", "delta", "max_error", "ratio_to_next", "band_lo",
              "band_hi", "passed"]
    rows = []
    for name, maxima in report["maxima"].items():
        ratios = report["ratios"].get(name, [])
        band = report["bands"].get(name, ["", ""])
        passed = report["passed"].get(name, [])
        for i, delta in enumerate(config.deltas):
            rows.append([name, delta, maxima[i], ratios[i] if i < len(ratios) else "",
                         *band, str(passed[i]).lower() if i < len(passed) else ""])
    svg = [SvgCurve(f"{name} d={p.delta:g}", np.column_stack([times, by_delta[p.delta]]),
                    _PALETTE[ci % len(_PALETTE)])
           for ci, (name, by_delta) in enumerate(series.items()) for p in pieces]
    return _Artifacts((header, rows), svg, "converge: error vs time", report)


def _cubic(config, pieces, times, idx) -> _Artifacts:
    """The integrated rotation curve against its quadrature reconstruction
    and, where defined, the closed-form approximation."""
    (p,) = pieces
    xref = p.xref
    xrec = reconstruct_cubic(p.recon)
    report = {
        "schema": f"{SCHEMA_PREFIX}-report-v1",
        "deltas": [p.delta],
        "reconstruction_max_frobenius": float(np.max(np.linalg.norm(
            xref.rotations - xrec.rotations, axis=(1, 2)))),
        "rotation_defect_max": xref.max_rotation_error(),
        "config": config.to_dict(),
    }
    if not p.params.b_degenerate:
        fro, angle = so3_distance(approx_cubic(p.params, np.eye(3), times), xref.rotations[idx])
        report["approx_max_frobenius"] = float(fro.max())
        report["approx_max_angle"] = float(angle.max())
        report["params"] = p.params.to_dict()

    sampled = rotation_table(times, xref.rotations[idx])
    proj = np.asarray(config.projection, dtype=float)
    svg = [SvgCurve("integrated", project_points(xref.second_rows()[idx], proj),
                    CURVE_COLORS["reference"]),
           SvgCurve("reconstructed", project_points(xrec.second_rows()[idx], proj),
                    CURVE_COLORS["second"])]
    return _Artifacts((ROTATION_CSV_HEADER, sampled), svg,
                      "cubic: second rows, integrated vs reconstructed", report,
                      (("cubic_trajectory.json", rotation_to_dict(sampled)),))


@dataclass(frozen=True)
class Kind:
    """One experiment kind: its CLI subcommand, also its artifact file stem;
    the subcommand's help line; the builder of its artifacts; whether it
    samples at integration-grid nodes (kinds with a rotation series do);
    the ExperimentConfig fields that differ from the class defaults."""

    command: str
    help: str
    build: Callable[..., _Artifacts]
    on_grid: bool
    defaults: dict


# every experiment kind, by name; iterating it yields the names
KINDS = {
    "figure1": Kind("figure1", "short-interval quadratic vs approximants",
                    _quadratic_kind, False, {"t0": 0.0, "t1": 5.0}),
    "figure2": Kind("figure2", "long-interval quadratic vs approximants with error budget",
                    _quadratic_kind, False, {"t0": 0.0, "t1": 25.0}),
    "figure3": Kind("figure3", "rotation curve vs its closed-form approximation", _figure3, True,
                    {"t0": 0.0, "t1": 10.0, "deltas": (0.05,), "pert": _FIG3_PERT,
                     "projection": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))}),
    "converge": Kind("converge", "convergence-order study over a list of deltas", _converge,
                     True, {"t0": 0.0, "t1": 5.0, "deltas": (0.04, 0.02), "pert": _FIG3_PERT}),
    "quadratic-compare": Kind("quadratic", "integrate a quadratic and compare approximants",
                              _quadratic_kind, False, {"t0": 0.0, "t1": 5.0}),
    "cubic-compare": Kind("cubic", "integrate, reconstruct and compare a rotation curve", _cubic,
                          True, {"t0": 0.0, "t1": 5.0, "deltas": (0.05,), "pert": _FIG3_PERT}),
}


def _emit(config: ExperimentConfig, art: _Artifacts) -> list[Path]:
    """Write the run's table, plot, report and extra files in the requested
    formats, each by the writer its file suffix names."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = KINDS[config.kind].command
    files = ((f"{stem}.csv", art.table), (f"{stem}.svg", (art.curves, art.title)),
             (f"{stem}.json", art.report), *art.dumps)
    written = []
    for name, data in files:
        path = out / name
        fmt = path.suffix[1:]
        if fmt in config.formats:
            written.append(write_json(path, data) if fmt == "json" else
                           (write_csv if fmt == "csv" else write_svg)(path, *data))
    return written


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one experiment of any kind: validate the config, fix the sample
    times, evaluate the kind's series there and write them out.

    `on_grid` kinds sample at the integration-grid nodes nearest the
    configured sample times, so that every series is compared and reported
    at the times it was evaluated; the others sample at the exact sample
    times.
    """
    config = config.validate()
    kind = KINDS[config.kind]
    pieces = [_Pieces(config, float(d)) for d in config.deltas]
    grid = pieces[0].traj.grid if kind.on_grid else None
    times, idx = _samples(config, grid)
    art = kind.build(config, pieces, times, idx)
    return RunResult(files=_emit(config, art), report=art.report)


RUNNERS = {kind: run_experiment for kind in KINDS}
