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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .approximants import (ApproxParams, first_approximant, fit_params,
                           second_approximant, taylor2_baseline)
from .errors import ConfigError, DegenerateB
from .output import (CURVE_COLORS, SvgCurve, project_points, write_csv, write_json,
                     write_quadratic_csv, write_quadratic_json, write_rotation_csv,
                     write_rotation_json, write_svg, SCHEMA_PREFIX)
from .quadratic import (QuadraticIVP, QuadraticTrajectory, integrate_cubic,
                        integrate_quadratic)
from .reconstruction import (ReconstructionInput, approx_cubic, reconstruct_cubic,
                             rotation_phase, rotation_phase_approx, so3_distance)

KINDS = ("figure1", "figure2", "figure3", "converge",
         "quadratic-compare", "cubic-compare")

# convergence-ratio pass bands for halved deltas, by approximant
RATIO_BANDS = {
    "first": (3.0, 5.0),
    "second": (6.0, 10.0),
    "approx_cubic": (3.0, 5.0),
    "phase": (3.0, 5.0),
}

# perturbation triple of the figure1/figure2 demonstration family
_FIG1_BASE = (1.0, 0.0, 0.0)
_FIG1_PERT = ((0.5, 0.6, -1.0), (-0.5, -0.449, 0.0), (0.1, -0.5, 0.5))
# perturbation triple of the figure3 family
_FIG3_BASE = (1.0, 0.0, 0.0)
_FIG3_PERT = ((0.0, 1.0, 0.0), (0.0, 0.0, 0.5), (0.25, 0.25, 0.25))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    t0: float
    t1: float
    step: float = 1e-3
    deltas: tuple = (0.01,)
    base: tuple = _FIG1_BASE
    pert: tuple = _FIG1_PERT
    out_dir: str = "out"
    formats: tuple = ("csv", "json", "svg")
    stride: float = 0.01
    projection: tuple = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    budget: float = 1e-3
    renorm_every: int = 16

    def validate(self) -> "ExperimentConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not (np.isfinite(self.t0) and np.isfinite(self.t1) and self.t0 < self.t1):
            raise ConfigError(f"degenerate interval [{self.t0}, {self.t1}]")
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if self.step > self.t1 - self.t0:
            raise ConfigError("step exceeds the interval length")
        if not self.stride > 0:
            raise ConfigError("stride must be positive")
        if not self.formats or not set(self.formats) <= {"csv", "json", "svg"}:
            raise ConfigError("formats must be a nonempty subset of csv/json/svg")
        formats = self.formats
        if "svg" in formats and "csv" not in formats:
            # every SVG gets a CSV twin carrying the exact plotted numbers
            formats = tuple(formats) + ("csv",)
            return replace(self, formats=formats).validate()
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
        _finite_array(self.projection, (2, 3), "projection must be two finite 3-vectors")
        if not self.budget > 0:
            raise ConfigError("budget must be positive")
        if self.renorm_every < 0:
            raise ConfigError("renorm_every must be nonnegative")
        return self

    @property
    def delta(self) -> float:
        return float(self.deltas[0])

    def ivp(self, delta: float) -> QuadraticIVP:
        if delta == 0.0:
            raise DegenerateB("zero perturbation leaves no oscillatory component")
        base = np.asarray(self.base, dtype=float)
        p0, p1, p2 = (np.asarray(p, dtype=float) for p in self.pert)
        return QuadraticIVP(self.t0, self.t1, base + delta * p0, delta * p1, delta * p2)

    def fit(self, delta: float) -> ApproxParams:
        ivp = self.ivp(delta)
        return fit_params(np.asarray(self.base, dtype=float), delta,
                          ivp.v0, ivp.v1, ivp.v2, self.t0)

    def sample_times(self) -> np.ndarray:
        count = int(math.floor((self.t1 - self.t0) / self.stride)) + 1
        return self.t0 + self.stride * np.arange(count)

    def to_dict(self) -> dict:
        return {
            "schema": f"{SCHEMA_PREFIX}-config-v1",
            "kind": self.kind,
            "interval": [self.t0, self.t1],
            "step": self.step,
            "deltas": list(self.deltas),
            "base": list(self.base),
            "perturbation": [list(p) for p in self.pert],
            "output_dir": self.out_dir,
            "formats": list(self.formats),
            "stride": self.stride,
            "projection": [list(p) for p in self.projection],
            "budget": self.budget,
            "renorm_every": self.renorm_every,
        }


def _finite_array(value, shape: tuple, message: str) -> None:
    """Raise ConfigError(message) unless `value` is a finite array of `shape`."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{message}: {exc}") from exc
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ConfigError(message)


def default_config(kind: str, out_dir: str = "out") -> ExperimentConfig:
    if kind == "figure1":
        return ExperimentConfig(kind="figure1", t0=0.0, t1=5.0, out_dir=out_dir)
    if kind == "figure2":
        return ExperimentConfig(kind="figure2", t0=0.0, t1=25.0, out_dir=out_dir)
    if kind == "figure3":
        return ExperimentConfig(kind="figure3", t0=0.0, t1=10.0, deltas=(0.05,),
                                base=_FIG3_BASE, pert=_FIG3_PERT, out_dir=out_dir,
                                projection=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    if kind == "converge":
        return ExperimentConfig(kind="converge", t0=0.0, t1=5.0, deltas=(0.04, 0.02),
                                base=_FIG3_BASE, pert=_FIG3_PERT, out_dir=out_dir)
    if kind == "quadratic-compare":
        return ExperimentConfig(kind="quadratic-compare", t0=0.0, t1=5.0, out_dir=out_dir)
    if kind == "cubic-compare":
        return ExperimentConfig(kind="cubic-compare", t0=0.0, t1=5.0, deltas=(0.05,),
                                base=_FIG3_BASE, pert=_FIG3_PERT, out_dir=out_dir)
    raise ConfigError(f"unknown kind {kind!r}")


_CONFIG_KEYS = {
    "schema", "kind", "interval", "step", "deltas", "delta", "base",
    "perturbation", "output_dir", "formats", "stride", "projection",
    "budget", "renorm_every",
}


def config_from_dict(data: dict, kind: str | None = None) -> ExperimentConfig:
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kind = data.get("kind", kind)
    if kind is None:
        raise ConfigError("config does not specify a kind")
    cfg = default_config(kind)
    try:
        fields = _config_fields(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config entry: {exc}") from exc
    return replace(cfg, **fields).validate()


def _config_fields(data: dict) -> dict:
    """ExperimentConfig fields from the JSON keys present in `data`."""
    fields = {}
    if "interval" in data:
        iv = data["interval"]
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2):
            raise ConfigError("interval must be [t0, t1]")
        fields["t0"], fields["t1"] = float(iv[0]), float(iv[1])
    if "step" in data:
        fields["step"] = float(data["step"])
    if "delta" in data:
        fields["deltas"] = (float(data["delta"]),)
    if "deltas" in data:
        fields["deltas"] = tuple(float(d) for d in data["deltas"])
    if "base" in data:
        fields["base"] = tuple(float(x) for x in data["base"])
    if "perturbation" in data:
        pert = data["perturbation"]
        if len(pert) != 3:
            raise ConfigError("perturbation must hold three 3-vectors")
        fields["pert"] = tuple(tuple(float(x) for x in p) for p in pert)
    if "output_dir" in data:
        fields["out_dir"] = str(data["output_dir"])
    if "formats" in data:
        fields["formats"] = tuple(data["formats"])
    if "stride" in data:
        fields["stride"] = float(data["stride"])
    if "projection" in data:
        fields["projection"] = tuple(tuple(float(x) for x in p) for p in data["projection"])
    if "budget" in data:
        fields["budget"] = float(data["budget"])
    if "renorm_every" in data:
        fields["renorm_every"] = int(data["renorm_every"])
    return fields


def load_config(path, kind: str | None = None) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(data, kind=kind)


@dataclass
class ErrorReport:
    """Error series, maxima, and (for multi-delta runs) convergence ratios
    with pass/fail flags against the expected-order bands."""

    deltas: list
    times: np.ndarray
    series: dict            # name -> {delta -> (N,) error array}
    maxima: dict            # name -> [max error per delta]
    ratios: dict = field(default_factory=dict)    # name -> ratios between deltas
    bands: dict = field(default_factory=dict)     # name -> (lo, hi)
    passed: dict = field(default_factory=dict)    # name -> [bool per ratio]
    breach_times: dict = field(default_factory=dict)  # name -> first budget breach

    def finalize(self):
        if len(self.deltas) >= 2:
            for name, maxima in self.maxima.items():
                ratios = [maxima[i] / maxima[i + 1] for i in range(len(maxima) - 1)]
                self.ratios[name] = ratios
                if name in RATIO_BANDS:
                    lo, hi = RATIO_BANDS[name]
                    self.bands[name] = (lo, hi)
                    self.passed[name] = [lo <= r <= hi for r in ratios]
        return self

    def to_dict(self) -> dict:
        payload = {
            "schema": f"{SCHEMA_PREFIX}-report-v1",
            "deltas": list(self.deltas),
            "times": np.asarray(self.times).tolist(),
            "series": {name: {repr(float(d)): np.asarray(e).tolist()
                              for d, e in by_delta.items()}
                       for name, by_delta in self.series.items()},
            "maxima": self.maxima,
            "ratios": self.ratios,
            "bands": {k: list(v) for k, v in self.bands.items()},
            "passed": self.passed,
        }
        if self.breach_times:
            payload["breach_times"] = self.breach_times
        return payload


@dataclass
class RunResult:
    files: list
    report: dict


def _curve_errors(traj: QuadraticTrajectory, params: ApproxParams,
                  ivp: QuadraticIVP, times: np.ndarray) -> dict:
    reference = np.atleast_2d(traj.eval(times))
    curves = {
        "reference": reference,
        "first": first_approximant(params, times),
        "second": second_approximant(params, times),
        "taylor2": taylor2_baseline(ivp, times),
    }
    errors = {name: np.linalg.norm(vals - reference, axis=1)
              for name, vals in curves.items() if name != "reference"}
    return curves, errors


def _first_breach(times: np.ndarray, errors: np.ndarray, budget: float):
    mask = errors > budget
    if not mask.any():
        return None
    return float(times[int(np.argmax(mask))])


def _integer_times(times: np.ndarray) -> list[tuple[float, int]]:
    """(integer time, sample index) for every integer time that is one of
    the evaluated sample times, to within 1e-9."""
    pairs = []
    for n in range(math.ceil(times[0] - 1e-9), math.floor(times[-1] + 1e-9) + 1):
        i = int(np.argmin(np.abs(times - n)))
        if abs(times[i] - n) <= 1e-9:
            pairs.append((float(n), i))
    return pairs


def _marker_times(config: ExperimentConfig) -> list[float]:
    marks = [config.t0, config.t0 + 2.0]
    if config.kind == "figure2":
        marks.append(config.t0 + 22.5)
    return [t for t in marks if config.t0 <= t <= config.t1]


def _emit_quadratic_figure(config: ExperimentConfig, curves: dict, errors: dict,
                           report: dict, name: str) -> list[Path]:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    times = config.sample_times()
    proj = np.asarray(config.projection, dtype=float)
    files = []
    order = ["reference", "first", "second", "taylor2"]
    projected = {key: project_points(curves[key], proj) for key in order}
    if "csv" in config.formats:
        header = ["t"]
        for key in order:
            header += [f"{key}_x", f"{key}_y", f"{key}_z", f"{key}_px", f"{key}_py"]
        rows = []
        for i, t in enumerate(times):
            row = [t]
            for key in order:
                row += [*curves[key][i], *projected[key][i]]
            rows.append(row)
        files.append(write_csv(out / f"{name}.csv", header, rows))
    if "svg" in config.formats:
        svg_curves = []
        for key in order:
            markers = []
            for mt in _marker_times(config):
                idx = int(round((mt - config.t0) / config.stride))
                if 0 <= idx < len(times):
                    markers.append((projected[key][idx][0], projected[key][idx][1],
                                    f"t={times[idx]:g}"))
            svg_curves.append(SvgCurve(name=key, points=projected[key],
                                       color=CURVE_COLORS[key],
                                       dashed=(key == "taylor2"), markers=markers))
        files.append(write_svg(out / f"{name}.svg", svg_curves,
                               title=f"{name}: quadratic vs approximants"))
    if "json" in config.formats:
        files.append(write_json(out / f"{name}.json", report))
    return files


def _compare_quadratic(config: ExperimentConfig, name: str) -> tuple[RunResult, QuadraticTrajectory]:
    delta = config.delta
    ivp = config.ivp(delta)
    traj = integrate_quadratic(ivp, config.step)
    params = config.fit(delta)
    times = config.sample_times()
    curves, errors = _curve_errors(traj, params, ivp, times)
    report = ErrorReport(
        deltas=[delta], times=times,
        series={key: {delta: err} for key, err in errors.items()},
        maxima={key: [float(err.max())] for key, err in errors.items()},
    ).finalize().to_dict()
    report["constant"] = traj.C.tolist()
    report["accel"] = traj.c
    report["params"] = params.to_dict()
    report["config"] = config.to_dict()
    files = _emit_quadratic_figure(config, curves, errors, report, name)
    return RunResult(files=files, report=report), traj


def run_figure1(config: ExperimentConfig) -> RunResult:
    """Short-interval comparison: integrated quadratic against the two
    closed-form approximants and the degree-2 Taylor baseline."""
    config = config.validate()
    result, _ = _compare_quadratic(config, "figure1")
    return result


def run_figure2(config: ExperimentConfig) -> RunResult:
    """Long-interval variant of run_figure1; additionally reports when each
    approximant first exceeds the configured error budget."""
    config = config.validate()
    delta = config.delta
    ivp = config.ivp(delta)
    traj = integrate_quadratic(ivp, config.step)
    params = config.fit(delta)
    times = config.sample_times()
    curves, errors = _curve_errors(traj, params, ivp, times)
    breaches = {name: _first_breach(times, err, config.budget)
                for name, err in errors.items()}
    report_obj = ErrorReport(
        deltas=[delta], times=times,
        series={name: {delta: err} for name, err in errors.items()},
        maxima={name: [float(err.max())] for name, err in errors.items()},
        breach_times=breaches,
    ).finalize()
    report = report_obj.to_dict()
    report["budget"] = config.budget
    report["params"] = params.to_dict()
    report["config"] = config.to_dict()
    files = _emit_quadratic_figure(config, curves, errors, report, "figure2")
    return RunResult(files=files, report=report)


def run_figure3(config: ExperimentConfig) -> RunResult:
    """Rotation-curve comparison: second rows of the integrated curve and
    of its quadrature-free approximation, with distance series."""
    config = config.validate()
    delta = config.delta
    ivp = config.ivp(delta)
    traj = integrate_quadratic(ivp, config.step)
    xref = integrate_cubic(np.eye(3), traj, config.step,
                           renorm_every=config.renorm_every)
    params = config.fit(delta)
    if params.b_degenerate:
        raise DegenerateB("fitted parameters have beta = 0")
    # snap sample times onto the integration grid so the two curves are
    # compared at identical times
    idx = np.round((config.sample_times() - config.t0)
                   / (xref.grid[1] - xref.grid[0])).astype(int)
    times = xref.grid[idx]
    ref_rows = xref.second_rows()[idx]
    approx = approx_cubic(params, np.eye(3), times)
    approx_rows = approx[:, 1, :]
    dists = np.array([so3_distance(approx[i], xref.rotations[idx[i]])
                      for i in range(len(times))])

    report = {
        "schema": f"{SCHEMA_PREFIX}-report-v1",
        "deltas": [delta],
        "times": times.tolist(),
        "params": params.to_dict(),
        "series": {
            "approx_frobenius": {repr(delta): dists[:, 0].tolist()},
            "approx_angle": {repr(delta): dists[:, 1].tolist()},
        },
        "maxima": {
            "approx_frobenius": [float(dists[:, 0].max())],
            "approx_angle": [float(dists[:, 1].max())],
        },
        "config": config.to_dict(),
    }
    int_times = _integer_times(times)
    report["angle_at_integer_times"] = {repr(t): float(dists[i, 1]) for t, i in int_times}

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    proj = np.asarray(config.projection, dtype=float)
    ref_proj = project_points(ref_rows, proj)
    approx_proj = project_points(approx_rows, proj)
    files = []
    if "csv" in config.formats:
        header = ["t", "ref_x", "ref_y", "ref_z", "ref_px", "ref_py",
                  "approx_x", "approx_y", "approx_z", "approx_px", "approx_py",
                  "frobenius", "angle"]
        rows = [[times[i], *ref_rows[i], *ref_proj[i], *approx_rows[i],
                 *approx_proj[i], dists[i, 0], dists[i, 1]]
                for i in range(len(times))]
        files.append(write_csv(out / "figure3.csv", header, rows))
    if "svg" in config.formats:
        def markers(projected):
            return [(projected[i][0], projected[i][1], f"{t:g}") for t, i in int_times]
        files.append(write_svg(out / "figure3.svg", [
            SvgCurve("integrated", ref_proj, CURVE_COLORS["reference"],
                     markers=markers(ref_proj)),
            SvgCurve("closed-form", approx_proj, CURVE_COLORS["approx"],
                     markers=markers(approx_proj)),
        ], title="figure3: second rows of the rotation curve"))
    if "json" in config.formats:
        files.append(write_json(out / "figure3.json", report))
    return RunResult(files=files, report=report)


def run_converge(config: ExperimentConfig) -> RunResult:
    """Convergence-order study: max errors of every approximant for each
    delta, with consecutive ratios checked against the expected bands."""
    config = config.validate()
    times = config.sample_times()
    series = {name: {} for name in ("first", "second", "taylor2",
                                    "approx_cubic", "phase")}
    for delta in config.deltas:
        ivp = config.ivp(delta)
        traj = integrate_quadratic(ivp, config.step)
        params = config.fit(delta)
        _, errors = _curve_errors(traj, params, ivp, times)
        for name in ("first", "second", "taylor2"):
            series[name][delta] = errors[name]
        xref = integrate_cubic(np.eye(3), traj, config.step,
                               renorm_every=config.renorm_every)
        idx = np.round((times - config.t0) / (xref.grid[1] - xref.grid[0])).astype(int)
        series["approx_cubic"][delta] = np.linalg.norm(
            approx_cubic(params, np.eye(3), xref.grid[idx]) - xref.rotations[idx],
            axis=(1, 2))
        recon = ReconstructionInput(traj, np.eye(3))
        series["phase"][delta] = np.abs(rotation_phase(recon, times)
                                        - rotation_phase_approx(params, times))

    report_obj = ErrorReport(
        deltas=list(config.deltas), times=times, series=series,
        maxima={name: [float(by_delta[d].max()) for d in config.deltas]
                for name, by_delta in series.items()},
    ).finalize()
    report = report_obj.to_dict()
    report["config"] = config.to_dict()

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if "csv" in config.formats:
        header = ["approximant", "delta", "max_error", "ratio_to_next", "band_lo",
                  "band_hi", "passed"]
        rows = []
        for name, maxima in report_obj.maxima.items():
            for i, delta in enumerate(config.deltas):
                ratio = report_obj.ratios.get(name, [])
                band = report_obj.bands.get(name)
                ok = report_obj.passed.get(name)
                rows.append([
                    name, delta, maxima[i],
                    ratio[i] if i < len(ratio) else "",
                    band[0] if band else "", band[1] if band else "",
                    (str(ok[i]).lower() if ok and i < len(ok) else ""),
                ])
        files.append(write_csv(out / "converge.csv", header, rows))
    if "svg" in config.formats:
        palette = ["#1f6feb", "#2da44e", "#cf222e", "#8250df", "#bf8700"]
        curves = []
        for ci, (name, by_delta) in enumerate(series.items()):
            for delta in config.deltas:
                pts = np.column_stack([times, by_delta[delta]])
                curves.append(SvgCurve(f"{name} d={delta:g}", pts,
                                       palette[ci % len(palette)]))
        files.append(write_svg(out / "converge.svg", curves,
                               title="converge: error vs time"))
    if "json" in config.formats:
        files.append(write_json(out / "converge.json", report))
    return RunResult(files=files, report=report)


def run_quadratic(config: ExperimentConfig) -> RunResult:
    """Config-driven quadratic integration plus approximant comparison;
    also dumps the raw trajectory."""
    config = config.validate()
    result, traj = _compare_quadratic(config, "quadratic")
    out = Path(config.out_dir)
    files = list(result.files)
    if "csv" in config.formats:
        files.append(write_quadratic_csv(out / "trajectory.csv", traj,
                                         config.sample_times()))
    if "json" in config.formats:
        files.append(write_quadratic_json(out / "trajectory.json", traj))
    report = dict(result.report)
    report["near_geodesic_gauge"] = list(traj.near_geodesic_gauge())
    return RunResult(files=files, report=report)


def run_cubic(config: ExperimentConfig) -> RunResult:
    """Integrate the rotation curve, rebuild it by quadrature, and report
    the agreement; includes the closed-form approximation when defined."""
    config = config.validate()
    delta = config.delta
    traj = integrate_quadratic(config.ivp(delta), config.step)
    xref = integrate_cubic(np.eye(3), traj, config.step,
                           renorm_every=config.renorm_every)
    recon = ReconstructionInput(traj, np.eye(3))
    xrec = reconstruct_cubic(recon)
    equiv = float(np.max(np.linalg.norm(xref.rotations - xrec.rotations,
                                        axis=(1, 2))))
    report = {
        "schema": f"{SCHEMA_PREFIX}-report-v1",
        "deltas": [delta],
        "reconstruction_max_frobenius": equiv,
        "config": config.to_dict(),
    }
    params = config.fit(delta)
    if not params.b_degenerate:
        idx = np.round((config.sample_times() - config.t0)
                       / (xref.grid[1] - xref.grid[0])).astype(int)
        approx = approx_cubic(params, np.eye(3), xref.grid[idx])
        dists = np.array([so3_distance(approx[k], xref.rotations[i])
                          for k, i in enumerate(idx)])
        report["approx_max_frobenius"] = float(dists[:, 0].max())
        report["approx_max_angle"] = float(dists[:, 1].max())
        report["params"] = params.to_dict()

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stride = max(1, int(round(config.stride / config.step)))
    files = []
    if "csv" in config.formats:
        files.append(write_rotation_csv(out / "cubic.csv", xref, stride))
    if "json" in config.formats:
        files.append(write_rotation_json(out / "cubic_trajectory.json", xref, stride))
        files.append(write_json(out / "cubic.json", report))
    if "svg" in config.formats:
        proj = np.asarray(config.projection, dtype=float)
        files.append(write_svg(out / "cubic.svg", [
            SvgCurve("integrated", project_points(
                xref.second_rows()[::stride], proj), CURVE_COLORS["reference"]),
            SvgCurve("reconstructed", project_points(
                xrec.second_rows()[::stride], proj), CURVE_COLORS["second"]),
        ], title="cubic: second rows, integrated vs reconstructed"))
    return RunResult(files=files, report=report)


RUNNERS = {
    "figure1": run_figure1,
    "figure2": run_figure2,
    "figure3": run_figure3,
    "converge": run_converge,
    "quadratic-compare": run_quadratic,
    "cubic-compare": run_cubic,
}


def run(config: ExperimentConfig) -> RunResult:
    config = config.validate()
    return RUNNERS[config.kind](config)
