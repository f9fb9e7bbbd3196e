import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import so3cubics
from so3cubics.cli import build_parser, main
from so3cubics.errors import ConfigError, DegenerateB, OutOfDomain
from so3cubics.harness import (KINDS, MAX_SAMPLES, RUNNERS, config_from_dict, default_config,
                               read_config, run_experiment)
from so3cubics.output import (KERNEL_MIN_FLOATS, QUADRATIC_CSV_HEADER, ROTATION_CSV_HEADER,
                              quadratic_table, quadratic_to_dict, rotation_table, write_csv,
                              write_json)
from so3cubics.quadratic import DOMAIN_ULPS, integrate_cubic, integrate_quadratic


# ------------------------------------------------------------- configuration

def test_default_configs_validate():
    for kind in ("figure1", "figure2", "figure3", "converge",
                 "quadratic-compare", "cubic-compare"):
        default_config(kind).validate()


def test_config_rejects_degenerate_interval():
    cfg = replace(default_config("figure1"), t0=0.0, t1=0.0)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_empty_formats():
    cfg = replace(default_config("figure1"), formats=())
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_single_delta_converge():
    cfg = replace(default_config("converge"), deltas=(0.04,))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_nondecreasing_deltas():
    cfg = replace(default_config("converge"), deltas=(0.02, 0.04))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "figure1", "bogus": 1})


@pytest.mark.parametrize("output_dir", [None, 3, ["out"]])
def test_config_rejects_a_non_string_output_dir(output_dir):
    # str(None) once sent the artifacts to a directory named "None"
    with pytest.raises(ConfigError, match="output_dir"):
        config_from_dict({"kind": "figure1", "output_dir": output_dir})
    assert config_from_dict({"kind": "figure1", "output_dir": "here"}).out_dir == "here"


@pytest.mark.parametrize("key, value", [
    ("base", "100"), ("base", [True, 0, 0]), ("deltas", "1"), ("budget", True),
    ("stride", "0.5"), ("step", [0.01]), ("delta", [0.1]), ("interval", [0, [1]]),
    ("perturbation", [1, 2, 3]), ("formats", "csv"), ("formats", ["csv", 1]),
    ("kind", ["x"]), pytest.param("step", 10 ** 400, id="step-int-beyond-float-range"),
])
def test_config_entries_are_typed(key, value):
    # float() and tuple() once let strings and booleans through
    with pytest.raises(ConfigError, match=key):
        config_from_dict({"kind": "figure1", key: value})


def test_config_accepts_integer_entries():
    cfg = config_from_dict({"kind": "figure1", "interval": [0, 2], "deltas": [1], "budget": 1})
    assert (cfg.t0, cfg.t1, cfg.deltas, cfg.budget) == (0.0, 2.0, (1.0,), 1.0)
    assert all(type(x) is float for x in (cfg.t0, cfg.t1, cfg.deltas[0], cfg.budget))


def test_config_layers_override_key_by_key_and_are_all_parsed():
    cfg = config_from_dict({"kind": "figure1", "stride": 1e-300, "delta": 0.5},
                           {"stride": 0.5, "deltas": [0.02]})
    assert (cfg.stride, cfg.deltas) == (0.5, (0.02,))
    # a malformed entry is an error even where a later layer overrides it
    with pytest.raises(ConfigError, match="stride"):
        config_from_dict({"kind": "figure1", "stride": "x"}, {"stride": 0.5})


def test_config_rejects_an_unhashable_kind():
    # a list cannot be looked up in the KINDS dict
    with pytest.raises(ConfigError, match="kind"):
        default_config(["x"])
    with pytest.raises(ConfigError, match="kind"):
        replace(default_config("figure1"), kind=["x"]).validate()


def test_config_rejects_oversized_step():
    cfg = replace(default_config("figure1"), step=10.0)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("field", ["step", "stride"])
def test_config_rejects_unresolvable_spacing(field):
    # near 1e15 floats are 0.125 apart: t0 + 0.01 rounds back to t0
    cfg = replace(default_config("figure1"), t0=1e15, t1=1e15 + 256.0, step=64.0, stride=64.0)
    cfg.validate()
    with pytest.raises(ConfigError, match=field):
        replace(cfg, **{field: 0.01}).validate()


def test_config_accepts_and_ignores_renorm_every():
    cfg = config_from_dict({"kind": "cubic-compare", "renorm_every": 4})
    assert cfg == default_config("cubic-compare").validate()
    assert "renorm_every" not in cfg.to_dict()


# every kind's default, and a converge config off the defaults in every key
# but its kind
ROUND_TRIP_CONFIGS = {
    **{kind: default_config(kind) for kind in KINDS},
    "converge-custom": replace(
        default_config("converge", out_dir="custom"), t0=0.5, t1=3.0, step=2e-3, stride=0.05,
        deltas=(0.08, 0.04, 0.02), base=(0.0, 1.5, 0.0),
        pert=((0.25, 0.0, -0.5), (0.0, 0.125, 0.0), (0.5, 0.25, 0.75)),
        projection=((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), formats=("json", "svg"), budget=2.5e-4),
}


@pytest.mark.parametrize("cfg", ROUND_TRIP_CONFIGS.values(), ids=ROUND_TRIP_CONFIGS.keys())
def test_config_file_round_trip(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = config_from_dict(read_config(path))
    assert loaded == cfg.validate()


def test_config_svg_implies_csv_twin():
    cfg = replace(default_config("figure1"), formats=("svg",)).validate()
    assert "csv" in cfg.formats


def test_config_sample_times_count():
    cfg = replace(default_config("figure1"), stride=0.01)
    times = cfg.sample_times()
    assert len(times) == math.floor((cfg.t1 - cfg.t0) / cfg.stride) + 1
    assert times[0] == cfg.t0


def _reaches(times, t0, t1) -> bool:
    """The last sample time is t1 to within the DOMAIN_ULPS float spacings
    that the evaluators accept."""
    return abs(times[-1] - t1) <= DOMAIN_ULPS * math.ulp(max(abs(t0), abs(t1)))


@given(st.integers(-2000, 2000), st.integers(1, 2000),
       st.sampled_from([0.1, 0.01, 0.02, 0.05, 0.25, 0.3, 0.7, 1e-3]))
def test_sample_times_keep_t1_where_the_stride_reaches_it(t0_milli, k, stride):
    # decimal configs with t1 = t0 + k stride, whose quotient (t1 - t0) /
    # stride often rounds just below k
    t0 = t0_milli / 1000
    t1 = round(t0 + k * stride, 6)
    times = replace(default_config("figure1"), t0=t0, t1=t1, stride=stride).sample_times()
    assert len(times) == k + 1
    assert _reaches(times, t0, t1)


def test_figure1_writes_its_t1_row(tmp_path):
    # (0.7 - 0) / 0.1 rounds to 6.999999999999999
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"interval": [0, 0.7], "step": 0.01, "stride": 0.1,
                                "formats": ["csv"]}))
    assert main(["figure1", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    header, *rows = (tmp_path / "out" / "figure1.csv").read_text().splitlines()
    times = [float(row.split(",")[0]) for row in rows]
    assert len(times) == 8 and _reaches(times, 0.0, 0.7)


def test_converge_takes_a_stride_that_reaches_t1(tmp_path):
    # 0.3 - 0.2 is 0.09999999999999998, below the stride, yet 0.2 + 0.1
    # lies one float spacing past t1
    cfg = replace(default_config("converge"), out_dir=str(tmp_path), t0=0.2, t1=0.3,
                  stride=0.1, formats=("json",))
    times = run_experiment(cfg).report["times"]
    assert len(times) == 2 and _reaches(times, 0.2, 0.3)


@pytest.mark.parametrize("t1, stride, count", [(9999.9, 0.1, 100_000), (99_999.0, 1.0, 100_000),
                                               (10_000.0, 0.1, 100_001),
                                               (100_000.0, 1.0, 100_001)])
def test_max_samples_counts_the_sample_times(t1, stride, count):
    cfg = replace(default_config("figure1"), t0=0.0, t1=t1, step=0.1, stride=stride)
    if count > MAX_SAMPLES:
        with pytest.raises(ConfigError, match="MAX_SAMPLES"):
            cfg.validate()
    else:
        assert len(cfg.validate().sample_times()) == count


# ------------------------------------------------------------------- figure1

@pytest.fixture(scope="module")
def figure1_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure1")
    cfg = replace(default_config("figure1"), out_dir=str(out), stride=0.02)
    return cfg, run_experiment(cfg)


def test_figure1_emits_all_formats(figure1_result):
    cfg, result = figure1_result
    suffixes = sorted(p.suffix for p in result.files)
    assert suffixes == [".csv", ".json", ".svg"]
    for p in result.files:
        assert p.exists() and p.stat().st_size > 0


def test_figure1_csv_row_count(figure1_result):
    cfg, result = figure1_result
    csv_path = next(p for p in result.files if p.suffix == ".csv")
    rows = csv_path.read_text().strip().splitlines()
    expected = math.floor((cfg.t1 - cfg.t0) / cfg.stride) + 1
    assert len(rows) == expected + 1  # header


def test_figure1_error_ordering(figure1_result):
    _, result = figure1_result
    maxima = result.report["maxima"]
    assert maxima["taylor2"][0] > maxima["first"][0] >= maxima["second"][0]


def test_figure1_deterministic_output(tmp_path):
    cfg = replace(default_config("figure1"), out_dir=str(tmp_path),
                  stride=0.1, step=5e-3)
    first = {p.name: p.read_bytes() for p in run_experiment(cfg).files}
    second = {p.name: p.read_bytes() for p in run_experiment(cfg).files}
    assert first == second


# ------------------------------------------------------------------- figure2

def test_figure2_budget_breach_ordering(tmp_path):
    cfg = replace(default_config("figure2"), out_dir=str(tmp_path), budget=1e-3)
    result = run_experiment(cfg)
    maxima = result.report["maxima"]
    assert maxima["second"][0] < maxima["first"][0]
    breach = result.report["breach_times"]
    assert breach["first"] is not None and breach["second"] is not None
    assert breach["first"] < breach["second"]
    svg = next(p for p in result.files if p.suffix == ".svg").read_text()
    assert "t=22.5" in svg


# ------------------------------------------------------------------- figure3

@pytest.fixture(scope="module")
def figure3_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("figure3")
    cfg = replace(default_config("figure3"), out_dir=str(out), stride=0.02)
    return cfg, run_experiment(cfg)


def test_figure3_parameter_regression(figure3_result):
    _, result = figure3_result
    params = result.report["params"]
    assert abs(params["q"][2] - 0.125) < 1e-12
    assert abs(params["beta"] - math.sqrt(2.0) / 4.0) < 1e-12
    assert abs(params["gamma"] - 5.0 * math.pi / 4.0) < 1e-12
    assert params["a0"] == [1.25, 0.25]
    assert params["a1"] == [0.25, 0.25]


def test_figure3_angle_grows(figure3_result):
    _, result = figure3_result
    angles = result.report["angle_at_integer_times"]
    assert angles["2.0"] < angles["6.0"]


@pytest.mark.parametrize("stride", [0.3, 0.6])
def test_figure3_integer_times_are_evaluated_times(tmp_path, stride):
    cfg = replace(default_config("figure3"), out_dir=str(tmp_path), step=0.01,
                  stride=stride)
    report = run_experiment(cfg).report
    times = np.array(report["times"])
    angles = report["series"]["approx_angle"][repr(cfg.deltas[0])]
    marked = report["angle_at_integer_times"]
    assert sorted(marked) == ["0.0", "3.0", "6.0", "9.0"]
    for key, value in marked.items():
        i = int(np.argmin(np.abs(times - float(key))))
        assert abs(times[i] - float(key)) <= 1e-9
        assert value == angles[i]


def test_figure3_integer_times_far_from_the_origin(tmp_path):
    # above 2^53 every sample time is an integer, and an integer step
    # between t0 and t1 rounds to 0: one entry and one marker per sample
    cfg = replace(default_config("figure3"), out_dir=str(tmp_path), t0=1e17,
                  t1=1e17 + 300 * 4096.0, step=4096.0, stride=4096.0, base=(1e-5, 0.0, 0.0),
                  deltas=(1e-30,), pert=((0, 1, 0), (0, 0, 0), (0, 0.25, 0.25)))
    report = run_experiment(cfg).report
    assert len(report["times"]) == 301
    assert sorted(report["angle_at_integer_times"]) == sorted(map(repr, report["times"].tolist()))
    svg = (tmp_path / "figure3.svg").read_text()
    assert [curve.count("<circle") for curve in svg.split("<polyline")[1:]] == [301, 301]


def test_figure3_distances_agree_at_tiny_delta(tmp_path):
    # the approximation error is ~1e-12 here: the angle must keep its digits
    cfg = replace(default_config("figure3"), out_dir=str(tmp_path), deltas=(1e-7,))
    series = run_experiment(cfg).report["series"]
    fro = np.array(series["approx_frobenius"][repr(1e-7)])
    angle = np.array(series["approx_angle"][repr(1e-7)])
    assert np.max(fro) > 1e-13
    assert np.max(np.abs(fro - 2.0 * math.sqrt(2.0) * np.sin(angle / 2.0))) <= 1e-14


def test_figure3_rejects_zero_delta(tmp_path):
    cfg = replace(default_config("figure3"), out_dir=str(tmp_path), deltas=(0.0,))
    with pytest.raises(DegenerateB):
        run_experiment(cfg)


# ------------------------------------------------------------------- converge

def test_converge_default_bands_pass(tmp_path):
    cfg = replace(default_config("converge"), out_dir=str(tmp_path),
                  formats=("json",))
    result = run_experiment(cfg)
    passed = result.report["passed"]
    for name in ("first", "second", "approx_cubic", "phase"):
        assert passed[name] == [True], (name, result.report["ratios"][name])


def test_converge_three_deltas_two_ratio_rows(tmp_path):
    cfg = replace(default_config("converge"), out_dir=str(tmp_path),
                  deltas=(0.08, 0.04, 0.02), t1=1.5, step=2e-3, stride=0.05,
                  formats=("json",))
    result = run_experiment(cfg)
    for name in ("first", "second", "approx_cubic", "phase"):
        assert len(result.report["ratios"][name]) == 2


# ----------------------------------------------------- quadratic/cubic kinds

def test_quadratic_compare_emits_trajectory(tmp_path):
    cfg = replace(default_config("quadratic-compare"), out_dir=str(tmp_path),
                  t1=2.0, step=2e-3, stride=0.05)
    result = run_experiment(cfg)
    names = {p.name for p in result.files}
    assert "trajectory.csv" in names and "trajectory.json" in names
    assert "near_geodesic_gauge" in result.report
    data = json.loads((tmp_path / "trajectory.json").read_text())
    assert data["schema"] == "so3cubics-quadratic-v1"
    assert not data["null"]


def test_cubic_compare_reports_equivalence(tmp_path):
    cfg = replace(default_config("cubic-compare"), out_dir=str(tmp_path),
                  t1=2.0, step=2e-3, stride=0.05)
    result = run_experiment(cfg)
    assert result.report["reconstruction_max_frobenius"] < 1e-6
    assert result.report["approx_max_frobenius"] > 0.0


@pytest.mark.parametrize("kind", ["figure3", "converge", "cubic-compare"])
def test_rotation_kinds_report_rotation_defect(tmp_path, kind):
    cfg = replace(default_config(kind), out_dir=str(tmp_path), t1=1.5, step=2e-3,
                  stride=0.05, formats=("json",))
    report = run_experiment(cfg).report
    assert 0.0 <= report["rotation_defect_max"] < 1e-13
    stored = json.loads((tmp_path / f"{kind.removesuffix('-compare')}.json").read_text())
    assert stored["rotation_defect_max"] == report["rotation_defect_max"]


# -------------------------------------------------------------- serialization

def test_quadratic_serialization_shapes(tmp_path):
    cfg = default_config("figure1")
    traj = integrate_quadratic(cfg.ivp(cfg.deltas[0]), 1e-2)
    csv_path = write_csv(tmp_path / "traj.csv", QUADRATIC_CSV_HEADER, quadratic_table(traj))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,v_x,v_y,v_z,dv_x,dv_y,dv_z,ddv_x,ddv_y,ddv_z"
    assert len(lines) == len(traj.grid) + 1
    json_path = write_json(tmp_path / "traj.json", quadratic_to_dict(traj))
    data = json.loads(json_path.read_text())
    assert len(data["v"]) == len(traj.grid)
    np.testing.assert_allclose(data["constant"], traj.C)


def test_rotation_serialization_header(tmp_path):
    cfg = default_config("figure1")
    traj = integrate_quadratic(cfg.ivp(cfg.deltas[0]), 1e-2)
    rt = integrate_cubic(np.eye(3), traj, 1e-2)
    path = write_csv(tmp_path / "rot.csv", ROTATION_CSV_HEADER,
                     rotation_table(rt.grid, rt.rotations))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(ROTATION_CSV_HEADER)
    assert len(lines) == len(rt.grid) + 1


@pytest.mark.parametrize("cfg", [
    *map(default_config, KINDS),
    replace(default_config("figure2"), step=0.025, stride=0.05),
    replace(default_config("figure3"), step=0.01, stride=0.02),
    replace(default_config("converge"), deltas=(0.04, 0.02, 0.01)),
])
def test_reports_keep_series_as_arrays(tmp_path, cfg):
    # the series go to the writer as float64 arrays: the report's lists
    # stay shorter than the float-text kernel's least block
    result = run_experiment(replace(cfg, out_dir=str(tmp_path), formats=("json",)))
    report = result.report
    if cfg.kind != "cubic-compare":
        columns = [report["times"], *(e for by_delta in report["series"].values()
                                      for e in by_delta.values())]
        assert all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns)

    def lists(obj):
        if isinstance(obj, dict):
            for value in obj.values():
                yield from lists(value)
        elif isinstance(obj, (list, tuple)):
            yield obj
            for item in obj:
                yield from lists(item)

    assert max(sum(isinstance(x, float) for x in found) for found in lists(report)) \
        < KERNEL_MIN_FLOATS

    def plain(obj):
        if isinstance(obj, dict):
            return {key: plain(value) for key, value in obj.items()}
        return obj.tolist() if isinstance(obj, np.ndarray) else obj

    (path,) = (p for p in result.files if p.name == f"{KINDS[cfg.kind].command}.json")
    assert path.read_text() == json.dumps(plain(report), indent=2, sort_keys=True) + "\n"


def test_csv_floats_are_shortest_round_trip(tmp_path):
    values = [0.1, 1 / 3, 1e-05, 1e16, -0.0, 2.5e-300]
    mixed = ["first", 0.1, 1 / 3, "", "true", 2.5e-300]
    write_csv(tmp_path / "array.csv", list("abcdef"), np.array([values]))
    write_csv(tmp_path / "list.csv", list("abcdef"), [values, mixed])
    expected = ["a,b,c,d,e,f", ",".join(map(repr, values))]
    assert (tmp_path / "array.csv").read_bytes() == "\r\n".join(expected + [""]).encode()
    mixed_line = ",".join(x if isinstance(x, str) else repr(x) for x in mixed)
    assert ((tmp_path / "list.csv").read_bytes()
            == "\r\n".join(expected + [mixed_line, ""]).encode())


# ------------------------------------------------------------------------ CLI

def test_cli_figure1(tmp_path, capsys):
    code = main(["figure1", "--out", str(tmp_path), "--stride", "0.1",
                 "--step", "0.005"])
    assert code == 0
    out = capsys.readouterr().out
    assert "figure1.csv" in out and "max |error|" in out


def test_cli_config_error(tmp_path):
    assert main(["figure1", "--out", str(tmp_path), "--step", "-1.0"]) == 2


def test_cli_degeneracy_exit(tmp_path):
    assert main(["figure3", "--out", str(tmp_path), "--delta", "0.0"]) == 3


@pytest.mark.parametrize("argv, config, code", [
    (["figure1", "--delta", "0"], None, 3),
    (["cubic", "--delta", "0"], None, 3),
    (["figure1", "--delta", "nan"], None, 2),
    (["figure2", "--delta", "inf"], None, 2),
    (["figure1"], {"base": [1.0, 0.0]}, 2),
    (["figure1"], {"base": [1.0, float("inf"), 0.0]}, 2),
    (["figure1"], {"perturbation": [[0, 1, 0], [0, 0, "x"], [0, 0, 0]]}, 2),
    (["figure1"], {"perturbation": [[0, 1, 0], [0, 0], [0, 0, 0]]}, 2),
    (["figure1"], {"perturbation": [[0, 1, 0], [0, 0, float("nan")], [0, 0, 0]]}, 2),
    (["figure1"], {"deltas": [float("nan")]}, 2),
    (["figure1"], {"step": None}, 2),
    (["figure1"], {"interval": [0, 1e308]}, 2),
    (["figure1", "--stride", "1e-12"], None, 2),
    (["figure1", "--stride", "inf"], None, 2),
    (["figure1", "--delta", "0.01", "--delta", "0.5"], None, 2),
    (["figure1", "--out", "{tmp}/cfg.json"], {}, 2),    # output dir is an existing file
    (["figure1"], {"interval": [1e15, 1000000000000002.0], "step": 0.01}, 2),
    (["figure2", "--budget", "inf"], None, 2),
    (["figure1"], {"output_dir": None}, 2),
    (["figure1"], {"base": "100"}, 2),
    (["figure1"], {"deltas": "1"}, 2),
    (["figure1"], {"budget": True}, 2),
    (["figure1"], {"stride": "0.5"}, 2),
    (["figure1"], {"formats": "csv"}, 2),
    (["figure1"], {"step": [0.01]}, 2),
    (["figure1"], {"delta": [0.1]}, 2),
    (["figure1"], {"interval": [0, [1]]}, 2),
    (["figure1"], {"kind": ["x"]}, 2),
    (["figure1"], {"base": [True, 0, 0]}, 2),
    (["figure1"], {"step": 10 ** 400}, 2),
    (["figure1", "--stride", "0.5"], {"stride": "x"}, 2),
])
def test_cli_bad_input_exit_code(tmp_path, capsys, argv, config, code):
    # argv's own --out, placed after this default, overrides it
    argv = argv[:1] + ["--out", str(tmp_path / "out")] + [a.format(tmp=tmp_path)
                                                         for a in argv[1:]]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"step": ' + "1" * 5000 + "}", '{"step": ', "[1, 2]"])
def test_cli_unreadable_config_exit_code(tmp_path, capsys, text):
    # json.loads raises a plain ValueError for an integer of over 4,300 digits
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["figure1", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_flags_override_file_entries_before_validation(tmp_path, capsys):
    # the file's stride alone is unresolvable; the flag replaces it before validation
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stride": 1e-300, "step": 0.01}))
    assert main(["figure1", "--config", str(path), "--stride", "0.5",
                 "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "figure1.json").read_text())["config"]["stride"] == 0.5
    assert "Traceback" not in capsys.readouterr().err


def _flags(settings: dict) -> list:
    """The CLI flags that give `settings`."""
    argv = []
    for key, value in settings.items():
        if key == "deltas":
            argv += [a for d in value for a in ("--delta", repr(d))]
        elif key == "formats":
            argv += ["--formats", ",".join(value)]
        else:
            argv += [f"--{key}", repr(value)]
    return argv


@pytest.mark.parametrize("name", list(KINDS))
def test_cli_flags_and_file_entries_are_one_path(tmp_path, capsys, name):
    command, out = KINDS[name].command, tmp_path / "out"
    settings = {"step": 0.01, "stride": 0.25, "formats": ["json", "svg"], "budget": 2e-3,
                "deltas": [0.04, 0.02] if name == "converge" else [0.03]}
    (tmp_path / "cfg.json").write_text(json.dumps(settings))
    runs = []
    for argv in (_flags(settings), ["--config", str(tmp_path / "cfg.json")]):
        assert main([command, "--out", str(out), *argv]) == 0
        runs.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr().out))
        for p in out.iterdir():
            p.unlink()
    assert runs[0] == runs[1]
    assert {f"{command}.json", f"{command}.svg", f"{command}.csv"} <= set(runs[0][0])


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    common = ["--stride", "0.1", "--step", "0.005"]
    assert main(["converge", "--out", str(tmp_path / "a"), "--delta", "0.08",
                 "--delta", "0.04", *common]) == 0
    # an appended --delta list that outlived its call would make this one
    # three deltas long, which figure1 rejects
    assert main(["figure1", "--out", str(tmp_path / "b"), "--delta", "0.02", *common]) == 0
    assert main(["converge", "--out", str(tmp_path / "c"), "--delta", "0.06",
                 "--delta", "0.03", *common]) == 0
    assert main(["figure1", "--out", str(tmp_path / "d"), "--step", "-1.0"]) == 2
    assert main(["figure3", "--out", str(tmp_path / "e"), "--delta", "0.0"]) == 3
    deltas = [json.loads((tmp_path / run / name).read_text())["deltas"]
              for run, name in (("a", "converge.json"), ("b", "figure1.json"),
                                ("c", "converge.json"))]
    assert deltas == [[0.08, 0.04], [0.02], [0.06, 0.03]]
    assert "Traceback" not in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # the library's runtime needs numpy only, and not numpy.polynomial: scipy
    # and numpy.polynomial are test oracles.  Only modules that importing the
    # CLI adds after numpy count, so numpy's own eager imports cannot trip this.
    src = str(Path(so3cubics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, numpy; before = set(sys.modules); import so3cubics.cli; "
             "print(sorted(m for m in set(sys.modules) - before "
             "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_readme_documents_every_exported_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [name for name in so3cubics.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


def test_cli_out_of_domain_exit(tmp_path, monkeypatch, capsys):
    def refuse(config):
        raise OutOfDomain("closed form is not finite at t = inf")
    monkeypatch.setitem(RUNNERS, "figure1", refuse)
    assert main(["figure1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "out of domain" in err and "Traceback" not in err


def test_cli_output_error(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["figure1", "--out", str(blocker)]) == 2
    assert "output error" in capsys.readouterr().err


def test_cli_config_file(tmp_path):
    cfg = replace(default_config("figure1"), stride=0.1, step=5e-3,
                  t1=2.0, out_dir=str(tmp_path / "ignored"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "real"
    assert main(["figure1", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "figure1.json").exists()


def test_cli_kind_mismatch(tmp_path):
    cfg = default_config("figure2")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["figure1", "--config", str(path)]) == 2


def test_cli_converge_flags(tmp_path, capsys):
    code = main(["converge", "--out", str(tmp_path), "--delta", "0.08",
                 "--delta", "0.04", "--stride", "0.1", "--step", "0.005"])
    assert code == 0
    assert "ratios" in capsys.readouterr().out


def test_cli_quadratic(tmp_path):
    code = main(["quadratic", "--out", str(tmp_path), "--stride", "0.1",
                 "--step", "0.005"])
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "quadratic.csv").exists()


def test_cli_cubic(tmp_path):
    code = main(["cubic", "--out", str(tmp_path), "--stride", "0.1",
                 "--step", "0.005"])
    assert code == 0
    assert (tmp_path / "cubic.csv").exists()
    data = json.loads((tmp_path / "cubic.json").read_text())
    assert data["reconstruction_max_frobenius"] < 1e-6


# --------------------------------------------------------------- CLI contract

@st.composite
def cli_runs(draw):
    """A kind, its settings (interval of length <= 2, step >= 1e-2) and
    the subset of them that is given as flags instead of file keys."""
    name = draw(st.sampled_from(list(KINDS)))
    t0 = draw(st.floats(-3.0, 3.0))
    count = draw(st.integers(2, 3)) if name == "converge" else 1
    flags = draw(st.lists(st.sampled_from(["step", "stride", "deltas", "formats"]), unique=True))
    return name, {
        "interval": [t0, t0 + draw(st.floats(0.01, 2.0))],
        "step": draw(st.floats(1e-2, 0.5)),
        "stride": draw(st.floats(1e-3, 1.0)),
        "deltas": sorted(draw(st.lists(st.floats(0.0, 0.2, exclude_min=count > 1),
                                       min_size=count, max_size=count, unique=True)),
                         reverse=True),
        "formats": draw(st.lists(st.sampled_from(["csv", "json", "svg"]),
                                 min_size=1, unique=True)),
    }, flags


def artifact_times(out: Path) -> dict:
    """The sample times each artifact carries: a CSV's `t` column, a
    report's `times`, a sampled rotation dump's `grid`.  The raw quadratic
    dump (trajectory.json) holds the whole integration grid by design."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            header, *rows = path.read_text().splitlines()
            if header.split(",")[0] == "t":
                found[path.name] = np.array([float(r.split(",")[0]) for r in rows])
        elif path.suffix == ".json":
            data = json.loads(path.read_text())
            if "times" in data:
                found[path.name] = np.array(data["times"])
            elif data.get("schema") == "so3cubics-rotation-v1":
                found[path.name] = np.array(data["grid"])
    return found


@settings(max_examples=30, deadline=None)
@given(cli_runs())
@example(("converge", {"interval": [0.0, 1.0], "step": 0.01, "stride": 0.0105,
                       "deltas": [0.04, 0.02], "formats": ["json"]}, []))
def test_cli_contract(run):
    """Exit code 0/2/3 without a traceback; one set of times in every
    artifact; grid nodes wherever a rotation series is written."""
    kind, config, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in config.items() if k not in flags}))
        argv = [KINDS[kind].command, "--config", str(cfg), "--out", str(Path(tmp) / "out"),
                *_flags({k: config[k] for k in flags})]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code != 0:
            return
        found = artifact_times(Path(tmp) / "out")
    for name, times in found.items():
        assert np.array_equal(times, next(iter(found.values()))), name
    if KINDS[kind].on_grid:
        t0, t1 = config["interval"]
        h = (t1 - t0) / max(1, round((t1 - t0) / config["step"]))
        for name, times in found.items():
            nodes = t0 + np.round((times - t0) / h) * h
            assert np.all(np.abs(times - nodes) <= 1e-9), name
