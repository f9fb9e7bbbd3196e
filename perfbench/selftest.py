"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
pytest's `test_*.py` pattern) because they run whole CLI ops and take
about 15 s.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import so3cubics.cli as cli  # noqa: E402
import workloads  # noqa: E402
from oracle import Reference  # noqa: E402
from tracer import Tracer  # noqa: E402


def traced_op(name: str, work: Path):
    tracer = Tracer()
    op = workloads.WORKLOADS[name].op(0, 0)
    return bench.run_op(op, 0, work, timed=True, tracer=tracer)


def test_self_time_of_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("t.leaf", lambda: None)

    def middle():
        leaf()
        leaf()
    middle = tracer.wrap("t.middle", middle)
    outer = tracer.wrap("t.outer", lambda: middle())
    outer()
    # each span reads the clock once at entry and once at exit: outer spans
    # [0, 7], middle [1, 6], the leaves [2, 3] and [4, 5]
    summary = tracer.summary()
    assert summary["t.outer"] == {"calls": 1, "busy_s": 7.0, "self_s": 2.0}
    assert summary["t.middle"] == {"calls": 1, "busy_s": 5.0, "self_s": 3.0}
    assert summary["t.leaf"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}


def test_recursive_span_counts_busy_time_once():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def fact(n):
        return 1 if n == 0 else n * fact(n - 1)
    fact = tracer.wrap("t.fact", fact)
    assert fact(2) == 2
    # spans: [0, 5], [1, 4], [2, 3]
    assert tracer.summary()["t.fact"] == {"calls": 3, "busy_s": 5.0, "self_s": 5.0}


def test_uninstall_restores_every_original():
    import so3cubics.harness as harness
    import so3cubics.reconstruction as reconstruction
    before = (reconstruction.second_approximant, dict(harness.RUNNERS), cli.main)
    tracer = Tracer()
    tracer.install()
    assert reconstruction.second_approximant is not before[0]
    assert all(harness.RUNNERS[k] is not v for k, v in before[1].items())
    tracer.uninstall()
    assert (reconstruction.second_approximant, dict(harness.RUNNERS), cli.main) == before


def test_traced_counts(tmp_path):
    quad = traced_op("quad-dense", tmp_path / "q")
    assert quad.failure is None
    assert quad.trace["approximants.second_approximant.calls"] == 501
    assert quad.trace["approximants.second_approximant.points"] == 501
    assert quad.trace["quadratic.integrate_quadratic.calls"] == 1
    rot = traced_op("rot-long", tmp_path / "r")
    assert rot.failure is None
    assert rot.trace["quadratic.integrate_quadratic.calls"] == 1
    assert rot.trace["quadratic.integrate_cubic.steps"] == 5000
    assert rot.trace["reconstruction.reconstruct_cubic.calls"] == 1
    assert rot.trace["trace.coverage"] > 0.9


def test_algebra_counts_repeat(tmp_path):
    # the same output path both times: the report JSON records it
    first = traced_op("rot-dense", tmp_path)
    second = traced_op("rot-dense", tmp_path)
    counts = [{k: v for k, v in rec.trace.items()
               if k.startswith("algebra.") and k.endswith(".calls")} for rec in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["algebra.frame_from_pair.calls"] > 0
    assert first.digest == second.digest


def test_oracle_matches_integrator_on_figure1_family():
    from so3cubics.quadratic import QuadraticIVP, integrate_quadratic
    traj = integrate_quadratic(QuadraticIVP(0.0, 5.0, *workloads.FIG1_JET), 1e-3)
    ref = Reference(0.0, 5.0, [workloads.FIG1_JET]).quadratic(traj.grid)
    for k, got in enumerate((traj.v, traj.v1, traj.v2)):
        assert np.max(np.abs(ref[:, 3 * k:3 * k + 3] - got)) < 1e-12


@pytest.fixture()
def ensemble_records(tmp_path):
    op = workloads.WORKLOADS["ivp-ensemble"].op(7, 0)
    return [bench.run_op(op, i, tmp_path, timed=True) for i in range(2)]


def test_clean_ensemble_ops_pass(ensemble_records):
    bench.check_all(ensemble_records, workloads.WORKLOADS["ivp-ensemble"])
    assert [r.failure for r in ensemble_records] == [None, None]
    assert ensemble_records[0].check.ref_err < 1e-11


@pytest.mark.parametrize("corrupt", ["value", "nan", "time"])
def test_corrupted_artifact_fails(ensemble_records, corrupt):
    rec = ensemble_records[1]
    lines = rec.artifacts["trajectory.csv"].decode().splitlines()
    fields = lines[5].split(",")
    if corrupt == "value":
        fields[1] = repr(float(fields[1]) + 1e-4)
    elif corrupt == "nan":
        fields[4] = "nan"
    else:
        fields[0] = repr(float(fields[0]) + 0.25)
    lines[5] = ",".join(fields)
    rec.artifacts["trajectory.csv"] = ("\n".join(lines) + "\n").encode()
    rec.digest = workloads.digest(rec.artifacts)
    # checked alone, so only the accuracy and format checks can flag it
    bench.check_all([rec], workloads.WORKLOADS["ivp-ensemble"])
    assert rec.failure is not None


def test_misdrawn_reconstruction_fails(tmp_path):
    # cubic.svg is the only artifact that holds the reconstructed curve
    workload = workloads.WORKLOADS["rot-long"]
    rec = bench.run_op(workload.op(0, 0), 0, tmp_path, timed=True)
    svg = rec.artifacts["cubic.svg"].decode()
    head, _, tail = svg.rpartition('points="')
    first, _, rest = tail.partition(" ")
    x, y = (float(v) for v in first.split(","))
    rec.artifacts["cubic.svg"] = f'{head}points="{x:.2f},{y + 0.5:.2f} {rest}'.encode()
    rec.digest = workloads.digest(rec.artifacts)
    bench.check_all([rec], workload)
    assert "cubic.svg" in rec.failure


def test_nondeterministic_bytes_fail(ensemble_records):
    # a different digest for the same input counts as a failed op even when
    # the bytes themselves pass the accuracy check
    ensemble_records[1].digest = "0" * 64
    bench.check_all(ensemble_records, workloads.WORKLOADS["ivp-ensemble"])
    assert ensemble_records[0].failure is None
    assert "differ" in ensemble_records[1].failure


def test_tail_percentile():
    assert bench.tail([1.0, 2.0, 4.0]) == (50.0, 2.0)
    assert bench.tail([float(v) for v in range(1, 21)]) == (50.0, 10.5)
    assert bench.tail([float(v) for v in range(1, 41)]) == (75.0, 30.0)


def test_paced_rescales_to_the_nominal_probe_time():
    # an op that took 0.5 s while the probe ran at twice its nominal time
    # counts as 0.25 s; one that ran at nominal speed is left as measured
    assert bench.paced(0.5, 2 * bench.PROBE_NOMINAL_S) == 0.25
    assert bench.paced(0.5, bench.PROBE_NOMINAL_S) == 0.5
    assert bench.paced(1.2, 1.5, bench.IMPORT_NOMINAL_S) == pytest.approx(0.8)
