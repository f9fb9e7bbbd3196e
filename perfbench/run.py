"""Benchmark of the so3cubics CLI: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

    for w in quad-dense rot-dense rot-long ivp-ensemble; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Run from the root of a source checkout; the package is imported from
`src/`.  Load model: single process, closed loop, one client, one op in
flight.  An op is one in-process `so3cubics.cli.main([...])` call writing
into a fresh directory under `.perfbench-work/`.  Ops run back to back
for `--seconds`, the first of them an untimed warm-up.  Every op is
checked afterwards against an independent DOP853 reference (oracle.py),
read back from the written artifacts, and for byte-determinism.

The host's speed drifts by up to 2x within seconds, so every timed
stretch is bracketed by a fixed probe that uses nothing from so3cubics,
and the reported seconds are rescaled to a machine on which the probe
takes a nominal time (see `paced`): ops by a small-array numpy kernel
run in-process, setup starts by a fresh interpreter that imports
scipy.interpolate, as the library does.  The raw wall seconds and probe
times are printed on the line before the result.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` untraced and traced ops alternate
and it carries the per-layer metrics of tracer.py instead.  `--seed`
drives only the ivp-ensemble draws.  The exit code is 0 when a result was
printed, whether or not every op passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from oracle import Reference
from tracer import LAYERS, Tracer
from workloads import OpInput

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPANS = ROOT / ".perfbench-trace"
SETUP_STARTS = 3          # fresh interpreters timed for setup_s (median)
TAIL_BEYOND = 10          # samples required beyond the tail percentile
PROBE_ROUNDS = 400        # iterations of the probe kernel, about 20 ms
PROBE_NOMINAL_S = 0.02    # probe kernel time of the machine ops are rescaled to
IMPORT_PROBE = "import scipy.interpolate"
IMPORT_NOMINAL_S = 1.0    # import probe time of the machine setup is rescaled to

# A fresh interpreter imports the CLI and builds the workload's first inputs.
SETUP_PROBE = """
import sys
from pathlib import Path
root, workload, seed, work = sys.argv[1:5]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import so3cubics.cli
import workloads
Path(work).mkdir(parents=True, exist_ok=True)
workloads.WORKLOADS[workload].op(int(seed), 0).prepare(Path(work))
"""


@dataclass
class Record:
    """One op as run: its input, wall time, outcome and artifacts."""

    index: int
    op: OpInput
    seconds: float
    probe_s: float           # mean of the probes just before and just after
    timed: bool
    traced: bool
    failure: str | None
    artifacts: dict
    digest: str
    trace: dict = field(default_factory=dict)
    check: workloads.CheckResult | None = None


def probe() -> float:
    """Wall seconds of a fixed kernel that uses nothing from so3cubics:
    the interpreter loop over small numpy arrays, float arithmetic and
    string formatting that the library's own work is made of."""
    a = np.array([[0.6, -0.2, 0.1], [0.3, 0.9, -0.4], [-0.5, 0.2, 0.7]])
    v = np.array([0.2, -0.7, 0.4])
    total = 0.0
    start = time.perf_counter()
    for k in range(PROBE_ROUNDS):
        m = a @ a.T
        u = np.cross(v, m[k % 3])
        total += float(np.linalg.norm(u)) * 0.5 + len(f"{total:.6e}")
        v = u / (1.0 + np.abs(u).max())
    return time.perf_counter() - start


def paced(seconds: float, probe_s: float, nominal_s: float = PROBE_NOMINAL_S) -> float:
    """Wall seconds rescaled to a machine on which the probe takes
    `nominal_s`: the host's drifting speed cancels out, while a change in
    the library's own cost moves the result as it moves wall time."""
    return seconds * nominal_s / probe_s


def spawn(*args: str) -> float:
    """Wall seconds of a fresh interpreter running `python -c *args`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True,
                          text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
    return seconds


def measure_setup(workload: str, seed: int, work: Path) -> list[tuple[float, float]]:
    """(wall seconds, mean import probe seconds) of each fresh setup start;
    setup starts and import probes alternate, a probe at either end."""
    walls, probes = [], [spawn(IMPORT_PROBE)]
    for k in range(SETUP_STARTS):
        walls.append(spawn(SETUP_PROBE, str(ROOT), workload, str(seed),
                           str(work / f"setup{k}")))
        probes.append(spawn(IMPORT_PROBE))
    return [(wall, (probes[k] + probes[k + 1]) / 2) for k, wall in enumerate(walls)]


def run_op(op: OpInput, index: int, work: Path, timed: bool, tracer=None) -> Record:
    """Run one op in a fresh output directory and collect its artifacts."""
    from so3cubics import cli
    shutil.rmtree(work / "out", ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    argv = op.prepare(work)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    failure = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    before = probe()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            failure = f"exit code {code}: {err.getvalue().strip()}"
    except SystemExit as exc:
        failure = f"SystemExit {exc.code}: {err.getvalue().strip()}"
    except Exception:          # the op failed; the benchmark keeps going
        failure = "raised:\n" + traceback.format_exc()
    seconds = time.perf_counter() - start
    probe_s = (before + probe()) / 2
    if tracer is not None:
        tracer.uninstall()
    if failure is None and "Traceback" in out.getvalue() + err.getvalue():
        failure = "printed a traceback"
    artifacts = workloads.read_artifacts(work / "out") if (work / "out").is_dir() else {}
    record = Record(index, op, seconds, probe_s, timed, tracer is not None, failure,
                    artifacts, workloads.digest(artifacts))
    if tracer is not None:
        record.trace = layer_metrics(tracer, seconds, artifacts)
    return record


def layer_metrics(tracer, seconds: float, artifacts: dict) -> dict:
    """Per-layer metrics of one traced op (see BENCHMARK.json per_layer)."""
    summary = tracer.summary()
    out = {}
    for name, stats in summary.items():
        for key, value in stats.items():
            out[f"{name}.{key}"] = value
    own = sum(s["self_s"] for s in summary.values())
    out["trace.coverage"] = own / seconds
    for layer in LAYERS:
        share = sum(s["self_s"] for n, s in summary.items() if n.split(".")[0] == layer)
        out[f"layer.{layer}.share"] = share / seconds
    drift = [0.0]
    for traj in tracer.results.get("quadratic.integrate_quadratic", []):
        c_series = traj.v2 - np.cross(traj.v1, traj.v)
        drift.append(float(np.max(np.linalg.norm(c_series - traj.C, axis=1))))
        drift.append(float(np.max(np.abs(np.einsum("ij,ij->i", traj.v2, traj.v2) - traj.c))))
    out["quadratic.drift_max"] = max(drift)
    defect = [0.0]
    for traj in tracer.results.get("quadratic.integrate_cubic", []):
        r = traj.rotations
        ortho = np.abs(np.einsum("nki,nkj->nij", r, r) - np.eye(3)).max()
        defect.append(float(max(ortho, np.abs(np.linalg.det(r) - 1.0).max())))
    out["quadratic.rotation_defect_max"] = max(defect)
    out["output.bytes"] = sum(len(data) for data in artifacts.values())
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the op-time tail: the highest percentile with
    at least TAIL_BEYOND samples above it, but never below the median.
    Runs with fewer than 2 * TAIL_BEYOND samples report the median (50)."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND      # 1-based rank with TAIL_BEYOND above
    if 2 * k <= len(ordered):
        return 50.0, statistics.median(ordered)
    return 100.0 * k / len(ordered), ordered[k - 1]


def check_all(records: list[Record], workload: workloads.Workload) -> None:
    """Check every record against the reference, marking failures."""
    # A fixed input gets a reference solve of its own, so its accuracy
    # figures do not depend on which random draws share the run; the random
    # draws are stacked into one solve.
    groups = {}
    for rec in records:
        group = groups.setdefault(rec.op.jet if rec.op.fixed else None, [])
        if rec.op.jet not in group:
            group.append(rec.op.jet)
    first = records[0].op
    members = {}
    for jets in groups.values():
        reference = Reference(first.t0, first.t1, jets)
        members.update({jet: (reference, k) for k, jet in enumerate(jets)})
    # identical bytes get one verdict; the first record with them holds them
    verdicts = {}
    for rec in records:
        key = (rec.digest, rec.op.jet)
        if key not in verdicts:
            try:
                verdicts[key] = workloads.check_op(workload, rec.op, rec.artifacts,
                                                   *members[rec.op.jet])
            except workloads.CheckFailed as exc:
                verdicts[key] = str(exc)
        verdict = verdicts[key]
        if rec.failure is not None:
            continue
        if isinstance(verdict, str):
            rec.failure = verdict
        else:
            rec.check = verdict
    # byte-determinism: ops with the same input must write the same bytes
    by_input = {}
    for rec in records:
        expected = by_input.setdefault(rec.op.jet, rec.digest)
        if rec.failure is None and rec.digest != expected:
            rec.failure = "artifacts differ from the first op with the same input"


def run(args, work: Path, setup_times: list[tuple[float, float]]) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    # the run lasts --seconds in all, starting with an untimed warm-up op
    start = time.perf_counter()
    records = [run_op(workload.op(args.seed, 0), 0, work, timed=False)]
    # wall seconds of each op with its probes, to plan the next one
    durations = {False: [time.perf_counter() - start], True: []}
    seen = {records[0].digest}
    index = 1
    while True:
        traced = bool(args.trace) and index % 2 == 0
        op_start = time.perf_counter()
        rec = run_op(workload.op(args.seed, index), index, work,
                     timed=True, tracer=tracer if traced else None)
        if rec.digest in seen:
            rec.artifacts = {}      # same bytes as an earlier op: checked once
        seen.add(rec.digest)
        records.append(rec)
        durations[traced].append(time.perf_counter() - op_start)
        index += 1
        following = bool(args.trace) and index % 2 == 0
        expected = (durations[following] or durations[traced])[-1]
        out_of_time = time.perf_counter() - start + expected > args.seconds
        if out_of_time and (durations[True] or not args.trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    anchor = None
    if args.workload == "ivp-ensemble":
        # replay the first input, then the fixed accuracy anchor
        records.append(run_op(records[0].op, index, work, timed=False))
        anchor = run_op(workloads.anchor_op(), index + 1, work, timed=False)
        records.append(anchor)
    check_all(records, workload)

    timed = [r for r in records if r.timed and not r.traced]
    attempted = len(records)
    failed = sum(r.failure is not None for r in records)
    for rec in records:
        if rec.failure is not None:
            print(f"op {rec.index} FAILED: {rec.failure}", file=sys.stderr)
    op_times = [paced(r.seconds, r.probe_s) for r in timed]
    percentile, tail_value = tail(op_times)
    checked = [r.check for r in records if r.check is not None]
    if not checked:
        raise RuntimeError("no op passed its check, so there is no accuracy to report")
    accuracy_source = [anchor.check] if anchor is not None and anchor.check else checked
    ref_err = max(c.ref_err for c in accuracy_source)
    approx_err = max(c.approx_err for c in accuracy_source)
    info = {"workload": args.workload, "seed": args.seed,
            "op_wall_s": [r.seconds for r in timed], "op_probe_s": [r.probe_s for r in timed],
            "setup_wall_s": [wall for wall, _ in setup_times],
            "setup_probe_s": [probe_s for _, probe_s in setup_times],
            "tail_percentile": percentile, "error_rate": failed / attempted,
            "checked_ref_err_max": max(c.ref_err for c in checked),
            "checked_approx_err_max": max(c.approx_err for c in checked)}
    if tracer is None:
        passed = sum(r.failure is None for r in timed)
        metrics = {
            "setup_s": (statistics.median(paced(wall, probe_s, IMPORT_NOMINAL_S)
                                          for wall, probe_s in setup_times), "s"),
            "op_s_p50": (statistics.median(op_times), "s"),
            "op_s_tail": (tail_value, "s"),
            "ops_per_s": (passed / sum(op_times), "1/s"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
            "ref_err_max": (ref_err, "norm"),
            "approx_err_max": (approx_err, "norm"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = trace_metrics([r for r in records if r.traced], op_times, checked)
        write_spans(tracer, args)
    print(json.dumps(info, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def trace_metrics(traced: list[Record], untraced_times: list[float],
                  checked: list[workloads.CheckResult]) -> dict:
    """Every per-layer metric in BENCHMARK.json: the median over traced ops,
    the tracing overhead, and the worst accuracy over all checked ops."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name == "trace.overhead":
            value = (statistics.median(paced(r.seconds, r.probe_s) for r in traced)
                     / statistics.median(untraced_times) - 1.0)
        elif name == "check.ref_err_max":
            value = max(c.ref_err for c in checked)
        elif name == "check.approx_err_max":
            value = max(c.approx_err for c in checked)
        else:
            values = [r.trace.get(name, 0) for r in traced]
            # counts repeat exactly, so report one of them rather than a mean
            value = (statistics.median_low(values) if entry["unit"] in ("count", "bytes")
                     else statistics.median(values))
        metrics[name] = (value, entry["unit"])
    return metrics


def write_spans(tracer, args) -> None:
    """Keep the raw spans of the last traced op for inspection."""
    SPANS.mkdir(exist_ok=True)
    spans = tracer.spans()
    np.savez_compressed(SPANS / f"{args.workload}.npz", names=np.array(tracer.names),
                        **{k: spans[k] for k in ("name_id", "parent", "start", "end")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "so3cubics" / "cli.py").is_file():
        print(f"no so3cubics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        setup_times = measure_setup(args.workload, args.seed, work)
        result = run(args, work, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
