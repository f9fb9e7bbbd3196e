"""The C kernels and their loader: the float-text kernel gives
`float.__repr__`'s and `%.2f`'s text, every kernel falls back to its
Python twin on its own with the same bytes, and every C source has a row
in `_native.KERNELS` and ships with the package.

Run as a script, this file prints the generated header of powers of ten
that `_floattext.c` includes:

    PYTHONPATH=src python tests/test_native.py > src/so3cubics/_floattext_powers.h
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import sysconfig
import tomllib
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import forget_kernels, off_twins, require_kernel, twins_only
from so3cubics import _native, harness, output
from so3cubics.cli import main
from so3cubics.output import KERNEL_MIN_FLOATS, SvgCurve, render_svg, write_csv, write_json

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "so3cubics"


# ----------------------------------------------------------- power table

POWERS_FIRST, POWERS_LAST = -292, 324


def floor_log2_pow10(k: int) -> int:
    """floor(log2 10^k), exactly: 10^-k is never a power of two for k < 0."""
    return (10 ** k).bit_length() - 1 if k >= 0 else -(10 ** -k).bit_length()


def powers() -> list[int]:
    """g(k) = floor(10^k 2^-e) + 1 with e = floor(log2 10^k) + 1 - 128, so
    that 2^127 <= g < 2^128, for k = -292, ..., 324, from exact integers."""
    table = []
    for k in range(POWERS_FIRST, POWERS_LAST + 1):
        e = floor_log2_pow10(k) + 1 - 128
        if k >= 0:
            g = 10 ** k >> e if e > 0 else 10 ** k << -e
        else:
            g = (1 << -e) // 10 ** -k
        table.append(g + 1)
    return table


def powers_header() -> str:
    rows = "".join(f"    {{0x{g >> 64:016x}u, 0x{g & (1 << 64) - 1:016x}u}},\n"
                   for g in powers())
    return ("/* The powers of ten of _floattext.c: g(k) = floor(10^k 2^-e) + 1 with\n"
            " * e = floor(log2 10^k) + 1 - 128, so 2^127 <= g < 2^128, for k = -292,\n"
            " * ..., 324, as {g >> 64, g mod 2^64}.  Generated from exact integers by\n"
            " * tests/test_native.py (run it as a script); do not edit. */\n\n"
            f"#define POWERS_FIRST ({POWERS_FIRST})\n\n"
            "static const struct {\n    uint64_t hi, lo;\n} POWERS[] = {\n"
            + rows + "};\n")


def _floor_log(base: int, x: Fraction) -> int:
    """floor(log_base x) of a positive rational, exactly."""
    k = math.floor(math.log(x.numerator, base) - math.log(x.denominator, base))
    while Fraction(base) ** k > x:
        k -= 1
    while Fraction(base) ** (k + 1) <= x:
        k += 1
    return k


def test_powers_bracket_their_power_of_ten():
    table = powers()
    assert len(table) == 617
    for g, k in zip(table, range(POWERS_FIRST, POWERS_LAST + 1)):
        e = floor_log2_pow10(k) + 1 - 128
        assert 2 ** 127 <= g < 2 ** 128
        assert g - 1 <= Fraction(10) ** k / Fraction(2) ** e < g


def test_powers_log_formulas_are_exact_over_every_double_exponent():
    # the kernel's multiply-shifts for floor(log10 2^q), floor(log10 (3/4)
    # 2^q) and floor(log2 10^k), over every binary exponent q of a double
    # and every decimal exponent k it can take or need
    for q in range(-1074, 972):
        assert q * 1262611 >> 22 == _floor_log(10, Fraction(2) ** q)
        assert q * 1262611 - 524031 >> 22 == _floor_log(10, Fraction(3, 4) * Fraction(2) ** q)
    for k in range(-324, POWERS_LAST + 1):
        assert k * 1741647 >> 19 == floor_log2_pow10(k) == _floor_log(2, Fraction(10) ** k)


def test_powers_header_is_generated():
    assert (PACKAGE / "_floattext_powers.h").read_text() == powers_header()


# -------------------------------------------------------------- packaging

def test_every_c_source_has_a_row_in_the_kernel_table():
    assert set(_native.KERNELS) == {p.stem[1:] for p in PACKAGE.glob("_*.c")}


def test_package_data_covers_every_c_source_and_header():
    # without them an installed wheel runs every Python twin, silently
    with open(ROOT / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["so3cubics"]
    sources = {p for p in PACKAGE.rglob("*") if p.suffix in (".c", ".h")}
    shipped = {p for pattern in patterns for p in PACKAGE.glob(pattern)}
    assert {*(f"_{name}.c" for name in _native.KERNELS),
            "_floattext_powers.h"} <= {p.name for p in sources}
    assert sources - shipped == set()


# ----------------------------------------------------------------- loader

@pytest.mark.parametrize("name", sorted(_native.KERNELS))
def test_a_failed_self_check_turns_off_that_kernel_only(name, fresh_kernels, monkeypatch):
    for each in _native.KERNELS:
        require_kernel(each)
    forget_kernels()
    monkeypatch.setattr(*off_twins()[name])
    # the others are built, loaded and checked on their own
    assert [each for each in _native.KERNELS if _native.kernel(each) is None] == [name]


def test_no_self_check_calls_a_public_algebra_function(monkeypatch):
    # perfbench's tracer counts the calls of every public function under
    # every alias; a kernel's first use inside a traced op must add none
    import importlib

    from so3cubics import algebra
    public = {name: fn for name, fn in vars(algebra).items()
              if not name.startswith("_") and callable(fn) and not isinstance(fn, type)
              and fn.__module__ == algebra.__name__}
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    names = {id(fn): name for name, fn in public.items()}
    for module in [m for key, m in sys.modules.items() if key.partition(".")[0] == "so3cubics"]:
        for attr, value in list(vars(module).items()):
            if public.get(names.get(id(value))) is value:
                monkeypatch.setattr(module, attr, counted(names[id(value)], value))
    for name, module in _native.KERNELS.items():
        require_kernel(name)
        bind = getattr(importlib.import_module(f"so3cubics.{module}"), f"_bind_{name}")
        _, checks = bind(_native._load(name))
        assert all(_native._same_outcome(*check) for check in checks)
    assert calls == []


def test_a_warm_cache_loads_every_kernel_without_subprocess():
    # only a build imports subprocess, which nothing else in a run imports
    for name in _native.KERNELS:
        require_kernel(name)
    code = ("import sys; from so3cubics import _native; "
            "print(all(_native.kernel(n) is not None for n in _native.KERNELS), "
            "'subprocess' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert run.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("name", sorted(_native.KERNELS))
def test_the_first_use_of_a_kernel_imports_no_numpy_random(name):
    # every self-check draws its data from _native._draws
    code = ("import sys; from so3cubics import _native; "
            f"print(_native.kernel({name!r}) is not None, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    if run.stdout.split()[0] == "False":
        pytest.skip(f"the {name} kernel cannot be built here")
    assert run.stdout.split() == ["True", "False"]


def _typed_calls(name) -> list:
    """Calls of kernel `name`'s entries, (entry, args), on arrays of the
    dtype, layout and shape that each entry takes, in an order that runs."""
    def doubles(*shape):
        return np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape) / 7.0

    text = (doubles(2, 2), 2, 2, b",", 1, b" ", 1, np.zeros(5 * output._ROOM + 6, np.uint8))
    return {
        "rk4": [("rk4_quadratic", (doubles(9), 0.1, 2, doubles(3), 1.0, doubles(3, 3, 3),
                                   doubles(4), np.zeros(4, np.int64)))],
        "magnus": [("magnus_steps", (doubles(2, 3), doubles(2, 3), 2, 0.1, 0.01,
                                     doubles(3, 3, 3), doubles(1)))],
        "floattext": [("shortest_text", text), ("fixed2_text", text)],
        "recon": [("recon_pass", (doubles(3), doubles(3, 3), doubles(3, 3), doubles(3, 3), 3,
                                  doubles(3), 1.0, 1.0, 1e-12, doubles(3), doubles(3),
                                  doubles(3, 3, 3), np.zeros(2, np.int64), doubles(2))),
                  ("lift", (doubles(3, 3), doubles(2), doubles(2, 3, 3), 2, doubles(2, 3, 3)))],
    }[name]


@pytest.mark.parametrize("name", sorted(_native.KERNELS))
def test_a_typed_entry_refuses_a_float32_or_fortran_order_array(name):
    # ctypes refuses the argument before the call: no kernel reads an array
    # of another dtype or layout as raw memory
    import ctypes

    require_kernel(name)
    library = _native._load(name)
    for entry, args in _typed_calls(name):
        call = getattr(library, entry)
        call(*args)
        for i, arg in enumerate(args):
            if not isinstance(arg, np.ndarray):
                continue
            for bad in [arg.astype(np.float32)] + [np.asfortranarray(arg)] * (arg.ndim > 1):
                with pytest.raises(ctypes.ArgumentError):
                    call(*args[:i], bad, *args[i + 1:])


# ------------------------------------------------------------------ cache

def _plant_builds(cache, names):
    """Empty files `names` in `cache`, each a minute older than the one before."""
    cache.mkdir(parents=True)
    for age, name in enumerate(names, start=1):
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (1.7e9 - 60 * age,) * 2)


def test_a_build_removes_the_superseded_builds_of_its_kernel_only(fresh_loader):
    # of more rk4 builds than the cache keeps, the oldest go; magnus's builds
    # and names that only start like rk4's stay, whatever their age
    cache = fresh_loader / "cache" / "so3cubics"
    older = [f"rk4-{k:016x}.so" for k in range(_native._KEPT_BUILDS + 2)]
    others = ["magnus-0000000000000000.so", "magnus-0000000000000001.so",
              "rk4-0000000000000000.so.old", "rk4-00000000000000001.so", "rk4.so"]
    _plant_builds(cache, [*older, *others])
    built = _native._build("rk4")
    if built is None:
        pytest.skip("the rk4 kernel cannot be built here")
    kept = older[:_native._KEPT_BUILDS - 1]
    assert sorted(p.name for p in cache.iterdir()) == sorted([built.name, *kept, *others])


def test_a_build_keeps_the_recent_builds_of_other_versions(fresh_loader):
    # the builds of other installed versions that share the cache stay, so
    # switching between them builds nothing again
    cache = fresh_loader / "cache" / "so3cubics"
    planted = [f"rk4-{k:016x}.so" for k in range(_native._KEPT_BUILDS - 1)]
    _plant_builds(cache, planted)
    built = _native._build("rk4")
    if built is None:
        pytest.skip("the rk4 kernel cannot be built here")
    assert sorted(p.name for p in cache.iterdir()) == sorted([built.name, *planted])


# ------------------------------------------------------ float-text kernel

def _kernel_texts(values, entry="shortest_text") -> list | None:
    """The kernel's own text of every float, one float a row, by its entry
    `entry` (shortest_text, repr, or fixed2_text, %.2f), or None where it
    leaves the array to the twin.  The entries are typed as output's bind
    types them."""
    library = _native._load("floattext")
    output._bind_floattext(library)
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, 1)
    out = np.zeros((values.size + 1) * (output._ROOM + 2), dtype=np.uint8)
    size = getattr(library, entry)(values, values.size, 1, b",", 1, b"\n", 1, out)
    return None if size < 0 else out[:size].tobytes().decode().splitlines()


def _assert_reprs(values):
    """The kernel writes every finite float itself, as repr does, leaves an
    array with NaN or an infinity to the twin, and the joined text is
    repr's either way."""
    values = np.asarray(values, dtype=np.float64)
    reprs = list(map(float.__repr__, values.tolist()))
    finite = np.isfinite(values)
    assert _kernel_texts(values[finite]) == [r for r, f in zip(reprs, finite) if f]
    if not finite.all():
        assert _kernel_texts(values) is None
    assert output._float_text(values[:, None], ",", "\n") == "\n".join(reprs)


_bit_patterns = st.integers(-2 ** 63, 2 ** 63 - 1).map(
    lambda b: float(np.array(b, dtype=np.int64).view(np.float64)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats() | _bit_patterns, min_size=1, max_size=200))
@example([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-05, 0.0001, 9999999999999998.0])
def test_float_text_is_repr(values):
    require_kernel("floattext")
    _assert_reprs(values)


def _edge_floats() -> np.ndarray:
    """Powers of two and their neighbours, powers of ten, the ends of the
    subnormal and normal ranges, both zeros, 1e16 and 1e-5, the largest
    integers that a double holds exactly, with both signs."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    below = np.nextafter(twos, 0.0)
    above = np.nextafter(twos, np.inf)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    fixed = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, 1e16, 1e-5,
             9999999999999998.0, 1e-4, 1e15, 123456789012345680.0, 2.0 ** 53 - 1, 2.0 ** 53]
    edges = np.concatenate([twos, below[below > 0], above[np.isfinite(above)], tens, fixed])
    return np.concatenate([edges, -edges])


def test_float_text_of_edge_values():
    require_kernel("floattext")
    _assert_reprs(_edge_floats())


def test_float_text_writes_every_random_float_itself():
    require_kernel("floattext")
    rng = np.random.default_rng(1)
    values = np.concatenate([
        rng.integers(-2 ** 63, 2 ** 63, 20_000, dtype=np.int64).view(np.float64),
        rng.normal(size=20_000) * 10.0 ** rng.integers(-30, 30, 20_000),
    ])
    _assert_reprs(values[np.isfinite(values)])


def _ulps(x: float, steps: int) -> float:
    """x moved by `steps` floats, up or down."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# %.2f's hard cases: exact ties k/8 (half a cent at odd k), k + 0.005 and
# its neighbours, both zeros, tiny negatives (-0.00), the floats around
# the 1e13 cut, NaN and the infinities, besides pixel values and any float
_fixed_floats = st.one_of(
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: k / 8),
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.integers(-2, 2)).map(
        lambda ks: _ulps(ks[0] + 0.005, ks[1])),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, -5e-324, -1e-300]),
    st.floats(-0.005, -0.0),
    st.tuples(st.sampled_from([1e13, -1e13]), st.integers(-3, 3)).map(lambda xs: _ulps(*xs)),
    st.floats(-1e4, 1e4),
    st.floats(),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_fixed_floats, min_size=1, max_size=200))
@example([0.005, 0.015, 2.675, 1.005, 0.125, 0.375, -0.0, -0.001, 5e-324, 1e13,
          math.nextafter(1e13, 0.0), 9999999999999.995, math.nan, -math.inf])
def test_fixed_text_is_percent_2f(values):
    require_kernel("floattext")
    # the kernel writes every float below 1e13 itself, and leaves an array
    # with NaN, an infinity or |x| >= 1e13 to the twin
    written = [v for v in values if abs(v) < 1e13]
    assert _kernel_texts(written, "fixed2_text") == ["%.2f" % v for v in written]
    if len(written) < len(values):
        assert _kernel_texts(values, "fixed2_text") is None
    # the polyline text: "x,y" points joined by spaces
    points = np.array(values + values[-1:] * (len(values) % 2)).reshape(-1, 2)
    assert output._fixed_text(points, ",", " ") == " ".join(
        "%.2f,%.2f" % (x, y) for x, y in points.tolist())


def test_float_text_self_check_covers_edges_ties_and_random_bits():
    stub = SimpleNamespace(shortest_text=SimpleNamespace(), fixed2_text=SimpleNamespace())
    kernel, checks = output._bind_floattext(stub)
    [(own, _, (floats, *_)), (served, _, (left, *_)), (own_fixed, _, (pennies, *_)),
     (served_fixed, _, (left_fixed, *_))] = checks
    # the finite tables go to the kernel's own text, which does not fall back
    # to the twin, and the others to the text that the writers call
    assert own is not kernel.shortest and own_fixed is not kernel.fixed2
    assert (served, served_fixed) == kernel
    floats, pennies = floats.ravel(), pennies.ravel()
    assert np.isfinite(floats).all() and (np.abs(pennies) < 1e13).all()
    for table in (floats, pennies):
        # both zeros and subnormals
        assert {0, 1 << 63} <= set(table.view(np.uint64).tolist())
        assert np.any((table != 0.0) & (np.abs(table) < 2.2250738585072014e-308))
    # NaN and the infinities among finite floats, and for %.2f 1e13 and
    # +-1e28
    for table in (left.ravel(), left_fixed.ravel()):
        assert np.isnan(table).any() and {math.inf, -math.inf} <= set(table.tolist())
        assert np.isfinite(table).any()
    assert {1e13, -1e13, 1e28, -1e28} <= set(left_fixed.ravel().tolist())
    # both sides of repr's switches between fixed and exponent notation;
    # 1e23 and its upper neighbour, which has 1e23 on the bound of its
    # interval; 2^50 plus a quarter or three, halfway between two texts;
    # powers of two whose closer lower neighbour decides their digits; the
    # smallest subnormal, whose digits lie in the low eight alone
    for low, high in ((1e-05, 0.0001), (9999999999999998.0, 1e16)):
        assert {low, high} <= set(floats.tolist()) and ("e" in repr(low)) != ("e" in repr(high))
    assert {1e23, 1.0000000000000001e23, 2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** 64,
            2.0 ** -24, 5e-324} <= set(floats.tolist())
    # at least 200 random bit patterns: exponents all over the range, most of
    # them far outside the decimal range of every other value drawn
    finite = floats[floats != 0.0]
    wild = set(finite[(np.abs(finite) > 1e25) | (np.abs(finite) < 1e-25)].tolist())
    assert len(wild - set(output._CHECK_FLOATS)) >= 200
    # %.2f: the ties k/8, both neighbours of k + 0.005 and the largest floats
    # below the 1e13 cut
    cents = np.arange(-20.0, 20.0) + 0.005
    assert set((np.arange(-40, 40) / 8.0).tolist()) <= set(pennies.tolist())
    assert set(np.nextafter(cents, -np.inf).tolist()) <= set(pennies.tolist())
    assert set(np.nextafter(cents, np.inf).tolist()) <= set(pennies.tolist())
    assert {math.nextafter(1e13, 0.0), -math.nextafter(1e13, 0.0)} <= set(pennies.tolist())


def test_float_text_self_check_refuses_a_kernel_that_leaves_finite_floats_to_the_twin():
    # such a kernel passes a comparison of the served text with the twin;
    # the finite tables' comparison of its own text does not let it
    library = SimpleNamespace(shortest_text=lambda *args: -1, fixed2_text=lambda *args: -1)
    _, checks = output._bind_floattext(library)
    assert [_native._same_outcome(*check) for check in checks] == [False, True, False, True]


# --------------------------------------------------------------- fallback

# NaN, the infinities, both zeros, subnormals and 17-digit floats
_TABLE = np.concatenate([
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-05, 1 / 3],
    np.random.default_rng(7).normal(size=51) * 10.0 ** np.arange(-25, 26),
]).reshape(-1, 3)


def _writes_python_text(tmp_path, monkeypatch):
    """write_csv, write_json and render_svg run the Python float text,
    silently, and write csv.writer's and json.dumps' bytes and `%.2f`."""
    calls, fixed_calls = [], []
    python_texts, python_fixed = output._float_texts, output._fixed_text_python
    monkeypatch.setattr(output, "_float_texts",
                        lambda block: calls.append(block) or python_texts(block))
    monkeypatch.setattr(output, "_fixed_text_python",
                        lambda *args: fixed_calls.append(args) or python_fixed(*args))
    finite = _TABLE[1:]   # the first row holds NaN and the infinities
    payload = {"table": finite, "list": finite[:, 0].tolist(), "nan": _TABLE[:, 0].tolist()}
    assert finite.size >= KERNEL_MIN_FLOATS and len(payload["list"]) >= KERNEL_MIN_FLOATS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = write_csv(tmp_path / "t.csv", ["a", "b", "c"], _TABLE).read_bytes()
        report = write_json(tmp_path / "p.json", payload).read_bytes()
    # one call per float block: the CSV table and the JSON array; lists are
    # written item by item
    assert len(calls) == 2 and _native.kernel("floattext") is None
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["a", "b", "c"], *_TABLE.tolist()])
    assert table == buf.getvalue().encode()
    expected = json.dumps({k: np.asarray(v).tolist() for k, v in payload.items()},
                          indent=2, sort_keys=True) + "\n"
    assert report == expected.encode()
    # one call per polyline, the markers' f-strings from the same pixels
    curve = SvgCurve("c", finite[:, :2], markers=[(x, y, "") for x, y in finite[:, :2].tolist()])
    svg = render_svg([curve, curve])
    assert len(fixed_calls) == 2
    circles = [f"{x},{y}" for x, y in re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)]
    assert re.findall(r'points="([^"]*)"', svg) == [" ".join(circles[:len(finite)])] * 2


@pytest.mark.parametrize("argv", [["figure2", "--step", "0.025", "--stride", "0.05"],
                                  ["figure3", "--step", "0.01", "--stride", "0.02"]])
def test_dense_figure_svg_is_the_same_with_the_kernel_and_the_twin(fresh_loader, monkeypatch,
                                                                   argv):
    drawn = []
    monkeypatch.setattr(harness, "write_svg",
                        lambda path, curves, title="": drawn.append((curves, title)) or path)
    assert main([*argv, "--formats", "svg", "--out", str(fresh_loader / "out")]) == 0
    [(curves, title)] = drawn
    assert sum(len(curve.points) for curve in curves) >= 1000
    require_kernel("floattext")
    kernel = render_svg(curves, title)
    blocker = fresh_loader / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    forget_kernels()
    assert _native.kernel("floattext") is None
    assert render_svg(curves, title) == kernel


def test_float_kernel_and_python_text_give_the_same_bytes(tmp_path):
    require_kernel("floattext")
    kernel = [write_csv(tmp_path / "k.csv", ["a", "b", "c"], _TABLE).read_bytes(),
              write_json(tmp_path / "k.json", {"t": _TABLE[1:]}).read_bytes()]
    with twins_only("floattext"):
        python = [write_csv(tmp_path / "p.csv", ["a", "b", "c"], _TABLE).read_bytes(),
                  write_json(tmp_path / "p.json", {"t": _TABLE[1:]}).read_bytes()]
    assert kernel == python


def test_missing_compiler_writes_the_python_text(fresh_loader, monkeypatch):
    config = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-compiler" if name == "CC" else config(name))
    _writes_python_text(fresh_loader, monkeypatch)
    # the temporary the build would have written is gone
    assert not any((fresh_loader / "cache" / "so3cubics").iterdir())


def test_cache_path_that_is_a_file_writes_the_python_text(fresh_loader, monkeypatch):
    blocker = fresh_loader / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    _writes_python_text(fresh_loader, monkeypatch)


def test_failed_float_self_check_writes_the_python_text(fresh_loader, monkeypatch):
    # the self-check compares against a Python text that is off in one float
    python_texts = output._float_texts
    monkeypatch.setattr(*off_twins()["floattext"])
    assert _native.kernel("floattext") is None
    monkeypatch.setattr(output, "_float_texts", python_texts)
    _writes_python_text(fresh_loader, monkeypatch)


def test_failed_fixed_self_check_writes_the_python_text(fresh_loader, monkeypatch):
    # the %.2f twin that the self-check compares against is off in one
    # float: the kernel goes for CSV and JSON as well as for SVG
    python_fixed = output._fixed_text_python

    def one_text_off(values, sep, row_sep):
        return "0" + python_fixed(values, sep, row_sep)

    monkeypatch.setattr(output, "_fixed_text_python", one_text_off)
    assert _native.kernel("floattext") is None
    monkeypatch.setattr(output, "_fixed_text_python", python_fixed)
    _writes_python_text(fresh_loader, monkeypatch)


if __name__ == "__main__":
    sys.stdout.write(powers_header())
