"""The C kernels and their loader: the float-text kernel gives
`float.__repr__`'s text, every kernel falls back to its Python twin on its
own with the same bytes, and every C source ships with the package.

Run as a script, this file prints the generated header of cached powers of
ten that `_floattext.c` includes:

    PYTHONPATH=src python tests/test_native.py > src/so3cubics/_floattext_powers.h
"""

import csv
import io
import json
import math
import sys
import sysconfig
import tomllib
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from so3cubics import _native, output, quadratic
from so3cubics.output import KERNEL_MIN_FLOATS, write_csv, write_json

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "so3cubics"


# ---------------------------------------------------------- cached powers

def cached_powers() -> list[tuple[int, int]]:
    """10^k for k = -348, -340, ..., 340 as (f, e) with f 2^e rounded to
    nearest and 2^63 <= f < 2^64, from exact integers."""
    powers = []
    for k in range(-348, 341, 8):
        if k >= 0:
            e = (10 ** k).bit_length() - 64
            f = (10 ** k + (1 << e >> 1)) >> e if e > 0 else 10 ** k << -e
        else:
            d = 10 ** -k
            e = -(63 + d.bit_length())
            f = ((1 << -e) + d // 2) // d
        powers.append((f, e))
    return powers


def powers_header() -> str:
    rows = "".join(f"    {{0x{f:016x}u, {e}}},\n" for f, e in cached_powers())
    return ("/* The cached powers of ten of _floattext.c: 10^k for k = -348, -340, ..., 340\n"
            " * as f 2^e, 2^63 <= f < 2^64, with f rounded to nearest.  Generated from\n"
            " * exact integers by tests/test_native.py (run it as a script); do not\n"
            " * edit. */\n\n"
            "#define CACHED_POWER_FIRST (-348)\n"
            "#define CACHED_POWER_STEP 8\n\n"
            "static const struct {\n    uint64_t f;\n    int e;\n} CACHED_POWERS[] = {\n"
            + rows + "};\n")


def test_cached_powers_are_normalized_and_rounded():
    powers = cached_powers()
    assert len(powers) == 87
    assert powers[0] == (0xFA8FD5A0081C0288, -1220)   # double-conversion's first entry
    for (f, e), k in zip(powers, range(-348, 341, 8)):
        assert 2 ** 63 <= f < 2 ** 64
        assert abs(f * Fraction(2) ** e - Fraction(10) ** k) <= Fraction(2) ** e / 2


def test_powers_header_is_generated():
    assert (PACKAGE / "_floattext_powers.h").read_text() == powers_header()


# -------------------------------------------------------------- packaging

def test_package_data_covers_every_c_source_and_header():
    # without them an installed wheel runs every Python twin, silently
    with open(ROOT / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["so3cubics"]
    sources = {p for p in PACKAGE.rglob("*") if p.suffix in (".c", ".h")}
    shipped = {p for pattern in patterns for p in PACKAGE.glob(pattern)}
    assert {"_rk4.c", "_floattext.c", "_floattext_powers.h"} <= {p.name for p in sources}
    assert sources - shipped == set()


# ------------------------------------------------------ float-text kernel

def _require_float_kernel():
    if output._kernel() is None:
        pytest.skip("the float-text kernel cannot be built here")


def _unbound(library):
    return library


def _slot_texts(values) -> list:
    """The kernel's own text of every float, None where it leaves the slot
    to repr."""
    import ctypes

    library = _native.kernel("floattext", _unbound)
    fill = library.format_slots
    fill.argtypes = (ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p)
    fill.restype = ctypes.c_longlong
    values = np.ascontiguousarray(values, dtype=np.float64)
    slots = np.zeros((values.size, 32), dtype=np.uint8)
    lens = np.zeros(values.size, dtype=np.uint8)
    empty = fill(values.ctypes.data, values.size, slots.ctypes.data, lens.ctypes.data)
    assert empty == np.count_nonzero(lens == 0)
    return [slot[:n].tobytes().decode() if n else None for slot, n in zip(slots, lens.tolist())]


def _assert_reprs(values):
    """Every text the kernel writes is repr's, and so is the joined text."""
    values = np.asarray(values, dtype=np.float64)
    reprs = list(map(float.__repr__, values.tolist()))
    texts = _slot_texts(values)
    assert [t for t, r in zip(texts, reprs) if t is not None and t != r] == []
    # NaN and the infinities are left to repr
    assert all(t is None for t, v in zip(texts, values.tolist()) if not math.isfinite(v))
    assert output._float_text(values[:, None], ",", "\n") == "\n".join(reprs)


_bit_patterns = st.integers(-2 ** 63, 2 ** 63 - 1).map(
    lambda b: float(np.array(b, dtype=np.int64).view(np.float64)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats() | _bit_patterns, min_size=1, max_size=200))
@example([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-05, 0.0001, 9999999999999998.0])
def test_float_text_is_repr(values):
    _require_float_kernel()
    _assert_reprs(values)


def _edge_floats() -> np.ndarray:
    """Powers of two and their neighbours, powers of ten, the ends of the
    subnormal and normal ranges, both zeros, 1e16 and 1e-5, with both signs."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    below = np.nextafter(twos, 0.0)
    above = np.nextafter(twos, np.inf)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    fixed = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, 1e16, 1e-5,
             9999999999999998.0, 1e-4, 123456789012345680.0]
    edges = np.concatenate([twos, below[below > 0], above[np.isfinite(above)], tens, fixed])
    return np.concatenate([edges, -edges])


def test_float_text_of_edge_values():
    _require_float_kernel()
    edges = _edge_floats()
    _assert_reprs(edges)
    # the kernel proves nearly all of them itself
    assert sum(t is None for t in _slot_texts(edges)) < 0.03 * edges.size


def test_float_text_gives_up_rarely_on_random_floats():
    _require_float_kernel()
    rng = np.random.default_rng(1)
    values = np.concatenate([
        rng.integers(-2 ** 63, 2 ** 63, 20_000, dtype=np.int64).view(np.float64),
        rng.normal(size=20_000) * 10.0 ** rng.integers(-30, 30, 20_000),
    ])
    values = values[np.isfinite(values)]
    _assert_reprs(values)
    assert sum(t is None for t in _slot_texts(values)) < 0.03 * values.size


# --------------------------------------------------------------- fallback

# NaN, the infinities, both zeros, subnormals and 17-digit floats
_TABLE = np.concatenate([
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-05, 1 / 3],
    np.random.default_rng(7).normal(size=51) * 10.0 ** np.arange(-25, 26),
]).reshape(-1, 3)


def _writes_python_text(tmp_path, monkeypatch):
    """write_csv and write_json run the Python float text, silently, and
    write csv.writer's and json.dumps' bytes."""
    calls = []
    python_texts = output._float_texts
    monkeypatch.setattr(output, "_float_texts",
                        lambda block: calls.append(block) or python_texts(block))
    finite = _TABLE[1:]   # the first row holds NaN and the infinities
    payload = {"table": finite, "list": finite[:, 0].tolist(), "nan": _TABLE[:, 0].tolist()}
    assert finite.size >= KERNEL_MIN_FLOATS and len(payload["list"]) >= KERNEL_MIN_FLOATS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = write_csv(tmp_path / "t.csv", ["a", "b", "c"], _TABLE).read_bytes()
        report = write_json(tmp_path / "p.json", payload).read_bytes()
    # one call per float block: the CSV table and the JSON array; lists are
    # written item by item
    assert len(calls) == 2 and output._kernel() is None
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["a", "b", "c"], *_TABLE.tolist()])
    assert table == buf.getvalue().encode()
    expected = json.dumps({k: np.asarray(v).tolist() for k, v in payload.items()},
                          indent=2, sort_keys=True) + "\n"
    assert report == expected.encode()


def test_float_kernel_and_python_text_give_the_same_bytes(tmp_path, monkeypatch):
    _require_float_kernel()
    kernel = [write_csv(tmp_path / "k.csv", ["a", "b", "c"], _TABLE).read_bytes(),
              write_json(tmp_path / "k.json", {"t": _TABLE[1:]}).read_bytes()]
    monkeypatch.setattr(output, "_kernel", lambda: None)
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

    def one_text_off(block):
        first, *rest = python_texts(block)
        return (first + "0", *rest)

    monkeypatch.setattr(output, "_float_texts", one_text_off)
    assert output._kernel() is None
    monkeypatch.setattr(output, "_float_texts", python_texts)
    _writes_python_text(fresh_loader, monkeypatch)
    # the step loop's kernel is built, loaded and checked on its own
    if _native._build("rk4") is not None:
        assert quadratic._kernel() is not None


if __name__ == "__main__":
    sys.stdout.write(powers_header())
