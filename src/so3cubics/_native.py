"""The package's C kernels: built on first use, cached per machine, and
used only where they match their Python twins byte for byte.

A kernel is a C source of the package, `_<name>.c`, and a row of
`KERNELS`: the package module whose `_bind_<name>` serves it.
`kernel(name)`, the one getter, builds the source on its first call (never
at import) with the compiler Python was built with and `FLAGS`, into
$XDG_CACHE_HOME/so3cubics (~/.cache/so3cubics when that is unset) as
`<name>-<hash>.so`, the hash taken over the source, the headers it
includes, the compiler command and the platform.  Only a build imports
`subprocess`.  The build goes to a temporary name first and is then moved
into place, so a reader never sees half a file; then all but the newest
`_KEPT_BUILDS` builds of the kernel in the cache are removed.  The bind
receives the loaded library (`_load(name)`), declares its functions' types,
every array as one of the ndarray types below, and returns what its module
calls in place of the twin, with the self-check's cases as (ours, twin,
args) triples.  `kernel` serves it only if `_same_outcome` holds on every
case, and None otherwise.  Every self-check's data comes from `_draws`, a
few lines of integer arithmetic.

No compiler, an unwritable cache, a failed build or load, or a failed
self-check gives None, silently; the module then runs its Python twin,
with the same bits.  Each kernel is built, loaded and checked on its own,
so one kernel's failure leaves the others in use.  Nothing of the
package's own, no option, flag, config key or environment variable,
chooses between a kernel and its twin.
"""

from __future__ import annotations

import contextlib
import os
import re
from functools import cache
from pathlib import Path

import numpy as np

# the compiler flags of every kernel; -ffp-contract=off keeps a * b + c from
# becoming one fused multiply-add, which would change its bits
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

# each kernel, `_<name>.c`, and the package module whose `_bind_<name>` serves it
KERNELS = {"rk4": "quadratic", "magnus": "quadratic", "floattext": "output",
           "recon": "reconstruction"}

_HERE = Path(__file__).parent

# the kernels' array arguments as ctypes types: C-order float64, int64 or uint8,
# writeable where a kernel writes; ctypes refuses any other array before the call
DOUBLES_IN, DOUBLES_OUT, INT64_OUT, BYTES_IN, BYTES_OUT = (np.ctypeslib.ndpointer(code, flags=flags)
    for code, flags in (("f8", "C"), ("f8", "C,W"), ("i8", "C,W"), ("u1", "C"), ("u1", "C,W")))

# the builds of a kernel that the cache keeps, for a few installed versions
_KEPT_BUILDS = 4


@cache
def kernel(name: str):
    """What the module of `KERNELS[name]` calls in place of its twin, from
    the loaded `_<name>.c`, or None where it cannot be had or fails its
    self-check; built, loaded and checked once per process."""
    import importlib

    library = _load(name)
    if library is None:
        return None
    module = importlib.import_module(f".{KERNELS[name]}", __package__)
    served, checks = getattr(module, f"_bind_{name}")(library)
    return served if all(_same_outcome(*check) for check in checks) else None


@cache
def _load(name: str):
    """The loaded `_<name>.c`, with nothing bound, or None where it cannot
    be built or loaded; once per process."""
    import ctypes

    built = _build(name)
    if built is None:
        return None
    try:
        return ctypes.CDLL(str(built))
    except OSError:
        return None


def _same_outcome(ours, twin, args) -> bool:
    """`ours` and `twin`, each called on its own copies of the ndarrays in
    `args`, return the same (the bytes of an ndarray, item by item in a
    tuple, else the `repr`) and leave the same bytes in every ndarray
    argument, or raise the same type of exception with the same message;
    float warnings are kept quiet."""
    def encode(result):
        if isinstance(result, np.ndarray):
            return result.tobytes()
        return tuple(map(encode, result)) if isinstance(result, tuple) else repr(result)

    def outcome(engine):
        own = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        try:
            with np.errstate(all="ignore"):
                result = engine(*own)
        except Exception as exc:
            return type(exc), str(exc)
        return encode(result), [a.tobytes() for a in own if isinstance(a, np.ndarray)]

    return outcome(ours) == outcome(twin)


def _draws(count: int, seed: int):
    """count floats x / 2^30 - 1 in [-1, 1), as an array, for the states x
    of the Lehmer generator x -> 48271 x mod 2^31 - 1 from seed (Park and
    Miller's minimal standard, with the multiplier of Park, Miller and
    Stockmeyer): every self-check's data.  Each float is its state exactly."""
    return np.array([seed := seed * 48271 % 2147483647 for _ in range(count)]) / 2.0 ** 30 - 1.0


def _build(name: str) -> Path | None:
    """The cached shared library of `_<name>.c`, compiled into the cache
    first if it is not there, or None where that fails."""
    import hashlib
    import shlex
    import sysconfig

    compiler = sysconfig.get_config_var("CC")
    if not compiler:
        return None
    command = [*shlex.split(compiler), *FLAGS]
    source = _HERE / f"_{name}.c"
    try:
        text = source.read_bytes()
        headers = [(_HERE / header).read_bytes()
                   for header in re.findall(r'^#include "([^"]+)"', text.decode(), re.M)]
        key = hashlib.sha256(b"\0".join(
            [text, *headers, " ".join(command).encode(), sysconfig.get_platform().encode()]))
        cache_dir = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "so3cubics"
        built = cache_dir / f"{name}-{key.hexdigest()[:16]}.so"
        if not built.is_file():
            if not _compile([*command, str(source)], built):
                return None
            _remove_superseded(name, built)
    except (OSError, RuntimeError):
        # RuntimeError: Path.home() with no home directory to be found
        return None
    return built


def _compile(command: list[str], built: Path) -> bool:
    """Run `command` with `-o` a temporary file beside `built`, then move
    that file to `built`; False where either fails."""
    import subprocess
    import tempfile

    try:
        built.parent.mkdir(parents=True, exist_ok=True)
        handle, partial = tempfile.mkstemp(suffix=".so", dir=built.parent)
        os.close(handle)
        try:
            subprocess.run([*command, "-o", partial], check=True, capture_output=True, timeout=120)
            os.replace(partial, built)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _remove_superseded(name: str, built: Path) -> None:
    """Unlink the builds of kernel `name`, `<name>-<16 hex digits>.so`, in
    the directory of `built`, except `built` and the `_KEPT_BUILDS` - 1
    newest others by mtime.  The builds of other kernels stay, and a file
    that cannot be listed, read or removed is left as it is."""
    pattern = re.compile(re.escape(name) + r"-[0-9a-f]{16}\.so")
    with contextlib.suppress(OSError):
        others = [path for path in built.parent.iterdir()
                  if path != built and pattern.fullmatch(path.name)]
        others.sort(key=lambda path: path.stat().st_mtime, reverse=True)
        for path in others[_KEPT_BUILDS - 1:]:
            with contextlib.suppress(OSError):
                path.unlink()
