import contextlib

import numpy as np
import pytest

from so3cubics.quadratic import QuadraticIVP

# Initial data of the figure1/figure2 demonstration family (a non-null
# quadratic near (1, 0, 0)); the harness defaults carry the same values.
FIG1_V0 = np.array([1.005, 0.006, -0.01])
FIG1_V1 = np.array([-0.005, -0.00449, 0.0])
FIG1_V2 = np.array([0.001, -0.005, 0.005])
FIG1_CONSTANT = np.array([0.0009551, -0.00495, 0.00051755])

# Unit-gauge perturbation triple of the figure3 family.
FIG3_BASE = np.array([1.0, 0.0, 0.0])
FIG3_P0 = np.array([0.0, 1.0, 0.0])
FIG3_P1 = np.array([0.0, 0.0, 0.5])
FIG3_P2 = np.array([0.25, 0.25, 0.25])


def fig1_ivp(t1=5.0):
    return QuadraticIVP(0.0, t1, FIG1_V0, FIG1_V1, FIG1_V2)


def fig3_ivp(delta, t1=10.0):
    return QuadraticIVP(0.0, t1, FIG3_BASE + delta * FIG3_P0,
                        delta * FIG3_P1, delta * FIG3_P2)


@pytest.fixture(scope="session")
def fig1_trajectory():
    from so3cubics.quadratic import integrate_quadratic
    return integrate_quadratic(fig1_ivp(), 1e-3)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


def require_kernel(name):
    """`_native.kernel(name)`, or a skip where that kernel cannot be had here."""
    from so3cubics import _native
    served = _native.kernel(name)
    if served is None:
        pytest.skip(f"the {name} kernel cannot be built here")
    return served


def forget_kernels():
    """Make the loader build, load and check every kernel again on next use."""
    from so3cubics import _native
    _native.kernel.cache_clear()
    _native._load.cache_clear()


@contextlib.contextmanager
def twins_only(*names):
    """Within the block `_native.kernel` reads None for the kernels `names`,
    every kernel where none is named, so their Python twins run."""
    from so3cubics import _native
    off = set(names or _native.KERNELS)
    served = _native.kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "kernel", lambda name: None if name in off else served(name))
        yield


def off_twins() -> dict:
    """For each kernel, (module, attribute, value) that puts its Python twin
    one ulp, or one character, off: the kernel then fails its self-check."""
    from so3cubics import output, quadratic, reconstruction
    loop, magnus, texts, recon = (quadratic._rk4_python, quadratic._magnus_python,
                                  output._float_texts, reconstruction._recon_python)

    def loop_off(jet, h, n, C, c, out):
        peaks = loop(jet, h, n, C, c, out)
        out[-1, -1, -1] = np.nextafter(out[-1, -1, -1], np.inf)
        return peaks

    def magnus_off(*args):
        out, worst = magnus(*args)
        out[-1, -1, -1] = np.nextafter(out[-1, -1, -1], np.inf)
        return out, worst

    def texts_off(block):
        first, *rest = texts(block)
        return (first + "0", *rest)

    def recon_off(traj):
        out = recon(traj)
        phase = out.phase.copy()
        phase[-1] = np.nextafter(phase[-1], np.inf)
        return out._replace(phase=phase)

    return {"rk4": (quadratic, "_rk4_python", loop_off),
            "magnus": (quadratic, "_magnus_python", magnus_off),
            "floattext": (output, "_float_texts", texts_off),
            "recon": (reconstruction, "_recon_python", recon_off)}


@pytest.fixture(params=["kernel", "python"])
def engine(request):
    """Run a test on the C kernels of `quadratic` (the step loop with its
    drift peaks, and the Magnus pass), then on the Python twins of every kernel."""
    if request.param == "kernel":
        for name in ("rk4", "magnus"):
            require_kernel(name)
        yield request.param
    else:
        with twins_only():
            yield request.param


@pytest.fixture
def fresh_kernels():
    """No kernel loaded or checked yet; the loader forgets what it found
    here once the test ends."""
    forget_kernels()
    yield
    forget_kernels()


@pytest.fixture
def fresh_loader(fresh_kernels, monkeypatch, tmp_path):
    """The kernel loader with no kernel loaded yet and an empty cache
    directory; the loader forgets what it found here once the test ends."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path
