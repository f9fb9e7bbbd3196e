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


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The kernel loader with no kernel loaded yet and an empty cache
    directory; the loader forgets what it found here once the test ends."""
    from so3cubics import _native
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _native.kernel.cache_clear()
    yield tmp_path
    _native.kernel.cache_clear()
