from __future__ import annotations

import warnings

import numpy as np
import pytest

from murel.linalg import PureState, herm_eig


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (z + z.conj().T) / 2.0


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_pure(dim: int, rng: np.random.Generator) -> PureState:
    return PureState(random_state_vector(dim, rng))


def random_integer_spectrum_observable(
    dim: int, rng: np.random.Generator, low: int = 0, high: int = 2
):
    """Hermitian with integer eigenvalues in [low, high] and a Haar-ish eigenbasis."""
    values = np.sort(rng.integers(low, high + 1, size=dim)).astype(float)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1)), 1.0)
    return herm_eig((q * values) @ q.conj().T)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


def pytest_runtest_makereport(item, call):
    """Import hypothesis's patch writer for a failing property test, its deprecation warnings ignored.

    Hypothesis imports it while reporting a failing example; a DeprecationWarning
    raised by that import chain (libcst, typing_inspect, mypy_extensions) is an
    error under -W error and would turn the report into a pytest INTERNALERROR
    that hides the example.  Imported here, only on failure, it is already
    loaded when hypothesis asks for it; without libcst there is nothing to load.
    """
    if call.excinfo is not None and getattr(getattr(item, "obj", None), "is_hypothesis_test", False):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
