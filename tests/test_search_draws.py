"""The search's draws and builds keep every bit of their reference expressions.

A random pure state is normalized by np.linalg.norm's own formula, the
sigma_phi unitary forms both Kronecker terms in one broadcast product, the
refine schedule's step-size count is computed once per widest width, and the
random_unitary meter is recognized as the shared graded meter by identity.
Each is compared with the expression it replaces, bit for bit.  An
overflowing SQL_COND_E3 conditional error ends in the verdict's ValueError
with no numpy warning.
"""
from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import random_state_vector

from murel.linalg import herm_eig, tensor
from murel.model import (
    ID2,
    NAMED_OBSERVABLES,
    NAMED_QUBIT_STATES,
    PAULI_X,
    _graded_meter,
    _meter_observable,
    build_sigma_phi,
    sigma_phi_matrix,
)
from murel.relations import check
from murel.search import MIN_STEP, SearchSpace, _SpaceImpl, _step_sizes, random_pure_state

# kπ/8 across five turns, 10^4 random angles (10^5 match as well, but take 3 s),
# signed zeros, π, 2π and the smallest-magnitude angles
SIGMA_PHI_ANGLES = (
    [k * math.pi / 8 for k in range(-40, 41)]
    + np.random.default_rng(2026).uniform(-20.0, 20.0, 10_000).tolist()
    + [0.0, -0.0, math.pi, 2 * math.pi, 1e-300, -1e-300]
)


@pytest.mark.parametrize("dim", range(1, 17))
def test_random_pure_state_equals_the_np_linalg_norm_normalization(dim):
    for seed in range(200):
        got = random_pure_state(dim, np.random.default_rng(seed)).amplitudes
        expected = random_state_vector(dim, np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes(), seed


def reference_sigma_phi_unitary(phi: float) -> np.ndarray:
    sp = sigma_phi_matrix(phi)
    return tensor((ID2 + sp) / 2, ID2) + tensor((ID2 - sp) / 2, PAULI_X)


def test_the_sigma_phi_unitary_equals_the_two_tensor_sum():
    for phi in SIGMA_PHI_ANGLES:
        got = build_sigma_phi(phi).unitary
        assert got.dtype == complex and got.shape == (4, 4)
        assert got.tobytes() == reference_sigma_phi_unitary(phi).tobytes(), phi.hex()


def counted_step_sizes(widest: float) -> int:
    h = 0
    while math.ldexp(widest, -h) >= MIN_STEP:
        h += 1
    return h


def test_the_cached_step_count_equals_the_counting_loop():
    family_widths = [max((hi - lo) / 4.0 for lo, hi, _ in _SpaceImpl(space).bounds) for space in (
        SearchSpace(family="sigma_phi"),
        SearchSpace(family="shift", object_dim=2, probe_dim=4),
        SearchSpace(family="random_unitary", object_dim=4, probe_dim=4),
    )]
    powers = [math.ldexp(MIN_STEP, k) for k in range(-2, 40)]  # exactly MIN_STEP * 2^k
    neighbours = [math.nextafter(w, side) for w in powers for side in (0.0, math.inf)]
    for widest in itertools.chain([0.0, 5e-324], family_widths, powers, neighbours):
        assert _step_sizes(widest) == counted_step_sizes(widest), widest.hex()


def test_the_graded_meter_matrix_is_recognized_without_a_comparison(monkeypatch):
    def no_comparison(*args, **kwargs):
        raise AssertionError("np.array_equal called")

    for probe_dim in range(1, 9):
        graded = _graded_meter(probe_dim)
        with monkeypatch.context() as patch:
            patch.setattr(np, "array_equal", no_comparison)
            assert _meter_observable(graded.matrix) is graded
        assert _meter_observable(graded.matrix.copy()) is graded  # an equal matrix is compared
    other = np.diag([0.0, 2.0])
    assert _meter_observable(other).matrix.tobytes() == herm_eig(other).matrix.tobytes()


def test_an_overflowing_conditional_error_raises_its_verdict_error_without_a_warning():
    huge_x0 = herm_eig(1e200 * NAMED_OBSERVABLES["sigma_x"].matrix)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^SQL_COND_E3: non-finite slack "):
            check("SQL_COND_E3", build_sigma_phi(0.7), NAMED_QUBIT_STATES["+x"], huge_x0,
                  NAMED_OBSERVABLES["sigma_y"])
    assert caught == []
