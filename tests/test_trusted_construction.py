"""Containers built through the private trusted constructors are valid.

The search builds states, observables and models that are valid by
construction without running the public validators.  Each case here runs
the validator on such an output, and checks that it is bit-equal to the
construction the validated code used before: the checks that left the
search loop live on as these tests.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_integer_spectrum_observable
from murel.linalg import HermitianObservable, PureState, apply_spectral, eigen_clusters, herm_eig, tensor
from murel.model import (
    ID2,
    NAMED_OBSERVABLES,
    PAULI_X,
    IndirectModel,
    _graded_meter,
    build_shift_model,
    build_sigma_phi,
    rescale_mvo,
    sigma_phi_matrix,
)
from murel.scenario import build_model
from murel.search import haar_unitary, random_model, random_pure_state, search_min_slack, state_from_angles
from test_model_reuse import BUDGET, CASES

SEEDS = st.integers(0, 2**31 - 1)
ANGLES = st.floats(-10.0, 10.0, allow_nan=False)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def validated_state(state: PureState) -> PureState:
    checked = PureState(state.amplitudes)
    assert same_bits(checked.amplitudes, state.amplitudes)
    return checked


def validated_observable(obs: HermitianObservable) -> HermitianObservable:
    checked = HermitianObservable(obs.matrix, obs.eigenvalues, obs.eigenvectors)
    for field in ("matrix", "eigenvalues", "eigenvectors"):
        assert same_bits(getattr(checked, field), getattr(obs, field))
    return checked


def validated_model(model: IndirectModel) -> IndirectModel:
    checked = IndirectModel(
        object_dim=model.object_dim, probe_dim=model.probe_dim, unitary=model.unitary,
        probe_state=model.probe_state, meter=model.meter,
    )
    assert same_bits(checked.unitary, model.unitary)
    return checked


def kron_shift_unitary(x0: HermitianObservable, probe_dim: int) -> np.ndarray:
    """The pointer-shift interaction as a sum of kron(projector, step^shift)."""
    step = np.zeros((probe_dim, probe_dim))
    for k in range(probe_dim):
        step[(k + 1) % probe_dim, k] = 1.0
    u = np.zeros((x0.dim * probe_dim, x0.dim * probe_dim), dtype=complex)
    for value, idx in eigen_clusters(x0.eigenvalues):
        vecs = x0.eigenvectors[:, idx]
        power = np.linalg.matrix_power(step, int(round(value)) % probe_dim)
        u += np.kron(vecs @ vecs.conj().T, power.astype(complex))
    return u


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.data())
def test_state_from_angles_passes_the_state_validator(dim, data):
    angles = data.draw(st.lists(ANGLES, min_size=2 * dim - 2, max_size=2 * dim - 2))
    validated_state(state_from_angles(dim, angles))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), SEEDS)
def test_random_pure_state_passes_the_state_validator(dim, seed):
    validated_state(random_pure_state(dim, np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), SEEDS)
def test_herm_eig_passes_the_observable_validator(dim, seed):
    validated_observable(herm_eig(random_hermitian(dim, np.random.default_rng(seed))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), SEEDS)
def test_apply_spectral_passes_the_observable_validator(dim, seed):
    obs = herm_eig(random_hermitian(dim, np.random.default_rng(seed)))
    validated_observable(apply_spectral(lambda v: 0.3 * v**3 - 2.0 * v + 1.0, obs))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), SEEDS)
def test_tensor_is_bit_equal_to_kron(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)) for _ in range(2))
    assert same_bits(tensor(a, b), np.kron(a, b))
    assert same_bits(tensor(a.real, ID2), np.kron(a.real.astype(complex), ID2))


@settings(max_examples=80, deadline=None)
@given(st.floats(-720.0, 720.0, allow_nan=False))
def test_sigma_phi_passes_the_model_validator(phi_degrees):
    model = build_sigma_phi(math.radians(phi_degrees))
    sp = sigma_phi_matrix(math.radians(phi_degrees))
    assert same_bits(model.unitary, np.kron((ID2 + sp) / 2, ID2) + np.kron((ID2 - sp) / 2, PAULI_X))
    validated_model(model)
    validated_model(rescale_mvo(model, lambda v: 3.0 * v))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), SEEDS, st.data())
def test_shift_unitary_passes_the_model_validator(object_dim, seed, data):
    """Random integer-spectrum x0, probe amplitudes on a window that cannot wrap."""
    probe_dim = data.draw(st.integers(2, 16 // object_dim))
    spread = data.draw(st.integers(0, probe_dim - 1))
    x0 = random_integer_spectrum_observable(object_dim, np.random.default_rng(seed), 0, spread)
    width = probe_dim - int(round(x0.eigenvalues.max()))
    angles = data.draw(st.lists(ANGLES, min_size=2 * width - 2, max_size=2 * width - 2))
    probe = np.zeros(probe_dim, dtype=complex)
    probe[:width] = state_from_angles(width, angles).amplitudes
    model = build_shift_model(x0, probe_dim, PureState(probe))
    assert same_bits(model.unitary, kron_shift_unitary(x0, probe_dim))
    validated_model(model)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sigma_z", "sigma_x"]), st.integers(3, 8), st.data())
def test_shift_unitary_of_a_pauli_x0_is_bit_equal_to_the_kron_sum(name, probe_dim, data):
    x0 = NAMED_OBSERVABLES[name]
    angles = data.draw(st.lists(ANGLES, min_size=2 * probe_dim - 6, max_size=2 * probe_dim - 6))
    probe = np.zeros(probe_dim, dtype=complex)
    probe[1 : probe_dim - 1] = state_from_angles(probe_dim - 2, angles).amplitudes
    model = build_shift_model(x0, probe_dim, PureState(probe))
    assert same_bits(model.unitary, kron_shift_unitary(x0, probe_dim))
    validated_model(model)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), SEEDS)
def test_explicit_graded_meter_is_bit_equal_to_its_eigendecomposition(object_dim, probe_dim, seed):
    rng = np.random.default_rng(seed)
    params = {
        "object_dim": object_dim,
        "unitary": haar_unitary(object_dim * probe_dim, rng),
        "probe_state": random_pure_state(probe_dim, rng).amplitudes,
        "meter": np.diag(np.arange(probe_dim, dtype=float)),
    }
    meter = build_model("explicit", params, herm_eig(np.eye(object_dim))).meter
    assert meter is _graded_meter(probe_dim)
    reference = herm_eig(np.diag(np.arange(probe_dim)))
    for field in ("matrix", "eigenvalues", "eigenvectors"):
        assert same_bits(getattr(meter, field), getattr(reference, field))
    validated_observable(meter)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), SEEDS)
def test_random_model_passes_the_model_validator(object_dim, probe_dim, seed):
    validated_model(random_model(object_dim, probe_dim, np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", CASES)
def test_the_search_runs_no_container_validator(monkeypatch, case, seed):
    """Only a fixed shift probe is validated, once, as the search starts."""
    calls = {PureState: 0, IndirectModel: 0}
    for cls in calls:
        def counting_post_init(self, cls=cls, post_init=cls.__post_init__):
            calls[cls] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    space, relation = CASES[case]
    search_min_slack(relation, space, BUDGET, seed)
    assert calls == {PureState: int(space.probe_state is not None), IndirectModel: 0}
