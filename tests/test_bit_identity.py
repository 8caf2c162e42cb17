"""Cheaper forms of the per-evaluation path give the very bits of the forms they replace.

Each reference below is the earlier implementation, kept here: the
numpy-array loop of state_from_angles, the index-array readout of
readout_clusters, and the shift interaction built on every call.  The lazy
statistics of an Evaluation run their function once however often they are
read.
"""
from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from conftest import random_hermitian, random_integer_spectrum_observable

import murel.metrics
import murel.model
from murel.linalg import PureState, _cached, herm_eig
from murel.metrics import Evaluation
from murel.model import (
    NAMED_OBSERVABLES,
    ZERO_PROB,
    IndirectModel,
    _shift_interaction,
    build_shift_model,
    conditional_post_state,
    evolved_amplitudes,
    readout_clusters,
    readout_probabilities,
)
from murel.relations import check_all
from murel.search import haar_unitary, random_pure_state, state_from_angles

SPECIAL_ANGLES = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi, 1e-300]


def reference_state_from_angles(dim: int, angles) -> np.ndarray:
    angles = [float(a) for a in angles]
    polar = angles[: dim - 1]
    phases = angles[dim - 1 :]
    amps = np.zeros(dim, dtype=complex)
    sin_prod = 1.0
    for i, th in enumerate(polar):
        amps[i] = sin_prod * math.cos(th)
        sin_prod *= math.sin(th)
    amps[dim - 1] = sin_prod
    for i, al in enumerate(phases, start=1):
        amps[i] *= complex(math.cos(al), math.sin(al))
    return amps / np.linalg.norm(amps)


def reference_readout_clusters(model: IndirectModel, amplitudes: np.ndarray) -> list:
    return [
        (value, amplitudes[:, idx], float(np.sum(np.abs(amplitudes[:, idx]) ** 2)))
        for value, idx in model.meter._clusters
    ]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_state_from_angles_matches_the_array_loop_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for trial in range(2500):
        angles = rng.uniform(-7.0, 7.0, size=2 * dim - 2)
        if trial % 4 == 0:  # signed zeros and exact quarter turns, where a product may be a zero
            special = rng.random(angles.size) < 0.5
            angles[special] = rng.choice(SPECIAL_ANGLES, size=int(special.sum()))
        expected = reference_state_from_angles(dim, angles)
        amplitudes = state_from_angles(dim, angles).amplitudes
        assert amplitudes.dtype == expected.dtype and amplitudes.tobytes() == expected.tobytes(), angles


def _degenerate_meter_models(rng) -> list[IndirectModel]:
    """Models whose meters have multi-column clusters, some next to single columns."""
    models = []
    for spectrum in ([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 2.0], [-1.0, 0.0, 0.0, 3.0]):
        p = len(spectrum)
        q = haar_unitary(p, rng)
        meter = herm_eig((q * np.array(spectrum)) @ q.conj().T)
        for o in (1, 2, 3):
            models.append(IndirectModel(o, p, haar_unitary(o * p, rng), random_pure_state(p, rng), meter))
    return models


def test_readout_slices_match_index_arrays_bit_for_bit():
    rng = np.random.default_rng(5)
    models = _degenerate_meter_models(rng)
    assert any(idx.size > 1 for m in models for _, idx in m.meter._clusters)
    for model in models:
        for _ in range(20):
            vectors = np.array([random_pure_state(model.object_dim, rng).amplitudes])
            amps = evolved_amplitudes(model, vectors)[0]
            got, expected = readout_clusters(model, amps), reference_readout_clusters(model, amps)
            assert len(got) == len(expected)
            for (value, coeffs, prob), (ref_value, ref_coeffs, ref_prob) in zip(got, expected):
                assert value == ref_value and prob.hex() == ref_prob.hex()
                assert coeffs.shape == ref_coeffs.shape
                assert np.array_equal(coeffs, ref_coeffs)
                if coeffs.shape[1] > 1:
                    assert coeffs.strides == ref_coeffs.strides


def test_conditional_statistics_read_from_slices_match_index_arrays(monkeypatch):
    rng = np.random.default_rng(6)
    cases = []
    for model in _degenerate_meter_models(rng):
        x0 = herm_eig(random_hermitian(model.object_dim, rng))
        state = random_pure_state(model.object_dim, rng)
        ev = Evaluation(model, state, x0, x0)
        cases.append((model, state, x0, ev.conditional_pairs(), ev.outcome_probabilities(),
                      _post_states(model, state)))
    monkeypatch.setattr(murel.metrics, "readout_clusters", reference_readout_clusters)
    monkeypatch.setattr(murel.model, "readout_clusters", reference_readout_clusters)
    for model, state, x0, pairs, outcomes, post_states in cases:
        ev = Evaluation(model, state, x0, x0)
        assert [tuple(map(float.hex, p)) for p in ev.conditional_pairs()] == [
            tuple(map(float.hex, p)) for p in pairs
        ]
        assert ev.outcome_probabilities() == outcomes
        assert _post_states(model, state) == post_states


def _post_states(model: IndirectModel, state: PureState) -> list[bytes]:
    """The conditional object state after each possible readout, as bytes."""
    return [
        conditional_post_state(model, state, value)[0].rho.tobytes()
        for value, prob in readout_probabilities(model, state)
        if prob > ZERO_PROB
    ]


LAZY = sorted(name for name, attr in vars(Evaluation).items() if isinstance(attr, _cached))


def test_evaluation_statistics_are_lazy():
    assert {"eps_x0", "eta_y0", "object_bound", "readouts", "sigma_yt"} <= set(LAZY)


def test_each_evaluation_statistic_runs_once_however_often_read(monkeypatch):
    calls = dict.fromkeys(LAZY, 0)
    for name in LAZY:
        descriptor = vars(Evaluation)[name]

        def counted(self, _func=descriptor.func, _name=name):
            calls[_name] += 1
            return _func(self)

        monkeypatch.setattr(descriptor, "func", counted)
    sx, sy = NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_y"]
    model = build_shift_model(NAMED_OBSERVABLES["sigma_z"], 4, PureState(np.array([0.0, 0.6, 0.8, 0.0])))
    ev = Evaluation(model, PureState(np.array([0.6, 0.8j])), sx, sy)
    for _ in range(3):
        values = [getattr(ev, name) for name in LAZY]
        ev.report()
        ev.conditional_pairs()
    assert all(getattr(ev, name) is value for name, value in zip(LAZY, values))
    assert calls == dict.fromkeys(LAZY, 1)


def test_model_measurement_values_are_computed_once(monkeypatch):
    calls = []
    descriptor = vars(IndirectModel)["measurement_values"]
    func = descriptor.func
    monkeypatch.setattr(descriptor, "func", lambda model: calls.append(model) or func(model))
    model = build_shift_model(NAMED_OBSERVABLES["sigma_z"], 4, PureState(np.array([0.0, 0.6, 0.8, 0.0])))
    state = PureState(np.array([0.6, 0.8]))
    check_all(model, state, NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_y"])
    check_all(model, state, NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_y"])
    assert calls == [model]


def reference_shift_unitary(x0, probe_dim: int) -> np.ndarray:
    o, levels = x0.dim, np.arange(probe_dim)
    u = np.zeros((o, probe_dim, o, probe_dim), dtype=complex)
    for value, idx in x0._clusters:
        vecs = x0.eigenvectors[:, idx]
        u[:, (levels + int(round(value))) % probe_dim, :, levels] += vecs @ vecs.conj().T
    return u.reshape(o * probe_dim, o * probe_dim)


def test_shift_interaction_is_built_once_and_matches_a_fresh_build():
    rng = np.random.default_rng(8)
    for o in (2, 3):
        x0 = random_integer_spectrum_observable(o, rng, -1, 1)
        for probe_dim in (4, 6, 4):
            probe = np.zeros(probe_dim, dtype=complex)
            probe[1 : probe_dim - 1] = random_pure_state(probe_dim - 2, rng).amplitudes
            first = build_shift_model(x0, probe_dim, PureState(probe))
            second = build_shift_model(x0, probe_dim, PureState(probe[::-1].copy()))
            assert second.unitary is first.unitary and not first.unitary.flags.writeable
            assert first.unitary.tobytes() == reference_shift_unitary(x0, probe_dim).tobytes()


def test_shift_interaction_cache_keeps_one_entry_freed_with_its_observable():
    x0 = herm_eig(np.diag([1.0, 0.0, -1.0]))
    for probe_dim in (4, 5, 6):
        _shift_interaction(x0, probe_dim)
    assert murel.model._SHIFT_INTERACTIONS[x0][0] == 6
    entries = len(murel.model._SHIFT_INTERACTIONS)
    del x0
    gc.collect()
    assert len(murel.model._SHIFT_INTERACTIONS) == entries - 1
