"""The one readout pass: Born probabilities, conditional means and spreads, for one configuration or a stack.

metrics.Evaluation and metrics._table_statistics both read their readouts
from metrics._readouts, so comparing the two shows nothing about the pass
itself.  The reference here is the per-cluster formula the pass replaced:
each cluster's coefficients taken with an index array, its conditional mean
and spread of x0 from one matmul, one np.vdot and one norm.  The pass must
give its bits, by float.hex, at stack sizes 1 and 24 and at several floors.
At wide objects the index array's contiguous columns sum in another order
than the strided slices the per-cluster formula read before, so there the
reference takes its columns as those slices.
The pass reads each meter's cluster layout, which is built once per meter and
kept on the meter itself.
"""
from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from conftest import random_hermitian, random_state_vector
from test_bit_identity import _degenerate_meter_models, reference_readout_clusters
from test_report_stack import _configurations, _parts

from murel.linalg import HermitianObservable, PureState, herm_eig
from murel.metrics import Evaluation, _table_statistics, conditional_pairs, conditional_resolution
from murel.model import (
    NAMED_OBSERVABLES,
    NAMED_QUBIT_STATES,
    ZERO_PROB,
    IndirectModel,
    build_shift_model,
    build_sigma_phi,
    calibrated_outcomes,
    conditional_post_state,
    readout_probabilities,
    rescale_mvo,
)
from murel.relations import check, check_all
from murel.search import haar_unitary, random_pure_state

FLOORS = [1e-12, 0.05, 0.3]
SIZES = [1, 24]


def reference_sliced_readout_clusters(model: IndirectModel, amplitudes: np.ndarray) -> list:
    """readout_clusters before the readout pass: a one-column cluster a strided slice, a wider one its copy."""
    readouts = []
    for value, idx in model.meter._clusters:
        coeffs = amplitudes[:, idx[0] : idx[-1] + 1]
        if coeffs.shape[1] > 1:
            coeffs = coeffs.copy(order="F")
        readouts.append((value, coeffs, float(np.add.reduce(np.square(np.abs(coeffs)), axis=None))))
    return readouts


def reference_readouts(model: IndirectModel, amps: np.ndarray, x0: HermitianObservable,
                       clusters=reference_readout_clusters) -> list[tuple]:
    """(value, probability, eps_cond, sigma_cond) of each possible readout, cluster by cluster."""
    records = []
    for value, coeffs, prob in clusters(model, amps):
        if prob > ZERO_PROB:
            assigned = float(model.value_map_xt(float(value)))
            x_coeffs = x0.matrix @ coeffs
            mean = float(np.vdot(coeffs, x_coeffs).real) / prob
            gap = x_coeffs - mean * coeffs
            sigma = math.sqrt(np.vdot(gap, gap).real) / math.sqrt(prob)
            records.append((value, prob, math.sqrt(sigma * sigma + (mean - assigned) ** 2), sigma))
    return records


def _hex(records: list[tuple]) -> list[tuple]:
    return [tuple(v.hex() if type(v) is float else v for v in record) for record in records]


def _assert_equal_to_reference(configs: list[tuple], clusters=reference_readout_clusters) -> None:
    """Each configuration's readouts, alone and in the stack of all, have the reference's bits."""
    stacked = _table_statistics(configs)
    for stats, (model, state, x0, y0) in zip(stacked, configs):
        ev = Evaluation(model, state, x0, y0)
        every = reference_readouts(model, ev.amps, x0, clusters)
        probabilities = [(value, prob) for value, _, prob in clusters(model, ev.amps)]
        for source in (ev, stats):
            assert source.outcome_probabilities() == calibrated_outcomes(model, probabilities)
            for floor in FLOORS:
                expected = _hex([record for record in every if record[1] > floor])
                assert _hex(source.conditional_pairs(floor)) == expected, (type(source).__name__, floor)


def _sharing_a_meter(model: IndirectModel, n: int, rng) -> list[tuple]:
    """n configurations of model's meter and dims, every other one with a recalibrated value map."""
    configs = []
    for i in range(n):
        m = IndirectModel(model.object_dim, model.probe_dim, haar_unitary(model.dim, rng),
                          random_pure_state(model.probe_dim, rng), model.meter)
        if i % 2:
            m = rescale_mvo(m, lambda v: 1.5 * v - 0.25)
        x0 = herm_eig(random_hermitian(model.object_dim, rng))
        configs.append((m, random_pure_state(model.object_dim, rng), x0, x0))
    return configs


@pytest.mark.parametrize("n", SIZES)
def test_degenerate_meters_readouts_equal_the_per_cluster_formula(n):
    rng = np.random.default_rng([7, n])
    for model in _degenerate_meter_models(rng):
        _assert_equal_to_reference(_sharing_a_meter(model, n, rng))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", ["shift", "sigma_phi"])
def test_family_readouts_equal_the_per_cluster_formula(family, n):
    for seed in range(4):
        _assert_equal_to_reference([_parts(cfg) for cfg in _configurations(family, n, seed=10 + seed)])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("o", [8, 16])
def test_wide_objects_readouts_equal_the_sliced_per_cluster_formula(o, n):
    """At these object dims BLAS sums a strided vector in another order than a contiguous one, and an index
    array takes a one-column cluster contiguous: the pass must read it in place, strided, as the slice did."""
    rng = np.random.default_rng([o, n])
    for spectrum in ([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 2.0, 2.0, 2.0]):
        p = len(spectrum)
        model = IndirectModel(o, p, haar_unitary(o * p, rng), random_pure_state(p, rng), herm_eig(np.diag(spectrum)))
        _assert_equal_to_reference(_sharing_a_meter(model, n, rng), reference_sliced_readout_clusters)


def test_conditional_resolution_is_the_record_of_its_readout():
    rng = np.random.default_rng(9)
    for model in _degenerate_meter_models(rng):
        state, x0 = random_pure_state(model.object_dim, rng), herm_eig(random_hermitian(model.object_dim, rng))
        ev = Evaluation(model, state, x0, x0)
        for value, prob, eps, sigma in reference_readouts(model, ev.amps, x0):
            assert _hex([conditional_resolution(model, state, x0, value)]) == _hex([(eps, sigma)])


# --- the layout --------------------------------------------------------------------------------

def test_the_readout_layout_is_built_once_per_meter_and_lives_on_the_meter(monkeypatch):
    calls = []
    descriptor = vars(HermitianObservable)["_readout_layout"]
    func = descriptor.func
    monkeypatch.setattr(descriptor, "func", lambda meter: calls.append(meter) or func(meter))
    rng = np.random.default_rng(11)
    meter = herm_eig(np.diag([0.0, 0.0, 1.0, 1.0]))
    configs = []
    for _ in range(3):
        model = IndirectModel(2, 4, haar_unitary(8, rng), random_pure_state(4, rng), meter)
        x0 = herm_eig(random_hermitian(2, rng))
        configs.append((model, random_pure_state(2, rng), x0, x0))
    for model, state, x0, y0 in configs * 2:
        check_all(model, state, x0, y0)
        conditional_pairs(model, state, x0, floor=0.1)
        for value, prob in readout_probabilities(model, state):
            if prob > ZERO_PROB:
                conditional_post_state(model, state, value)
    _table_statistics(configs)
    assert calls == [meter]
    assert "_readout_layout" in vars(meter)

    # nothing outside the meter keeps it: the meter and its layout go with its last model
    alive = weakref.ref(meter)
    del meter, model, configs, calls
    monkeypatch.undo()
    gc.collect()
    assert alive() is None


def test_a_value_map_that_overflows_makes_an_infinite_conditional_error():
    """A possible readout whose value map raises OverflowError has eps_cond inf; an impossible one is not mapped.

    SQL_COND_E3 then rejects an infinite worst readout as a non-finite slack.
    """
    shift = build_shift_model(herm_eig(np.diag([0.0, 1.0])), 4, PureState(np.array([0.6, 0.48, 0.64, 0.0])))
    model = IndirectModel(2, 4, shift.unitary, shift.probe_state, shift.meter,
                          value_map_x0=lambda v: math.exp(1000.0 * v))  # overflows at every readout but 0
    sx, sz = NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_z"]
    plus_z, minus_z = NAMED_QUBIT_STATES["+z"], NAMED_QUBIT_STATES["-z"]  # +z leaves readout 3 impossible
    assert conditional_pairs(model, plus_z, sz) == [(0.0, 0.36, 0.0, 0.0), (1.0, 0.2304, math.inf, 0.0),
                                                    (2.0, 0.4096, math.inf, 0.0)]
    assert conditional_resolution(model, plus_z, sz, 1.0) == (math.inf, 0.0)
    assert check("SQL_COND_E3", model, plus_z, sz, sx).slack == 0.0  # readout 0 is the worst, and finite
    with pytest.raises(ValueError, match=r"^SQL_COND_E3: non-finite slack inf \(lhs inf, rhs 0\.0\)$"):
        check("SQL_COND_E3", model, minus_z, sz, sx)


def test_the_layout_groups_one_column_clusters_in_place_and_wider_ones_by_width():
    q = haar_unitary(7, np.random.default_rng(12))
    meter = herm_eig((q * np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0])) @ q.conj().T)
    slots, groups = meter._readout_layout
    assert [(g, j) for _, g, j in slots] == [(0, 0), (1, 0), (0, 3), (1, 1), (0, 6)]
    assert groups[0] is None
    assert groups[1].tolist() == [[1, 2], [4, 5]] and not groups[1].flags.writeable


# --- arguments -----------------------------------------------------------------------------------

@pytest.mark.parametrize("value, message", [(math.nan, "non-finite number nan"), (True, "expected a number, got True"),
                                            (None, "expected a number, got None"),
                                            (10**400, "integer beyond the float range")])
def test_readout_arguments_are_read_by_the_real_number_rule_and_named(value, message):
    model, state = build_sigma_phi(0.3), NAMED_QUBIT_STATES["+z"]
    sx, sy = NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_y"]
    calls = [
        ("floor", lambda: conditional_pairs(model, state, sx, floor=value)),
        ("readout_floor", lambda: check("SQL_COND_E3", model, state, sx, sy, readout_floor=value)),
        ("readout", lambda: conditional_resolution(model, state, sx, value)),
        ("readout", lambda: conditional_post_state(model, state, value)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name}: {message}"


def test_a_real_floor_and_readout_still_read_as_before():
    model = IndirectModel(1, 2, np.eye(2), PureState(random_state_vector(2, np.random.default_rng(13))),
                          herm_eig(np.diag([0.0, 1.0])))
    x0 = herm_eig(np.eye(1))
    state = PureState(np.array([1.0]))
    assert [p[0] for p in conditional_pairs(model, state, x0, floor=np.float32(0.0))] == [0.0, 1.0]
    assert conditional_pairs(model, state, x0, floor=2) == []
    assert conditional_resolution(model, state, x0, np.int64(1)) == conditional_resolution(model, state, x0, 1.0)
