"""The search builds nothing twice and calls numpy's compiled cores, and every bit stays the same.

Haar draws and herm_eig call the gufuncs behind np.linalg.qr and
np.linalg.eigh, which are private numpy API: the first tests pin them bit for
bit against the public functions, so a numpy upgrade that changes them fails
here.  An explore draw takes its parameters from one array uniform draw,
which must equal the scalar draws one bound at a time.  The search hands a
parent's object state to a child that moves only model coordinates, and a
family with model coordinates keeps a bounded model cache; switching either
off must leave the result unchanged.
"""
from __future__ import annotations

import dataclasses
import hashlib
import types

import numpy as np
import pytest
from conftest import random_hermitian

import murel.linalg
import murel.search
from murel.linalg import herm_eig, max_abs
from murel.model import build_sigma_phi, evolved_amplitudes
from murel.relations import RelationId, RelationVerdict, _verdict
from murel.scenario import scenario_to_text
from murel.search import MODEL_CACHE_SIZE, SearchSpace, _SpaceImpl, haar_unitary, search_min_slack

DIMS = range(1, 17)
DRAWS = 200

# The four cases of the benchmark's search workload.
CASES = {
    "sigma_phi-HEISENBERG_E1": (SearchSpace(family="sigma_phi"), "HEISENBERG_E1"),
    "shift_2x4-SQL_COND_E3": (SearchSpace(family="shift", object_dim=2, probe_dim=4), "SQL_COND_E3"),
    "random_unitary_4x4-HEISENBERG_E1": (
        SearchSpace(family="random_unitary", object_dim=4, probe_dim=4), "HEISENBERG_E1"
    ),
    "random_unitary_4x4-OZAWA_E2": (
        SearchSpace(family="random_unitary", object_dim=4, probe_dim=4), "OZAWA_E2"
    ),
}
MODEL_COORDINATE_CASES = ["sigma_phi-HEISENBERG_E1", "shift_2x4-SQL_COND_E3"]


def reference_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dim", DIMS)
def test_haar_unitary_equals_the_np_linalg_qr_draw_bit_for_bit(dim):
    for seed in range(DRAWS):
        got = haar_unitary(dim, np.random.default_rng(seed))
        expected = reference_haar_unitary(dim, np.random.default_rng(seed))
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), seed


@pytest.mark.parametrize("dim", DIMS)
def test_herm_eig_equals_np_linalg_eigh_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for _ in range(DRAWS):
        a = random_hermitian(dim, rng)
        m = (a + a.conj().T) / 2
        w, v = np.linalg.eigh(m)
        obs = herm_eig(a)
        assert obs.matrix.tobytes() == m.tobytes()
        assert obs.eigenvalues.dtype == w.dtype and obs.eigenvalues.tobytes() == w.tobytes()
        assert obs.eigenvectors.dtype == v.dtype and obs.eigenvectors.tobytes() == v.tobytes()


def _nan_gufuncs(monkeypatch, module) -> None:
    """Replace module's _umath_linalg by gufuncs that fail as LAPACK's do, with NaN results."""
    def nan_like(shape):
        return np.full(shape, np.nan, dtype=complex)

    fake = types.SimpleNamespace(
        eigh_lo=lambda m, signature: (np.full(m.shape[0], np.nan), nan_like(m.shape)),
        qr_r_raw=lambda z, signature: nan_like(z.shape[0]),
        qr_reduced=lambda z, tau, signature: nan_like(z.shape),
    )
    monkeypatch.setattr(module, "_umath_linalg", fake)


def test_herm_eig_raises_linalgerror_where_eigh_does_not_converge(monkeypatch):
    _nan_gufuncs(monkeypatch, murel.linalg)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        herm_eig(np.diag([1.0, 2.0]))


def test_haar_unitary_raises_linalgerror_on_a_non_finite_factorization(monkeypatch):
    _nan_gufuncs(monkeypatch, murel.search)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        haar_unitary(3, np.random.default_rng(0))


def test_max_abs_equals_np_max_of_abs():
    rng = np.random.default_rng(4)
    arrays = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (1, 2, 5, 16)]
    arrays += [np.array([1.0, np.nan, -3.0]), np.array([[-np.inf, 2.0]]), np.zeros((4, 4))[:, ::2]]
    for a in arrays:
        assert np.array_equal(max_abs(a), float(np.max(np.abs(a))), equal_nan=True)
    assert max_abs(np.zeros((0, 3))) == 0.0


def test_evolved_amplitudes_read_the_conjugated_meter_eigenvectors_once():
    rng = np.random.default_rng(8)
    model = build_sigma_phi(0.7)
    vectors = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    joint = (vectors[:, :, None] * model.probe_state.amplitudes).reshape(3, 4)
    expected = (joint @ model.unitary.T).reshape(3, 2, 2) @ model.meter.eigenvectors.conj()
    assert evolved_amplitudes(model, vectors).tobytes() == expected.tobytes()
    conj = model.meter._conj_eigenvectors
    assert conj is model.meter._conj_eigenvectors and not conj.flags.writeable


def test_a_verdict_built_field_by_field_equals_the_constructed_one():
    verdict = _verdict(RelationId.OZAWA_E2, np.float64(0.25), 1.0, 1e-9)
    expected = RelationVerdict("OZAWA_E2", 0.25, 1.0, -0.75, False, 1e-9)
    assert verdict == expected and hash(verdict) == hash(expected) and repr(verdict) == repr(expected)
    assert dataclasses.asdict(verdict) == dataclasses.asdict(expected)
    assert type(verdict.lhs) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.slack = 0.0


@pytest.mark.parametrize(
    "space",
    [SearchSpace(family="sigma_phi"), SearchSpace(family="shift", probe_dim=4),
     SearchSpace(family="shift", object_dim=3, probe_dim=6, x0_spec=np.diag([1.0, 0.0, -1.0]),
                 y0_spec=np.ones((3, 3))),
     SearchSpace(family="random_unitary", object_dim=4)],
    ids=["sigma_phi", "shift_2x4", "shift_3x6", "random_unitary_4x2"],
)
def test_the_array_uniform_draw_equals_scalar_draws_one_bound_at_a_time(space):
    impl = _SpaceImpl(space)
    array_rng, scalar_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        drawn = impl.random(array_rng).params
        expected = tuple(float(scalar_rng.uniform(lo, hi)) for lo, hi, _ in impl.bounds)
        if impl.family.value == "random_unitary":  # the interaction draws follow the parameters
            murel.search._random_interaction(impl.object_dim, impl.probe_dim, scalar_rng)
        assert [v.hex() for v in drawn] == [v.hex() for v in expected]
        assert all(type(v) is float for v in drawn)
    assert array_rng.random() == scalar_rng.random()  # the streams stay in step


def _digest(result) -> tuple[str, str, tuple[float, ...]]:
    text = scenario_to_text(result.witness_doc)
    return result.best_slack.hex(), hashlib.sha256(text.encode("utf-8")).hexdigest(), result.witness_params


def _count_builds(monkeypatch) -> list[tuple]:
    """The (family, model parameter bytes) of every build_model call the search makes."""
    builds = []
    build = murel.search.build_model

    def counting_build(family, params, x0):
        builds.append((family, tuple(np.asarray(v).tobytes() for v in params.values())))
        return build(family, params, x0)

    monkeypatch.setattr(murel.search, "build_model", counting_build)
    return builds


@pytest.mark.parametrize("case", MODEL_COORDINATE_CASES)
def test_no_model_is_built_twice_in_a_budget_100_search(monkeypatch, case):
    builds = _count_builds(monkeypatch)
    space, relation = CASES[case]
    for seed in (0, 1, 7):
        builds.clear()
        search_min_slack(relation, space, 100, seed)
        assert builds and len(set(builds)) == len(builds), seed


def test_the_model_cache_stays_within_its_cap(monkeypatch):
    sizes = []
    build = _SpaceImpl.build

    def measuring_build(self, cand):
        model = build(self, cand)
        sizes.append(len(self.models))
        return model

    monkeypatch.setattr(_SpaceImpl, "build", measuring_build)
    space, relation = CASES["sigma_phi-HEISENBERG_E1"]
    search_min_slack(relation, space, 2000, seed=2)
    assert max(sizes) == MODEL_CACHE_SIZE  # reached, so the oldest model was dropped, and never passed
    assert len(sizes) > 2 * MODEL_CACHE_SIZE


@pytest.mark.parametrize(
    "space",
    [CASES["random_unitary_4x4-OZAWA_E2"][0],
     SearchSpace(family="shift", probe_dim=4, probe_state=np.array([0.0, 0.6, 0.8, 0.0]))],
    ids=["random_unitary", "shift_fixed_probe"],
)
def test_a_family_without_model_coordinates_keeps_no_cache(space):
    impl = _SpaceImpl(space)
    assert impl.n_model_params == 0 and impl.models is None


@pytest.mark.parametrize("case", MODEL_COORDINATE_CASES)
def test_a_model_coordinate_step_hands_its_parent_state_to_the_child(case):
    impl = _SpaceImpl(CASES[case][0])
    parent = impl.random(np.random.default_rng(3))
    impl.evaluate(parent, CASES[case][1], 1e-9)
    model_step = impl.perturb(parent, 0, 0.25, 1.0)
    state_step = impl.perturb(parent, impl.nparams - 1, 0.25, 1.0)
    assert model_step.state is parent.state and model_step.model is None
    assert state_step.model is parent.model and state_step.state is None
    impl.evaluate(state_step, CASES[case][1], 1e-9)
    assert state_step.state is not parent.state


def _without_cache(monkeypatch) -> None:
    init = _SpaceImpl.__init__

    def uncached_init(self, space):
        init(self, space)
        self.models = None

    monkeypatch.setattr(_SpaceImpl, "__init__", uncached_init)


def _without_state_reuse(monkeypatch) -> None:
    perturb = _SpaceImpl.perturb

    def stateless_perturb(self, cand, coord, step, sign):
        moved = perturb(self, cand, coord, step, sign)
        moved.state = None
        return moved

    monkeypatch.setattr(_SpaceImpl, "perturb", stateless_perturb)


@pytest.mark.parametrize("switch_off", [_without_cache, _without_state_reuse], ids=["no_cache", "no_state_reuse"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", CASES)
def test_switching_reuse_off_gives_the_same_search(monkeypatch, case, seed, switch_off):
    space, relation = CASES[case]
    reused = search_min_slack(relation, space, 300, seed)
    builds = _count_builds(monkeypatch)
    search_min_slack(relation, space, 300, seed)
    cached_builds = len(builds)
    switch_off(monkeypatch)
    builds.clear()
    plain = search_min_slack(relation, space, 300, seed)
    assert _digest(plain) == _digest(reused)
    if switch_off is _without_cache and case in MODEL_COORDINATE_CASES:
        assert len(builds) > cached_builds  # the cache was bypassed
