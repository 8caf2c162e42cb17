from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from murel.linalg import PureState, max_abs
from murel.relations import RelationId
from murel.scenario import build_configuration, scenario_from_dict
from murel.search import (
    CertificationError,
    Family,
    SearchSpace,
    certify,
    haar_unitary,
    random_model,
    random_pure_state,
    search_min_slack,
    state_from_angles,
    substream,
    _SpaceImpl,
)


class TestRandomEnsembles:
    def test_random_states_are_normalized(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 5):
            psi = random_pure_state(dim, rng)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_random_state_of_dim_0_is_rejected(self):
        with pytest.raises(ValueError, match=r"^dim must be positive$"):
            random_pure_state(0, np.random.default_rng(0))

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(1)
        for dim in (2, 4, 6):
            u = haar_unitary(dim, rng)
            assert max_abs(u.conj().T @ u - np.eye(dim)) < 1e-12

    def test_state_overlap_moment_matches_haar(self):
        # |<0|psi>|^2 is uniform on [0,1] for Haar qubit states: mean 1/2,
        # variance 1/12.  30000 samples put 3 standard errors at ~0.005.
        rng = np.random.default_rng(2)
        n = 30000
        acc = 0.0
        for _ in range(n):
            acc += abs(random_pure_state(2, rng).amplitudes[0]) ** 2
        assert abs(acc / n - 0.5) < 3.0 * math.sqrt(1.0 / 12.0 / n)

    def test_unitary_entry_moment_matches_haar(self):
        # E|U[0,0]|^2 = 1/dim for Haar unitaries.
        rng = np.random.default_rng(3)
        n = 4000
        dim = 3
        acc = 0.0
        for _ in range(n):
            acc += abs(haar_unitary(dim, rng)[0, 0]) ** 2
        # Var(|U00|^2) = (dim-1)/(dim^2 (dim+1)) for Haar; bound it by 1/9
        assert abs(acc / n - 1.0 / dim) < 3.0 * math.sqrt((1.0 / 9.0) / n)

    def test_random_model_is_valid_and_bounded(self):
        rng = np.random.default_rng(4)
        m = random_model(4, 4, rng)
        assert m.dim == 16
        with pytest.raises(ValueError, match="exceeds"):
            random_model(4, 5, rng)
        with pytest.raises(ValueError, match=">= 2"):
            random_model(1, 4, rng)

    def test_substreams_are_disjoint_and_deterministic(self):
        a1 = substream(7, 0).random(4)
        a2 = substream(7, 0).random(4)
        b = substream(7, 1).random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestStateParameterization:
    def test_angles_produce_unit_states(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            angles = rng.uniform(0, math.pi / 2, size=2 * dim - 2)
            psi = state_from_angles(dim, angles)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_zero_angles_give_first_basis_vector(self):
        psi = state_from_angles(3, [0.0, 0.0, 0.0, 0.0])
        assert psi.amplitudes[0] == pytest.approx(1.0)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="need 4 angles"):
            state_from_angles(3, [0.0])


class TestSearchLoop:
    def test_same_seed_reproduces_bit_for_bit(self):
        space = SearchSpace(family=Family.SIGMA_PHI)
        a = search_min_slack(RelationId.HEISENBERG_E1, space, 300, seed=11)
        b = search_min_slack(RelationId.HEISENBERG_E1, space, 300, seed=11)
        assert a.best_slack == b.best_slack
        assert a.witness_params == b.witness_params
        assert json.dumps(a.witness_doc) == json.dumps(b.witness_doc)

    def test_different_seeds_explore_differently(self):
        space = SearchSpace(family=Family.SIGMA_PHI)
        a = search_min_slack(RelationId.HEISENBERG_E1, space, 120, seed=1)
        b = search_min_slack(RelationId.HEISENBERG_E1, space, 120, seed=2)
        assert a.witness_params != b.witness_params

    def test_best_slack_is_monotone_in_budget(self):
        space = SearchSpace(family=Family.SIGMA_PHI)
        slacks = [
            search_min_slack(RelationId.HEISENBERG_E1, space, b, seed=9).best_slack
            for b in (0, 25, 100, 400)
        ]
        assert slacks == sorted(slacks, reverse=True)

    def test_zero_budget_reports_nothing(self):
        space = SearchSpace(family=Family.SIGMA_PHI)
        res = search_min_slack(RelationId.HEISENBERG_E1, space, 0, seed=3)
        assert res.evaluations == 0
        assert math.isinf(res.best_slack)
        assert res.witness_doc is None
        assert res.verdict is None
        assert not res.violation_found()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            search_min_slack(
                RelationId.HEISENBERG_E1, SearchSpace(family=Family.SIGMA_PHI), -1, seed=0
            )

    def test_finds_deep_heisenberg_violation(self):
        space = SearchSpace(family=Family.SIGMA_PHI)
        res = search_min_slack(RelationId.HEISENBERG_E1, space, 2000, seed=7)
        assert res.best_slack < -0.9
        assert res.violation_found()
        assert res.verdict is not None and not res.verdict.holds

    def test_never_finds_false_ozawa_violation(self):
        space = SearchSpace(family=Family.SIGMA_PHI)
        res = search_min_slack(RelationId.OZAWA_E2, space, 400, seed=13)
        assert res.best_slack >= -1e-9
        assert not res.violation_found()

    def test_shift_family_with_fixed_probe_searches_states_only(self):
        probe = np.array([0.0, 0.6, 0.8, 0.0], dtype=complex)
        space = SearchSpace(family=Family.SHIFT, probe_dim=4, probe_state=probe)
        res = search_min_slack(RelationId.SQL_E14, space, 60, seed=5)
        assert len(res.witness_params) == 2  # object state angles only
        doc_probe = np.asarray(res.witness_doc["model"]["probe_state"], dtype=float)
        assert max_abs(doc_probe[:, 0] + 1j * doc_probe[:, 1] - probe) == 0.0

    def test_shift_family_probe_window_respects_register(self):
        space = SearchSpace(family=Family.SHIFT, probe_dim=4)
        res = search_min_slack(RelationId.SQL_E14, space, 120, seed=6)
        cfg = build_configuration(scenario_from_dict(res.witness_doc))
        # default pair is sigma_z / sigma_y: shifts -1 and +1, so only the
        # middle two pointer levels may be populated
        amps = cfg.model.probe_state.amplitudes
        assert abs(amps[0]) < 1e-12 and abs(amps[3]) < 1e-12

    def test_shift_window_of_a_negative_spectrum_stays_in_the_register(self):
        # shifts -2 and -1 keep only pointer levels 2 and 3 on a 4-level register
        space = SearchSpace(family=Family.SHIFT, probe_dim=4, x0_spec=np.diag([-2.0, -1.0]))
        res = search_min_slack(RelationId.SQL_E14, space, 40, seed=0)
        amps = build_configuration(scenario_from_dict(res.witness_doc)).model.probe_state.amplitudes
        assert abs(amps[0]) < 1e-12 and abs(amps[1]) < 1e-12

    def test_shift_space_with_non_integer_x0_rejected(self):
        space = SearchSpace(family=Family.SHIFT, probe_dim=4, x0_spec=np.diag([0.0, 0.5]))
        with pytest.raises(ValueError, match="observable spectrum is not integer"):
            search_min_slack(RelationId.SQL_E14, space, 10, seed=0)

    def test_shift_space_without_room_rejected(self):
        with pytest.raises(ValueError, match="no pointer level"):
            search_min_slack(
                RelationId.SQL_E14,
                SearchSpace(family=Family.SHIFT, probe_dim=2),
                10,
                seed=0,
            )

    def test_random_unitary_family_emits_explicit_witness(self):
        space = SearchSpace(family=Family.RANDOM_UNITARY, probe_dim=2)
        res = search_min_slack(RelationId.HEISENBERG_E1, space, 150, seed=21)
        assert res.witness_doc["model"]["family"] == "explicit"
        certify(res)

    def test_value_map_applies_inside_search(self):
        space = SearchSpace(family=Family.SIGMA_PHI, value_map_spec="scale:100")
        res = search_min_slack(RelationId.OZAWA_E2, space, 200, seed=2)
        assert res.best_slack >= -1e-9
        assert res.witness_doc["value_map"] == "scale:100"
        certify(res)


class TestCertification:
    def _result(self, budget=250, seed=17):
        return search_min_slack(
            RelationId.HEISENBERG_E1, SearchSpace(family=Family.SIGMA_PHI), budget, seed=seed
        )

    def test_witness_replays_exactly(self):
        res = self._result()
        v = certify(res)
        assert v.slack == res.best_slack

    def test_tampered_slack_detected(self):
        res = self._result()
        forged = dataclasses.replace(res, best_slack=res.best_slack - 1e-3)
        with pytest.raises(CertificationError, match="does not reproduce"):
            certify(forged)

    def test_tampered_witness_document_detected(self):
        res = self._result()
        doc = json.loads(json.dumps(res.witness_doc))
        doc["model"]["phi_degrees"] += 5.0
        forged = dataclasses.replace(res, witness_doc=doc)
        with pytest.raises(CertificationError, match="does not reproduce"):
            certify(forged)

    def test_missing_witness_rejected(self):
        res = search_min_slack(
            RelationId.HEISENBERG_E1, SearchSpace(family=Family.SIGMA_PHI), 0, seed=1
        )
        with pytest.raises(CertificationError, match="no witness"):
            certify(res)

    def test_witness_document_is_a_valid_scenario(self):
        res = self._result()
        cfg = build_configuration(scenario_from_dict(res.witness_doc))
        assert isinstance(cfg.state, PureState)
        assert res.witness_doc["seed"] == res.seed
        assert res.witness_doc["tolerance"] == 1e-9


class TestEntryValidation:
    """Bad search flags are rejected before the first evaluation."""

    @pytest.fixture(autouse=True)
    def _no_evaluation(self, monkeypatch):
        def evaluate(*args, **kwargs):
            raise AssertionError("the search evaluated a candidate")

        monkeypatch.setattr(_SpaceImpl, "evaluate", evaluate)

    @pytest.mark.parametrize("spec", ["identity:3", "center_on_meter_mean:1", "scale:abc",
                                      "scale:nan", "scale", "bogus"])
    def test_bad_value_map(self, spec):
        space = SearchSpace(family=Family.SHIFT, value_map_spec=spec)
        with pytest.raises(ValueError, match=r"^SearchSpace\.value_map_spec: "):
            search_min_slack(RelationId.OZAWA_E2, space, 30, seed=0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, True, "1e-9"])
    def test_bad_tolerance(self, tol):
        space = SearchSpace(family=Family.SHIFT)
        with pytest.raises(ValueError, match=r"^tol: "):
            search_min_slack(RelationId.OZAWA_E2, space, 30, seed=0, tol=tol)


class TestOneResultPath:
    @pytest.mark.parametrize("budget", [0, 1, 9])
    def test_evaluations_equal_the_budget(self, budget):
        res = search_min_slack(RelationId.SQL_E14, SearchSpace(family=Family.SHIFT), budget, seed=2)
        assert res.evaluations == budget
        assert (res.witness_doc is None) == (budget == 0)
        assert (res.best_slack == math.inf) == (budget == 0)

    def test_non_finite_slack_raises(self, monkeypatch):
        monkeypatch.setattr(_SpaceImpl, "evaluate", lambda self, cand, rid, tol: (math.nan, None))
        with pytest.raises(ArithmeticError, match="non-finite slack nan at evaluation 0"):
            search_min_slack(RelationId.OZAWA_E2, SearchSpace(family=Family.SIGMA_PHI), 5, seed=0)


class TestFamilyDimensions:
    """The search space decides each family's dimensions; its caller passes them through."""

    @pytest.mark.parametrize("family,dims", [("sigma_phi", (2, 2)), ("shift", (2, 4)), ("random_unitary", (2, 2))])
    def test_default_probe_dim_is_the_familys(self, family, dims):
        impl = _SpaceImpl(SearchSpace(family=family))
        assert (impl.object_dim, impl.probe_dim) == dims

    @pytest.mark.parametrize("dims", [{"object_dim": 3}, {"probe_dim": 4}, {"object_dim": 4, "probe_dim": 3}])
    def test_sigma_phi_with_other_dims_is_rejected(self, dims):
        with pytest.raises(ValueError, match=r"^sigma_phi is a qubit model: "):
            _SpaceImpl(SearchSpace(family=Family.SIGMA_PHI, **dims))

    @pytest.mark.parametrize("kwargs,message", [
        ({"object_dim": 3}, r"^SearchSpace\.x0_spec: observable dim 2 != object_dim 3$"),
        ({"y0_spec": np.eye(3)}, r"^SearchSpace\.y0_spec: observable dim 3 != object_dim 2$"),
    ], ids=["x0", "y0"])
    def test_observable_dim_mismatch_names_both_dims(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            _SpaceImpl(SearchSpace(family=Family.SHIFT, **kwargs))


@pytest.mark.parametrize("tol", [1e-9, 2.0])
def test_violation_is_read_from_the_verdict_under_the_search_tolerance(tol):
    res = search_min_slack(RelationId.HEISENBERG_E1, SearchSpace(family=Family.SIGMA_PHI), 40, seed=1, tol=tol)
    assert -2.0 < res.best_slack < -0.5
    assert res.violation_found() == (tol < 0.5) == (not res.verdict.holds)
