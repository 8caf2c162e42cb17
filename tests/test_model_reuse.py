"""Each search model is built once and travels with the candidates that share it.

A refine step that moves only object-state coordinates reuses its parent's
recalibrated model instead of rebuilding it.  The reused model is the very
``build_model`` result a rebuild would give, so the candidate stream, the
best slack and the witness text stay what they were when every candidate was
rebuilt: the golden values below were recorded from a search that rebuilt
every candidate.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

import murel.scenario
import murel.search
from murel.linalg import PureState, herm_eig
from murel.model import build_shift_model, rescale_mvo
from murel.scenario import scenario_to_text
from murel.search import SearchSpace, _SpaceImpl, random_model, search_min_slack

BUDGET = 100
FIXED_PROBE = np.array([0.0, 0.6, 0.8, 0.0], dtype=complex)

CASES = {
    "sigma_phi-HEISENBERG_E1": (SearchSpace(family="sigma_phi"), "HEISENBERG_E1"),
    "shift_2x4-SQL_COND_E3": (SearchSpace(family="shift", object_dim=2, probe_dim=4), "SQL_COND_E3"),
    "random_unitary_4x4-HEISENBERG_E1": (
        SearchSpace(family="random_unitary", object_dim=4, probe_dim=4), "HEISENBERG_E1"
    ),
    "random_unitary_4x4-OZAWA_E2": (
        SearchSpace(family="random_unitary", object_dim=4, probe_dim=4), "OZAWA_E2"
    ),
    "shift_fixed_probe_scale-SQL_COND_E3": (
        SearchSpace(family="shift", object_dim=2, probe_dim=4, probe_state=FIXED_PROBE,
                    value_map_spec="scale:-3"),
        "SQL_COND_E3",
    ),
    "random_unitary_2x4_centered-HEISENBERG_E1": (
        SearchSpace(family="random_unitary", object_dim=2, probe_dim=4,
                    value_map_spec="center_on_meter_mean"),
        "HEISENBERG_E1",
    ),
}

# (case, seed) -> (best_slack.hex(), SHA-256 of the witness text), budget 100.
GOLDEN = {
    ("sigma_phi-HEISENBERG_E1", 0): ("-0x1.fb8f645fcdc92p-1", "cfc44a5e52bae29b19e22a66831257e8a286ae6905274d590611ecdf3ddb050a"),
    ("sigma_phi-HEISENBERG_E1", 7): ("-0x1.ff90cffc52240p-1", "4df2b2f05110a0bd0a4cd0335e4a7688ff83871fa67373072d913212b9fd7aea"),
    ("shift_2x4-SQL_COND_E3", 0): ("0x0.0p+0", "7ebe13a4945b1e0cc6aea4376544a89d4f33a23d2ad3ee9990dac24bcea489c9"),
    ("shift_2x4-SQL_COND_E3", 7): ("0x0.0p+0", "2b768968b7aea4e8cb227e5ce7f82436cbfa56845f3c49cd8db00f28524a9b28"),
    ("random_unitary_4x4-HEISENBERG_E1", 0): ("0x1.974823e60fcafp-1", "1ae5561e1534437953207f20c1bd5a796614b7ae9865e11dc3664df11da2de79"),
    ("random_unitary_4x4-HEISENBERG_E1", 7): ("0x1.67a54a557710cp-1", "daa41e4f86116173d5957fd8dc11138b8a53af4776d44bcbfb29858fd013fb0e"),
    ("random_unitary_4x4-OZAWA_E2", 0): ("0x1.049eb617f92d4p+1", "eb9269024619b6fb0d68036d4c71375920a9630e1c7ee3027db191432fbc48a7"),
    ("random_unitary_4x4-OZAWA_E2", 7): ("0x1.d631391487854p+0", "4f59e3d9e223483f120bff6bc97ca3de13dd76cf146ccdadf17b1b3441228354"),
    ("shift_fixed_probe_scale-SQL_COND_E3", 0): ("0x1.70a3d70a3d6fdp-2", "ca37b5c5aa9e779808ebb30e4182b1e659c61e7ba65e4f8d766deac5d9d9379e"),
    ("shift_fixed_probe_scale-SQL_COND_E3", 7): ("0x1.70a3d70a3d6fbp-2", "9504298239491343cd46100df1825cc172ad7391fe10c73a9b758264595e9eec"),
    ("random_unitary_2x4_centered-HEISENBERG_E1", 0): ("0x1.97833a36be596p-1", "df0ecda5196f76dde396a5336c2e47ce814789237499a306175c9fa495d6cb91"),
    ("random_unitary_2x4_centered-HEISENBERG_E1", 7): ("0x1.060f025c2eb70p-2", "1e2bb4d1f6ab0e3f85bbff8df562f1e7d9a3715d640fa6d56e342ce9c3fe94c1"),
}


def _digest(result) -> tuple[str, str]:
    text = scenario_to_text(result.witness_doc)
    return result.best_slack.hex(), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _counted_search(monkeypatch, case: str, seed: int) -> tuple[int, int]:
    """(build_model calls, explore draws) of one search."""
    counts = {"builds": 0, "draws": 0}
    build, draw = murel.search.build_model, _SpaceImpl.random

    def counting_build(*args, **kwargs):
        counts["builds"] += 1
        return build(*args, **kwargs)

    def counting_draw(self, rng):
        counts["draws"] += 1
        return draw(self, rng)

    monkeypatch.setattr(murel.search, "build_model", counting_build)
    monkeypatch.setattr(_SpaceImpl, "random", counting_draw)
    space, relation = CASES[case]
    search_min_slack(relation, space, BUDGET, seed)
    return counts["builds"], counts["draws"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", CASES)
def test_golden_slack_and_witness(case, seed):
    space, relation = CASES[case]
    assert _digest(search_min_slack(relation, space, BUDGET, seed)) == GOLDEN[(case, seed)]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "case", ["random_unitary_4x4-HEISENBERG_E1", "random_unitary_2x4_centered-HEISENBERG_E1"]
)
def test_random_unitary_builds_once_per_explore_draw(monkeypatch, case, seed):
    builds, draws = _counted_search(monkeypatch, case, seed)
    assert builds == draws < BUDGET


@pytest.mark.parametrize("case", list(CASES)[:4])
def test_incumbent_refine_candidates_are_not_evaluated(monkeypatch, case):
    """A refine step clamped at a bound repeats the incumbent; it costs no evaluation.

    Each stream position is either evaluated or such a duplicate.  Seed 7 of
    random_unitary_4x4-HEISENBERG_E1 clamps no coordinate within the budget,
    so duplicates are required per case, over both seeds.
    """
    counts = {"evaluations": 0, "duplicates": 0}
    perturb, evaluate = _SpaceImpl.perturb, _SpaceImpl.evaluate

    def counting_perturb(self, cand, coord, step, sign):
        moved = perturb(self, cand, coord, step, sign)
        counts["duplicates"] += moved.params == cand.params
        return moved

    def counting_evaluate(self, cand, relation_id, tol):
        counts["evaluations"] += 1
        return evaluate(self, cand, relation_id, tol)

    monkeypatch.setattr(_SpaceImpl, "perturb", counting_perturb)
    monkeypatch.setattr(_SpaceImpl, "evaluate", counting_evaluate)
    space, relation = CASES[case]
    duplicates = 0
    for seed in (0, 7):
        counts.update(evaluations=0, duplicates=0)
        result = search_min_slack(relation, space, BUDGET, seed)
        assert counts["evaluations"] + counts["duplicates"] == BUDGET, seed
        assert result.evaluations == BUDGET
        duplicates += counts["duplicates"]
    assert duplicates > 0


@pytest.mark.parametrize("seed", [0, 7])
def test_fixed_probe_shift_builds_once_per_explore_draw(monkeypatch, seed):
    builds, draws = _counted_search(monkeypatch, "shift_fixed_probe_scale-SQL_COND_E3", seed)
    assert builds == draws + 1 < BUDGET  # plus the fail-fast build in _SpaceImpl.__init__


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", ["sigma_phi-HEISENBERG_E1", "shift_2x4-SQL_COND_E3"])
def test_model_coordinate_families_build_less_than_budget(monkeypatch, case, seed):
    builds, draws = _counted_search(monkeypatch, case, seed)
    assert draws < builds < BUDGET


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", CASES)
def test_rebuilding_every_candidate_gives_the_same_search(monkeypatch, case, seed):
    space, relation = CASES[case]
    reused = search_min_slack(relation, space, BUDGET, seed)
    perturb = _SpaceImpl.perturb

    def rebuilding_perturb(self, cand, coord, step, sign):
        moved = perturb(self, cand, coord, step, sign)
        moved.model = None
        return moved

    monkeypatch.setattr(_SpaceImpl, "perturb", rebuilding_perturb)
    rebuilt = search_min_slack(relation, space, BUDGET, seed)
    assert _digest(rebuilt) == _digest(reused)
    assert rebuilt.witness_params == reused.witness_params


def test_rescaled_model_shares_the_validated_parent():
    model = build_shift_model(herm_eig(np.diag([1.0, -1.0])), 4, PureState(FIXED_PROBE))
    rescaled = rescale_mvo(model, lambda v: 2.0 * v)
    assert rescaled is not model
    assert rescaled.unitary is model.unitary
    assert rescaled.value_map_xt is model.value_map_xt
    assert rescaled.value_map_x0(3.0) == 2.0 * model.value_map_x0(3.0)
    assert model.value_map_x0(3.0) == model.value_map_xt(3.0)  # the parent is untouched


def test_graded_meter_is_shared_per_probe_dim():
    shift = build_shift_model(herm_eig(np.diag([1.0, -1.0])), 4, PureState(FIXED_PROBE))
    rng = np.random.default_rng(0)
    assert random_model(2, 4, rng).meter is shift.meter
    assert random_model(2, 2, rng).meter is not shift.meter
    np.testing.assert_array_equal(shift.meter.eigenvalues, [0.0, 1.0, 2.0, 3.0])


def test_default_observables_are_resolved_once_per_dimension(monkeypatch):
    space, relation = CASES["random_unitary_4x4-OZAWA_E2"]
    first = search_min_slack(relation, space, 20, 0)
    calls = []
    resolve = murel.scenario.herm_eig
    monkeypatch.setattr(murel.scenario, "herm_eig", lambda a: calls.append(a) or resolve(a))
    impl = _SpaceImpl(space)
    assert calls == []
    x0, y0 = impl.x0_spec, impl.y0_spec
    assert not x0.flags.writeable and not y0.flags.writeable
    np.testing.assert_array_equal(impl.x0.matrix, np.diag([-1.5, -0.5, 0.5, 1.5]))
    second = search_min_slack(relation, space, 20, 0)
    assert _digest(second) == _digest(first)
