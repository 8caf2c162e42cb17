"""The search's refinement schedule and its stream contract.

After each improvement, refine step k moves coordinate k % n by a quarter of
its range halved k // (2n) times, and refinement ends after 2n steps at each
step size whose widest step is at least MIN_STEP.  Every 8th evaluation
explores.  The stream depends on the seed and on evaluation history only, so
the candidates a search evaluates at budget b open the stream at any larger
budget.
"""
from __future__ import annotations

import numpy as np
import pytest

from murel.scenario import ScenarioError
from murel.search import SearchSpace, _SpaceImpl, search_min_slack

SPACES = {
    "sigma_phi": SearchSpace(family="sigma_phi"),
    "shift": SearchSpace(family="shift", probe_dim=4),
    "shift_fixed_probe": SearchSpace(family="shift", probe_dim=4,
                                     probe_state=np.array([0.0, 0.6, 0.8, 0.0], dtype=complex)),
    "random_unitary_4x4": SearchSpace(family="random_unitary", object_dim=4, probe_dim=4),
}
# (n, S) of each space: n coordinates and S step sizes whose widest step is at least 1e-6.  The widest
# quarter range is 90 for sigma_phi (90/2**26 >= 1e-6 > 90/2**27) and pi/2 for the others.
SCHEDULES = {"sigma_phi": (3, 27), "shift": (4, 21), "shift_fixed_probe": (2, 21), "random_unitary_4x4": (6, 21)}


def _spy_on_refinement(monkeypatch) -> list[tuple[int, float]]:
    """Only the first evaluation improves; returns the (coord, step) of each perturb call."""
    moves, slacks = [], iter([0.0])
    original = _SpaceImpl.perturb

    def perturb(self, cand, coord, step, sign):
        moves.append((coord, step))
        return original(self, cand, coord, step, sign)

    monkeypatch.setattr(_SpaceImpl, "perturb", perturb)
    monkeypatch.setattr(_SpaceImpl, "evaluate", lambda self, cand, rid, tol: (next(slacks, 1.0), None))
    return moves


@pytest.mark.parametrize("name", SPACES)
def test_refine_step_k_moves_coordinate_k_mod_n_by_its_halved_width(monkeypatch, name):
    moves = _spy_on_refinement(monkeypatch)
    impl = _SpaceImpl(SPACES[name])
    n, sizes = SCHEDULES[name]
    assert impl.nparams == n
    widths = [(hi - lo) / 4.0 for lo, hi, _ in impl.bounds]
    search_min_slack("OZAWA_E2", SPACES[name], 4 * n * sizes, seed=3)
    assert len(moves) == 2 * n * sizes  # 162 for sigma_phi
    assert moves == [(k % n, widths[k % n] / 2 ** (k // (2 * n))) for k in range(len(moves))]


def test_refine_steps_skip_every_8th_evaluation(monkeypatch):
    draws = []
    random = _SpaceImpl.random

    def counting_random(self, rng):
        draws.append(len(moves))
        return random(self, rng)

    moves = _spy_on_refinement(monkeypatch)
    monkeypatch.setattr(_SpaceImpl, "random", counting_random)
    search_min_slack("HEISENBERG_E1", SPACES["sigma_phi"], 33, seed=0)
    # evaluations 0, 8, 16, 24, 32 explore; the 28 others refine
    assert draws == [0, 7, 14, 21, 28]


@pytest.mark.parametrize("name", SPACES)
def test_evaluated_candidates_at_budget_b_open_the_stream_at_3b(monkeypatch, name):
    seen = []
    evaluate = _SpaceImpl.evaluate

    def recording_evaluate(self, cand, rid, tol):
        seen.append((cand.params, None if cand.context is None else cand.context[0].tobytes()))
        return evaluate(self, cand, rid, tol)

    monkeypatch.setattr(_SpaceImpl, "evaluate", recording_evaluate)
    streams = []
    for budget in (40, 120):
        seen.clear()
        search_min_slack("OZAWA_E2", SPACES[name], budget, seed=5)
        streams.append(list(seen))
    short, long = streams
    assert len(short) > 0 and long[: len(short)] == short


@pytest.mark.parametrize("probe,message", [
    ([0, 0, 0, 1], r"^SearchSpace\.probe_state: pointer shift would wrap around the register: "),
    ([0, 0, 1], r"^SearchSpace\.probe_state: probe state dim does not match probe_dim$"),
], ids=["wraps", "wrong_dim"])
def test_a_bad_fixed_probe_is_named_as_the_search_space_field(probe, message):
    space = SearchSpace(family="shift", probe_state=probe)
    with pytest.raises(ScenarioError, match=message):
        search_min_slack("SQL_E14", space, 5, seed=0)
