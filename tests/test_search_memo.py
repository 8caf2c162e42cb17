"""The refine memo: a refine candidate equal to an evaluated sibling takes that sibling's result.

Siblings are the refine candidates of one incumbent.  A repeat among them
never improves the incumbent, so the memo changes no slack, no witness and no
stream position; it only skips the model build and the check.  An explore
draw has no siblings and is always evaluated.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import murel.search
from murel.scenario import scenario_to_text
from murel.search import SearchSpace, _SpaceImpl, search_min_slack

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
SEEDS = (0, 7)


def _digest(result) -> tuple[str, str, tuple[float, ...]]:
    text = scenario_to_text(result.witness_doc)
    return result.best_slack.hex(), hashlib.sha256(text.encode("utf-8")).hexdigest(), result.witness_params


def _count_checks(monkeypatch) -> dict[str, int]:
    """Counts evaluate calls and the relation checks they make."""
    counts = {"evaluations": 0, "checks": 0}
    evaluate, check = _SpaceImpl.evaluate, murel.search._check

    def counting_evaluate(self, cand, relation_id, tol):
        counts["evaluations"] += 1
        return evaluate(self, cand, relation_id, tol)

    def counting_check(*args, **kwargs):
        counts["checks"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(_SpaceImpl, "evaluate", counting_evaluate)
    monkeypatch.setattr(murel.search, "_check", counting_check)
    return counts


@pytest.mark.parametrize("case", CASES)
def test_every_benchmark_case_hits_the_memo(monkeypatch, case):
    counts = _count_checks(monkeypatch)
    space, relation = CASES[case]
    for seed in SEEDS:
        search_min_slack(relation, space, 100, seed)
    hits = counts["evaluations"] - counts["checks"]
    assert 0 < hits < counts["evaluations"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_bypassing_the_memo_gives_the_same_search(monkeypatch, case, seed):
    space, relation = CASES[case]
    memoized = search_min_slack(relation, space, 100, seed)
    perturb = _SpaceImpl.perturb

    def unmemoized_perturb(self, cand, coord, step, sign):
        moved = perturb(self, cand, coord, step, sign)
        moved.siblings = None
        return moved

    counts = _count_checks(monkeypatch)
    monkeypatch.setattr(_SpaceImpl, "perturb", unmemoized_perturb)
    bypassed = search_min_slack(relation, space, 100, seed)
    assert counts["checks"] == counts["evaluations"]  # the memo was bypassed
    assert _digest(bypassed) == _digest(memoized)
    assert bypassed.evaluations == memoized.evaluations == 100


@pytest.mark.parametrize("case", CASES)
def test_memo_holds_at_most_2nS_results(monkeypatch, case):
    """n coordinates and S step sizes: an incumbent has at most 2nS refine steps."""
    space, relation = CASES[case]
    impl = _SpaceImpl(space)
    n = impl.nparams
    widest = max((hi - lo) / 4.0 for lo, hi, _ in impl.bounds)
    sizes = sum(1 for h in range(64) if widest / 2**h >= murel.search.MIN_STEP)
    sizes_seen = []
    evaluate = _SpaceImpl.evaluate

    def measuring_evaluate(self, cand, relation_id, tol):
        result = evaluate(self, cand, relation_id, tol)
        if cand.siblings is not None:
            sizes_seen.append(len(cand.siblings))
        return result

    monkeypatch.setattr(_SpaceImpl, "evaluate", measuring_evaluate)
    search_min_slack(relation, space, 2000, seed=1)
    assert sizes_seen and max(sizes_seen) <= 2 * n * sizes


@pytest.mark.parametrize("case", CASES)
def test_an_explore_draw_is_never_served_from_the_memo(monkeypatch, case):
    """Each explore draw takes the parameters of a memoized sibling, and is still checked.

    For random_unitary the draw carries a new interaction, so the memoized
    slack would be wrong for it.
    """
    counts = _count_checks(monkeypatch)
    evaluate, draw = _SpaceImpl.evaluate, _SpaceImpl.random
    explores, memos, collisions = set(), [], []

    def colliding_draw(self, rng):
        cand = draw(self, rng)
        if memos and memos[-1]:
            cand.params = next(iter(memos[-1]))
            collisions.append(cand)
        explores.add(cand)
        return cand

    def watching_evaluate(self, cand, relation_id, tol):
        checks = counts["checks"]
        result = evaluate(self, cand, relation_id, tol)
        if cand in explores:
            assert counts["checks"] == checks + 1
            assert cand.siblings is None
        elif cand.siblings is not None:
            memos.append(cand.siblings)
        return result

    monkeypatch.setattr(_SpaceImpl, "random", colliding_draw)
    monkeypatch.setattr(_SpaceImpl, "evaluate", watching_evaluate)
    space, relation = CASES[case]
    result = search_min_slack(relation, space, 200, seed=3)
    assert collisions and math.isfinite(result.best_slack)


def test_a_random_unitary_draw_with_a_memoized_siblings_params_gets_its_own_slack():
    impl = _SpaceImpl(CASES["random_unitary_4x4-OZAWA_E2"][0])
    rng = np.random.default_rng(11)
    parent = impl.random(rng)
    impl.evaluate(parent, "OZAWA_E2", 1e-9)
    child = impl.perturb(parent, impl.nparams - 1, 0.25, 1.0)
    child_slack, _ = impl.evaluate(child, "OZAWA_E2", 1e-9)
    assert parent.children == {child.params: (child_slack, parent.children[child.params][1])}
    draw = impl.random(rng)
    draw.params = child.params
    draw_slack, verdict = impl.evaluate(draw, "OZAWA_E2", 1e-9)
    assert draw_slack != child_slack and verdict.slack == draw_slack
