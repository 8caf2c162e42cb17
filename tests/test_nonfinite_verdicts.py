"""A relation whose slack is not finite has no verdict: it raises a one-line ValueError naming it.

Two configurations overflow: a sigma_phi meter whose measurement values are
scaled by 1e200, and x0 = 1e200 sigma_x.  Products of their statistics
overflow, so some sides read nan or inf.  check, check_all and verdicts
never return a nan or infinite slack with holds=False; a relation whose
sides stay finite keeps its verdict.
"""
from __future__ import annotations

import math

import pytest

from murel.linalg import herm_eig
from murel.metrics import Evaluation
from murel.model import NAMED_OBSERVABLES, NAMED_QUBIT_STATES, build_sigma_phi, rescale_mvo
from murel.relations import RelationId, check, check_all, verdicts

SX, SY = NAMED_OBSERVABLES["sigma_x"], NAMED_OBSERVABLES["sigma_y"]
PLUS_X = NAMED_QUBIT_STATES["+x"]
SCALED_VALUES = (rescale_mvo(build_sigma_phi(0.7), lambda v: 1e200 * v), PLUS_X, SX, SY)
HUGE_X0 = (build_sigma_phi(0.7), PLUS_X, herm_eig(1e200 * SX.matrix), SY)

# configuration -> (its relations with a non-finite slack, the rest)
CASES = {
    "scaled-values": (SCALED_VALUES, {"HEISENBERG_E1", "OZAWA_E2", "MVOSTD_E12", "SUM_E13", "SQL_E14"}),
    "huge-x0": (HUGE_X0, {rid.value for rid in RelationId} - {"MVOSTD_E12"}),
}
PARAMS = [
    pytest.param(config, rid, rid.value in non_finite, id=f"{case}-{rid.value}")
    for case, (config, non_finite) in CASES.items()
    for rid in RelationId
]


def _check(rid, config):
    return check(rid, *config)


@pytest.mark.parametrize("config, rid, non_finite", PARAMS)
def test_check_raises_on_a_non_finite_slack_and_keeps_a_finite_one(config, rid, non_finite):
    if non_finite:
        with pytest.raises(ValueError, match=rf"^{rid.value}: non-finite slack (nan|inf|-inf) \(lhs ") as info:
            _check(rid, config)
        assert "\n" not in str(info.value)
    else:
        verdict = _check(rid, config)
        assert math.isfinite(verdict.slack) and verdict.slack == verdict.lhs - verdict.rhs


@pytest.mark.parametrize("config", [c for c, _ in CASES.values()], ids=CASES)
def test_check_all_and_verdicts_raise_on_the_first_non_finite_relation(config):
    with pytest.raises(ValueError, match=r"^HEISENBERG_E1: non-finite slack nan \(lhs nan, rhs "):
        check_all(*config)
    with pytest.raises(ValueError, match=r"^HEISENBERG_E1: non-finite slack nan \(lhs nan, rhs "):
        verdicts(Evaluation(*config))
