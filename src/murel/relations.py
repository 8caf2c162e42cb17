"""Uncertainty-relation verdicts for one measurement configuration.

Every relation is normalized to "lhs >= rhs" with lhs, rhs >= 0; the verdict
reports slack = lhs - rhs and holds iff slack >= -tol.  hbar = 1 throughout,
so each commutator bound is 0.5 * |<[A, B]>|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .linalg import HermitianObservable, PureState
from .metrics import Evaluation
from .model import ZERO_PROB, EvolvedOperators, IndirectModel, _real

__all__ = ["DEFAULT_TOL", "RelationId", "RelationVerdict", "check", "check_all", "verdicts"]

DEFAULT_TOL = 1e-9
READOUT_FLOOR = ZERO_PROB  # SQL_COND_E3 skips readouts at or below this probability


def _tolerance(tol: object) -> float:
    """A slack tolerance: a number by the real-number rule (model._real) greater than 0.

    Anything else raises ValueError, so a verdict never reads a nan, infinite
    or nonpositive tolerance.
    """
    value = _real(tol)
    if value <= 0:
        raise ValueError("tolerance must be positive")
    return value


class RelationId(str, Enum):
    """Identifiers accepted by check() and the command line."""

    HEISENBERG_E1 = "HEISENBERG_E1"    # eps(x0) * eta(y0)            >= 0.5|<[x0,y0]>|
    OZAWA_E2 = "OZAWA_E2"              # eps*eta + eps*sig(y0) + sig(x0)*eta >= same
    SQL_COND_E3 = "SQL_COND_E3"        # eps_cond >= sigma_cond, per readout
    RESOLUTION_E4 = "RESOLUTION_E4"    # eps(x_t) * eta(y0)           >= 0.5|<[x_t,y_t]>|
    MVOSTD_E12 = "MVOSTD_E12"          # sigma(values) * eta(y0)      >= 0.5|<[x0,y0]>|
    SUM_E13 = "SUM_E13"                # (eps(x0)+sig(x0)) * eta(y0)  >= 0.5|<[x0,y0]>|
    SQL_E14 = "SQL_E14"                # sigma(values)                >= sigma(x0)
    MENSKY_E17 = "MENSKY_E17"          # eps(x_t) * sigma(y_t)        >= 0.5|<[x_t,y_t]>|
    ROBERTSON = "ROBERTSON"            # sigma(x0) * sigma(y0)        >= 0.5|<[x0,y0]>|


@dataclass(frozen=True)
class RelationVerdict:
    relation_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tol: float


def _verdict(relation_id: RelationId, lhs: float, rhs: float, tol: float) -> RelationVerdict:
    """The verdict on lhs >= rhs, its fields set directly, as the _trusted constructors set theirs.

    The id's string is read from the member's `_value_`: every report row makes nine verdicts, and
    the Enum.value descriptor costs a Python call each.  A slack that is not finite, from an
    overflowed side, has no verdict: it raises ValueError.
    """
    lhs, rhs = float(lhs), float(rhs)
    slack = lhs - rhs
    if not math.isfinite(slack):
        raise ValueError(f"{relation_id._value_}: non-finite slack {slack!r} (lhs {lhs!r}, rhs {rhs!r})")
    verdict = object.__new__(RelationVerdict)
    vars(verdict).update(relation_id=relation_id._value_, lhs=lhs, rhs=rhs, slack=slack,
                         holds=slack >= -tol, tol=tol)
    return verdict


def _worst_readout(ev: Evaluation, readout_floor: float) -> tuple[float, float]:
    pairs = ev.conditional_pairs(readout_floor)
    if not pairs:
        raise ValueError("no readout above the probability floor")
    _, _, eps, sigma = min(pairs, key=lambda p: p[2] - p[3])
    return eps, sigma


# (lhs, rhs) of every relation, read from one evaluation, in declaration order.
_SIDES = {
    RelationId.HEISENBERG_E1: lambda e, _: (e.eps_x0 * e.eta_y0, e.object_bound),
    RelationId.OZAWA_E2: lambda e, _: (
        e.eps_x0 * e.eta_y0 + e.eps_x0 * e.sigma_y0 + e.sigma_x0 * e.eta_y0,
        e.object_bound,
    ),
    RelationId.SQL_COND_E3: _worst_readout,
    RelationId.RESOLUTION_E4: lambda e, _: (e.eps_xt * e.eta_y0, e.evolved_bound),
    RelationId.MVOSTD_E12: lambda e, _: (e.sigma_mvo * e.eta_y0, e.object_bound),
    RelationId.SUM_E13: lambda e, _: ((e.eps_x0 + e.sigma_x0) * e.eta_y0, e.object_bound),
    RelationId.SQL_E14: lambda e, _: (e.sigma_mvo, e.sigma_x0),
    RelationId.MENSKY_E17: lambda e, _: (e.eps_xt * e.sigma_yt, e.evolved_bound),
    RelationId.ROBERTSON: lambda e, _: (e.sigma_x0 * e.sigma_y0, e.object_bound),
}


def check(
    relation_id: RelationId | str,
    model: IndirectModel,
    state: PureState,
    x0: HermitianObservable,
    y0: HermitianObservable,
    *,
    tol: float = DEFAULT_TOL,
    evolved: EvolvedOperators | None = None,
    readout_floor: float = READOUT_FLOOR,
) -> RelationVerdict:
    """Evaluate one relation on one configuration.

    Only the statistics this relation's sides read are computed (see
    metrics.Evaluation); check_all reads them all from one evaluation and
    gives bit-identical sides.  SQL_COND_E3 is checked per readout
    (probability above readout_floor) and the verdict carries the worst
    readout; use metrics.conditional_pairs for the full per-readout listing.
    `evolved` is accepted for compatibility and ignored: every side is read
    from the evolved state, not from Heisenberg operators.  tol must pass
    the tolerance rule: a finite number greater than 0.  A slack that is
    not finite raises ValueError naming the relation.
    """
    return _check(relation_id, model, state, x0, y0, _tolerance(tol), readout_floor)


def _check(
    relation_id: RelationId | str,
    model: IndirectModel,
    state: PureState,
    x0: HermitianObservable,
    y0: HermitianObservable,
    tol: float,
    readout_floor: float = READOUT_FLOOR,
) -> RelationVerdict:
    """check() for a tolerance its caller has already read with the tolerance rule."""
    rid = RelationId(relation_id)
    lhs, rhs = _SIDES[rid](Evaluation(model, state, x0, y0), readout_floor)
    return _verdict(rid, lhs, rhs, tol)


def verdicts(ev: Evaluation, *, tol: float = DEFAULT_TOL) -> list[RelationVerdict]:
    """All relations of one evaluated configuration, in declaration order."""
    tol = _tolerance(tol)
    return [_verdict(rid, *sides(ev, READOUT_FLOOR), tol) for rid, sides in _SIDES.items()]


def check_all(
    model: IndirectModel,
    state: PureState,
    x0: HermitianObservable,
    y0: HermitianObservable,
    *,
    tol: float = DEFAULT_TOL,
) -> list[RelationVerdict]:
    """All relations in declaration order, read from one evaluation."""
    return verdicts(Evaluation(model, state, x0, y0), tol=tol)
