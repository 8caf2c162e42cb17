"""A search witness replays to the bit, for every family the search covers.

The search evaluates scenario.build_model of each candidate's description
and writes the witness from the same description, so rebuilding the witness
from its document, or from its file text, gives the recorded slack exactly,
not merely within certify's tolerance.
"""
from __future__ import annotations

import numpy as np
import pytest

from murel.relations import check
from murel.scenario import build_configuration, parse_scenario, scenario_to_text
from murel.search import Family, SearchSpace, certify, search_min_slack

SPACES = {
    "sigma_phi": SearchSpace(family=Family.SIGMA_PHI, value_map_spec="scale:2"),
    "shift-free-probe": SearchSpace(family=Family.SHIFT, probe_dim=5, value_map_spec="shift:0.25"),
    "shift-fixed-probe": SearchSpace(
        family=Family.SHIFT,
        probe_dim=4,
        probe_state=np.array([0.0, 0.6, 0.8, 0.0], dtype=complex),
        value_map_spec="scale:-3",
    ),
    "random_unitary-2x2": SearchSpace(
        family=Family.RANDOM_UNITARY, object_dim=2, probe_dim=2, value_map_spec="center_on_meter_mean"
    ),
    "random_unitary-2x4": SearchSpace(
        family=Family.RANDOM_UNITARY, object_dim=2, probe_dim=4, value_map_spec="scale:0.5"
    ),
}


@pytest.mark.parametrize("relation", ["HEISENBERG_E1", "OZAWA_E2", "SQL_COND_E3", "MENSKY_E17"])
@pytest.mark.parametrize("space", SPACES)
def test_witness_replays_exactly(space, relation):
    for seed in (0, 1):
        result = search_min_slack(relation, SPACES[space], 40, seed)
        assert certify(result).slack.hex() == result.best_slack.hex()
        cfg = build_configuration(parse_scenario(scenario_to_text(result.witness_doc)))
        replayed = check(relation, cfg.model, cfg.state, cfg.x0, cfg.y0, tol=cfg.tolerance)
        assert replayed.slack.hex() == result.best_slack.hex()
