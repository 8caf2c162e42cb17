"""Each outside value goes through one rule, and its rejection names its field.

SearchSpace's counts and names, and search_min_slack's budget and seed, are
read by the scenario reader's rules: a rejection is a ScenarioError whose
.path is the argument and whose text is one line.
"""
from __future__ import annotations

import dataclasses
import math

import pytest

from murel.cli import main
from murel.linalg import PureState
from murel.model import build_shift_model, pauli_observable
from murel.scenario import ScenarioError, _at
from murel.search import CertificationError, SearchSpace, certify, search_min_slack

FAMILIES = ["shift", "sigma_phi", "random_unitary"]


def _rejection(space: SearchSpace, budget: int = 3, seed: int = 0) -> ScenarioError:
    with pytest.raises(ScenarioError) as info:
        search_min_slack("OZAWA_E2", space, budget, seed)
    return info.value


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("field,value", [("object_dim", 0), ("probe_dim", -2)])
def test_a_count_below_one_is_named(family, field, value):
    e = _rejection(SearchSpace(family, **{field: value}))
    assert (e.path, str(e)) == (f"SearchSpace.{field}", f"SearchSpace.{field}: {field} must be positive")


@pytest.mark.parametrize("field", ["x0_spec", "y0_spec"])
def test_an_unknown_observable_name_is_named(field):
    e = _rejection(SearchSpace("shift", **{field: "foo"}))
    assert (e.path, str(e)) == (f"SearchSpace.{field}", f"SearchSpace.{field}: unknown observable name 'foo'")


def test_an_unknown_family_is_named():
    e = _rejection(SearchSpace("bogus"))
    assert (e.path, str(e)) == ("SearchSpace.family", "SearchSpace.family: 'bogus' is not a valid Family")


@pytest.mark.parametrize("name", ["budget", "seed"])
def test_a_negative_budget_or_seed_is_named(name):
    e = _rejection(SearchSpace("sigma_phi"), **{name: -1})
    assert (e.path, str(e)) == (name, f"{name}: {name} must be nonnegative")


def test_at_over_a_scenario_error_writes_one_path():
    def inner():
        raise ScenarioError("m", "inner")

    with pytest.raises(ScenarioError) as info:
        _at("outer", inner)
    assert (info.value.path, info.value.message, str(info.value)) == ("outer", "m", "outer: m")


def test_build_shift_model_reads_probe_dim_by_the_count_rule():
    with pytest.raises(ValueError, match=r"^probe_dim must be positive$"):
        build_shift_model(pauli_observable("sigma_z"), 0, PureState([1.0]))


def test_cli_search_names_the_object_dim(capsys):
    code = main(["search", "--relation", "OZAWA_E2", "--family", "shift", "--object-dim", "0",
                 "--budget", "3", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: SearchSpace.object_dim: object_dim must be positive\n"


def test_certify_rejects_a_nan_recorded_slack():
    result = search_min_slack("HEISENBERG_E1", SearchSpace("sigma_phi"), 20, 1)
    with pytest.raises(CertificationError):
        certify(dataclasses.replace(result, best_slack=math.nan))
