"""Per-layer metrics derived from a span file written by tracer.Tracer.

A layer is a murel module; a span's layer is the part of its name before
the dot.  Self time is a span's duration minus the durations of its child
spans (calls run on one thread, so children never overlap).  A group of
span names (say, every model constructor) counts only its outermost spans:
a `build_sigma_phi` call that constructs an `IndirectModel` is one build.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict

BUILD = ("model.build_sigma_phi", "model.build_shift_model", "model.IndirectModel")
EVOLVE = ("model.evolve",)
READOUT = ("model.outcome_probabilities", "model.readout_probabilities", "model.conditional_post_state")
HERM_EIG = ("linalg.herm_eig",)
CHECK = ("relations.check",)
PARSE = ("scenario.parse_scenario", "scenario.scenario_from_dict")
BUILD_CONFIGURATION = ("scenario.build_configuration",)
SERIALIZE = ("scenario.scenario_to_text",)
ROW = ("reporting.configuration_row",)
RENDER = ("reporting.render_csv", "reporting.render_json_lines")
CERTIFY = ("search.certify",)
CLI = ("cli.main",)


class Spans:
    def __init__(self, path):
        self.name, self.dur, self.parent, self.op, self.key = [], [], [], [], []
        with open(path, newline="", encoding="utf-8") as f:
            for rec in csv.DictReader(f):
                self.name.append(rec["name"])
                self.dur.append(int(rec["end_ns"]) - int(rec["start_ns"]))
                self.parent.append(int(rec["parent"]))
                self.op.append(int(rec["op"]))
                self.key.append(rec["key"])
        child_ns = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child_ns)]

    def outermost(self, group) -> list[int]:
        """Indices of spans in the group with no ancestor in the group."""
        out = []
        for i, name in enumerate(self.name):
            if name in group:
                p = self.parent[i]
                while p >= 0 and self.name[p] not in group:
                    p = self.parent[p]
                if p < 0:
                    out.append(i)
        return out

    def layer_self_ns(self) -> Counter:
        total = Counter()
        for name, s in zip(self.name, self.self_ns):
            total[name.split(".", 1)[0]] += s
        return total

    def repeat_ratio(self, idx: list[int]) -> float:
        """Share of calls whose input key already occurred earlier in the same operation."""
        seen = defaultdict(set)
        repeats = 0
        for i in idx:
            keys = seen[self.op[i]]
            repeats += self.key[i] in keys
            keys.add(self.key[i])
        return repeats / len(idx) if idx else 0.0


def per_layer(spans: Spans, untraced: dict, traced: dict, cases) -> dict[str, float]:
    """The per-layer table from the spans of the traced run and the results
    of the untraced and traced workers; `cases` names the search cases."""
    items = traced["items"]

    def mean_us(idx):
        return sum(spans.dur[i] for i in idx) / len(idx) / 1e3 if idx else 0.0

    def per_item(x):
        return x / items if items else 0.0

    groups = {g: spans.outermost(g) for g in (BUILD, EVOLVE, READOUT, HERM_EIG, CHECK, PARSE,
                                               BUILD_CONFIGURATION, SERIALIZE, ROW, RENDER, CERTIFY, CLI)}
    self_ns = spans.layer_self_ns()
    counts = Counter(name.split(".", 1)[0] for name in spans.name)
    tensor_calls = sum(1 for name in spans.name if name == "linalg.tensor")
    row_self_ns = sum(spans.self_ns[i] for i in groups[ROW])
    rows = len(groups[ROW])

    m = {
        "search.self_us_per_eval": per_item(self_ns["search"]) / 1e3,
        "search.certify_ms_per_call": mean_us(groups[CERTIFY]) / 1e3,
    }
    for case in cases:
        n, wall = untraced["cases"].get(case, (0, 0.0))
        m[f"search.evals_per_s.{case}"] = n / wall if wall else 0.0
    m.update({
        "model.build_us_per_call": mean_us(groups[BUILD]),
        "model.build_repeat_ratio": spans.repeat_ratio(groups[BUILD]),
        "model.evolve_calls_per_item": per_item(len(groups[EVOLVE])),
        "model.evolve_us_per_call": mean_us(groups[EVOLVE]),
        "model.evolve_repeat_ratio": spans.repeat_ratio(groups[EVOLVE]),
        "model.readout_us_per_item": per_item(sum(spans.dur[i] for i in groups[READOUT])) / 1e3,
        "model.self_us_per_item": per_item(self_ns["model"]) / 1e3,
        "linalg.herm_eig_calls_per_item": per_item(len(groups[HERM_EIG])),
        "linalg.herm_eig_us_per_call": mean_us(groups[HERM_EIG]),
        "linalg.tensor_calls_per_item": per_item(tensor_calls),
        "linalg.self_us_per_item": per_item(self_ns["linalg"]) / 1e3,
        "metrics.calls_per_item": per_item(counts["metrics"]),
        "metrics.self_us_per_item": per_item(self_ns["metrics"]) / 1e3,
        "relations.check_calls_per_item": per_item(len(groups[CHECK])),
        "relations.self_us_per_item": per_item(self_ns["relations"]) / 1e3,
        "scenario.parse_us_per_call": mean_us(groups[PARSE]),
        "scenario.build_us_per_call": mean_us(groups[BUILD_CONFIGURATION]),
        "scenario.serialize_us_per_call": mean_us(groups[SERIALIZE]),
        "scenario.self_us_per_item": per_item(self_ns["scenario"]) / 1e3,
        "reporting.row_self_us_per_row": row_self_ns / rows / 1e3 if rows else 0.0,
        "reporting.render_us_per_row": sum(spans.dur[i] for i in groups[RENDER]) / rows / 1e3 if rows else 0.0,
        "reporting.self_us_per_item": per_item(self_ns["reporting"]) / 1e3,
        "cli.self_ms_per_call": self_ns["cli"] / len(groups[CLI]) / 1e6 if groups[CLI] else 0.0,
    })
    plain_rate = untraced["items"] / untraced["wall_s"]
    traced_rate = traced["items"] / traced["wall_s"]
    m["trace.overhead_ratio"] = traced_rate / plain_rate
    return m
