"""The three benchmark workloads: inputs drawn from the seed, the timed
operation, and correctness checks whose oracles do not use murel.

Each workload is one closed-loop client: the worker asks for input `i` of a
stream, runs the operation on it, and checks the output, one operation at a
time.  Stream 0 feeds the warm-up and stream 1 the timed loop, so no timed
input repeats a warm-up input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import murel
import murel.cli
import murel.reporting

TOL = 1e-9  # slack tolerance, the scenario default
ORACLE_ATOL = 1e-9  # closed-form oracles versus reported metrics, on O(1) values
BUDGET = 100  # evaluations per search call

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}
_S = 1 / math.sqrt(2)
NAMED_STATES = {
    "+x": np.array([_S, _S], dtype=complex),
    "-x": np.array([_S, -_S], dtype=complex),
    "+y": np.array([_S, 1j * _S], dtype=complex),
    "-y": np.array([_S, -1j * _S], dtype=complex),
    "+z": np.array([1, 0], dtype=complex),
    "-z": np.array([0, 1], dtype=complex),
}


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def _std(psi: np.ndarray, a: np.ndarray) -> float:
    mean = (psi.conj() @ a @ psi).real
    b = a - mean * np.eye(a.shape[0])
    return float(np.linalg.norm(b @ psi))


def _half_commutator(psi: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * abs(psi.conj() @ (a @ b - b @ a) @ psi)


def _close(reported, expected: float, what: str, problems: list[str]) -> None:
    if reported is None or not abs(float(reported) - expected) <= ORACLE_ATOL * max(1.0, abs(expected)):
        problems.append(f"{what}: reported {reported!r}, oracle {expected!r}")


def _holds(row: dict, rid: str, problems: list[str]) -> None:
    holds = row[f"{rid}_holds"]
    slack = float(row[f"{rid}_slack"])
    if holds not in (True, "true") or not slack >= -TOL:
        problems.append(f"{rid} fails: holds={holds!r} slack={slack!r}")


@dataclass(frozen=True)
class Op:
    """One operation's input; `case` labels it for per-case figures."""

    case: str
    data: object


class SearchWorkload:
    """search_min_slack plus certify, cycling through four cases."""

    name = "search"
    CASES = (
        ("sigma_phi-HEISENBERG_E1", dict(family="sigma_phi"), "HEISENBERG_E1"),
        ("shift_2x4-SQL_COND_E3", dict(family="shift", object_dim=2, probe_dim=4), "SQL_COND_E3"),
        ("random_unitary_4x4-HEISENBERG_E1", dict(family="random_unitary", object_dim=4, probe_dim=4), "HEISENBERG_E1"),
        ("random_unitary_4x4-OZAWA_E2", dict(family="random_unitary", object_dim=4, probe_dim=4), "OZAWA_E2"),
    )
    warmup_ops = len(CASES)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spaces = {case: murel.SearchSpace(**kw) for case, kw, _ in self.CASES}

    def make_input(self, stream: int, i: int) -> Op:
        case, _, relation = self.CASES[i % len(self.CASES)]
        call_seed = int(_rng(self.seed, stream, i).integers(2**31))
        return Op(case, (relation, call_seed))

    def run(self, op: Op):
        relation, call_seed = op.data
        result = murel.search_min_slack(relation, self.spaces[op.case], BUDGET, call_seed)
        murel.certify(result)
        return result

    def items(self, op: Op, result) -> int:
        return result.evaluations

    def check(self, op: Op, result) -> list[str]:
        problems = []
        if result.evaluations != BUDGET:
            problems.append(f"evaluations {result.evaluations} != budget {BUDGET}")
        if not math.isfinite(result.best_slack):
            problems.append(f"best_slack {result.best_slack!r} is not finite")
        if op.data[0] == "OZAWA_E2" and result.best_slack < -TOL:
            problems.append(f"OZAWA_E2 reported slack {result.best_slack!r} < -{TOL}")
        return problems

    def final_check(self, first: Op, first_result) -> list[str]:
        again = self.run(first)
        if again.best_slack.hex() != first_result.best_slack.hex():
            return [f"repeat of the first call gave {again.best_slack!r}, not {first_result.best_slack!r}"]
        return []


class ReportWorkload:
    """In-process `murel reproduce-spin` and `murel sweep`, alternating."""

    name = "report"
    SPIN_ROWS = 24
    GRID_POINTS = 24
    warmup_ops = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.scenario_files = {}
        for label in NAMED_STATES:
            doc = {
                "schema_version": 1,
                "id": f"sweep-{label}",
                "model": {"family": "sigma_phi", "phi_degrees": 0.0},
                "state": label,
                "observables": {"x0": "sigma_x", "y0": "sigma_y"},
            }
            sign = "plus" if label[0] == "+" else "minus"
            path = workdir / f"sweep_{sign}_{label[1]}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.scenario_files[label] = str(path)

    def make_input(self, stream: int, i: int) -> Op:
        if i % 2 == 0:
            return Op("reproduce-spin", ["reproduce-spin"])
        label = list(NAMED_STATES)[(i // 2) % len(NAMED_STATES)]
        grid = _rng(self.seed, stream, i).uniform(0.0, 90.0, self.GRID_POINTS).tolist()
        argv = ["sweep", self.scenario_files[label], "--param", "phi_degrees",
                "--grid", ",".join(repr(v) for v in grid), "--format", "json"]
        return Op("sweep", (argv, label, grid))

    def run(self, op: Op):
        argv = op.data if op.case == "reproduce-spin" else op.data[0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = murel.cli.main(argv)
        return code, buf.getvalue()

    def items(self, op: Op, out) -> int:
        return self.SPIN_ROWS if op.case == "reproduce-spin" else self.GRID_POINTS

    def check(self, op: Op, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        if op.case == "reproduce-spin":
            lines = text.splitlines()
            rows = list(csv.DictReader(lines[1:]))
            expected = [None] * self.SPIN_ROWS
        else:
            _, label, grid = op.data
            rows = [json.loads(line) for line in text.splitlines()]
            expected = [(label, phi) for phi in grid]
        if len(rows) != len(expected):
            return [f"{len(rows)} rows, expected {len(expected)}"]
        problems: list[str] = []
        for row, exp in zip(rows, expected):
            if exp is None:  # reference table: the rescale_demo row carries value map scale:100
                label, phi = row["state"], float(row["phi_degrees"])
                identity_map = row["section"] != "rescale_demo"
            else:
                label, phi = exp
                identity_map = True
                _close(row["param_value"], phi, "param_value", problems)
            self._check_row(row, label, phi, identity_map, problems)
        return problems

    @staticmethod
    def _check_row(row: dict, label: str, phi_degrees: float, identity_map: bool, problems: list[str]):
        psi = NAMED_STATES[label]
        phi = math.radians(phi_degrees)
        sigma_x0 = _std(psi, PAULI["x"])
        sigma_y0 = _std(psi, PAULI["y"])
        eta = math.sqrt(2) * abs(math.cos(phi))
        _close(row["sigma_x0"], sigma_x0, "sigma_x0", problems)
        _close(row["sigma_y0"], sigma_y0, "sigma_y0", problems)
        _close(row["eta_y0"], eta, "eta_y0", problems)
        if identity_map:
            _close(row["eps_x0"], 2 * math.sin(phi / 2), "eps_x0", problems)
        eps = float(row["eps_x0"])
        ozawa_lhs = eps * eta + eps * sigma_y0 + sigma_x0 * eta
        bound = _half_commutator(psi, PAULI["x"], PAULI["y"])
        if not ozawa_lhs - bound >= -TOL:
            problems.append(f"OZAWA_E2 oracle fails at phi={phi_degrees!r} state={label}")
        _holds(row, "OZAWA_E2", problems)
        _holds(row, "MENSKY_E17", problems)


def _pairs(a: np.ndarray) -> list:
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs(r) for r in a]


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


def _hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


class ReplayWorkload:
    """Explicit scenario texts: parse, build, report row, render, write back."""

    name = "replay"
    # (object_dim, probe_dim) cycle, joint dims 4,4,8,8,16,16,32,64,64: the
    # median falls inside the d = 16 group and the 90th percentile inside
    # the d = 64 group, never on a boundary between two groups.
    SHAPES = ((2, 2), (2, 2), (2, 4), (2, 4), (4, 4), (2, 8), (4, 8), (8, 8), (4, 16))
    VALUE_MAPS = ("identity", "scale:2", "center_on_meter_mean")
    warmup_ops = len(SHAPES)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_input(self, stream: int, i: int) -> Op:
        o, p = self.SHAPES[i % len(self.SHAPES)]
        rng = _rng(self.seed, stream, i)
        psi, x0, y0 = _unit_vector(o, rng), _hermitian(o, rng), _hermitian(o, rng)
        doc = {
            "schema_version": 1,
            "id": f"replay-{self.seed}-{stream}-{i}",
            "model": {
                "family": "explicit",
                "object_dim": o,
                "unitary": _pairs(_haar_unitary(o * p, rng)),
                "probe_state": _pairs(_unit_vector(p, rng)),
                "meter": _pairs(np.diag(np.arange(p, dtype=complex))),
            },
            "state": _pairs(psi),
            "observables": {"x0": _pairs(x0), "y0": _pairs(y0)},
            "value_map": self.VALUE_MAPS[int(rng.integers(len(self.VALUE_MAPS)))],
            "tolerance": TOL,
            "seed": i,
        }
        return Op(f"{o}x{p}", (json.dumps(doc, indent=2), doc, psi, x0, y0))

    def run(self, op: Op):
        sc = murel.parse_scenario(op.data[0])
        cfg = murel.build_configuration(sc)
        row = murel.reporting.configuration_row(cfg, section="replay")
        line = murel.reporting.render_json_lines([row])
        return line, murel.scenario_to_text(sc.document)

    def items(self, op: Op, out) -> int:
        return 1

    def check(self, op: Op, out) -> list[str]:
        line, written = out
        _, doc, psi, x0, y0 = op.data
        problems: list[str] = []
        row = json.loads(line)
        for rid in ("OZAWA_E2", "MENSKY_E17", "ROBERTSON"):
            _holds(row, rid, problems)
        _close(row["sigma_x0"], _std(psi, x0), "sigma_x0", problems)
        _close(row["sigma_y0"], _std(psi, y0), "sigma_y0", problems)
        _close(row["ROBERTSON_rhs"], _half_commutator(psi, x0, y0), "ROBERTSON_rhs", problems)
        reread = json.loads(written)
        if reread != doc or murel.scenario_from_dict(reread).document != doc:
            problems.append("written scenario does not re-parse to the same document")
        return problems


WORKLOADS = {w.name: w for w in (SearchWorkload, ReportWorkload, ReplayWorkload)}
