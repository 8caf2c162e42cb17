"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 invalid scenario, 3 internal
consistency failure (a search witness that does not reproduce its own
slack).  All data output goes to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import __version__
from .relations import DEFAULT_TOL, RelationId, check
from .reporting import _table, configuration_row, render_csv, render_json_lines
from .reporting import spin_reference_rows
from .scenario import (
    Scenario,
    ScenarioError,
    build_configuration,
    parse_scenario,
    scenario_from_dict,
    scenario_to_text,
)
from .search import CertificationError, Family, SearchSpace, certify, search_min_slack

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_INTERNAL = 3

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; this tool reserves 2 for
    # invalid scenarios, so usage problems are rerouted to exit code 1.
    def error(self, message):
        # argparse reads a value such as -40,0,40 or -1e-9 as an option; the = form passes it.
        flag = re.fullmatch(r"argument (-\S+): expected one argument", message)
        if flag:
            message += f" (for a value that starts with '-', write {flag[1]}=VALUE)"
        # argparse quotes most values but lists unrecognized arguments verbatim: escape a newline or NUL in one.
        raise _UsageError("".join(c if c.isprintable() else repr(c)[1:-1] for c in message))


def _relation_ids() -> list[str]:
    return [r.value for r in RelationId]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="murel", description="Measurement uncertainty relation toolkit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    fmt = {"choices": ("csv", "json"), "default": "csv", "help": "output format (default csv)"}

    p = sub.add_parser("metrics", help="full metric and verdict row for one scenario")
    p.add_argument("scenario_file", help="path to a scenario JSON file")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="re-evaluate a scenario over a parameter grid")
    p.add_argument("scenario_file", help="path to a scenario JSON file")
    p.add_argument("--param", required=True, help="model parameter to sweep (phi_degrees)")
    p.add_argument("--grid", required=True, help="comma-separated values, e.g. 0,40,90")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="evaluate one relation on one scenario")
    p.add_argument("scenario_file", help="path to a scenario JSON file")
    p.add_argument("--relation", required=True, choices=_relation_ids(), metavar="RELATION")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="search a family for a relation violation")
    p.add_argument("--relation", required=True, choices=_relation_ids(), metavar="RELATION")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--budget", required=True, type=int, help="number of evaluations")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="slack tolerance (default %(default)g)")
    p.add_argument("--object-dim", type=int, default=SearchSpace.object_dim)
    p.add_argument("--probe-dim", type=int, default=SearchSpace.probe_dim,
                   help="probe levels (default 4 for shift, 2 otherwise)")
    p.add_argument("--value-map", default=SearchSpace.value_map_spec,
                   help="value map composed on top of the family calibration")
    p.add_argument("--witness-out", default=None, metavar="PATH",
                   help="write the best configuration as a scenario file")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce-spin", help="print the spin-half reference table")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_reproduce_spin)

    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"scenario file {path!r} is not UTF-8 text (byte {e.start})") from None
    except (OSError, ValueError) as e:  # ValueError: a path with a NUL byte
        reason = getattr(e, "strerror", None) or e
        raise _UsageError(f"cannot read scenario file {path!r}: {reason}") from None


def _load_scenario(path: str) -> Scenario:
    return parse_scenario(_read_text(path))


def _emit_rows(rows, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(render_json_lines(rows))
    else:
        sys.stdout.write(render_csv(rows))


def _emit_record(record: dict, fmt: str) -> None:
    """One record as a JSON line, or as a CSV header of its keys and one row, written as report rows are."""
    sys.stdout.write(_table([record], list(record), fmt))


def cmd_metrics(args) -> int:
    cfg = build_configuration(_load_scenario(args.scenario_file))
    _emit_rows([configuration_row(cfg, section="metrics")], args.format)
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    if not text.strip():
        raise _UsageError("--grid is empty: give comma-separated values, e.g. 0,40,90")
    values = []
    for part in text.split(","):
        try:
            v = float(part.strip())
        except ValueError:
            raise _UsageError(f"bad grid value {part.strip()!r} in {text!r}") from None
        values.append(v)
    return values


SWEEPABLE = {"sigma_phi": ("phi_degrees",)}


def cmd_sweep(args) -> int:
    sc = _load_scenario(args.scenario_file)
    allowed = SWEEPABLE.get(sc.family, ())
    if args.param not in allowed:
        raise _UsageError(
            f"unknown parameter {args.param!r} for family {sc.family!r} "
            f"(sweepable: {list(allowed)!r})"
        )
    grid = _parse_grid(args.grid)
    rows = []
    for value in grid:
        doc = sc.document
        doc["model"][args.param] = value
        cfg = build_configuration(scenario_from_dict(doc))
        rows.append(
            configuration_row(cfg, section="sweep", param_name=args.param, param_value=value)
        )
    _emit_rows(rows, args.format)
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = build_configuration(_load_scenario(args.scenario_file))
    v = check(args.relation, cfg.model, cfg.state, cfg.x0, cfg.y0, tol=cfg.tolerance)
    _emit_record(vars(v), args.format)
    return EXIT_OK


def cmd_search(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.witness_out is not None and not args.witness_out.strip():
        raise _UsageError("--witness-out is empty: give a file path")
    space = SearchSpace(
        family=args.family,
        object_dim=args.object_dim,
        probe_dim=args.probe_dim,
        value_map_spec=args.value_map,
    )
    try:
        result = search_min_slack(args.relation, space, args.budget, args.seed, tol=args.tol)
    except ValueError as e:
        raise _UsageError(str(e)) from None

    witness_path = ""
    if result.witness_doc is not None:
        certify(result)
        if args.witness_out:
            try:
                Path(args.witness_out).write_text(scenario_to_text(result.witness_doc), encoding="utf-8")
            except (OSError, ValueError) as e:  # ValueError: a path with a NUL byte
                reason = getattr(e, "strerror", None) or e
                raise _UsageError(f"cannot write witness file {args.witness_out!r}: {reason}") from None
            witness_path = args.witness_out
    elif args.witness_out:
        sys.stderr.write(f"note: a zero-budget search has no witness; {args.witness_out!r} was not written\n")

    violation = result.violation_found()
    record = {
        "relation_id": result.relation_id,
        "family": result.family,
        "budget": result.budget,
        "seed": result.seed,
        "evaluations": result.evaluations,
        "best_slack": result.best_slack,
        "violation": violation,
        "rng": result.rng_name,
        "witness_path": witness_path,
    }
    _emit_record(record, args.format)
    sys.stdout.write("violation found\n" if violation else "no violation\n")
    return EXIT_OK


def cmd_reproduce_spin(args) -> int:
    _emit_rows(spin_reference_rows(), args.format)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    except _UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except ScenarioError as e:
        sys.stderr.write(f"scenario error: {e}\n")
        return EXIT_SCENARIO
    except CertificationError as e:
        sys.stderr.write(f"internal consistency failure: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
