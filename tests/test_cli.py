from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from murel.cli import main
from murel.scenario import make_scenario_doc, scenario_to_text


@pytest.fixture
def scenario_file(tmp_path):
    doc = make_scenario_doc(
        family="sigma_phi",
        model_params={"phi_degrees": 40.0},
        state_spec="+x",
        x0_spec="sigma_x",
        y0_spec="sigma_y",
        scenario_id="cli-demo",
    )
    path = tmp_path / "demo.json"
    path.write_text(scenario_to_text(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetricsCommand:
    def test_csv_structure(self, capsys, scenario_file):
        code, out, err = run_cli(capsys, "metrics", scenario_file)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "# murel report schema_version=1"
        assert lines[1].startswith("scenario_id,section,family,phi_degrees,state,")
        assert len(lines) == 3
        assert lines[2].startswith("cli-demo,metrics,sigma_phi,40.0,+x,")

    def test_json_values(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, "metrics", scenario_file, "--format", "json")
        assert code == 0
        row = json.loads(out)
        assert row["family"] == "sigma_phi"
        assert row["eps_x0"] == pytest.approx(0.6840402866513374, abs=1e-12)
        assert row["eps_rand"] == pytest.approx(0.6427876096865393, abs=1e-12)
        assert row["OZAWA_E2_holds"] is True

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "metrics", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot read scenario file" in err

    def test_invalid_json_is_scenario_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "metrics", str(path))
        assert code == 2
        assert "scenario error: syntax error at line 1" in err

    def test_invalid_schema_is_scenario_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "bogus": 2}', encoding="utf-8")
        code, _, err = run_cli(capsys, "metrics", str(path))
        assert code == 2
        assert "unknown keys" in err


class TestCheckCommand:
    def test_csv_verdict(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, "check", scenario_file, "--relation", "OZAWA_E2")
        assert code == 0
        header, row = out.splitlines()
        assert header == "relation_id,lhs,rhs,slack,holds,tol"
        cells = row.split(",")
        assert cells[0] == "OZAWA_E2"
        assert cells[4] == "true"
        assert float(cells[5]) == 1e-9

    def test_json_verdict(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, "check", scenario_file, "--relation", "ROBERTSON",
                               "--format", "json")
        assert code == 0
        v = json.loads(out)
        assert v["relation_id"] == "ROBERTSON"
        assert v["holds"] is True

    def test_unknown_relation_is_usage_error(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, "check", scenario_file, "--relation", "EQ_99")
        assert code == 1
        assert "usage error" in err


class TestSweepCommand:
    def test_grid_rows(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, "sweep", scenario_file,
                               "--param", "phi_degrees", "--grid", "0,40,90",
                               "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["param_value"] for r in rows] == [0.0, 40.0, 90.0]
        assert rows[0]["eps_x0"] == pytest.approx(0.0, abs=1e-9)
        assert rows[2]["eps_x0"] == pytest.approx(2**0.5, abs=1e-9)
        assert all(r["param_name"] == "phi_degrees" for r in rows)
        assert all(r["section"] == "sweep" for r in rows)

    @pytest.mark.parametrize("grid", ["", "  "], ids=["empty", "blank"])
    def test_empty_grid_is_usage_error(self, capsys, scenario_file, grid):
        code, out, err = run_cli(capsys, "sweep", scenario_file,
                                 "--param", "phi_degrees", "--grid", grid)
        assert code == 1
        assert out == ""
        assert err == "usage error: --grid is empty: give comma-separated values, e.g. 0,40,90\n"

    def test_unknown_parameter_is_usage_error(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, "sweep", scenario_file,
                               "--param", "voltage", "--grid", "1,2")
        assert code == 1
        assert "unknown parameter 'voltage'" in err

    def test_malformed_grid_is_usage_error(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, "sweep", scenario_file,
                               "--param", "phi_degrees", "--grid", "1,zap")
        assert code == 1
        assert "bad grid value 'zap'" in err

    def test_rerun_is_byte_identical(self, capsys, scenario_file):
        args = ("sweep", scenario_file, "--param", "phi_degrees", "--grid", "0,15,30,45")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second and first != ""


class TestSearchCommand:
    def test_finds_violation_and_writes_witness(self, capsys, tmp_path):
        witness = tmp_path / "witness.json"
        code, out, _ = run_cli(capsys, "search", "--relation", "HEISENBERG_E1",
                               "--family", "sigma_phi", "--budget", "600",
                               "--seed", "1", "--witness-out", str(witness))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("relation_id,family,budget,seed,evaluations,"
                            "best_slack,violation,rng,witness_path")
        cells = lines[1].split(",")
        assert cells[0] == "HEISENBERG_E1"
        assert float(cells[5]) < -1e-3
        assert cells[6] == "true"
        assert cells[7] == "pcg64"
        assert lines[2] == "violation found"
        assert witness.exists()

        # the written witness replays to the reported slack through `check`
        code2, out2, _ = run_cli(capsys, "check", str(witness),
                                 "--relation", "HEISENBERG_E1")
        assert code2 == 0
        assert float(out2.splitlines()[1].split(",")[3]) == float(cells[5])

    def test_no_violation_for_universal_relation(self, capsys, tmp_path):
        witness = tmp_path / "none.json"
        code, out, _ = run_cli(capsys, "search", "--relation", "OZAWA_E2",
                               "--family", "sigma_phi", "--budget", "120",
                               "--seed", "4", "--witness-out", str(witness))
        assert code == 0
        assert out.splitlines()[-1] == "no violation"
        assert witness.exists()  # best configuration is still recorded

    def test_zero_budget_writes_no_witness(self, capsys, tmp_path):
        witness = tmp_path / "void.json"
        code, out, _ = run_cli(capsys, "search", "--relation", "HEISENBERG_E1",
                               "--family", "sigma_phi", "--budget", "0",
                               "--seed", "4", "--witness-out", str(witness))
        assert code == 0
        assert out.splitlines()[-1] == "no violation"
        assert not witness.exists()

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--relation", "HEISENBERG_E1",
                               "--family", "sigma_phi", "--budget", "64",
                               "--seed", "2", "--format", "json")
        assert code == 0
        lines = out.splitlines()
        rec = json.loads(lines[0])
        assert rec["evaluations"] == 64
        assert rec["rng"] == "pcg64"
        assert lines[1] in ("violation found", "no violation")

    def test_rerun_is_byte_identical(self, capsys):
        args = ("search", "--relation", "HEISENBERG_E1", "--family", "sigma_phi",
                "--budget", "150", "--seed", "12")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_invalid_space_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "--relation", "SQL_E14",
                               "--family", "shift", "--budget", "10",
                               "--seed", "0", "--probe-dim", "2")
        assert code == 1
        assert "no pointer level" in err


class TestReproduceSpin:
    def test_sections_and_flags_present(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-spin")
        assert code == 0
        for section in ("pointer_anomaly", "outcome_independence", "eigenstate_error_laws",
                        "calibration_residuals", "relation_verdicts", "rescale_demo"):
            assert section in out
        assert "DISCREPANCY" in out

    def test_rerun_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce-spin")
        _, second, _ = run_cli(capsys, "reproduce-spin")
        assert first == second

    def test_json_rows_parse(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-spin", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        anomaly = [r for r in rows if r["section"] == "pointer_anomaly"]
        assert len(anomaly) == 1
        assert anomaly[0]["p_plus"] == pytest.approx(1.0, abs=1e-9)
        assert anomaly[0]["eps_x0"] == pytest.approx(2**0.5, abs=1e-9)


class TestParserBehaviour:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "teleport")
        assert code == 1

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("murel ")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "command" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "murel", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("murel ")


class TestRecordOutput:
    def test_witness_path_with_a_comma_stays_one_csv_cell(self, capsys, tmp_path):
        witness = tmp_path / "a,b.json"
        code, out, _ = run_cli(capsys, "search", "--relation", "OZAWA_E2", "--family", "sigma_phi",
                               "--budget", "3", "--seed", "0", "--witness-out", str(witness))
        assert code == 0
        header, row, verdict = csv.reader(io.StringIO(out))
        assert len(row) == len(header) == 9
        assert row[header.index("witness_path")] == str(witness)
        assert verdict == ["no violation"]

    def test_zero_budget_json_record_is_strict_json(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--relation", "OZAWA_E2", "--family", "sigma_phi",
                               "--budget", "0", "--seed", "0", "--format", "json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        record = json.loads(out.splitlines()[0], parse_constant=reject)
        assert record["best_slack"] == "inf"
        assert record["evaluations"] == 0
