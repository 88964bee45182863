"""Command-line entry points and exit codes."""

import os
import subprocess
import sys

import pytest

import memlink
from memlink.cli import main
from memlink.config import load_config


class TestRun:
    def test_budget_succeeds(self, tmp_path, capsys):
        out = str(tmp_path / "budget")
        assert main(["run", "budget", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("campaign: budget")
        assert "status: PASS" in stdout
        assert os.path.exists(os.path.join(out, "summary.kv"))
        assert os.path.exists(os.path.join(out, "budget_chain.csv"))

    def test_failing_verdict_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "bell1")
        assert main(["run", "bell", "--seed", "1", "--out", out]) == 1
        captured = capsys.readouterr()
        assert "[FAIL]" in captured.out
        assert "status: FAIL" in captured.out

    def test_scenario_error_exits_one(self, tmp_path, capsys):
        out = str(tmp_path / "tiny")
        assert main(["run", "bell", "--trials", "7", "--out", out]) == 1
        captured = capsys.readouterr()
        assert "status: ERROR" in captured.out
        assert captured.err.startswith("error: ")

    def test_config_file_with_cli_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "campaign.yaml"
        cfg_path.write_text("scenario: budget\nseed: 7\n", encoding="utf-8")
        out = str(tmp_path / "from-file")
        rc = main(["run", "budget", "--config", str(cfg_path),
                   "--seed", "11", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "summary.kv"), encoding="utf-8") as fh:
            kv = fh.read()
        assert "seed=11" in kv

    def test_invalid_trials_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "z")
        assert main(["run", "budget", "--trials", "0", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "z")
        rc = main(["run", "budget", "--config",
                   str(tmp_path / "absent.yaml"), "--out", out])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_unknown_scenario_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "warp-drive", "--out", str(tmp_path / "z")])
        assert exc.value.code == 2


class TestCalibrate:
    def test_single_target_fit_writes_bundle_and_report(self, tmp_path,
                                                        capsys):
        targets = tmp_path / "targets.yaml"
        targets.write_text("g2_source: {value: 14.2, sigma: 0.5}\n",
                           encoding="utf-8")
        out = str(tmp_path / "cal")
        assert main(["calibrate", "--targets", str(targets),
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("calibration report")
        assert os.path.exists(os.path.join(out, "calibration.txt"))
        cfg = load_config(os.path.join(out, "calibrated.yaml"), {})
        assert cfg.scenario == "bell"

    def test_bad_targets_file_exits_two(self, tmp_path, capsys):
        targets = tmp_path / "targets.yaml"
        targets.write_text("nonsense: {value: 1, sigma: 1}\n",
                           encoding="utf-8")
        rc = main(["calibrate", "--targets", str(targets),
                   "--out", str(tmp_path / "cal")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")


class TestReport:
    def test_aggregates_passing_campaigns(self, tmp_path, capsys):
        assert main(["run", "budget",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "direct-fiber-compare",
                     "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert "campaign: budget" in stdout
        assert "campaign: direct-fiber-compare" in stdout

    def test_flags_failing_campaign(self, tmp_path, capsys):
        main(["run", "bell", "--seed", "1", "--out", str(tmp_path / "f")])
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 1

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_directory_without_summaries_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "no campaign summaries" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        out = str(tmp_path / "m")
        # The child finds the package the way this process did, whether
        # through PYTHONPATH or pytest's own pythonpath setting.
        src = os.path.dirname(os.path.dirname(memlink.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "memlink", "run", "budget",
             "--out", out],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0
        assert "status: PASS" in proc.stdout
