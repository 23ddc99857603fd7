"""CLI behavior of ``repro lint``: exit codes, JSON shape, config loading."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.cli import REPORT_VERSION
from repro.lint.config import load_config

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parents[1] / "src"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "r1_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "R1" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", str(SRC), "--rules", "R99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2

    def test_missing_config_exits_two(self, capsys):
        code = main(["lint", str(SRC), "--config", "no/such/pyproject.toml"])
        assert code == 2

    def test_broken_file_exits_one(self, capsys):
        assert main(["lint", str(FIXTURES / "broken.py")]) == 1
        assert "PARSE" in capsys.readouterr().out


class TestJsonReport:
    def test_shape_and_counts(self, capsys):
        main(["lint", str(FIXTURES / "r6_bad.py"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == REPORT_VERSION
        assert report["files_scanned"] == 1
        assert report["counts"] == {"R6": 2}
        assert report["rules_run"] == ["R1", "R2", "R3", "R4", "R5", "R6"]
        finding = report["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message", "snippet"}
        assert finding["rule"] == "R6"
        assert finding["line"] == 7

    def test_clean_json_report(self, capsys):
        assert main(["lint", str(SRC), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["findings"] == []
        assert report["counts"] == {}

    def test_rule_subset(self, capsys):
        main(["lint", str(FIXTURES / "r1_bad.py"), "--rules", "R5,R6",
              "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["rules_run"] == ["R5", "R6"]
        assert report["findings"] == []


class TestProjectMode:
    def test_clean_src_exits_zero_with_all_rules(self, capsys):
        assert main(["lint", str(SRC), "--project"]) == 0
        out = capsys.readouterr().out
        assert "R8" in out and "R10" in out

    def test_project_findings_exit_one(self, capsys):
        code = main(["lint", str(FIXTURES / "project_r8"), "--project"])
        assert code == 1
        assert "R8" in capsys.readouterr().out

    def test_without_flag_project_rules_skipped(self, capsys):
        # The same bad tree is clean for the per-file rules, and the
        # report does not pretend the project rules ran.
        assert main(["lint", str(FIXTURES / "project_r8")]) == 0
        out = capsys.readouterr().out
        assert "R8" not in out

    def test_project_json_shape(self, capsys):
        main(
            ["lint", str(FIXTURES / "project_r9"), "--project",
             "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["rules_run"] == [f"R{n}" for n in range(1, 12) if n != 7]
        assert report["counts"] == {"R9": 4}
        assert all(f["rule"] == "R9" for f in report["findings"])

    def test_rule_subset_with_project(self, capsys):
        main(
            ["lint", str(FIXTURES / "project_r10"), "--project",
             "--rules", "R10", "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["rules_run"] == ["R10"]
        assert report["counts"] == {"R10": 4}


class TestListRules:
    def test_lists_all_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "R1", "R2", "R3", "R4", "R5", "R6", "R8", "R9", "R10", "R11"
        ):
            assert rule_id in out
        assert "R7" not in out  # retired
        assert "invariant:" in out

    def test_project_rules_marked(self, capsys):
        main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert out.count("[project mode]") == 4


class TestConfigLoading:
    def test_checked_in_pyproject_carries_allowlists(self):
        config = load_config(Path(__file__).parents[1] / "pyproject.toml")
        assert config.path_allowed("R2", "src/repro/sim/rng.py")
        assert config.path_allowed("R5", "src/repro/managers/slurm.py")
        assert not config.path_allowed("R5", "src/repro/core/decider.py")
        assert not config.path_allowed("R1", "src/repro/sim/rng.py")

    def test_explicit_config_flag(self, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                disable = ["R1"]
                """
            )
        )
        code = main(
            ["lint", str(FIXTURES / "r1_bad.py"), "--config", str(pyproject)]
        )
        assert code == 0  # R1 disabled, nothing else fires in that fixture
        assert "0 findings" in capsys.readouterr().out

    def test_config_allowlist_merges_with_defaults(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                [tool.repro-lint.allow]
                R1 = ["lint/allowlist_inline.py"]
                """
            )
        )
        config = load_config(pyproject)
        assert config.path_allowed("R1", str(FIXTURES / "allowlist_inline.py"))
        # Defaults survive a partial override.
        assert config.path_allowed("R2", "src/repro/sim/rng.py")

    def test_bad_config_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\ndisable = 3\n")
        with pytest.raises(ValueError):
            load_config(pyproject)
