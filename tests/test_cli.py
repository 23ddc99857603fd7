"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import SWEEP_COMMANDS, _parse_pairs, build_parser, main
from repro.experiments.runner import DEFAULT_CACHE_DIR


class TestParsePairs:
    def test_none_passthrough(self):
        assert _parse_pairs(None) is None
        assert _parse_pairs([]) is None

    def test_parses_and_uppercases(self):
        assert _parse_pairs(["ep:dc", "CG:LU"]) == [("EP", "DC"), ("CG", "LU")]

    def test_malformed_rejected(self):
        with pytest.raises(SystemExit):
            _parse_pairs(["EPDC"])


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in (
            "overhead", "nominal", "faulty", "scaling-frequency", "scaling-scale"
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_nominal_defaults_are_paper_values(self):
        args = build_parser().parse_args(["nominal"])
        assert args.caps == [60.0, 70.0, 80.0, 90.0, 100.0]
        assert args.clients == 20

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_commands_take_runner_flags(self):
        parser = build_parser()
        for command in SWEEP_COMMANDS:
            args = parser.parse_args([command])
            assert args.jobs == 1
            assert args.cache_dir == DEFAULT_CACHE_DIR
            assert not args.no_cache
            args = parser.parse_args(
                [command, "--jobs", "3", "--cache-dir", "/tmp/x", "--no-cache"]
            )
            assert args.jobs == 3
            assert args.cache_dir == "/tmp/x"
            assert args.no_cache

    def test_overhead_has_no_runner_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["overhead", "--jobs", "2"])

    def test_negative_jobs_rejected_at_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nominal", "--jobs", "-2"])

    def test_claims_defaults_to_bench_size(self):
        parser = build_parser()
        assert not parser.parse_args(["claims"]).paper
        assert parser.parse_args(["claims", "--paper"]).paper


class TestMain:
    def test_bad_retry_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--seeds", "0", "--no-cache", "--task-timeout", "-1"])
        assert exit_info.value.code == 2
        assert "task timeout must be positive" in capsys.readouterr().err

    def test_overhead_command(self, capsys):
        exit_code = main(["overhead", "--scale", "0.1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "mean overhead" in out

    def test_nominal_command_reduced(self, capsys):
        exit_code = main(
            [
                "nominal",
                "--caps", "70",
                "--pairs", "EP:DC",
                "--clients", "4",
                "--scale", "0.1",
                "--no-cache",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_faulty_command_reduced(self, capsys):
        exit_code = main(
            [
                "faulty",
                "--caps", "70",
                "--pairs", "EP:DC",
                "--clients", "4",
                "--scale", "0.1",
                "--no-cache",
            ]
        )
        assert exit_code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_scaling_frequency_reduced(self, capsys):
        exit_code = main(
            ["scaling-frequency", "--clients", "8", "--freqs", "2", "4", "--no-cache"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 7" in out

    def test_scaling_scale_reduced(self, capsys):
        exit_code = main(["scaling-scale", "--scales", "8", "16", "--no-cache"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Figure 8" in out

    def test_multijob_reduced(self, capsys):
        exit_code = main(
            ["multijob", "--clients", "4", "--scale", "0.1", "--no-cache"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fault cost" in out

    def test_nominal_parallel_matches_serial(self, capsys):
        argv = [
            "nominal",
            "--caps", "70",
            "--pairs", "EP:DC",
            "--clients", "4",
            "--scale", "0.1",
            "--no-cache",
        ]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_warm_cache_reuses_results(self, tmp_path, capsys):
        argv = [
            "nominal",
            "--caps", "70",
            "--pairs", "EP:DC",
            "--clients", "4",
            "--scale", "0.1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "cached" not in first.err
        assert list((tmp_path / "single").glob("*.json"))
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        # every progress line on the second pass is a cache hit
        progress = [line for line in second.err.splitlines() if line.startswith("[")]
        assert progress
        assert all("cached" in line for line in progress if "/" in line)

    def test_allocation_reduced(self, capsys):
        exit_code = main(
            [
                "allocation",
                "--clients", "4",
                "--scale", "0.2",
                "--observe", "5",
                "--managers", "fair", "penelope",
                "--no-cache",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "recovered" in out
