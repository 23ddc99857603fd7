"""Smoke tests: every example script runs clean end to end.

``scale_stress.py`` is excluded here (it sweeps frequencies for a minute+)
but the scaling rows of ``repro claims`` (``fig4.*`` to ``fig8.*``) cover
the same code.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "fault_tolerance.py",
    "urgency_demo.py",
    "custom_workload.py",
    "ha_failover.py",
    "record_and_replay.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{script} produced no output"


def test_all_examples_are_listed():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert set(FAST_EXAMPLES) | {"scale_stress.py"} == on_disk


class TestExampleOutputs:
    """Spot-check that the examples tell the stories they promise."""

    def run(self, script):
        return subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / script)],
            capture_output=True,
            text=True,
            timeout=180,
        ).stdout

    def test_quickstart_shows_speedups_and_audit(self):
        out = self.run("quickstart.py")
        assert "penelope" in out and "slurm" in out
        assert "constraints hold: budget=True, safe-caps=True" in out

    def test_fault_tolerance_shows_advantage(self):
        out = self.run("fault_tolerance.py")
        assert "Penelope's advantage over SLURM under faults" in out

    def test_urgency_demo_shows_faster_recovery(self):
        out = self.run("urgency_demo.py")
        assert "with urgency" in out and "WITHOUT urgency" in out

    def test_ha_failover_lists_all_four_systems(self):
        out = self.run("ha_failover.py")
        for system in ("fair", "slurm", "slurm-ha", "penelope"):
            assert system in out
