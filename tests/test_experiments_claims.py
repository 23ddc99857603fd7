"""The paper-claims table: its tier-1 rows, its shape and ``repro claims``.

The tier-1 rows (§4.2 and Figs. 2/3) run here at the bench size on every
seed they name; the whole table runs in CI (``repro claims --no-cache``),
which also diffs its output against the copy in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import claims
from repro.experiments.claims import (
    CLAIMS,
    EXPERIMENTS,
    HEADER,
    KINDS,
    Band,
    Claim,
    run_claims,
)

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
TIER1 = [claim for claim in CLAIMS if claim.tier1]


def published_table():
    """The lines between EXPERIMENTS.md's claims markers, fences dropped."""
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    block = text.split("<!-- claims:begin -->")[1].split("<!-- claims:end -->")[0]
    return [line for line in block.strip().splitlines() if not line.startswith("```")]


@pytest.fixture(scope="module")
def tier1_verdicts():
    return run_claims("bench", TIER1)


class TestTier1Rows:
    def test_cover_overhead_and_figs_2_3_on_three_seeds(self):
        assert {claim.experiment for claim in TIER1} == {"overhead", "nominal", "faulty"}
        assert all(len(claim.seeds["bench"]) >= 3 for claim in TIER1)

    def test_every_row_passes(self, tier1_verdicts):
        failed = [verdict.line() for verdict in tier1_verdicts if not verdict.passed]
        assert not failed, "\n".join(failed)

    def test_lines_match_the_published_table(self, tier1_verdicts):
        published = published_table()
        for verdict in tier1_verdicts:
            assert verdict.line() in published


class TestTable:
    def test_ids_are_unique(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_rows_name_known_experiments_and_kinds(self):
        for claim in CLAIMS:
            assert claim.experiment in EXPERIMENTS, claim.id
            assert claim.kind in KINDS, claim.id

    def test_seeds_per_size(self):
        for claim in CLAIMS:
            bench, paper = claim.seeds["bench"], claim.seeds["paper"]
            # The seed the replaced check asserted on stays in the bench run.
            assert paper[0] in bench, claim.id
            assert len(bench) >= 2, claim.id

    def test_published_table_lists_every_row_in_order(self):
        published = published_table()
        assert published[0] == HEADER
        assert [line.split()[0] for line in published[1:]] == [c.id for c in CLAIMS]
        assert all(line.endswith("PASS") for line in published[1:])


class TestBand:
    def test_closed_band_includes_its_edges(self):
        band = Band(0.012, 0.04)
        assert band.holds(0.012) and band.holds(0.04)
        assert not band.holds(0.011)
        assert str(band) == "[0.012, 0.04]"

    def test_strict_band_excludes_its_edges(self):
        band = Band(1.0, strict=True)
        assert not band.holds(1.0)
        assert band.holds(1.0001)
        assert str(band) == "(1, inf)"

    def test_nan_never_holds(self):
        assert not Band().holds(math.nan)

    def test_paper_band_overrides_at_paper_size_only(self):
        claim = next(c for c in CLAIMS if c.paper_band is not None)
        assert claim.band_at("bench") == claim.band
        assert claim.band_at("paper") == claim.paper_band

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            run_claims("huge", [])


def seed_claim(claim_id: str, band: Band) -> Claim:
    """A row whose experiment returns its seed."""
    return Claim(
        claim_id, "Fig. 0", "n/a", "paper", "seed", float, band,
        {"bench": (0, 1, 2), "paper": (0,)},
    )


class TestCommand:
    @pytest.fixture(autouse=True)
    def seed_experiment(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "seed", lambda paper, seed, runner: seed)

    def test_verdict_is_on_the_mean_and_the_range_is_printed(self):
        (verdict,) = run_claims("bench", [seed_claim("t.mean", Band(0.5, 1.5))])
        assert verdict.values == (0.0, 1.0, 2.0)
        assert verdict.passed
        assert "0 .. 2" in verdict.line()

    def test_paper_size_runs_the_paper_seeds(self):
        (verdict,) = run_claims("paper", [seed_claim("t.paper", Band(0.0, 0.0))])
        assert verdict.values == (0.0,)

    def test_exit_code_follows_the_verdicts(self, monkeypatch, capsys):
        monkeypatch.setattr(claims, "CLAIMS", (seed_claim("t.pass", Band(0.0, 2.0)),))
        assert main(["claims", "--no-cache"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("PASS")
        monkeypatch.setattr(claims, "CLAIMS", (seed_claim("t.fail", Band(5.0, 6.0)),))
        assert main(["claims", "--no-cache"]) == 1
        assert capsys.readouterr().out.splitlines()[-1].endswith("FAIL")
