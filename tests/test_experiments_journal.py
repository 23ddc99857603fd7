"""Write-ahead campaign journal: record/replay, corruption handling, and
crash-resumable sweeps.

The acceptance property lives in ``TestCrashResume``: for *every* byte
prefix of a campaign journal (i.e. a SIGKILL at any moment of the
write-ahead stream), ``run_sweep(..., resume=True)`` converges to results
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    TaskFailure,
    replay_journal,
    task_failure_to_dict,
)
from repro.experiments.runner import (
    RetryPolicy,
    TaskKind,
    run_sweep,
    spec_fingerprint,
)

FP_A = "a" * 64
FP_B = "b" * 64


# -- task kinds (module-level: picklable by the pool) ------------------------


@dataclass(frozen=True)
class PlainSpec:
    """Pure function of its value -- safe to re-run at any truncation."""

    value: int


def run_plain(spec: PlainSpec) -> dict:
    return {"value": spec.value, "square": spec.value * spec.value}


PLAIN = TaskKind("plain", run_plain, PlainSpec, dict)

PLAIN_SPECS = [PlainSpec(i) for i in range(3)]


@dataclass(frozen=True)
class CountSpec:
    """Counts its executions in a marker file (idempotence probe)."""

    value: int
    marker_dir: str


def executions(spec: CountSpec) -> int:
    marker = Path(spec.marker_dir) / f"{spec.value}.count"
    return int(marker.read_text()) if marker.exists() else 0


def run_count(spec: CountSpec) -> dict:
    marker = Path(spec.marker_dir) / f"{spec.value}.count"
    marker.write_text(str(executions(spec) + 1))
    return {"value": spec.value}


COUNT = TaskKind("count", run_count, CountSpec, dict)


def run_poisoned(spec: CountSpec) -> dict:
    run_count(spec)
    raise RuntimeError("poisoned spec")


POISONED = TaskKind("poisoned", run_poisoned, CountSpec, dict)


def canonical(results) -> str:
    return json.dumps(results, sort_keys=True)


# -- the journal file itself --------------------------------------------------


class TestJournalRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, "single", "s1", 4) as journal:
            journal.record_submitted(FP_A, 0, 0)
            journal.record_done(FP_A, 0, {"ok": 1})
            journal.record_submitted(FP_B, 1, 0)
            journal.record_failed(FP_B, 1, 0, "exception", "RuntimeError", "boom")
        replay = replay_journal(path)
        assert [c["kind"] for c in replay.campaigns] == ["single"]
        assert replay.campaigns[0]["salt"] == "s1"
        assert replay.campaigns[0]["total"] == 4
        assert replay.done == {FP_A: {"ok": 1}}
        assert replay.quarantined == {}
        assert replay.submitted == {}  # failed cleared B's hand-off
        assert replay.records == 5

    def test_submitted_without_outcome_is_in_flight(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_submitted(FP_A, 0, 2)
        assert replay_journal(path).submitted == {FP_A: 2}

    def test_quarantined_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        failure = TaskFailure(
            kind="single", fingerprint=FP_A, index=0, reason="exception",
            error_type="RuntimeError", message="boom", attempts=3,
        )
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_submitted(FP_A, 0, 2)
            journal.record_quarantined(failure)
        replay = replay_journal(path)
        assert replay.quarantined == {FP_A: task_failure_to_dict(failure)}
        assert replay.submitted == {}

    def test_done_supersedes_quarantine(self, tmp_path):
        # A later campaign may finish a spec an earlier one quarantined;
        # the latest state wins.
        path = tmp_path / "j.jsonl"
        failure = TaskFailure(
            kind="single", fingerprint=FP_A, index=0, reason="timeout",
            error_type="TaskTimeout", message="slow", attempts=3,
        )
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_quarantined(failure)
            journal.record_done(FP_A, 0, {"ok": 1})
        replay = replay_journal(path)
        assert replay.done == {FP_A: {"ok": 1}}
        assert replay.quarantined == {}

    def test_multiple_campaigns_append(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_done(FP_A, 0, {"ok": 1})
        with CampaignJournal.open(path, "scaling", "x", 2) as journal:
            journal.record_done(FP_B, 0, {"ok": 2})
        replay = replay_journal(path)
        assert [c["kind"] for c in replay.campaigns] == ["single", "scaling"]
        assert replay.done == {FP_A: {"ok": 1}, FP_B: {"ok": 2}}

    def test_write_after_close_rejected(self, tmp_path):
        journal = CampaignJournal.open(tmp_path / "j.jsonl", "single", "", 1)
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.record_submitted(FP_A, 0, 0)
        journal.close()  # idempotent

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "er" / "j.jsonl"
        CampaignJournal.open(path, "single", "", 0).close()
        assert path.exists()


class TestReplayCorruption:
    def test_missing_file_is_empty(self, tmp_path):
        replay = replay_journal(tmp_path / "absent.jsonl")
        assert replay.records == 0
        assert replay.done == {} and replay.campaigns == []

    def test_empty_file_is_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        assert replay_journal(path).records == 0

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_done(FP_A, 0, {"ok": 1})
        with path.open("a") as handle:
            handle.write('{"event": "done", "finge')  # crash mid-write
        replay = replay_journal(path)
        assert replay.done == {FP_A: {"ok": 1}}
        assert replay.records == 2

    def test_open_trims_the_torn_tail_before_appending(self, tmp_path):
        # Appending straight after a torn tail would fuse it with the new
        # campaign header into a corrupt *middle* line; open() trims it.
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_done(FP_A, 0, {"ok": 1})
        with path.open("a") as handle:
            handle.write('{"event": "done", "finge')
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_done(FP_B, 1, {"ok": 2})
        replay = replay_journal(path)
        assert replay.done == {FP_A: {"ok": 1}, FP_B: {"ok": 2}}
        assert len(replay.campaigns) == 2

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal.open(path, "single", "", 1) as journal:
            journal.record_done(FP_A, 0, {"ok": 1})
        lines = path.read_text().splitlines()
        lines.insert(1, "not json {{{")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="undecodable line 2"):
            replay_journal(path)

    def test_records_without_header_raise(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"event": "done", "fingerprint": FP_A, "index": 0,
                        "result": {}}) + "\n"
        )
        with pytest.raises(ValueError, match="no header"):
            replay_journal(path)

    def test_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"event": "campaign", "journal": "other/9",
                        "kind": "x", "salt": "", "total": 0}) + "\n"
        )
        with pytest.raises(ValueError, match=JOURNAL_FORMAT.split("/")[0]):
            replay_journal(path)

    def test_unknown_event_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignJournal.open(path, "single", "", 0).close()
        with path.open("a") as handle:
            handle.write(json.dumps({"event": "vanished"}) + "\n")
            handle.write(json.dumps({"event": "campaign",
                                     "journal": JOURNAL_FORMAT}) + "\n")
        with pytest.raises(ValueError, match="unknown event"):
            replay_journal(path)

    def test_non_record_line_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignJournal.open(path, "single", "", 0).close()
        with path.open("a") as handle:
            handle.write("[1, 2, 3]\n")
            handle.write(json.dumps({"event": "campaign",
                                     "journal": JOURNAL_FORMAT}) + "\n")
        with pytest.raises(ValueError, match="not a record"):
            replay_journal(path)


# -- journaled sweeps and resume ---------------------------------------------


class TestResume:
    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="requires a journal"):
            run_sweep(PLAIN_SPECS, kind=PLAIN, resume=True)

    def test_clean_run_journals_every_spec(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_sweep(PLAIN_SPECS, kind=PLAIN, jobs=1, journal=journal)
        replay = replay_journal(journal)
        assert set(replay.done) == {
            spec_fingerprint(spec, PLAIN) for spec in PLAIN_SPECS
        }
        assert replay.submitted == {}

    def test_resume_is_idempotent(self, tmp_path):
        specs = [CountSpec(i, str(tmp_path)) for i in range(3)]
        journal = tmp_path / "j.jsonl"
        first = run_sweep(specs, kind=COUNT, jobs=1, journal=journal)
        again = run_sweep(specs, kind=COUNT, jobs=1, journal=journal, resume=True)
        assert again == first
        # Nothing re-executed; the journal only gained a fresh header.
        assert all(executions(spec) == 1 for spec in specs)
        replay = replay_journal(journal)
        assert len(replay.campaigns) == 2
        assert len(replay.done) == 3

    def test_resume_restores_quarantined_without_rerun(self, tmp_path):
        specs = [CountSpec(0, str(tmp_path))]
        journal = tmp_path / "j.jsonl"
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001)
        first = run_sweep(
            specs, kind=POISONED, jobs=1, journal=journal, retry=policy
        )
        assert isinstance(first[0], TaskFailure)
        assert executions(specs[0]) == 2
        again = run_sweep(
            specs, kind=POISONED, jobs=1, journal=journal, resume=True,
            retry=policy,
        )
        assert again == first
        assert executions(specs[0]) == 2  # quarantine restored, not re-run

    def test_resume_repopulates_the_cache(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_sweep(PLAIN_SPECS, kind=PLAIN, jobs=1, journal=journal)
        cache_dir = tmp_path / "cache"
        run_sweep(
            PLAIN_SPECS, kind=PLAIN, jobs=1, journal=journal, resume=True,
            cache_dir=cache_dir,
        )
        cached = sorted(p.name for p in (cache_dir / "plain").iterdir())
        assert cached == sorted(
            f"{spec_fingerprint(spec, PLAIN)}.json" for spec in PLAIN_SPECS
        )

    def test_cache_hits_are_journaled(self, tmp_path):
        # The journal alone must reconstruct the campaign even when every
        # spec came from the result cache.
        cache_dir = tmp_path / "cache"
        run_sweep(PLAIN_SPECS, kind=PLAIN, jobs=1, cache_dir=cache_dir)
        journal = tmp_path / "j.jsonl"
        run_sweep(
            PLAIN_SPECS, kind=PLAIN, jobs=1, cache_dir=cache_dir,
            journal=journal,
        )
        assert len(replay_journal(journal).done) == len(PLAIN_SPECS)


# -- crash at every point of the write-ahead stream --------------------------


def _clean_campaign(tmp_path):
    """One uninterrupted journaled run: (journal bytes, canonical results)."""
    journal = tmp_path / "clean.jsonl"
    results = run_sweep(PLAIN_SPECS, kind=PLAIN, jobs=1, journal=journal)
    return journal.read_bytes(), canonical(results)


def _resume_from_prefix(tmp_path, data: bytes, cut: int, tag: str) -> str:
    truncated = tmp_path / f"cut-{tag}.jsonl"
    truncated.write_bytes(data[:cut])
    results = run_sweep(
        PLAIN_SPECS, kind=PLAIN, jobs=1, journal=truncated, resume=True
    )
    return canonical(results)


class TestCrashResume:
    def test_resume_at_every_byte_offset_is_byte_identical(self, tmp_path):
        # A SIGKILL can land between any two bytes of the journal; every
        # prefix must resume to the same results as the clean campaign.
        data, want = _clean_campaign(tmp_path)
        for cut in range(len(data) + 1):
            assert _resume_from_prefix(tmp_path, data, cut, str(cut)) == want

    @settings(max_examples=30, deadline=None)
    @given(point=st.integers(min_value=0))
    def test_double_crash_still_converges(self, point):
        # Crash, resume, crash again mid-resume, resume again: the journal
        # only ever grows, so the second resume still converges.
        import tempfile

        with tempfile.TemporaryDirectory() as raw:
            tmp_path = Path(raw)
            data, want = _clean_campaign(tmp_path)
            first_cut = point % (len(data) + 1)
            truncated = tmp_path / "twice.jsonl"
            truncated.write_bytes(data[:first_cut])
            run_sweep(
                PLAIN_SPECS, kind=PLAIN, jobs=1, journal=truncated,
                resume=True,
            )
            grown = truncated.read_bytes()
            second_cut = max(first_cut, (point * 7919) % (len(grown) + 1))
            truncated.write_bytes(grown[:second_cut])
            results = run_sweep(
                PLAIN_SPECS, kind=PLAIN, jobs=1, journal=truncated,
                resume=True,
            )
            assert canonical(results) == want
