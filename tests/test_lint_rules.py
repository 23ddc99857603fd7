"""Per-rule analyzer tests against the fixture snippets.

Every rule has a known-bad fixture asserting the *exact* (rule, line)
pairs reported and a known-good fixture asserting silence, so a rule
that drifts (new false positive, lost detection) fails here with the
precise location that changed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_file, lint_paths
from repro.lint.findings import PARSE_ERROR_RULE
from repro.lint.registry import all_rules, get_rules
from repro.lint.rules.r11_future_timeouts import FutureTimeoutRule
from repro.lint.runner import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parents[1]

#: R7 (scheduler drain order) is retired; the later ids keep their numbers.
ALL_RULE_IDS = [f"R{n}" for n in range(1, 12) if n != 7]


def findings_for(name: str, rule_ids=None, config=None):
    rules = get_rules(rule_ids)
    return lint_file(FIXTURES / name, rules, config or LintConfig())


def rule_lines(findings, rule_id: str):
    return [f.line for f in findings if f.rule_id == rule_id]


def project_report(tree: str, rule_ids=None, config=None):
    return lint_paths(
        [FIXTURES / tree],
        rule_ids=rule_ids,
        config=config or LintConfig(),
        project=True,
    )


def located(report, rule_id: str):
    """``(path-inside-the-fixture-package, line)`` pairs for one rule."""
    return [
        (f.path.split("/repro/", 1)[1], f.line)
        for f in report.findings
        if f.rule_id == rule_id
    ]


class TestRegistry:
    def test_rules_registered_in_numeric_order(self):
        # Numeric, not lexicographic: R10 sorts after R9, not after R1.
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ALL_RULE_IDS

    def test_project_rules_marked(self):
        by_id = {rule.rule_id: rule for rule in all_rules()}
        assert {r for r, rule in by_id.items() if rule.requires_project} == {
            "R8",
            "R9",
            "R10",
            "R11",
        }

    def test_rules_carry_documentation(self):
        for rule in all_rules():
            assert rule.name and rule.summary and rule.invariant

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(KeyError):
            get_rules(["R99"])


class TestR1WallClock:
    def test_bad_fixture_exact_lines(self):
        findings = findings_for("r1_bad.py", ["R1"])
        assert rule_lines(findings, "R1") == [11, 15, 19, 23, 27, 31, 35]
        assert all(f.path.endswith("fixtures/lint/r1_bad.py") for f in findings)

    def test_good_fixture_silent(self):
        assert findings_for("r1_good.py", ["R1"]) == []

    def test_message_names_the_call(self):
        (first, *_) = findings_for("r1_bad.py", ["R1"])
        assert "time.time()" in first.message


class TestR2RngStreams:
    def test_bad_fixture_exact_lines(self):
        findings = findings_for("r2_bad.py", ["R2"])
        assert rule_lines(findings, "R2") == [9, 13, 17, 21, 25, 29]

    def test_good_fixture_silent(self):
        assert findings_for("r2_good.py", ["R2"]) == []

    def test_annotations_not_flagged(self):
        # np.random.Generator in a signature is a type, not a construction.
        findings = findings_for("r2_good.py", ["R2"])
        assert findings == []


class TestR3SetIteration:
    def test_bad_fixture_exact_lines(self):
        findings = findings_for("r3_bad.py", ["R3"])
        assert rule_lines(findings, "R3") == [10, 15, 21, 25, 30, 38, 43]

    def test_good_fixture_silent(self):
        assert findings_for("r3_good.py", ["R3"]) == []


class TestR4FrozenMessages:
    def test_bad_fixture_exact_lines(self):
        findings = findings_for("r4_bad.py", ["R4"])
        assert rule_lines(findings, "R4") == [9, 14, 19, 23]

    def test_good_fixture_silent(self):
        assert findings_for("r4_good.py", ["R4"]) == []

    def test_class_findings_name_the_class(self):
        findings = findings_for("r4_bad.py", ["R4"])
        assert "UnfrozenPing" in findings[0].message
        assert "BarePing" in findings[1].message


class TestR5LedgerMutation:
    def test_bad_fixture_exact_lines(self):
        findings = findings_for("r5_bad.py", ["R5"])
        assert rule_lines(findings, "R5") == [5, 9, 13, 17, 21]

    def test_good_fixture_silent(self):
        assert findings_for("r5_good.py", ["R5"]) == []

    def test_audited_module_exempt(self):
        # The audited mutators themselves must not self-flag.
        pool = REPO_ROOT / "src" / "repro" / "core" / "pool.py"
        assert lint_file(pool, get_rules(["R5"]), LintConfig()) == []


class TestR6CallbackNames:
    def test_bad_fixture_exact_lines(self):
        findings = findings_for("r6_bad.py", ["R6"])
        assert rule_lines(findings, "R6") == [7, 11]

    def test_good_fixture_silent(self):
        assert findings_for("r6_good.py", ["R6"]) == []


class TestR8Layering:
    def test_bad_tree_exact_locations(self):
        report = project_report("project_r8", ["R8"])
        assert located(report, "R8") == [
            ("core/direct.py", 5),  # imports repro.sim.engine
            ("core/direct.py", 6),  # imports repro.sim._stop
            ("core/direct.py", 7),  # imports up-rank into cluster
            ("core/direct.py", 18),  # engine._now
            ("core/direct.py", 21),  # self.engine._queue
            ("net/uplink.py", 3),  # imports up-rank into core
        ]

    def test_messages_name_the_violation_kind(self):
        report = project_report("project_r8", ["R8"])
        messages = [f.message for f in report.findings]
        assert "substrate leak" in messages[0]
        assert "layer violation" in messages[2]
        assert "engine internals access ._now" in messages[3]

    def test_good_tree_silent(self):
        # Facade imports, engine.now, TYPE_CHECKING imports and the
        # composition root's direct engine access are all legal.
        assert project_report("project_r8_good").ok

    def test_type_checking_imports_exempt(self):
        # The bad tree's `if TYPE_CHECKING: from repro.sim.process ...`
        # must not appear among the findings.
        report = project_report("project_r8", ["R8"])
        assert all(f.line != 10 for f in report.findings)

    def test_non_project_run_skips_rule(self):
        report = lint_paths([FIXTURES / "project_r8"])
        assert report.ok
        assert "R8" not in report.rules_run


class TestR9Protocol:
    def test_bad_tree_exact_locations(self):
        report = project_report("project_r9", ["R9"])
        assert located(report, "R9") == [
            ("core/node.py", 9),  # Orphan sent, never handled
            ("core/node.py", 16),  # Ghost handled, never constructed
            ("core/node.py", 22),  # kind == "Typo"
            ("net/messages.py", 37),  # Unencoded missing from codec
        ]

    def test_messages_name_the_types(self):
        report = project_report("project_r9", ["R9"])
        messages = [f.message for f in report.findings]
        assert "Orphan" in messages[0] and "no module handles it" in messages[0]
        assert "Ghost" in messages[1] and "dead handler arm" in messages[1]
        assert "'Typo'" in messages[2]
        assert "Unencoded" in messages[3] and "codec" in messages[3]

    def test_live_types_silent(self):
        # Ping (isinstance-handled) and Pong (kind-literal-handled) are
        # fully live and codec-covered: no finding may mention them.
        report = project_report("project_r9", ["R9"])
        for finding in report.findings:
            assert "Ping" not in finding.message
            assert "Pong" not in finding.message

    def test_codec_check_skipped_without_serialize_module(self):
        # project_r8 has messages-free modules and no serialize.py: the
        # codec surface is absent, so R9 must not invent codec findings.
        report = project_report("project_r8", ["R9"])
        assert report.ok


class TestR10StreamGraph:
    def test_bad_tree_exact_locations(self):
        report = project_report("project_r10", ["R10"])
        assert located(report, "R10") == [
            ("cluster/boot.py", 7),  # foreign draw via module constant
            ("cluster/boot.py", 9),  # unregistered template
            ("cluster/boot.py", 10),  # dynamic name, unresolvable
            ("sim/streams.py", 25),  # node.{} collides with node.{}.power
        ]

    def test_messages_name_the_check(self):
        report = project_report("project_r10", ["R10"])
        messages = [f.message for f in report.findings]
        assert "foreign draw" in messages[0] and "'net.latency'" in messages[0]
        assert "unregistered stream" in messages[1]
        assert "not statically resolvable" in messages[2]
        assert "manifest collision" in messages[3] and "line 20" in messages[3]

    def test_owner_and_fstring_draws_silent(self):
        # net.latency from repro/net/ and the f-string draw matching the
        # node.{}.power template are both clean.
        report = project_report("project_r10", ["R10"])
        assert all(f.line != 8 for f in report.findings)
        assert not any("fabric.py" in f.path for f in report.findings)


class TestR11FutureTimeouts:
    def test_bad_fixture_exact_lines(self):
        report = project_report("project_r11", ["R11"])
        assert located(report, "R11") == [
            ("experiments/pool.py", 10),  # bare wait()
            ("experiments/pool.py", 11),  # bare as_completed()
            ("experiments/pool.py", 12),  # bare .result()
        ]

    def test_timeout_carrying_calls_silent(self):
        # harvest_good passes timeouts (keyword and positional) -- every
        # finding must come from harvest_bad (lines 10-12).
        report = project_report("project_r11", ["R11"])
        assert all(f.line <= 12 for f in report.findings)

    def test_messages_name_the_call(self):
        report = project_report("project_r11", ["R11"])
        messages = [f.message for f in report.findings]
        assert "wait()" in messages[0]
        assert "as_completed()" in messages[1]
        assert ".result()" in messages[2]

    def test_scoped_to_experiments_layer(self):
        # The same bare calls outside repro/experiments are not R11's
        # business (the executor owns the bounded-harvest invariant).
        assert FutureTimeoutRule.scope == ("repro/experiments",)
        assert FutureTimeoutRule.requires_project is True


class TestProjectSuppressions:
    """Inline ``# lint: allow[Rn]`` interacting with project rules."""

    def test_only_unsuppressed_findings_survive(self):
        report = project_report("project_suppress")
        keyed = [
            (f.rule_id, f.path.split("/repro/", 1)[1], f.line)
            for f in report.findings
        ]
        assert keyed == [
            ("R9", "core/node.py", 14),
            ("R10", "core/node.py", 26),
            ("R3", "sim/drain.py", 7),
        ]

    def test_send_site_suppression_is_per_site(self):
        # Line 13's allow[R9] silences that send only; the second Orphan
        # send (line 14) still fires.
        report = project_report("project_suppress", ["R9"])
        assert located(report, "R9") == [("core/node.py", 14)]

    def test_handler_site_suppression(self):
        # The Ghost dead-handler arm is suppressed by the comment-above
        # form: no R9 finding may anchor inside handle().
        report = project_report("project_suppress", ["R9"])
        assert all(f.line not in (19, 20) for f in report.findings)

    def test_wrong_rule_comment_does_not_suppress(self):
        # Line 26 carries allow[R2]; R10 must still fire there.
        report = project_report("project_suppress", ["R10"])
        assert located(report, "R10") == [("core/node.py", 26)]

    def test_file_rule_scope_still_applies_in_project_mode(self):
        # Identical set iteration outside R3's scope prefix
        # (analysis/drain.py) is silent, with or without suppressions.
        report = project_report("project_suppress", ["R3"])
        assert located(report, "R3") == [("sim/drain.py", 7)]

    def test_config_allowlist_covers_project_rules(self):
        config = LintConfig(allow={"R9": ("core/node.py",)})
        report = project_report("project_suppress", config=config)
        assert [f.rule_id for f in report.findings] == ["R10", "R3"]

    def test_disabled_project_rule(self):
        config = LintConfig(disabled=frozenset({"R9", "R10"}))
        report = project_report("project_suppress", config=config)
        assert [f.rule_id for f in report.findings] == ["R3"]


class TestIterPythonFiles:
    """Overlapping scan arguments must never scan a file twice."""

    def test_dir_plus_nested_dir(self):
        tree = FIXTURES / "project_r8"
        once = list(iter_python_files([tree]))
        overlapped = list(iter_python_files([tree, tree / "repro" / "core"]))
        assert overlapped == once
        resolved = [p.resolve() for p in overlapped]
        assert len(resolved) == len(set(resolved))

    def test_file_plus_containing_dir(self):
        tree = FIXTURES / "project_r8"
        target = tree / "repro" / "core" / "direct.py"
        files = list(iter_python_files([target, tree]))
        hits = [p for p in files if p.resolve() == target.resolve()]
        assert len(hits) == 1

    def test_same_path_twice(self):
        tree = FIXTURES / "project_r8"
        assert list(iter_python_files([tree, tree])) == list(
            iter_python_files([tree])
        )

    def test_relative_and_absolute_spellings(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        relative = Path("project_r8")
        files = list(iter_python_files([relative, relative.resolve()]))
        resolved = [p.resolve() for p in files]
        assert len(resolved) == len(set(resolved))
        assert resolved == [p.resolve() for p in iter_python_files([relative])]

    def test_files_scanned_counts_unique_files(self):
        tree = FIXTURES / "project_r8"
        report = lint_paths([tree, tree / "repro" / "core"], project=True)
        assert report.files_scanned == len(list(iter_python_files([tree])))


class TestAllowlists:
    def test_inline_suppressions(self):
        findings = findings_for("allowlist_inline.py")
        # Suppressed: trailing comment (7), comment-above (12), and the
        # multi-rule comment (25, both R1 and R5).  A comment naming the
        # wrong rule does not suppress (16).
        assert rule_lines(findings, "R1") == [16, 20]
        assert rule_lines(findings, "R5") == []

    def test_config_path_allowlist(self):
        config = LintConfig(allow={"R1": ("lint/allowlist_inline.py",)})
        findings = findings_for("allowlist_inline.py", config=config)
        assert rule_lines(findings, "R1") == []

    def test_config_allowlist_is_per_rule(self):
        config = LintConfig(allow={"R5": ("lint/allowlist_inline.py",)})
        findings = findings_for("allowlist_inline.py", config=config)
        assert rule_lines(findings, "R1") == [16, 20]

    def test_disabled_rule(self):
        config = LintConfig(disabled=frozenset({"R1"}))
        findings = findings_for("allowlist_inline.py", config=config)
        assert findings == []


class TestParseErrors:
    def test_broken_file_reported_not_raised(self):
        findings = findings_for("broken.py")
        assert [f.rule_id for f in findings] == [PARSE_ERROR_RULE]
        assert findings[0].line == 3


class TestSelfScan:
    def test_source_tree_is_clean(self):
        """Per-file acceptance criterion: `repro lint src` finds nothing."""
        report = lint_paths([REPO_ROOT / "src"])
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.ok, f"lint findings in src/:\n{formatted}"
        assert report.files_scanned > 70
        # Without --project the cross-file rules are skipped and honestly
        # left out of rules_run.
        assert list(report.rules_run) == ["R1", "R2", "R3", "R4", "R5", "R6"]

    def test_source_tree_is_clean_in_project_mode(self):
        """Whole-program acceptance criterion: `repro lint --project src`
        exits clean -- the layer DAG holds, the protocol surface is
        closed, and every stream draw matches the manifest."""
        report = lint_paths([REPO_ROOT / "src"], project=True)
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.ok, f"project-mode findings in src/:\n{formatted}"
        assert list(report.rules_run) == ALL_RULE_IDS
