"""Self-tests for the detlint static pass.

Each live rule of DET001-DET009 (DET007 is retired) must be demonstrated
by at least one failing fixture; the suppression machinery (reason + allowlist + DET000) is
exercised end to end; and the real source tree must lint clean — the
same gate CI applies.
"""

from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.cli import main as cli_main
from repro.analysis.linter import load_allowlist

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_fixture(fixtures_dir, name: str, *, with_allowlist: bool = False):
    path = fixtures_dir / name
    allowlist = (load_allowlist(fixtures_dir / "allow.txt")
                 if with_allowlist else set())
    return lint_source(name, path.read_text(), allowlist=allowlist)


def codes_of(findings) -> list[str]:
    return [f.code for f in findings if not f.suppressed]


class TestRuleFixtures:
    def test_det001_wall_clocks(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_wallclock.py")
        assert codes_of(findings) == ["DET001"] * 3
        lines = {f.line for f in findings}
        assert len(lines) == 3  # time.time, perf_counter, datetime.now

    def test_det002_global_random(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_global_random.py")
        assert codes_of(findings) == ["DET002"]

    def test_det003_set_iteration(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_set_iter.py")
        assert codes_of(findings) == ["DET003"] * 3
        messages = " ".join(f.message for f in findings)
        assert "schedules" in messages
        assert "accumulates" in messages

    def test_det004_identity_order(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_id_order.py")
        assert codes_of(findings) == ["DET004"] * 2

    def test_det005_shared_mutable_state(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_mutable_default.py")
        assert codes_of(findings) == ["DET005"] * 4

    def test_det006_unfrozen_messages(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_messages.py")
        assert codes_of(findings) == ["DET006"]
        assert "Envelope" in findings[0].message

    def test_det006_scoped_to_messages_filenames(self, fixtures_dir):
        source = (fixtures_dir / "bad_messages.py").read_text()
        findings = lint_source("ordinary_module.py", source)
        assert codes_of(findings) == []

    def test_det008_wireform_mutation(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_wireform.py")
        assert codes_of(findings) == ["DET008"] * 5
        # copy_first_is_fine (dict(state) untaints), reading_is_fine,
        # and __post_init__ construction must not be flagged.
        lines = {f.line for f in findings}
        assert max(lines) <= 21

    def test_det009_pool_internals(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_internals.py")
        assert codes_of(findings) == ["DET009"] * 5
        # The owner's own self._event_heap access is exempt.
        assert all("'_event_heap'" in f.message for f in findings)

    def test_det009_exempts_the_owning_module(self, fixtures_dir):
        source = (fixtures_dir / "bad_internals.py").read_text()
        findings = lint_source("src/repro/sim/engine.py", source)
        # The event heap is free inside engine.py.
        assert codes_of(findings) == []

    def test_clean_fixture_has_no_findings(self, fixtures_dir):
        assert lint_fixture(fixtures_dir, "good_clean.py") == []

    def test_every_rule_has_a_failing_fixture(self, fixtures_dir):
        demonstrated = set()
        for path in sorted(fixtures_dir.glob("bad_*.py")):
            for finding in lint_source(path.name, path.read_text()):
                demonstrated.add(finding.code)
        expected = {code for code in RULES
                    if code.startswith("DET") and code != "DET000"}
        assert expected <= demonstrated


class TestSuppressions:
    def test_valid_suppression_silences_finding(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "suppressed_ok.py",
                                with_allowlist=True)
        assert codes_of(findings) == []
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 1
        assert suppressed[0].code == "DET002"
        assert "escape hatch" in suppressed[0].suppress_reason

    def test_suppression_requires_allowlist_entry(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "suppressed_ok.py",
                                with_allowlist=False)
        codes = codes_of(findings)
        assert "DET000" in codes   # not allowlisted
        assert "DET002" in codes   # and the finding stays live

    def test_wireform_and_internals_suppressions(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "suppressed_rules.py",
                                with_allowlist=True)
        assert codes_of(findings) == []
        assert sorted(f.code for f in findings if f.suppressed) == [
            "DET008", "DET008", "DET009"]
        for finding in findings:
            assert finding.suppress_reason.startswith("fixture:")

    def test_invalid_suppressions_become_det000(self, fixtures_dir):
        findings = lint_fixture(fixtures_dir, "bad_suppression.py",
                                with_allowlist=True)
        codes = codes_of(findings)
        # missing reason, unknown rule, matches-no-finding.
        assert codes.count("DET000") == 3
        # The reasonless suppression does not silence its target.
        assert "DET002" in codes
        # The wall clock next to the unknown-rule suppression stays live.
        assert "DET001" in codes


class TestRealTree:
    def test_src_lints_clean_with_checked_in_allowlist(self):
        report = lint_paths(
            [REPO_ROOT / "src"],
            allowlist_file=REPO_ROOT / "detlint-allow.txt")
        assert report.files_checked > 50
        assert report.unsuppressed == [], report.render()
        # Exactly the documented exemptions: RngStream's random.Random,
        # SimProfiler's two wall-clock reads, the fleet's six wall-time
        # sites (worker wall_s bookkeeping + runner timeout/speedup
        # accounting) and the serve runner's two tick-pacing reads.
        assert sorted(f.code for f in report.suppressed) == (
            ["DET001"] * 10 + ["DET002"])
        fleet = [f for f in report.suppressed
                 if "fleet" in str(f.path)]
        assert len(fleet) == 6

    def test_cli_exit_codes(self, fixtures_dir, capsys):
        src = str(REPO_ROOT / "src")
        allow = str(REPO_ROOT / "detlint-allow.txt")
        assert cli_main([src, "--allowlist", allow]) == 0
        bad = str(fixtures_dir / "bad_wallclock.py")
        assert cli_main([bad]) == 1
        assert cli_main(["does/not/exist"]) == 2
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "hint:" in out

    def test_cli_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out


class TestRegressionShapes:
    """The exact patterns fixed in this tree must stay detectable."""

    def test_analyzer_involvement_pattern(self):
        source = (
            "def classify(self, remaining):\n"
            "    for r in remaining:\n"
            "        hosts = {r.prober_host, self.host_of(r)}\n"
            "        for host in hosts:\n"
            "            self.involvement[host] += 1\n")
        assert codes_of(lint_source("x.py", source)) == ["DET003"]

    def test_annotated_set_parameter_pattern(self):
        source = (
            "def filter(self, anomalous: set[str]):\n"
            "    for rnic in anomalous:\n"
            "        self.by_host[rnic].add(rnic)\n")
        assert codes_of(lint_source("x.py", source)) == ["DET003"]

    def test_class_level_counter_pattern(self):
        source = (
            "import itertools\n"
            "class Agent:\n"
            "    _seqs = itertools.count(1)\n")
        assert codes_of(lint_source("x.py", source)) == ["DET005"]

    def test_order_independent_set_loop_not_flagged(self):
        source = (
            "def quarantine(self, anomalous: set[str], now: int):\n"
            "    for rnic in anomalous:\n"
            "        self.until[rnic] = max(self.until.get(rnic, 0), now)\n")
        assert codes_of(lint_source("x.py", source)) == []


@pytest.mark.parametrize("name", [
    "bad_wallclock.py", "bad_global_random.py", "bad_set_iter.py",
    "bad_id_order.py", "bad_mutable_default.py", "bad_messages.py",
    "bad_wireform.py", "bad_internals.py", "good_clean.py",
    "suppressed_ok.py", "bad_suppression.py", "suppressed_rules.py",
])
def test_fixture_files_parse(fixtures_dir, name):
    import ast
    ast.parse((fixtures_dir / name).read_text(), filename=name)
