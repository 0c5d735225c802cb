"""Machine-readable output (--format json|sarif) + allowlist audit."""

import json
from pathlib import Path

from repro.analysis import audit_allowlist
from repro.analysis.cli import main as cli_main
from repro.analysis.findings import RULES
from repro.analysis.linter import LintReport, lint_paths, load_allowlist, \
    lint_source
from repro.analysis.output import report_payload, sarif_payload, to_json, \
    to_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture_report(fixtures_dir, names, *, with_allowlist=False):
    allowlist = (load_allowlist(fixtures_dir / "allow.txt")
                 if with_allowlist else set())
    report = LintReport()
    for name in names:
        source = (fixtures_dir / name).read_text()
        report.findings.extend(
            lint_source(name, source, allowlist=allowlist))
        report.files_checked += 1
    return report


class TestJsonFormat:
    def test_schema_and_content(self, fixtures_dir):
        report = fixture_report(fixtures_dir,
                                ["bad_internals.py", "bad_wallclock.py"])
        doc = json.loads(to_json(report))
        assert doc["tool"] == "detlint"
        assert doc["files_checked"] == 2
        assert doc["summary"]["findings"] == len(doc["findings"])
        assert doc["summary"]["by_code"] == {"DET001": 3, "DET009": 5}
        for entry in doc["findings"]:
            assert set(entry) == {"code", "path", "line", "col", "message",
                                  "hint", "suppressed", "suppress_reason"}
            assert entry["hint"] == RULES[entry["code"]].hint

    def test_stable_ordering(self, fixtures_dir):
        # Same files in either scan order -> byte-identical documents.
        names = ["bad_wallclock.py", "bad_internals.py"]
        a = fixture_report(fixtures_dir, names)
        b = fixture_report(fixtures_dir, list(reversed(names)))
        assert (report_payload(a)["findings"]
                == report_payload(b)["findings"])
        keys = [(f["path"], f["line"], f["col"], f["code"])
                for f in report_payload(a)["findings"]]
        assert keys == sorted(keys)

    def test_suppressed_findings_carry_reason(self, fixtures_dir):
        report = fixture_report(fixtures_dir, ["suppressed_rules.py"],
                                with_allowlist=True)
        doc = json.loads(to_json(report))
        assert doc["summary"]["findings"] == 0
        assert doc["summary"]["suppressed"] == 3
        assert all(f["suppressed"] and f["suppress_reason"]
                   for f in doc["findings"])


class TestSarifFormat:
    def test_sarif_shape(self, fixtures_dir):
        report = fixture_report(fixtures_dir, ["bad_internals.py"])
        doc = json.loads(to_sarif(report))
        assert doc["version"] == "2.1.0"
        assert "sarif-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "detlint"
        # Every catalogue rule is declared, and every result's ruleIndex
        # resolves back to its own rule id.
        assert [r["id"] for r in driver["rules"]] == sorted(RULES)
        for result in run["results"]:
            assert driver["rules"][result["ruleIndex"]]["id"] \
                == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_sarif_suppressions(self, fixtures_dir):
        report = fixture_report(fixtures_dir, ["suppressed_rules.py"],
                                with_allowlist=True)
        doc = sarif_payload(report)
        results = doc["runs"][0]["results"]
        assert len(results) == 3
        for result in results:
            (sup,) = result["suppressions"]
            assert sup["kind"] == "inSource"
            assert sup["justification"]

    def test_clean_tree_sarif_has_only_suppressed_results(self):
        report = lint_paths(
            [REPO_ROOT / "src"],
            allowlist_file=REPO_ROOT / "detlint-allow.txt")
        doc = sarif_payload(report)
        assert all("suppressions" in r for r in doc["runs"][0]["results"])


class TestAllowlistAudit:
    def test_real_allowlist_is_fully_backed(self):
        audit = audit_allowlist(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks",
             REPO_ROOT / "examples"],
            allowlist_file=REPO_ROOT / "detlint-allow.txt")
        assert audit.ok, audit.render()
        assert audit.entries >= 10
        assert "OK" in audit.render()

    def test_stale_entry_is_reported_with_fix_listing(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import random  # detlint: disable=DET002 test exemption\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("mod.py:DET002\n"
                         "# a comment line\n"
                         "ghost.py:DET001\n")
        audit = audit_allowlist([tmp_path], allowlist_file=allow)
        assert not audit.ok
        assert audit.entries == 2
        assert audit.stale == [(3, "ghost.py:DET001")]
        rendered = audit.render()
        assert "delete" in rendered
        assert "ghost.py:DET001" in rendered

    def test_removing_the_comment_makes_the_entry_stale(self, tmp_path):
        allow = tmp_path / "allow.txt"
        allow.write_text("mod.py:DET002\n")
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import random  # detlint: disable=DET002 test exemption\n")
        assert audit_allowlist([tmp_path], allowlist_file=allow).ok
        mod.write_text("VALUE = 1\n")
        audit = audit_allowlist([tmp_path], allowlist_file=allow)
        assert audit.stale == [(1, "mod.py:DET002")]

    def test_missing_allowlist_is_ok(self, tmp_path):
        (tmp_path / "mod.py").write_text("VALUE = 1\n")
        audit = audit_allowlist(
            [tmp_path], allowlist_file=tmp_path / "nope.txt")
        assert audit.ok
        assert audit.entries == 0


class TestCliFormats:
    def test_json_exit_code_and_parseability(self, fixtures_dir, capsys):
        bad = str(fixtures_dir / "bad_internals.py")
        assert cli_main([bad, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["by_code"] == {"DET009": 5}

    def test_sarif_stdout_is_pure_json_with_audit_on_stderr(
            self, capsys):
        src = str(REPO_ROOT / "src")
        allow = str(REPO_ROOT / "detlint-allow.txt")
        code = cli_main([src, "--format", "sarif",
                         "--allowlist", allow, "--audit-allowlist"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # would raise if audit leaked in
        assert doc["version"] == "2.1.0"
        assert "allowlist audit" in captured.err
        # src alone doesn't back the benchmarks entries, so the audit
        # fails here — CI audits src+benchmarks+examples together.
        assert code == 1

    def test_audit_flag_passes_with_full_paths(self, capsys):
        paths = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks"),
                 str(REPO_ROOT / "examples")]
        allow = str(REPO_ROOT / "detlint-allow.txt")
        assert cli_main([*paths, "--allowlist", allow,
                         "--audit-allowlist"]) == 0
        assert "allowlist audit: OK" in capsys.readouterr().out
