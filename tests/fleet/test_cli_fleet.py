"""The fleet CLI surface and its dashboard rendering."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.dashboard import render_fleet
from repro.fleet.merge import FleetScorecard, merge
from repro.fleet.worker import DetectionOutcome, ScenarioResult


def _result(seed=0) -> ScenarioResult:
    detection = DetectionOutcome(
        fault_id="RnicDown:host0-rnic0", table2_row=2,
        category="rnic_problem", locus_kind="rnic", locus="host0-rnic0",
        start_ns=5_000_000_000, end_ns=20_000_000_000,
        detected=True, localized=True,
        detected_at_ns=17_000_000_000, time_to_detect_ns=12_000_000_000,
        verdict_category="rnic_problem", verdict_locus="host0-rnic0")
    return ScenarioResult(
        scenario="cli-s", spec_digest="cli-digest", seed=seed,
        replay_digest=f"r{seed}", sim_now_ns=1, events_processed=10,
        probes_total=50, probes_ok=48, detections=(detection,),
        true_positives=1, false_positives=0,
        sla={"rtt_p50_ns": 3000.0},
        metrics={"repro_sim_events_processed_total": 10})


class TestParser:
    def test_fleet_run_defaults(self):
        args = build_parser().parse_args(["fleet", "run"])
        assert args.preset == "smoke"
        assert args.workers == 1
        assert args.replicates == 1

    def test_fleet_run_flags(self):
        args = build_parser().parse_args(
            ["fleet", "run", "--preset", "accuracy", "--workers", "4",
             "--seeds", "3,5", "--retries", "2", "--timeout", "30",
             "--replicates", "2"])
        assert (args.preset, args.workers) == ("accuracy", 4)
        assert args.seeds == "3,5"
        assert args.timeout == 30.0

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])


class TestRunCommand:
    def test_replicated_smoke_run_reports_consistent(self, tmp_path, capsys):
        """What ``fleet run --selftest`` asserted: every job ran, and the
        duplicate (spec, seed) jobs replayed to identical digests."""
        artifact = tmp_path / "scorecard.json"
        assert main(["fleet", "run", "--preset", "smoke", "--seeds", "0",
                     "--replicates", "2", "--quiet",
                     "--out", str(artifact)]) == 0
        determinism = json.loads(artifact.read_text())["determinism"]
        assert determinism["consistent"] is True
        assert determinism["duplicated_jobs"] > 0
        assert "determinism: CONSISTENT" in capsys.readouterr().out


class TestRenderFleet:
    def test_accepts_scorecard_and_dict(self):
        scorecard = merge([_result(0), _result(1)])
        from_obj = render_fleet(scorecard)
        from_dict = render_fleet(scorecard.as_dict())
        assert from_obj == from_dict
        assert "cli-s@cli-digest" in from_obj
        assert "recall=1.000" in from_obj
        assert "CONSISTENT" in from_obj

    def test_flags_mismatch(self):
        import dataclasses
        a = _result(0)
        b = dataclasses.replace(a, replay_digest="other")
        rendered = render_fleet(merge([a, b]))
        assert "MISMATCH" in rendered

    def test_empty_scorecard_renders(self):
        assert "fleet sweep" in render_fleet(FleetScorecard(
            runs_merged=0, unique_jobs=0))


class TestReportCommand:
    def test_report_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "scorecard.json"
        artifact.write_text(merge([_result(0)]).to_json())
        assert main(["fleet", "report", "--artifact",
                     str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "cli-s@cli-digest" in out

    def test_report_rejects_garbage(self, tmp_path, capsys):
        artifact = tmp_path / "not-a-scorecard.json"
        artifact.write_text(json.dumps({"hello": 1}))
        assert main(["fleet", "report", "--artifact",
                     str(artifact)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_inconsistent_exits_nonzero(self, tmp_path):
        import dataclasses
        a = _result(0)
        b = dataclasses.replace(a, replay_digest="other")
        artifact = tmp_path / "scorecard.json"
        artifact.write_text(merge([a, b]).to_json())
        assert main(["fleet", "report", "--artifact",
                     str(artifact)]) == 1
