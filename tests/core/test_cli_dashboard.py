"""Tests for the CLI and the text dashboard."""

import re

import pytest

import repro.obs
from repro.cli import FAULTS, build_parser, main
from repro.core.dashboard import (render_analyzer_state,
                                  render_observability, render_problem,
                                  render_sla_window)
from repro.core.records import Priority, Problem, ProblemCategory
from repro.core.sla import SlaWindow
from repro.core.system import RPingmesh
from repro.sim.units import seconds


class TestDashboard:
    def test_render_empty_window(self):
        window = SlaWindow("cluster", 0, 20)
        text = render_sla_window(window)
        assert "[cluster]" in text
        assert "UNRELIABLE" in text  # zero samples

    def test_render_populated_window(self):
        window = SlaWindow("service", 0, 20)
        window.probes_total = 100
        window.probes_ok = 99
        window.timeouts_switch = 1
        window.rtt.extend([5000.0, 6000.0, 7000.0])
        text = render_sla_window(window)
        assert "switch_drop=0.0100" in text
        assert "rtt" in text
        assert "UNRELIABLE" not in text

    def test_render_partial_percentile_dict_shows_dashes(self):
        # A percentile source may legitimately omit quantiles (few
        # samples, custom trackers); missing keys must render as "-",
        # never KeyError.
        window = SlaWindow("cluster", 0, 20)
        window.probes_total = window.probes_ok = 50
        window.rtt_percentiles = lambda: {"p50": 5000.0}  # p90+ absent
        text = render_sla_window(window)
        assert "p50=" in text and "5.0us" in text
        assert "p99=-" in text.replace(" ", "")

    def test_render_observability_default_off(self):
        from repro.obs import Observability
        text = render_observability(Observability())
        assert "everything off" in text

    def test_render_observability_enabled_surfaces(self):
        from repro.obs import Observability
        obs = Observability(tracing=True, metrics=True, profiling=True)
        obs.tracer.open_span(1, 0)
        obs.tracer.close_span(1, 5, "ok")
        obs.metrics.counter("repro_fabric_drops_total",
                            reason="corruption").inc(3)
        obs.profiler.run(lambda: None)
        text = render_observability(obs)
        assert "spans_opened=1" in text
        assert "repro_fabric_drops_total" in text
        assert "sim profile: 1 events" in text

    def test_render_problem_line(self):
        problem = Problem(
            category=ProblemCategory.SWITCH_NETWORK_PROBLEM,
            locus="tor0->agg0", detected_at_ns=0, window_start_ns=0,
            evidence_count=12, from_service_tracing=True,
            priority=Priority.P0)
        line = render_problem(problem)
        assert "[P0]" in line
        assert "tor0->agg0" in line
        assert "service-tracing" in line

    def test_render_analyzer_state(self, tiny_clos):
        system = RPingmesh(tiny_clos)
        system.start()
        tiny_clos.sim.run_for(seconds(25))
        text = render_analyzer_state(system.analyzer)
        assert "analysis window" in text
        assert "verdict" in text
        assert "INNOCENT" in text

    def test_render_before_any_window(self, tiny_clos):
        system = RPingmesh(tiny_clos)
        text = render_analyzer_state(system.analyzer)
        assert "no analysis windows yet" in text


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fault_registry_names(self):
        assert "flap-port" in FAULTS
        assert "pfc-deadlock" in FAULTS

    def test_monitor_command(self, capsys):
        code = main(["monitor", "--seed", "3", "--duration", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "analysis window" in out
        assert "INNOCENT" in out

    def test_inject_command(self, capsys):
        code = main(["inject", "--fault", "corrupt-link",
                     "--duration", "45", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ground truth" in out
        assert "switch_network_problem" in out

    def test_inject_unknown_fault_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "--fault", "gremlins"])

    def test_every_short_fault_name_is_a_valid_spec(self):
        from repro.fleet.presets import SMALL
        from repro.fleet.spec import build_world
        from repro.serve import parse_fault_spec
        campaign = [parse_fault_spec(spec.replace(":", "@1:", 1))
                    for spec in FAULTS.values()]
        assert len(build_world(SMALL, 0, campaign=campaign).scheduled) \
            == len(FAULTS)

    def test_inject_takes_a_raw_spec_over_the_whole_registry(self, capsys):
        code = main(["inject", "--fault", "host_down:host3",
                     "--duration", "25", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ground truth: table2_row=4" in out and "locus=host3" in out

    @pytest.mark.parametrize("argv", [
        ["inject", "--fault", "link_corruption:nope,pod0-agg0"],
        ["inject", "--fault", "link_corruption:pod0-tor0"],
        ["serve", "--ticks", "1", "--pace", "0",
         "--fault", "link_corruption@5:nope,pod0-agg0"],
        ["serve", "--ticks", "1", "--pace", "0",
         "--fault", "rnic_down@1:host0-rnic0",
         "--fault", "link_corruption@5:pod0-tor0"],
    ], ids=["inject-unknown-locus", "inject-wrong-arity",
            "serve-unknown-locus", "serve-wrong-arity"])
    def test_bad_campaign_is_one_line_and_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "error: campaign event 'link_corruption'" in line

    @pytest.mark.parametrize("spec", [
        "pcie_downgrade@2:host1-rnic0:degraded_pcie_gbps=0",
        "pcie_downgrade@2:host1-rnic0:degraded_pcie_gbps=-4",
        "rnic_acs_misconfig@2:host1-rnic0:degraded_pcie_gbps=0",
        "link_overload@2:pod0-tor0,pod0-agg0:extra_gbps=-900",
        "switch_port_flapping@2:pod0-agg0,pod0-tor0:period_ns=0",
        "switch_port_flapping@2:pod0-agg0,pod0-tor0:period_ns=2",
        "rnic_flapping@2:host1-rnic0:period_ns=-5",
        "rnic_corruption@2:host1-rnic0:drop_prob=-1",
        "rnic_corruption@2:host1-rnic0:drop_prob=1.5",
        "cpu_overload@2:host1:load=-1",
        "cpu_overload@2:host1:load=nan",
        "switch_port_flapping@2:pod0-tor0,pod0-agg0:period_ns=inf",
        "link_corruption@inf:pod0-tor0,pod0-agg0",
        "link_corruption@nan:pod0-tor0,pod0-agg0",
        "link_corruption@2-inf:pod0-tor0,pod0-agg0",
        "link_corruption@-3:pod0-tor0,pod0-agg0",
        "pcie_downgrade@2:host1-rnic0:pause_delay_ns=1e18",
        "pcie_downgrade@2:host1-rnic0:pause_delay_ns=2.5",
        "pcie_downgrade@2:host1-rnic0:degraded_pcie_gbps=inf",
        "link_overload@2:pod0-tor0,pod0-agg0:extra_gbps=inf",
        "link_overload@2:pod0-tor0,pod0-agg0:extra_gbps=5,table2_row=12",
        "switch_acl_error@2:pod0-tor0:src_ip=garbage",
        "cpu_overload@2:host1:load=True",
    ], ids=["pcie-zero", "pcie-negative", "acs-zero", "overload-negative",
            "flap-period-zero", "flap-period-2ns", "flap-period-negative",
            "rnic-corruption-negative", "rnic-corruption-above-one",
            "cpu-load-negative", "cpu-load-nan", "flap-period-inf",
            "window-start-inf", "window-start-nan", "window-end-inf",
            "window-start-unparsed", "pause-delay-1e18", "pause-delay-float",
            "pcie-inf", "overload-inf", "overload-row-12",
            "acl-src-not-an-address", "cpu-load-not-a-number"])
    def test_out_of_range_fault_parameter_is_one_line_and_exit_2(
            self, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--ticks", "5", "--pace", "0", "--fault", spec])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "error: " in line and "must be" in line

    def test_catalog_selected_rows(self, capsys):
        code = main(["catalog", "--rows", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "row  3" in out
        assert "ok" in out


class TestCliObservability:
    """What ``trace|metrics|profile --selftest`` asserted in a CI side job."""

    @pytest.fixture
    def layers(self, monkeypatch):
        made = []
        real = repro.obs.Observability

        def recording(**kwargs):
            made.append(real(**kwargs))
            return made[-1]
        monkeypatch.setattr(repro.obs, "Observability", recording)
        return made

    def test_trace_renders_a_closed_span(self, capsys, layers):
        assert main(["trace", "--duration", "25"]) == 0
        out = capsys.readouterr().out
        [obs] = layers
        seq = int(re.search(r"^probe (\d+) ", out, re.MULTILINE).group(1))
        span = obs.tracer.span(seq)
        assert span.closed and span.events_named("agent.send")
        assert "agent.send" in out and "status=open" not in out
        assert all(s.close_count <= 1 for s in obs.tracer.all_spans())

    def test_metrics_output_round_trips(self, capsys):
        from repro.obs.metrics import parse_exposition
        assert main(["metrics", "--duration", "21"]) == 0
        series = parse_exposition(capsys.readouterr().out).series
        sent = [value for key, value in series.items()
                if key.startswith("repro_controlplane_sent_total")]
        assert sent and sum(sent) > 0
        assert series["repro_sim_events_processed_total"] > 0

    def test_profile_names_more_than_one_site(self, capsys, layers):
        assert main(["profile", "--duration", "21", "--top", "5"]) == 0
        [obs] = layers
        assert obs.profiler.events_total > 0
        assert len(obs.profiler.deterministic_snapshot()) > 1
        assert capsys.readouterr().out.count("\n  repro.") > 1


class TestCliTriage:
    def test_triage_switch_drops_scenario(self, capsys):
        code = main(["triage", "--scenario", "switch_drops", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "network innocent: False" in out

    def test_triage_compute_bug_scenario(self, capsys):
        code = main(["triage", "--scenario", "compute_bug", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "service degraded: True" in out
        assert "network innocent: True" in out


class TestDashboardEdgeCases:
    def test_render_observability_empty_registry(self):
        from repro.obs import Observability
        obs = Observability(metrics=True)
        text = render_observability(obs)
        assert "metrics: 0 series" in text
        assert "..." not in text  # no truncation note for nothing

    def test_render_sla_window_exact_tracker(self):
        from repro.sim.stats import PercentileTracker
        window = SlaWindow("cluster", 0, 20, rtt=PercentileTracker(),
                           processing=PercentileTracker())
        window.probes_total = window.probes_ok = 50
        window.rtt.extend(float(v) for v in range(1000, 1050))
        text = render_sla_window(window)
        assert "p50=" in text and "UNRELIABLE" not in text

    def test_render_sla_window_sketch_tracker_same_shape(self):
        from repro.sim.sketch import QuantileSketch
        window = SlaWindow("cluster", 0, 20,
                           rtt=QuantileSketch(0.01),
                           processing=QuantileSketch(0.01))
        window.probes_total = window.probes_ok = 50
        window.rtt.extend(float(v) for v in range(1000, 1050))
        text = render_sla_window(window)
        # Sketch-backed windows render through the same percentile
        # lines as exact trackers: same keys, same layout.
        assert "p50=" in text and "p999=" in text
        assert "UNRELIABLE" not in text


class TestSparkline:
    def test_constant_series_renders_flat_midline(self):
        from repro.core.dashboard import SPARK_LEVELS, render_sparkline
        out = render_sparkline([5.0] * 10)
        assert len(out) == 10
        assert set(out) == {SPARK_LEVELS[len(SPARK_LEVELS) // 2]}

    def test_single_point(self):
        from repro.core.dashboard import SPARK_LEVELS, render_sparkline
        out = render_sparkline([3.0])
        assert len(out) == 1 and out in SPARK_LEVELS

    def test_empty_series(self):
        from repro.core.dashboard import render_sparkline
        assert render_sparkline([]) == ""

    def test_none_gaps_become_spaces(self):
        from repro.core.dashboard import SPARK_LEVELS, render_sparkline
        out = render_sparkline([1.0, None, 9.0])
        assert len(out) == 3
        assert out[1] == " "
        assert out[0] == SPARK_LEVELS[0] and out[2] == SPARK_LEVELS[-1]

    def test_monotone_ramp_is_nondecreasing(self):
        from repro.core.dashboard import SPARK_LEVELS, render_sparkline
        out = render_sparkline([float(v) for v in range(8)])
        levels = [SPARK_LEVELS.index(c) for c in out]
        assert levels == sorted(levels)
        assert levels[0] == 0 and levels[-1] == len(SPARK_LEVELS) - 1

    def test_width_keeps_the_tail(self):
        from repro.core.dashboard import render_sparkline
        wide = render_sparkline([float(v) for v in range(100)], width=10)
        assert len(wide) == 10
        # The tail of a long ramp is all near the max once truncated to
        # the last 10 points and rescaled over them.
        assert wide == render_sparkline([float(v) for v in range(90, 100)])

    def test_all_none_series(self):
        from repro.core.dashboard import render_sparkline
        assert render_sparkline([None, None, None]) == "   "
