"""Command-line interface: run scenarios against a simulated deployment.

Installed as ``repro-pingmesh`` (or ``python -m repro.cli``); ``--help``
lists the subcommands, and ``--help`` on any of them its flags.

``monitor`` and ``inject`` are one command body: a serve-mode session on
the SMALL fabric ticked flat out, then the dashboards — ``inject`` adds a
one-fault campaign opening at 30 s (a short name from ``FAULTS``, or any
``KIND:LOCUS,...[:k=v,...]`` over the fault registry).  ``serve`` is the
same session wall-clock paced behind HTTP (DESIGN.md §13; ``--pace 0
--ticks N`` for a scrapeable batch run).  ``trace`` / ``metrics`` /
``profile`` run the replay-reference scenario with one observability
layer on and print that layer.  ``triage`` is the §7.2 "is it a network
problem?" workflow, ``catalog`` runs Table 2 rows end to end, ``figures``
exports figure series as CSV, ``backends`` prints the diagnosis bake-off's
BENCH lines, ``fleet run`` merges a named sweep into a deterministic
scorecard that ``fleet report`` re-renders, and ``checkpoint info|digest``
prints a serve checkpoint's metadata or restores it and prints its replay
digest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn, Optional

from repro.core.dashboard import render_analyzer_state, render_control_plane
from repro.fleet.presets import PRESETS, SMALL, TINY
from repro.sim.units import MILLISECOND, seconds

# Short names for ``inject --fault``: fault specs in parse_fault_spec's
# grammar, minus the window ``inject`` adds (SMALL's device names).
FAULTS = {
    "flap-port": "switch_port_flapping:pod0-tor0,pod0-agg0",
    "flap-rnic": "rnic_flapping:host0-rnic0",
    "corrupt-link": "link_corruption:pod0-tor0,pod0-agg0:drop_prob=0.5",
    "rnic-down": "rnic_down:host0-rnic0",
    "pfc-deadlock": "pfc_deadlock:pod0-agg0,spine0",
    "cpu-overload": "cpu_overload:host0:load=0.85",
    "pcie-downgrade": "pcie_downgrade:host1-rnic0",
    "partition-agent": "control_plane_partition:agent.host0",
    "partition-controller": "control_plane_partition:controller",
}

# ``inject`` opens its fault after this many healthy seconds.
BASELINE_S = 30

SHAPE_FIELDS = ("pods", "tors_per_pod", "aggs_per_pod", "spines",
                "hosts_per_tor")


def _reject(why: object) -> NoReturn:
    """Bad user input is a usage error: one line on stderr and exit
    status 2, as argparse does for a bad flag."""
    print(f"repro-pingmesh: error: {why}", file=sys.stderr)
    raise SystemExit(2)


def _session(args: argparse.Namespace, shape, faults, **control_plane):
    """The ServeSession ``args`` describe: ``shape`` carries SHAPE_FIELDS,
    ``faults`` are fault-spec strings.  A malformed spec or rule, or a
    campaign the fabric cannot take, is rejected before anything runs."""
    from repro.serve import ServeSession, ServeSpec, parse_fault_spec
    from repro.serve.alerts import AlertRule
    from repro.serve.session import DEFAULT_ALERT_RULES
    try:
        return ServeSession(ServeSpec(
            seed=args.seed, **{f: getattr(shape, f) for f in SHAPE_FIELDS},
            campaign=tuple(parse_fault_spec(text) for text in faults),
            rules=tuple(AlertRule.parse(text)
                        for text in (args.rule or DEFAULT_ALERT_RULES)),
            **control_plane))
    except ValueError as exc:
        _reject(exc)


def cmd_watch(args: argparse.Namespace) -> int:
    """``monitor`` and ``inject``: differ only in the spec they build."""
    faults, duration = [], args.duration
    if args.fault is not None:
        head, sep, rest = FAULTS.get(args.fault, args.fault).partition(":")
        if not sep:
            _reject(f"unknown fault {args.fault!r}; choose from: "
                    f"{', '.join(sorted(FAULTS))}, or "
                    f"'KIND:LOCUS,...[:k=v,...]'")
        if "@" not in head:
            head += f"@{BASELINE_S}-{BASELINE_S + duration}"
        faults = [head + sep + rest]
        duration += BASELINE_S
    latency_ns = args.control_latency_ms * MILLISECOND
    session = _session(args, SMALL, faults, control_latency_ns=latency_ns,
                       control_jitter_ns=latency_ns // 2,
                       control_loss_prob=args.control_loss)
    campaign = session.spec.campaign
    print(f"monitoring a {session.cluster.size}-RNIC cluster for "
          f"{duration}s of simulated time...")
    for event in campaign:
        print(f"injecting {args.fault} from t={event.start_s:g}s "
              f"to t={event.end_s:g}s")
    for _ in range(duration):
        for event in session.tick():
            print(f"  alert {event.state:<8} {event.alert} "
                  f"value={event.value} at t={event.sim_now_ns // 10**9}s")
    print(render_analyzer_state(session.system.analyzer))
    if args.control_plane or any(event.kind == "control_plane_partition"
                                 for event in campaign):
        print(render_control_plane(session.system))
    for truth in session.faults.ground_truths():
        print(f"ground truth: table2_row={truth.table2_row} "
              f"category={truth.category.value} locus={truth.locus}")
    firing = session.alerts.firing()
    if firing:
        print("alerts firing: " + ", ".join(firing))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import load_checkpoint, save_checkpoint
    from repro.serve.http import ServeHTTPServer
    from repro.serve.runner import run_serve
    from repro.serve.tui import render_serve

    if args.restore:
        session = load_checkpoint(args.restore)
        print(f"restored {args.restore}: tick={session.ticks} "
              f"sim={session.cluster.sim.now // 10**9}s "
              f"config={session.config_digest[:12]}")
    else:
        session = _session(args, args, args.fault, shards=args.shards)
    server = ServeHTTPServer(session, host=args.host, port=args.port,
                             checkpoint_path=args.checkpoint or None,
                             allow_inject=args.allow_inject)
    server.start()
    print(f"serving on {server.url}  seed={session.spec.seed} "
          f"shards={session.spec.shards} tick={session.ticks}")

    def frame(s) -> None:
        if args.tui:
            prefix = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
            print(prefix + render_serve(s, url=server.url))
        if (args.checkpoint and args.checkpoint_every
                and s.ticks % args.checkpoint_every == 0):
            with server.lock:
                save_checkpoint(s, args.checkpoint)

    try:
        executed = run_serve(session, server, pace_s=args.pace,
                             max_ticks=args.ticks, render=frame)
    except KeyboardInterrupt:
        executed = None
        print("interrupted; shutting down cleanly")
    finally:
        if args.checkpoint:
            with server.lock:
                save_checkpoint(session, args.checkpoint)
            print(f"checkpoint written: {args.checkpoint} "
                  f"(tick={session.ticks})")
        server.stop()
    suffix = "" if executed is None else f" ({executed} this run)"
    print(f"stopped at tick={session.ticks}{suffix} "
          f"digest={session.replay_digest()[:12]}")
    return 0


def cmd_triage(args: argparse.Namespace) -> int:
    from repro.fleet.spec import build_world
    from repro.serve import parse_fault_spec
    from repro.services.dml import CommPattern, DmlConfig, DmlJob
    switch_drops = args.scenario == "switch_drops"
    campaign = [parse_fault_spec("link_corruption@35:pod0-tor0,pod0-agg0"
                                 ":drop_prob=0.4")] if switch_drops else []
    cluster, system, _, _ = build_world(SMALL, args.seed, campaign=campaign)
    system.start()
    job = DmlJob(cluster, cluster.rnic_names()[:8],
                 DmlConfig(pattern=CommPattern.ALLREDUCE,
                           compute_time_ns=500 * MILLISECOND,
                           data_gbits_per_cycle=4.0))
    system.attach_service_monitor(job)
    cluster.sim.run_for(seconds(5))
    job.start()
    cluster.sim.run_for(seconds(30))
    if switch_drops:
        print("scenario: corruption on a service-network link")
    else:
        print("scenario: hidden compute degradation (4%/cycle)")
        job.set_compute_degradation(0.04)
    cluster.sim.run_for(seconds(90))
    print(render_analyzer_state(system.analyzer))
    print(f"service degraded: {job.degraded()}")
    print(f"network innocent: {system.analyzer.network_innocent()}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import (export, fig01_flapping,
                                   fig02_pingmesh_load, fig05_sla,
                                   fig10_service_capture)
    out = Path(args.out)
    written = []
    print("regenerating figure data (several minutes of simulation)...")
    written.append(export.export_fig01(
        fig01_flapping.run("switch_port", seed=args.seed), out))
    written.append(export.export_fig02(
        fig02_pingmesh_load.run(seed=args.seed, epoch_s=20), out))
    written.extend(export.export_fig05(fig05_sla.run(seed=args.seed), out))
    written.append(export.export_fig10(
        fig10_service_capture.run(seed=args.seed, duration_s=40), out))
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    from repro.experiments import tab02_catalog
    rows = ([int(r) for r in args.rows.split(",")] if args.rows
            else list(range(1, 15)))
    failures = 0
    for row in rows:
        outcome = tab02_catalog.run_row(row, fault_s=45)
        ok = (outcome.detected and outcome.signal_matches
              and outcome.service_failure_matches)
        failures += 0 if ok else 1
        status = "ok" if ok else "MISMATCH"
        print(f"row {row:>2} {outcome.root_cause:<40} "
              f"detected={outcome.detected} {status}")
    return 1 if failures else 0


def cmd_observe(args: argparse.Namespace) -> int:
    """``trace`` / ``metrics`` / ``profile``: the replay-reference scenario
    with one observability layer on, then that layer's printer."""
    from repro.analysis.runtime import default_scenario
    from repro.obs import Observability
    obs = Observability(**{args.layer: True})
    default_scenario(args.seed, duration_ns=seconds(args.duration), obs=obs)
    return args.show(obs, args) or 0


def _show_trace(obs, args: argparse.Namespace) -> int:
    tracer = obs.tracer
    print("tracer: "
          + " ".join(f"{k}={v}" for k, v in tracer.summary().items()))
    if args.jsonl:
        print(f"wrote {tracer.write_jsonl(args.jsonl)} spans to {args.jsonl}")
    if args.probe is not None:
        seq = args.probe
    else:
        # Timed-out probes make the most instructive timelines (they show
        # the drop and the Analyzer's verdict); fall back to any span.
        chosen = tracer.first_with_status("timeout")
        if chosen is None and tracer.all_spans():
            chosen = tracer.all_spans()[0]
        if chosen is None:
            print("no spans recorded", file=sys.stderr)
            return 1
        seq = chosen.seq
    print(tracer.render_timeline(seq))
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    from repro.diagnosis.backend import available_backends, create_backend
    from repro.diagnosis.bakeoff import run_bakeoff

    if args.list:
        for name in available_backends():
            backend = create_backend(name)
            doc = (type(backend).__doc__ or "").strip().splitlines()
            print(f"{name:<10} {doc[0] if doc else ''}")
        return 0
    try:
        records = run_bakeoff(
            args.kinds.split(",") if args.kinds else None,
            args.modes.split(",") if args.modes else None, seed=args.seed)
    except ValueError as exc:
        _reject(exc)
    for rec in records:
        print("BENCH " + json.dumps(rec, sort_keys=True))
    return 0


def cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.core.dashboard import render_fleet
    from repro.fleet import FleetProgress, FleetRunner, merge

    # No --seeds: the preset's own.
    seeds = [tuple(map(int, args.seeds.split(",")))] if args.seeds else []
    sweep = PRESETS[args.preset](*seeds, replicates=args.replicates)

    def show(event: FleetProgress) -> None:
        if args.quiet or event.kind == "submit":
            return
        detail = f" ({event.error})" if event.error else ""
        print(f"  [{event.completed}/{event.total}] {event.kind:<6} "
              f"{event.scenario} seed={event.seed} "
              f"attempt={event.attempt}{detail}")

    runner = FleetRunner(workers=args.workers, max_retries=args.retries,
                         default_timeout_s=args.timeout, progress=show)
    print(f"fleet run: preset={args.preset} jobs={len(sweep.jobs())} "
          f"workers={args.workers}")
    outcome = runner.run(sweep)
    scorecard = merge(outcome.results)
    print(render_fleet(scorecard))
    print(f"wall={outcome.wall_s:.1f}s retries={outcome.retries} "
          f"failures={len(outcome.failures)}")
    for failure in outcome.failures:
        print(f"  FAILED {failure.scenario} seed={failure.seed} "
              f"after {failure.attempts} attempts: {failure.error}",
              file=sys.stderr)
    if args.out:
        Path(args.out).write_text(scorecard.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0 if outcome.ok else 1


def cmd_fleet_report(args: argparse.Namespace) -> int:
    from repro.core.dashboard import render_fleet
    from repro.fleet.merge import scorecard_from_dict

    try:
        data = scorecard_from_dict(
            json.loads(Path(args.artifact).read_text()))
    except (OSError, ValueError) as exc:
        print(f"cannot read scorecard: {exc}", file=sys.stderr)
        return 2
    print(render_fleet(data))
    det = data.get("determinism", {})
    return 0 if det.get("consistent", True) else 1


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.serve import CheckpointError, load_checkpoint, read_metadata

    try:
        if args.checkpoint_command == "info":
            print(json.dumps(read_metadata(args.path), indent=2,
                             sort_keys=True))
            return 0
        session = load_checkpoint(args.path)
    except (OSError, CheckpointError) as exc:
        _reject(exc)
    for _ in range(args.run_ticks):
        session.tick()
    print(session.replay_digest())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pingmesh",
        description="R-Pingmesh reproduction scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    monitor = sub.add_parser("monitor", help="healthy-cluster SLA watch")
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument("--duration", type=int, default=60,
                         help="simulated seconds")
    monitor.add_argument("--control-plane", action="store_true",
                         help="also print management-network metrics")
    monitor.add_argument("--control-latency-ms", type=int, default=0,
                         help="management-network latency (default 0)")
    monitor.add_argument("--control-loss", type=float, default=0.0,
                         help="management-network loss probability")
    monitor.add_argument("--rule", action="append", default=[],
                         help="alert rule 'NAME: SERIES OP THRESHOLD "
                              "[for N] [keep M]' (repeatable; default: "
                              "the built-in pair)")
    monitor.set_defaults(func=cmd_watch, fault=None)

    serve = sub.add_parser("serve",
                           help="long-running monitor with /metrics, "
                                "alerting, checkpoints, and a live TUI")
    serve.add_argument("--seed", type=int, default=0)
    for name in SHAPE_FIELDS:
        serve.add_argument("--" + name.replace("_", "-"), type=int,
                           default=getattr(TINY, name))
    serve.add_argument("--shards", type=int, default=1,
                       help="control-plane shards (1 = unsharded)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="HTTP port (0 = ephemeral; printed on boot)")
    serve.add_argument("--pace", type=float, default=1.0,
                       help="wall-clock seconds per tick (0 = flat out)")
    serve.add_argument("--ticks", type=int, default=None,
                       help="stop after this many ticks (default: run "
                            "until POST /shutdown or SIGINT)")
    serve.add_argument("--checkpoint", default="",
                       help="checkpoint file path; written on exit, on "
                            "POST /checkpoint, and every "
                            "--checkpoint-every ticks")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="auto-checkpoint period in ticks (0 = off)")
    serve.add_argument("--restore", default="",
                       help="resume from this checkpoint file (world "
                            "flags are ignored; the spec rides along)")
    serve.add_argument("--fault", action="append", default=[],
                       help="schedule 'KIND@START[-END]:LOCUS,...[:k=v,"
                            "...]' (repeatable, simulated seconds)")
    serve.add_argument("--rule", action="append", default=[],
                       help="alert rule (same grammar as monitor --rule)")
    serve.add_argument("--allow-inject", action="store_true",
                       help="enable the POST /inject endpoint")
    serve.add_argument("--tui", action="store_true",
                       help="render a live dashboard frame every tick")
    serve.set_defaults(func=cmd_serve)

    inject = sub.add_parser("inject", help="inject one fault and watch")
    inject.add_argument("--fault", required=True,
                        help=f"one of {', '.join(sorted(FAULTS))}; or "
                             "'KIND:LOCUS,...[:k=v,...]'")
    inject.add_argument("--seed", type=int, default=0)
    inject.add_argument("--duration", type=int, default=45)
    inject.set_defaults(func=cmd_watch, control_plane=False,
                        control_latency_ms=0, control_loss=0.0, rule=[])

    triage = sub.add_parser("triage", help="§7.2 is-it-the-network")
    triage.add_argument("--scenario", default="compute_bug",
                        choices=["compute_bug", "switch_drops"])
    triage.add_argument("--seed", type=int, default=0)
    triage.set_defaults(func=cmd_triage)

    catalog = sub.add_parser("catalog", help="run Table 2 rows")
    catalog.add_argument("--rows", default="",
                         help="comma-separated row numbers (default all)")
    catalog.set_defaults(func=cmd_catalog)

    figures = sub.add_parser("figures",
                             help="export figure series as CSV")
    figures.add_argument("--out", default="results")
    figures.add_argument("--seed", type=int, default=0)
    figures.set_defaults(func=cmd_figures)

    def obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--duration", type=int, default=45,
                       help="simulated seconds of the reference scenario")

    trace = sub.add_parser("trace", help="probe-lifecycle timeline")
    obs_args(trace)
    trace.add_argument("--probe", type=int, default=None,
                       help="probe_seq to render (default: first timeout)")
    trace.add_argument("--jsonl", default="",
                       help="also export every span as JSONL to this path")
    trace.set_defaults(func=cmd_observe, layer="tracing", show=_show_trace)

    metrics = sub.add_parser("metrics",
                             help="Prometheus-style metrics snapshot")
    obs_args(metrics)
    metrics.set_defaults(
        func=cmd_observe, layer="metrics",
        show=lambda obs, args: print(obs.metrics.render_prometheus()))

    profile = sub.add_parser("profile", help="sim-engine callback profile")
    obs_args(profile)
    profile.add_argument("--top", type=int, default=20,
                         help="callback sites to show")
    profile.set_defaults(
        func=cmd_observe, layer="profiling",
        show=lambda obs, args: print(obs.profiler.render(top=args.top)))

    backends = sub.add_parser(
        "backends",
        help="race diagnosis backends over the fault registry")
    backends.add_argument("--list", action="store_true",
                          help="print the registered backends and exit")
    backends.add_argument("--kinds", default="",
                          help="comma-separated bake-off case labels "
                               "(default: all)")
    backends.add_argument("--modes", default="",
                          help="comma-separated modes from probe, fused, "
                               "pingmesh (default: all)")
    backends.add_argument("--seed", type=int, default=0)
    backends.set_defaults(func=cmd_backends)

    fleet = sub.add_parser("fleet", help="parallel scenario sweeps")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser("run", help="execute a named sweep")
    fleet_run.add_argument("--preset", default="smoke",
                           choices=sorted(PRESETS))
    fleet_run.add_argument("--seeds", default="",
                           help="comma-separated seeds (default: preset's)")
    fleet_run.add_argument("--workers", type=int, default=1,
                           help="worker processes (1 = inline)")
    fleet_run.add_argument("--replicates", type=int, default=1,
                           help="times to run each (scenario, seed) job")
    fleet_run.add_argument("--retries", type=int, default=1,
                           help="re-attempts per crashed or hung job")
    fleet_run.add_argument("--timeout", type=float, default=None,
                           help="per-scenario wall-clock budget in seconds")
    fleet_run.add_argument("--out", default="",
                           help="write the scorecard JSON artifact here")
    fleet_run.add_argument("--quiet", action="store_true",
                           help="suppress per-job progress lines")
    fleet_run.set_defaults(func=cmd_fleet_run)
    fleet_report = fleet_sub.add_parser(
        "report", help="render a scorecard artifact")
    fleet_report.add_argument("--artifact", required=True,
                              help="path to a fleet scorecard JSON")
    fleet_report.set_defaults(func=cmd_fleet_report)

    checkpoint = sub.add_parser(
        "checkpoint", help="inspect or replay a serve checkpoint file"
    ).add_subparsers(dest="checkpoint_command", required=True)
    info = checkpoint.add_parser("info", help="print the JSON metadata")
    digest = checkpoint.add_parser(
        "digest", help="restore, run --run-ticks more, print replay digest")
    digest.add_argument("--run-ticks", type=int, default=0)
    for p in (info, digest):
        p.add_argument("path")
        p.set_defaults(func=cmd_checkpoint)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
