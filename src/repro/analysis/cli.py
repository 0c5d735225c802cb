"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit codes: 0 = clean (or everything suppressed), 1 = unsuppressed
findings, 2 = usage/input errors.  ``--check-invariants`` additionally
runs the replay-digest harness under ``Simulator(check_invariants=True)``
and fails if the two runs diverge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.findings import RULES
from repro.analysis.linter import (DEFAULT_ALLOWLIST, audit_allowlist,
                                   lint_paths)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="detlint: determinism static analysis + runtime "
                    "invariants for the simulation substrate")
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--allowlist", metavar="FILE", default=None,
        help=f"suppression allowlist (default: {DEFAULT_ALLOWLIST} "
             "if present)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--no-hints", action="store_true",
        help="omit per-finding fix hints")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text); json/sarif are "
             "byte-stable for CI artifacts")
    parser.add_argument(
        "--audit-allowlist", action="store_true",
        help="also fail if any allowlist entry has no matching inline "
             "'# detlint: disable=' comment under the linted paths")
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="also run the replay-digest harness (two seeded runs of the "
             "reference scenario) with scheduler invariants enabled")
    parser.add_argument(
        "--seed", type=int, default=7,
        help="seed for --check-invariants (default: 7)")
    return parser


def _list_rules() -> None:
    for code, rule in sorted(RULES.items()):
        print(f"{code}  {rule.title}")
        print(f"        fix: {rule.hint}")


def _run_invariants(seed: int, out) -> int:
    # Imported lazily: the static pass must work even if the simulation
    # stack is mid-refactor.
    from repro.analysis.runtime import default_scenario, replay_digest
    report = replay_digest(
        lambda s: default_scenario(s, check_invariants=True), seed)
    if report.identical:
        print(f"replay: OK seed={seed} digest={report.digest_first[:16]}",
              file=out)
        return 0
    print(f"replay: MISMATCH seed={seed}", file=out)
    print(f"  first:  {report.digest_first}", file=out)
    print(f"  second: {report.digest_second}", file=out)
    for key in report.mismatched_keys:
        print(f"  diverged: {key}", file=out)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        _list_rules()
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    allowlist = Path(args.allowlist) if args.allowlist else None
    report = lint_paths(paths, allowlist_file=allowlist)
    if args.format == "json":
        from repro.analysis.output import to_json
        print(to_json(report))
    elif args.format == "sarif":
        from repro.analysis.output import to_sarif
        print(to_sarif(report))
    else:
        print(report.render(show_hints=not args.no_hints))

    # With a machine format on stdout, auxiliary check output moves to
    # stderr so the document stays parseable as a whole.
    aux = sys.stdout if args.format == "text" else sys.stderr
    exit_code = 0 if report.ok else 1
    if args.audit_allowlist:
        audit = audit_allowlist(paths, allowlist_file=allowlist)
        print(audit.render(), file=aux)
        exit_code = max(exit_code, 0 if audit.ok else 1)
    if args.check_invariants:
        exit_code = max(exit_code, _run_invariants(args.seed, aux))
    return exit_code
