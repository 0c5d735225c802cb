"""Determinism tooling for the simulation substrate.

Two legs, one contract (DESIGN.md "Determinism contract"):

* **detlint** — an AST-based static pass (:mod:`repro.analysis.rules`)
  that rejects the constructs which silently break bit-for-bit replay:
  wall clocks, the global ``random`` module, unordered iteration feeding
  the scheduler, identity-based ordering, shared mutable state, mutable
  message envelopes, in-place mutation of wire-form state, and
  out-of-module engine internals access.
  Run it as ``python -m repro.analysis src`` (``--format json|sarif``
  for CI artifacts, ``--audit-allowlist`` for stale-entry checks).
* **runtime invariants** — draw-count accounting on every
  :class:`~repro.sim.rng.RngStream`, opt-in scheduler assertions
  (``Simulator(check_invariants=True)``), and the
  :func:`~repro.analysis.runtime.replay_digest` harness that runs a
  scenario twice and compares structural state digests.
"""

from repro.analysis.findings import Finding, RULES
from repro.analysis.linter import (AllowlistAudit, LintReport,
                                   audit_allowlist, lint_paths, lint_source)
from repro.analysis.runtime import (ReplayReport, default_scenario,
                                    replay_digest, structural_digest,
                                    system_state)

__all__ = [
    "Finding",
    "RULES",
    "AllowlistAudit",
    "LintReport",
    "audit_allowlist",
    "lint_paths",
    "lint_source",
    "ReplayReport",
    "default_scenario",
    "replay_digest",
    "structural_digest",
    "system_state",
]
