"""Finding records and the rule catalogue for detlint."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Rule:
    """One determinism rule: a code, what it forbids, how to fix it."""

    code: str
    title: str
    hint: str


# The catalogue.  DET000 is the meta-rule guarding the escape hatch
# itself: a suppression without a reason, absent from the checked-in
# allowlist, or matching no finding is a finding — and cannot itself be
# suppressed.
RULES: dict[str, Rule] = {r.code: r for r in (
    Rule("DET000",
         "invalid detlint suppression",
         "give the suppression a reason and add '<path>:<code>' to the "
         "allowlist file; delete suppressions that no longer fire"),
    Rule("DET001",
         "wall-clock read inside simulation code",
         "derive every timestamp from Simulator.now (or a simulated "
         "device Clock); wall clocks differ across runs"),
    Rule("DET002",
         "global random module instead of a named RngStream",
         "draw from cluster.rngs.stream('<component>') so adding a "
         "component never perturbs another's randomness"),
    Rule("DET003",
         "unordered iteration with order-sensitive effects",
         "wrap the iterable in sorted(...): set/frozenset order varies "
         "with PYTHONHASHSEED and insertion history"),
    Rule("DET004",
         "ordering or keying by object identity",
         "order by a stable domain key (name, seq, tuple of fields); "
         "id() and identity hashes change every run"),
    Rule("DET005",
         "shared mutable state: mutable default or class-level counter",
         "use dataclasses.field(default_factory=...) for containers and "
         "per-instance (or per-Cluster) counters created in __init__"),
    Rule("DET006",
         "message dataclass is not frozen",
         "declare @dataclass(frozen=True): envelopes cross the simulated "
         "network and must not be mutated after send"),
    Rule("DET007",
         "pooled object escapes its handler scope",
         "pooled packets are poisoned and recycled after release — "
         "copy the fields you keep, or retain deliberately and document "
         "it with a disable comment"),
    Rule("DET008",
         "in-place mutation of wire-form state",
         "frozen messages and sketch .state() payloads are shared with "
         "every reader; copy first (dict(state)) or build a new "
         "instance instead of mutating"),
    Rule("DET009",
         "pool/engine internals accessed from outside the owner",
         "free lists and heap fields belong to their module; go through "
         "the public API (acquire/release, queue_depth) so pooling "
         "stays swappable"),
    # SANxxx codes are emitted by the runtime PoolSan sanitizer
    # (repro.analysis.sanitize), not by the static pass — they share the
    # Finding shape and this catalogue so reports render uniformly.
    Rule("SAN001",
         "use-after-release write to a pooled object",
         "a poisoned field changed while the object sat on the free "
         "list; the anchor is the release site — find who kept a "
         "reference past it"),
    Rule("SAN002",
         "double release of a pooled object",
         "the object was already on the free list; release exactly once "
         "(the report shows both release sites)"),
    Rule("SAN003",
         "pooled object leaked",
         "acquired but not released within the leak age; release in a "
         "finally block, or mark it retained with a reason if keeping "
         "it is intentional"),
)}


@dataclass(slots=True)
class Finding:
    """One detlint hit, anchored to a file position."""

    code: str
    path: str
    line: int
    col: int
    message: str
    # Physical lines an inline suppression may sit on (for multi-line
    # statements the comment can trail any header line).
    suppress_span: tuple[int, int] = field(default=(0, 0))
    suppressed: bool = False
    suppress_reason: str = ""

    def __post_init__(self) -> None:
        if self.suppress_span == (0, 0):
            self.suppress_span = (self.line, self.line)

    @property
    def hint(self) -> str:
        """The rule's one-line fix hint."""
        return RULES[self.code].hint

    def render(self) -> str:
        """Human-readable one-liner, ruff-style."""
        return (f"{self.path}:{self.line}:{self.col}: {self.code} "
                f"{self.message}")
