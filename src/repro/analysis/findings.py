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
    # DET007 (pooled object escaping its handler) is retired: nothing is
    # recycled any more, so an object outliving its handler is just kept.
    # The code is not reused.
    Rule("DET008",
         "in-place mutation of wire-form state",
         "frozen messages and sketch .state() payloads are shared with "
         "every reader; copy first (dict(state)) or build a new "
         "instance instead of mutating"),
    Rule("DET009",
         "engine internals accessed from outside the owner",
         "the event heap belongs to the engine; go through the public "
         "API (call_at, schedule, pending) so the queue stays swappable"),
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
