"""detlint fixture: valid suppressions for the wire-form and internals rules."""


class Scratch:
    def rebuild(self, sketch) -> None:
        state = sketch.state()
        state["n"] = 0  # detlint: disable=DET008 fixture: scratch copy semantics

    def reset(self, summary) -> None:
        object.__setattr__(summary, "n", 0)  # detlint: disable=DET008 fixture: test double, never shipped

    def introspect(self, sim) -> int:
        return len(sim._event_heap)  # detlint: disable=DET009 fixture: debug introspection
