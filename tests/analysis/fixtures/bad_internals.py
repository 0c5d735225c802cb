"""detlint fixture: DET009 — reaching into engine internals."""


def peek_engine(sim) -> int:
    return len(sim._event_heap)  # DET009


def steal_an_event(sim):
    return sim._event_heap.pop()  # DET009


def drain_engine(sim) -> None:
    sim._event_heap.clear()  # DET009


def compare_engines(a, b) -> bool:
    return len(a._event_heap) < len(b._event_heap)  # DET009 x2


class OwnHeap:
    def push(self, entry) -> None:
        self._event_heap.append(entry)  # self access inside the owner: ok
