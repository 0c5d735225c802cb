"""detlint fixture: DET009 — reaching into pool/engine internals."""


def steal_a_packet(pool):
    return pool._free.pop()  # DET009


def peek_engine(sim) -> int:
    return len(sim._event_free) + len(sim._event_heap)  # DET009 x2


def drain_transits(fabric) -> None:
    fabric._transit_free.clear()  # DET009


class Wrapper:
    def expand(self, fabric) -> None:
        self.limit = fabric._transit_pool_limit  # DET009


class OwnPool:
    def release(self, obj) -> None:
        self._free.append(obj)  # self access inside the owner: ok
