"""Named, reproducible random-number streams.

Every stochastic component draws from its own named stream derived from the
scenario seed, so adding a new component (or reordering calls inside one)
never perturbs the randomness seen by others.  This is what makes scenario
results stable as the codebase evolves.

Each stream also counts its draws (:attr:`RngStream.draws`) and exposes a
:meth:`RngStream.state_digest`; the replay harness in
:mod:`repro.analysis.runtime` folds these into the structural digest so a
replay that consumed randomness differently cannot compare equal.
"""

from __future__ import annotations

import hashlib
import math
import random  # detlint: disable=DET002 random.Random is the substrate every RngStream wraps
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named wrapper over :class:`random.Random`.

    Thin on purpose: it exposes exactly the draw shapes the simulation uses
    so call sites read as domain operations, and it carries its name for
    debugging reproducibility issues.
    """

    def __init__(self, root_seed: int, name: str):
        self.name = name
        self.draws = 0
        self._rng = random.Random(derive_seed(root_seed, name))

    def state_digest(self) -> str:
        """Short hex digest over name, draw count, and generator state."""
        payload = f"{self.name}:{self.draws}:{self._rng.getstate()!r}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        self.draws += 1
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        self.draws += 1
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        self.draws += 1
        return self._rng.random()

    def chance(self, probability: float) -> bool:
        """Bernoulli draw (degenerate probabilities consume no randomness)."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        self.draws += 1
        return self._rng.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        self.draws += 1
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items (or all of them if fewer exist)."""
        k = min(k, len(items))
        self.draws += 1
        return self._rng.sample(items, k)

    def shuffled(self, items: Iterable[T]) -> list[T]:
        """Return a new shuffled list of ``items``."""
        out = list(items)
        self.draws += 1
        self._rng.shuffle(out)
        return out

    def shuffle(self, items: list[T]) -> None:
        """Shuffle ``items`` in place."""
        self.draws += 1
        self._rng.shuffle(items)

    def expovariate(self, rate: float) -> float:
        """Exponential draw with the given rate (1/mean)."""
        self.draws += 1
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Gaussian draw."""
        self.draws += 1
        return self._rng.gauss(mu, sigma)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal draw (of underlying normal mu/sigma)."""
        self.draws += 1
        # random.lognormvariate's own body, one call shallower.
        return math.exp(self._rng.normalvariate(mu, sigma))


class RngRegistry:
    """Factory handing out one :class:`RngStream` per component name."""

    def __init__(self, root_seed: int):
        self.root_seed = root_seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Get (or create) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = RngStream(self.root_seed, name)
        return self._streams[name]

    def draw_counts(self) -> dict[str, int]:
        """Draws per stream, in sorted name order."""
        return {name: self._streams[name].draws
                for name in sorted(self._streams)}

    def digest(self) -> str:
        """Hex digest over every stream's state digest, name-sorted."""
        payload = ";".join(
            f"{name}={self._streams[name].state_digest()}"
            for name in sorted(self._streams))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
