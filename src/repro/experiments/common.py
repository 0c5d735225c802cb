"""Shared scaffolding for the figure/table reproduction drivers.

Every experiment returns a plain result dataclass with the series/rows the
paper's figure or table shows, so the benchmark harness can both assert the
*shape* of the result (who wins, what is detected) and print the rows next
to the paper's reported values.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.config import RPingmeshConfig
from repro.fleet.presets import SMALL
from repro.fleet.spec import World, build_world
from repro.net.clos import ClosParams


def default_cluster_params(**overrides) -> ClosParams:
    """The downscaled evaluation fabric (SMALL), optionally reshaped."""
    return replace(SMALL, **overrides)


def deploy(*, seed: int = 0, params: Optional[ClosParams] = None,
           config: Optional[RPingmeshConfig] = None,
           warmup_ns: int = 0) -> World:
    """Build a Clos cluster, start R-Pingmesh, optionally warm up."""
    world = build_world(params or SMALL, seed, config=config)
    world.system.start()
    if warmup_ns:
        world.cluster.sim.run_for(warmup_ns)
    return world


def fmt_us(ns: Optional[float]) -> str:
    """Nanoseconds -> 'x.y us' for printed tables."""
    if ns is None:
        return "-"
    return f"{ns / 1000:.1f}us"


def fmt_pct(fraction: float) -> str:
    """0.85 -> '85.0%'."""
    return f"{fraction * 100:.1f}%"
