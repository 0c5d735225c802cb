"""Time and rate units for the simulation.

All simulation time is an integer number of nanoseconds.  Integer time keeps
event ordering exact and runs reproducible: there is no floating-point drift
when a scenario schedules millions of probe events at fixed intervals.

The helpers here convert human-friendly quantities into the canonical
representations used throughout the package:

* time     -> int nanoseconds
* bit rate -> float bits per nanosecond (``Gbps(100)`` etc.)
"""

from __future__ import annotations

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE
DAY = 24 * HOUR


def nanoseconds(value: float) -> int:
    """Convert a value in nanoseconds to canonical integer time."""
    return round(value)


def microseconds(value: float) -> int:
    """Convert a value in microseconds to integer nanoseconds."""
    return round(value * MICROSECOND)


def milliseconds(value: float) -> int:
    """Convert a value in milliseconds to integer nanoseconds."""
    return round(value * MILLISECOND)


def seconds(value: float) -> int:
    """Convert a value in seconds to integer nanoseconds."""
    return round(value * SECOND)


def minutes(value: float) -> int:
    """Convert a value in minutes to integer nanoseconds."""
    return round(value * MINUTE)


def hours(value: float) -> int:
    """Convert a value in hours to integer nanoseconds."""
    return round(value * HOUR)


def to_seconds(time_ns: int) -> float:
    """Express integer-nanosecond time as float seconds (for reporting)."""
    return time_ns / SECOND


def to_microseconds(time_ns: int) -> float:
    """Express integer-nanosecond time as float microseconds."""
    return time_ns / MICROSECOND


def to_milliseconds(time_ns: int) -> float:
    """Express integer-nanosecond time as float milliseconds."""
    return time_ns / MILLISECOND


def gbps(value: float) -> float:
    """Convert gigabits per second to bits per nanosecond."""
    return value  # 1 Gbps == 1e9 b/s == 1 bit/ns

def bits_per_ns(rate_gbps: float) -> float:
    """Alias of :func:`gbps`, named for the unit it returns."""
    return rate_gbps


def serialization_delay_ns(size_bytes: int, rate_gbps: float) -> int:
    """Time to put ``size_bytes`` on a wire running at ``rate_gbps``."""
    if rate_gbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_gbps}")
    return max(1, round(size_bytes * 8 / rate_gbps))


class DelayTable(dict):
    """``size_bytes -> fixed_ns + serialization_delay_ns(size_bytes, rate)``,
    derived on a size's first read; a hit runs no Python code.  An owner
    whose rate can change builds a new table at the write."""

    __slots__ = ("rate_gbps", "fixed_ns")

    def __init__(self, rate_gbps: float, fixed_ns: int = 0):
        self.rate_gbps = rate_gbps
        self.fixed_ns = fixed_ns

    def __missing__(self, size_bytes: int) -> int:
        delay = self[size_bytes] = self.fixed_ns + serialization_delay_ns(
            size_bytes, self.rate_gbps)
        return delay
