"""Host-speed adjustment of measured times.

The benchmark host is a guest on a shared machine whose speed changes by
up to 2x from one second to the next, and whose share of slow seconds
drifts over minutes, as other tenants load it.  The process's CPU time
grows with its wall time, so the guest does not see the loss as stolen
time, and a wall time alone measures the neighbours as much as the
program: runs of the same code minutes apart differ by 25-50%.

So the benchmark runs a fixed calibration kernel -- exact rational
arithmetic with ``fractions.Fraction``, the program's own number type,
but none of the program's code -- just before and just after every timed
span.  The kernel's mean time per unit over those two probes, divided by
REFERENCE_UNIT_S, is the host's slowness around the span, and the span's
adjusted time is its wall time divided by that slowness: the time the
span takes when one kernel unit takes REFERENCE_UNIT_S, as it does on an
idle core of the 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest the
benchmark was written on, with CPython 3.11.  A change to the program
moves adjusted times as it moves wall times; a change in the host's load
moves the kernel and the program alike, and cancels.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_UNIT_S = 0.75e-3  # one kernel unit on an idle reference core
PROBE_UNITS = 8  # kernel units per probe


def _unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return total


def probe(units: int = PROBE_UNITS) -> float:
    """Seconds per kernel unit, measured now."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / units


class HostClock:
    """Adjusts consecutive spans: the probe after one span is the probe
    before the next, so a run of spans costs one probe per span."""

    def __init__(self):
        self.before = probe()
        self.probes = [self.before]

    def adjust(self, seconds: float) -> float:
        """Adjusted time of a span of `seconds` wall time that has just
        ended, and which began after the previous probe."""
        after = probe()
        self.probes.append(after)
        slowness = (self.before + after) / (2 * REFERENCE_UNIT_S)
        self.before = after
        return seconds / slowness

    def mean_slowness(self) -> float:
        return sum(self.probes) / len(self.probes) / REFERENCE_UNIT_S
