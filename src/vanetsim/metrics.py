"""Per-run and cross-run measurement: ring-bucketed delivery counters,
delays, duplicates, collisions, and Student-t confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from scipy import stats

DEFAULT_RINGS = (300.0, 600.0, 1200.0, 1500.0)


@dataclass
class RingCounters:
    frames_sent: int = 0
    frames_delivered: int = 0
    packets_sent: int = 0
    packets_delivered: int = 0
    delay_sum: float = 0.0
    delay_count: int = 0


@dataclass
class MetricsLedger:
    """One run's counters, keyed by distance-ring upper bound."""

    rings: tuple[float, ...] = DEFAULT_RINGS
    per_ring: dict[float, RingCounters] = field(default_factory=dict)
    collisions: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    scf_stores: int = 0
    extras: dict[str, float] = field(default_factory=dict)
    duplicates_total: int = 0

    def ring_for(self, distance: float) -> Optional[float]:
        for upper in self.rings:
            if distance <= upper:
                return upper
        return None

    def counters(self, ring: float) -> RingCounters:
        c = self.per_ring.get(ring)
        if c is None:
            c = self.per_ring[ring] = RingCounters()
        return c

    def count_message(self, kind: str) -> None:
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1

    def record_duplicate(self) -> None:
        self.duplicates_total += 1

    def check_invariants(self) -> None:
        for ring, c in self.per_ring.items():
            if c.frames_delivered > c.frames_sent:
                raise AssertionError(f"ring {ring}: delivered > sent")
            if c.packets_delivered != c.delay_count:
                raise AssertionError(f"ring {ring}: delay_count != packets_delivered")


def fdr(ledger: MetricsLedger, ring: float) -> Optional[float]:
    """Frame delivery ratio for a ring; None (absent) when nothing was sent."""
    c = ledger.per_ring.get(ring)
    if c is None or c.frames_sent == 0:
        return None
    return c.frames_delivered / c.frames_sent


def mean_delay(ledger: MetricsLedger, ring: float) -> Optional[float]:
    """Mean delay of delivered packets; lost packets are excluded by construction."""
    c = ledger.per_ring.get(ring)
    if c is None or c.delay_count == 0:
        return None
    return c.delay_sum / c.delay_count


@dataclass
class CiSummary:
    mean: float
    half_width: float
    level: float
    n_runs: int


def ci(values: list[float], level: float = 0.95) -> CiSummary:
    """Student-t confidence interval on the mean of per-run values."""
    n = len(values)
    if n < 2:
        raise ValueError("confidence interval needs at least 2 runs")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    s = var ** 0.5
    t_crit = float(stats.t.ppf(0.5 + level / 2.0, n - 1))
    return CiSummary(mean, t_crit * s / n ** 0.5, level, n)
