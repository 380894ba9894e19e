"""Geographic routing toward the closest RSU: GPSR (greedy + perimeter via
right-hand rule on a Gabriel planarization) and five-metric forwarder
selection with dynamically self-configured weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

METRIC_NAMES = ("dist", "density", "traj", "abe", "mac")
DEFAULT_W_FLOOR = 0.05
DEFAULT_DENSITY_REF = 100.0  # nodes/km2 mapping advertised density into [0,1]


@dataclass(frozen=True, slots=True)
class NeighborEntry:
    """What one hello told its hearers.  Every hearer of a hello stores the
    same entry, so it is immutable."""
    neighbor: str
    position: tuple[float, float]
    speed: float
    heading: tuple[float, float]
    advertised_density: float
    advertised_abe: float
    advertised_mac_loss: float
    last_heard: float

    def fresh(self, now: float, timeout: float) -> bool:
        return now - self.last_heard <= timeout


@dataclass
class MetricWeights:
    w_dist: float = 0.2
    w_density: float = 0.2
    w_traj: float = 0.2
    w_abe: float = 0.2
    w_mac: float = 0.2
    w_floor: float = DEFAULT_W_FLOOR

    def as_tuple(self) -> tuple[float, ...]:
        return (self.w_dist, self.w_density, self.w_traj, self.w_abe, self.w_mac)

    def check(self) -> None:
        total = sum(self.as_tuple())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")
        if any(w < self.w_floor - 1e-12 for w in self.as_tuple()):
            raise ValueError("a weight is below the floor")


@dataclass
class MetricVector:
    m_dist: float
    m_density: float
    m_traj: float
    m_abe: float
    m_mac: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.m_dist, self.m_density, self.m_traj, self.m_abe, self.m_mac)


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def gpsr_greedy_next(current: tuple[float, float],
                     neighbors: dict[str, tuple[float, float]],
                     dest: tuple[float, float]) -> Optional[str]:
    """Neighbor strictly closer to dest than current, minimizing distance to
    dest; None at a local minimum. Ties broken by lowest id."""
    d_cur = _dist(current, dest)
    best_id, best_d = None, d_cur
    for nid in sorted(neighbors):
        d = _dist(neighbors[nid], dest)
        if d < best_d:
            best_id, best_d = nid, d
    return best_id


def gabriel_neighbors(current_id: str, current: tuple[float, float],
                      neighbors: dict[str, tuple[float, float]]) -> list[str]:
    """Neighbors kept by the Gabriel-graph planarization of the local star:
    edge (current, v) survives iff no witness w lies inside the circle with
    diameter current-v."""
    kept = []
    for v in sorted(neighbors):
        pv = neighbors[v]
        mid = ((current[0] + pv[0]) / 2.0, (current[1] + pv[1]) / 2.0)
        radius2 = ((pv[0] - current[0]) ** 2 + (pv[1] - current[1]) ** 2) / 4.0
        blocked = False
        for w in neighbors:
            if w == v:
                continue
            pw = neighbors[w]
            if (pw[0] - mid[0]) ** 2 + (pw[1] - mid[1]) ** 2 < radius2 - 1e-12:
                blocked = True
                break
        if not blocked:
            kept.append(v)
    return kept


@dataclass
class PerimeterState:
    """Per-packet scratch while in perimeter mode."""
    entry_point: tuple[float, float]
    entry_distance: float
    first_edge: Optional[tuple[str, str]] = None
    came_from: Optional[str] = None


class PerimeterDrop(Exception):
    """Face tour returned to the entry edge, or no planar neighbor exists."""


def gpsr_perimeter_next(current_id: str, current: tuple[float, float],
                        neighbors: dict[str, tuple[float, float]],
                        dest: tuple[float, float],
                        state: PerimeterState) -> str:
    """Right-hand-rule traversal on the Gabriel planarization.

    On arrival from edge (prev -> current), the next edge is the first one
    counterclockwise about current from (current, prev).  Raises PerimeterDrop
    when the tour closes on the entry edge or no neighbor survives
    planarization.
    """
    planar = gabriel_neighbors(current_id, current, neighbors)
    if not planar:
        raise PerimeterDrop(f"no planar neighbor at {current_id}")
    if state.came_from is not None and state.came_from in neighbors:
        ref = neighbors[state.came_from]
    else:
        ref = dest
    ref_angle = math.atan2(ref[1] - current[1], ref[0] - current[0])

    def ccw_from_ref(nid: str) -> float:
        p = neighbors[nid]
        ang = math.atan2(p[1] - current[1], p[0] - current[0])
        delta = (ang - ref_angle) % (2.0 * math.pi)
        return delta if delta > 1e-12 else 2.0 * math.pi

    candidates = [nid for nid in planar if nid != state.came_from]
    if not candidates:
        candidates = planar  # only way out is back along the incoming edge
    nxt = min(candidates, key=lambda nid: (ccw_from_ref(nid), nid))
    edge = (current_id, nxt)
    if state.first_edge is None:
        state.first_edge = edge
    elif edge == state.first_edge:
        raise PerimeterDrop("face tour returned to the entry edge")
    return nxt


def heading_of(velocity: tuple[float, float]) -> tuple[float, float]:
    n = math.hypot(velocity[0], velocity[1])
    if n == 0:
        return (0.0, 0.0)
    return (velocity[0] / n, velocity[1] / n)


def normalize_metrics(entry: NeighborEntry, current: tuple[float, float],
                      dest: tuple[float, float], *,
                      bitrate: float,
                      density_ref: float = DEFAULT_DENSITY_REF) -> MetricVector:
    """Map one neighbor's advertised state into [0,1] scores, higher is better."""
    d_ref = _dist(current, dest)
    d_n = _dist(entry.position, dest)
    m_dist = 1.0 - d_n / d_ref if d_ref > 0 else 1.0
    m_dist = min(1.0, max(0.0, m_dist))
    m_density = min(1.0, entry.advertised_density / density_ref) if density_ref > 0 else 0.0
    # approaching/receding over a 1 s horizon
    future = (entry.position[0] + entry.heading[0] * entry.speed,
              entry.position[1] + entry.heading[1] * entry.speed)
    m_traj = 1.0 if _dist(future, dest) < d_n else 0.0
    m_abe = min(1.0, max(0.0, entry.advertised_abe / bitrate)) if bitrate > 0 else 0.0
    m_mac = 1.0 - entry.advertised_mac_loss
    return MetricVector(m_dist, m_density, m_traj, m_abe, m_mac)


def multimetric_score(v: MetricVector, w: MetricWeights) -> float:
    return sum(wk * mk for wk, mk in zip(w.as_tuple(), v.as_tuple()))


def select_forwarder(scores: dict[str, float]) -> Optional[str]:
    """Argmax over neighbor scores, ties by lowest id."""
    if not scores:
        return None
    return min(scores, key=lambda nid: (-scores[nid], nid))


def equal_weights(w_floor: float = DEFAULT_W_FLOOR) -> MetricWeights:
    return MetricWeights(0.2, 0.2, 0.2, 0.2, 0.2, w_floor)


def dsw_update(snapshots: list[MetricVector], prev: MetricWeights,
               lam: float = 0.5) -> MetricWeights:
    """Reweight metrics by how much they discriminate among current neighbors.

    raw_k is the coefficient of variation of metric k across neighbors; the
    smoothed candidate is floored at w_floor and renormalized so the result
    always satisfies the weight invariants.
    """
    w_floor = prev.w_floor
    if len(snapshots) < 2:
        return equal_weights(w_floor)
    raws = []
    n = len(snapshots)
    rows = [s.as_tuple() for s in snapshots]
    for k in range(5):
        vals = [row[k] for row in rows]
        mean = sum(vals) / n
        if mean == 0.0:
            raws.append(0.0)
            continue
        var = sum((v - mean) ** 2 for v in vals) / n
        raws.append(math.sqrt(var) / mean)
    total = sum(raws)
    if total == 0.0:
        candidates = [0.2] * 5
    else:
        candidates = [r / total for r in raws]
    new = [lam * c + (1.0 - lam) * p
           for c, p in zip(candidates, prev.as_tuple())]
    # floor and renormalize by water-filling: once a weight is pinned to the
    # floor it stays pinned, so the pinned set grows and the loop terminates
    # with every free weight at or above the floor and the sum exactly one
    pinned: set[int] = set()
    scaled = list(new)
    while True:
        free = [i for i in range(5) if i not in pinned]
        budget = 1.0 - w_floor * len(pinned)
        free_total = sum(scaled[i] for i in free)
        for i in pinned:
            scaled[i] = w_floor
        if free_total <= 0.0:
            for i in free:
                scaled[i] = budget / len(free)
        else:
            for i in free:
                scaled[i] = scaled[i] * budget / free_total
        low = [i for i in free if scaled[i] < w_floor - 1e-15]
        if not low or len(pinned) + len(low) >= 5:
            break
        pinned.update(low)
    result = MetricWeights(*scaled, w_floor=w_floor)
    result.check()
    return result
