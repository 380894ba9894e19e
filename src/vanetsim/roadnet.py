"""Urban road graph and synthetic grid scenarios with random-trip mobility."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import networkx as nx
import numpy as np

DEFAULT_INTERSECTION_RADIUS = 10.0  # meters, closed boundary
OBSTACLE_INSET = 5.0  # meters from street centerline to building face
PEDESTRIAN_SPEED = 1.4  # m/s nominal walking speed
# seconds between mobility samples; a power of two, so every sample time k*dt
# is exact and the engine's interpolation lands on the samples themselves
MOBILITY_DT = 0.5
# walks generate_grid keeps, dropping the least recently used.  Runs that
# differ only in protocol replay the same walk, so a sweep builds each once.
# The largest walk of a bundled preset (ctd-1000: 1000 pedestrians for 31 s)
# keeps 2.5 MB of positions, steps and speeds, so a full memo holds at most
# about 41 MB.  Runs with no static nodes (every CTD run) read these tables
# without a copy.
WALK_MEMO_SIZE = 16


@dataclass(frozen=True)
class Intersection:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Segment:
    id: int
    a: int  # endpoint intersection id
    b: int
    length: float
    speed_limit: float


class RoadGraphError(ValueError):
    pass


class RoadGraph:
    """Intersections, segments, and optional axis-aligned building obstacles."""

    def __init__(self, intersections: Iterable[Intersection],
                 segments: Iterable[Segment],
                 obstacles: Iterable[tuple[float, float, float, float]] = (),
                 grid: Optional[tuple[float, int, int]] = None):
        self.intersections = {i.id: i for i in intersections}
        self.segments = list(segments)
        self.obstacles = [tuple(map(float, o)) for o in obstacles]
        # (block_size, n_cols, n_rows) of a make_grid_graph Manhattan grid,
        # whose junction j * n_cols + i sits at (i * block_size, j * block_size)
        self.grid = grid
        self._nx: Optional[nx.Graph] = None

    def validate(self) -> None:
        if not self.intersections:
            raise RoadGraphError("graph has no intersections")
        seen_coords = set()
        for node in self.intersections.values():
            key = (node.x, node.y)
            if key in seen_coords:
                raise RoadGraphError(f"duplicate intersection coordinates {key}")
            seen_coords.add(key)
        for seg in self.segments:
            if seg.a not in self.intersections or seg.b not in self.intersections:
                raise RoadGraphError(f"segment {seg.id} references missing intersection")
            pa, pb = self.intersections[seg.a], self.intersections[seg.b]
            d = math.hypot(pa.x - pb.x, pa.y - pb.y)
            if abs(d - seg.length) > 1e-6:
                raise RoadGraphError(
                    f"segment {seg.id} length {seg.length} != endpoint distance {d}"
                )
        if not nx.is_connected(self.as_networkx()):
            raise RoadGraphError("road graph is not connected")

    def as_networkx(self) -> nx.Graph:
        if self._nx is None:
            g = nx.Graph()
            g.add_nodes_from(self.intersections)
            for seg in self.segments:
                g.add_edge(seg.a, seg.b, weight=seg.length, segment=seg.id)
            self._nx = g
        return self._nx

    def nearest_intersection(self, p: tuple[float, float]) -> tuple[int, float]:
        """Closest intersection by Euclidean distance; ties broken by lowest id.

        On the grid the closest junction is a corner of the block cell that
        holds p (clamped to the grid), so only those four are measured, with
        np.hypot and in id order: the same distances and tie-breaks as a scan
        over every junction.
        """
        if self.grid is None:
            raise RoadGraphError("nearest_intersection needs a make_grid_graph grid")
        block, n_cols, n_rows = self.grid
        x, y = p
        i = min(max(math.floor(x / block), 0), n_cols - 2)
        j = min(max(math.floor(y / block), 0), n_rows - 2)
        dx0, dx1 = i * block - x, (i + 1) * block - x
        dy0, dy1 = j * block - y, (j + 1) * block - y
        # corners in id order, so argmin's first minimum is the lowest id
        d = np.hypot((dx0, dx1, dx0, dx1), (dy0, dy0, dy1, dy1))
        k = int(d.argmin())
        return (j + k // 2) * n_cols + i + k % 2, float(d[k])

    def is_at_intersection(self, p: tuple[float, float],
                           radius: float = DEFAULT_INTERSECTION_RADIUS) -> bool:
        if radius <= 0:
            raise ValueError("radius must be positive")
        return self.nearest_intersection(p)[1] <= radius


def make_grid_graph(area_width: float, area_height: float, block_size: float,
                    speed_limit: float = 14.0,
                    with_obstacles: bool = False) -> RoadGraph:
    """Manhattan grid covering the area with streets every block_size meters."""
    if block_size >= min(area_width, area_height):
        raise RoadGraphError("block_size must be smaller than both area dimensions")
    nx_cols = int(area_width // block_size) + 1
    ny_rows = int(area_height // block_size) + 1
    intersections = []
    for j in range(ny_rows):
        for i in range(nx_cols):
            intersections.append(
                Intersection(j * nx_cols + i, i * block_size, j * block_size))
    segments = []
    sid = 0
    for j in range(ny_rows):
        for i in range(nx_cols):
            node = j * nx_cols + i
            if i + 1 < nx_cols:
                segments.append(Segment(sid, node, node + 1, block_size, speed_limit))
                sid += 1
            if j + 1 < ny_rows:
                segments.append(Segment(sid, node, node + nx_cols, block_size, speed_limit))
                sid += 1
    obstacles = []
    if with_obstacles:
        for j in range(ny_rows - 1):
            for i in range(nx_cols - 1):
                x0 = i * block_size + OBSTACLE_INSET
                y0 = j * block_size + OBSTACLE_INSET
                x1 = (i + 1) * block_size - OBSTACLE_INSET
                y1 = (j + 1) * block_size - OBSTACLE_INSET
                if x1 > x0 and y1 > y0:
                    obstacles.append((x0, y0, x1, y1))
    graph = RoadGraph(intersections, segments, obstacles,
                      grid=(block_size, nx_cols, ny_rows))
    graph.validate()
    return graph


def _random_trips(graph: RoadGraph, rng: np.random.Generator,
                  duration: float, rows: int, speed_lo: float, speed_hi: float
                  ) -> tuple[list[float], list[float], list[float]]:
    """Shortest-path trips between random intersections, sampled every
    MOBILITY_DT from t = 0 up to the duration: (xs, ys, speeds), `rows` long.
    Rows past the last sample (the horizon, or the end of the walk) hold it."""
    g = graph.as_networkx()
    ids = sorted(graph.intersections)
    # start at a random point along a random segment so the initial placement
    # is uniform over street length, not clustered at junctions
    seg = graph.segments[int(rng.integers(len(graph.segments)))]
    pa = graph.intersections[seg.a]
    pb = graph.intersections[seg.b]
    frac = float(rng.uniform())
    start = (pa.x + frac * (pb.x - pa.x), pa.y + frac * (pb.y - pa.y))
    current = seg.b if rng.uniform() < 0.5 else seg.a
    points: list[tuple[float, float]] = [start]
    speeds: list[float] = []
    first = graph.intersections[current]
    first_speed = float(rng.uniform(speed_lo, speed_hi))
    d0 = math.hypot(first.x - start[0], first.y - start[1])
    total_time = 0.0
    if d0 > 0:
        points.append((first.x, first.y))
        speeds.append(first_speed)
        total_time += d0 / first_speed
    while total_time < duration:
        dest = current
        while dest == current:
            dest = int(rng.choice(ids))
        path = nx.shortest_path(g, current, dest, weight="weight")
        speed = float(rng.uniform(speed_lo, speed_hi))
        for hop in path[1:]:
            p = graph.intersections[hop]
            prev = points[-1]
            d = math.hypot(p.x - prev[0], p.y - prev[1])
            points.append((p.x, p.y))
            speeds.append(speed)
            total_time += d / speed
        current = dest
    # walk the polyline; each step moves at the speed of the leg it starts on
    lengths = [math.hypot(bx - ax, by - ay)
               for (ax, ay), (bx, by) in zip(points, points[1:])]
    n_samples = int((duration + 1e-9) / MOBILITY_DT) + 1
    xs: list[float] = []
    ys: list[float] = []
    vs: list[float] = []
    leg = 0
    leg_pos = 0.0
    x, y = points[0]
    while len(xs) < n_samples and leg < len(speeds):
        xs.append(x)
        ys.append(y)
        vs.append(speeds[leg])
        advance = speeds[leg] * MOBILITY_DT
        while advance > 0 and leg < len(speeds):
            remain = lengths[leg] - leg_pos
            if advance < remain:
                leg_pos += advance
                advance = 0.0
            else:
                advance -= remain
                leg += 1
                leg_pos = 0.0
        if leg < len(speeds):
            (ax, ay), (bx, by) = points[leg], points[leg + 1]
            frac = leg_pos / lengths[leg] if lengths[leg] > 0 else 0.0
            x = ax + frac * (bx - ax)
            y = ay + frac * (by - ay)
    hold = rows - len(xs)
    return xs + [xs[-1]] * hold, ys + [ys[-1]] * hold, vs + [vs[-1]] * hold


def generate_grid(area_width: float, area_height: float, block_size: float,
                  density: float, seed: int, *,
                  duration: float = 60.0, speed_limit: float = 14.0,
                  with_obstacles: bool = False, pedestrian_count: int = 0
                  ) -> tuple[RoadGraph, list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic grid scenario: Manhattan graph plus random-trip mobility.

    Vehicle count is round(density * area_km2).  Vehicles follow shortest-path
    trips between random intersections; pedestrians (when requested) do the
    same at walking speed.  Deterministic under the seed.

    Returns (graph, ids, XY, DXY, V): the mobile ids in sorted order; XY, of
    shape (rows, n, 2), holds their (x, y) at t = k * MOBILITY_DT, one row per
    k and one column per id, with rows = ceil(duration / MOBILITY_DT) + 2;
    DXY = XY[1:] - XY[:-1] holds the steps between samples, and V, of shape
    (rows, n), the speeds.

    The last WALK_MEMO_SIZE walks are memoized by these arguments: calls with
    equal arguments share the graph and the read-only XY, DXY and V, and each
    gets its own ids list.  generate_grid.cache_clear() empties the memo.
    """
    graph, ids, XY, DXY, V = _walk(area_width, area_height, block_size, density,
                                   seed, duration, speed_limit, with_obstacles,
                                   pedestrian_count)
    return graph, list(ids), XY, DXY, V


@functools.lru_cache(maxsize=WALK_MEMO_SIZE)
def _walk(area_width: float, area_height: float, block_size: float,
          density: float, seed: int, duration: float, speed_limit: float,
          with_obstacles: bool, pedestrian_count: int
          ) -> tuple[RoadGraph, tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    if density <= 0 and pedestrian_count <= 0:
        raise RoadGraphError("density must be positive")
    if area_width <= 0 or area_height <= 0:
        raise RoadGraphError("area must have positive dimensions")
    graph = make_grid_graph(area_width, area_height, block_size,
                            speed_limit, with_obstacles)
    area_km2 = area_width * area_height / 1e6
    n_vehicles = int(round(density * area_km2)) if density > 0 else 0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(0x6d0b,))))
    # trips are drawn in creation order; columns follow the sorted ids
    bands = ([(f"vehicle{v}", 0.5 * speed_limit, speed_limit)
              for v in range(n_vehicles)] +
             [(f"ped{p}", 0.8 * PEDESTRIAN_SPEED, 1.2 * PEDESTRIAN_SPEED)
              for p in range(pedestrian_count)])
    ids = sorted(nid for nid, _, _ in bands)
    column = {nid: i for i, nid in enumerate(ids)}
    rows = int(math.ceil(duration / MOBILITY_DT)) + 2
    XY = np.empty((rows, len(ids), 2))
    V = np.empty((rows, len(ids)))
    for nid, lo, hi in bands:
        i = column[nid]
        XY[:, i, 0], XY[:, i, 1], V[:, i] = _random_trips(graph, rng, duration,
                                                          rows, lo, hi)
    DXY = XY[1:] - XY[:-1]
    for table in (XY, DXY, V):
        table.setflags(write=False)  # shared by every caller of the memo
    return graph, tuple(ids), XY, DXY, V


generate_grid.cache_clear = _walk.cache_clear
