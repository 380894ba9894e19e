"""Road graph construction/validation and random-trip mobility on the grid."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetsim.roadnet import (MOBILITY_DT, PEDESTRIAN_SPEED, Intersection,
                              RoadGraph, RoadGraphError, Segment,
                              generate_grid, make_grid_graph)


def test_grid_graph_has_expected_intersections_and_is_valid():
    graph = make_grid_graph(800.0, 800.0, 200.0)
    assert len(graph.intersections) == 5 * 5
    graph.validate()
    # interior intersections have degree 4
    g = graph.as_networkx()
    degrees = sorted(d for _, d in g.degree())
    assert degrees[0] == 2 and degrees[-1] == 4


def test_grid_graph_rejects_oversized_blocks():
    with pytest.raises(RoadGraphError):
        make_grid_graph(100.0, 100.0, 200.0)


def test_validate_rejects_duplicate_intersections():
    graph = RoadGraph([Intersection(0, 0.0, 0.0), Intersection(1, 0.0, 0.0)],
                      [Segment(0, 0, 1, 0.0, 14.0)])
    with pytest.raises(RoadGraphError, match="duplicate"):
        graph.validate()


def test_validate_rejects_dangling_segment_reference():
    graph = RoadGraph([Intersection(0, 0.0, 0.0), Intersection(1, 100.0, 0.0)],
                      [Segment(0, 0, 7, 100.0, 14.0)])
    with pytest.raises(RoadGraphError, match="missing"):
        graph.validate()


def test_validate_rejects_wrong_segment_length():
    graph = RoadGraph([Intersection(0, 0.0, 0.0), Intersection(1, 100.0, 0.0)],
                      [Segment(0, 0, 1, 55.0, 14.0)])
    with pytest.raises(RoadGraphError):
        graph.validate()


def test_validate_rejects_disconnected_graph():
    graph = RoadGraph(
        [Intersection(0, 0.0, 0.0), Intersection(1, 100.0, 0.0),
         Intersection(2, 500.0, 500.0), Intersection(3, 600.0, 500.0)],
        [Segment(0, 0, 1, 100.0, 14.0), Segment(1, 2, 3, 100.0, 14.0)])
    with pytest.raises(RoadGraphError, match="connected"):
        graph.validate()


def test_is_at_intersection_radius_boundary():
    graph = make_grid_graph(400.0, 400.0, 200.0)
    corner = graph.intersections[0]
    assert graph.is_at_intersection((corner.x + 5.0, corner.y), radius=5.0)
    assert not graph.is_at_intersection((corner.x + 5.1, corner.y), radius=5.0)
    with pytest.raises(ValueError):
        graph.is_at_intersection((0.0, 0.0), radius=0.0)


def test_generate_grid_population_matches_density():
    graph, ids, XY, DXY, V = generate_grid(800.0, 800.0, 200.0, 30.0, seed=0,
                                           duration=5.0, pedestrian_count=7)
    area_km2 = 0.8 * 0.8
    vehicles = [nid for nid in ids if nid.startswith("vehicle")]
    assert abs(len(vehicles) - 30.0 * area_km2) <= 1.0
    assert sum(nid.startswith("ped") for nid in ids) == 7
    assert ids == sorted(ids)
    rows = math.ceil(5.0 / MOBILITY_DT) + 2
    assert XY.shape == (rows, len(ids), 2) and V.shape == (rows, len(ids))
    assert DXY.shape == (rows - 1, len(ids), 2)
    assert np.array_equal(DXY, np.diff(XY, axis=0))
    # the last row lies past the horizon and holds the sample at the horizon
    assert np.array_equal(XY[-1], XY[-2]) and np.array_equal(V[-1], V[-2])
    graph.validate()


def test_generate_grid_is_deterministic_per_seed():
    _, ids_a, *a = generate_grid(600.0, 600.0, 200.0, 25.0, seed=5, duration=4.0)
    generate_grid.cache_clear()  # build the second seed-5 walk afresh
    _, ids_b, *b = generate_grid(600.0, 600.0, 200.0, 25.0, seed=5, duration=4.0)
    _, ids_c, *c = generate_grid(600.0, 600.0, 200.0, 25.0, seed=6, duration=4.0)
    assert ids_a == ids_b == ids_c
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    assert not np.array_equal(a[0], c[0])


WALK = (600.0, 400.0, 200.0, 20.0, 3)


def test_walk_memo_entry_equals_a_fresh_build_bit_for_bit():
    generate_grid.cache_clear()
    graph, ids, *tables = generate_grid(*WALK, duration=4.0, pedestrian_count=5)
    # the defaults written out name the same entry
    again = generate_grid(*WALK, duration=4.0, speed_limit=14.0,
                          with_obstacles=False, pedestrian_count=5)
    assert again[0] is graph and all(p is q for p, q in zip(again[2:], tables))
    generate_grid.cache_clear()
    fresh_graph, fresh_ids, *fresh = generate_grid(*WALK, duration=4.0,
                                                   pedestrian_count=5)
    assert fresh_graph is not graph
    assert fresh_ids == ids
    assert (fresh_graph.intersections, fresh_graph.segments, fresh_graph.obstacles,
            fresh_graph.grid) == (graph.intersections, graph.segments,
                                  graph.obstacles, graph.grid)
    for p, q in zip(fresh, tables):
        assert p.dtype == q.dtype and p.shape == q.shape
        assert p.tobytes() == q.tobytes()


def test_walk_memo_tables_are_read_only():
    _, _, XY, DXY, V = generate_grid(*WALK, duration=4.0)
    for table in (XY, DXY, V):
        with pytest.raises(ValueError):
            table[0, 0] = -1.0
        with pytest.raises(ValueError):
            table += 1.0
    assert (generate_grid(*WALK, duration=4.0)[2][0, 0] != -1.0).all()


def test_walk_memo_hands_every_caller_its_own_ids():
    _, ids, *_ = generate_grid(*WALK, duration=4.0)
    expected = list(ids)
    ids.append("intruder")
    ids.reverse()
    _, again, *_ = generate_grid(*WALK, duration=4.0)
    assert again == expected and again is not ids


def test_walk_memo_keys_on_every_argument_that_shapes_the_walk():
    graph, ids, XY, _, _ = generate_grid(*WALK, duration=4.0)
    width, height, block, density, seed = WALK
    other_seed = generate_grid(width, height, block, density, seed + 1, duration=4.0)
    other_density = generate_grid(width, height, block, 2 * density, seed,
                                  duration=4.0)
    with_peds = generate_grid(*WALK, duration=4.0, pedestrian_count=3)
    blocked = generate_grid(*WALK, duration=4.0, with_obstacles=True)
    for entry in (other_seed, other_density, with_peds, blocked):
        assert entry[0] is not graph
    assert not np.array_equal(other_seed[2], XY)
    assert other_density[2].shape[1] > XY.shape[1]
    assert sum(nid.startswith("ped") for nid in with_peds[1]) == 3
    assert blocked[0].obstacles and not graph.obstacles


@given(seed=st.integers(min_value=0, max_value=50))
def test_generated_positions_stay_on_the_map(seed):
    _, _, XY, _, V = generate_grid(600.0, 400.0, 200.0, 20.0, seed=seed, duration=4.0)
    X, Y = XY[..., 0], XY[..., 1]
    assert X.min() >= -1e-6 and X.max() <= 600.0 + 1e-6
    assert Y.min() >= -1e-6 and Y.max() <= 400.0 + 1e-6
    assert V.min() > 0.0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_trips_stay_on_streets_within_their_speed_band(seed):
    block, speed_limit = 100.0, 14.0
    _, ids, XY, _, V = generate_grid(500.0, 300.0, block, 40.0, seed=seed,
                                     duration=30.0, speed_limit=speed_limit,
                                     pedestrian_count=10)
    X, Y = XY[..., 0], XY[..., 1]
    # every sample lies on a street: a multiple of the block size in x or y
    off_x = np.abs(X - np.round(X / block) * block)
    off_y = np.abs(Y - np.round(Y / block) * block)
    assert (np.minimum(off_x, off_y) <= 1e-6).all()
    walking = np.array([nid.startswith("ped") for nid in ids])
    lo = np.where(walking, 0.8 * PEDESTRIAN_SPEED, 0.5 * speed_limit)
    hi = np.where(walking, 1.2 * PEDESTRIAN_SPEED, speed_limit)
    assert ((V >= lo) & (V <= hi)).all()
    step = np.hypot(np.diff(X, axis=0), np.diff(Y, axis=0))
    assert (step <= hi * MOBILITY_DT + 1e-9).all()


def scan_nearest(graph: RoadGraph, p: tuple[float, float]) -> tuple[int, float]:
    """The plain lookup the grid arithmetic replaced: np.hypot to every
    junction, lowest id among the closest."""
    ids = np.array(sorted(graph.intersections))
    coords = np.array([[graph.intersections[i].x, graph.intersections[i].y]
                       for i in ids])
    d = np.hypot(coords[:, 0] - p[0], coords[:, 1] - p[1])
    best = d.min()
    return int(ids[np.flatnonzero(d == best)[0]]), float(best)


def grid_coordinate(block: float):
    """Half-block multiples (junctions and ties) from 3 blocks before the grid
    to past its far edge, each moved by nothing, by 1e-9 m, by a few ulps or
    anywhere within half a block."""
    def place(k, offset, ulps):
        v = k * block / 2.0 + offset
        for _ in range(abs(ulps)):
            v = float(np.nextafter(v, math.copysign(math.inf, ulps)))
        return v

    offsets = st.one_of(st.sampled_from([0.0, 1e-9, -1e-9]),
                        st.floats(-block / 2.0, block / 2.0))
    return st.builds(place, st.integers(-6, 40), offsets, st.integers(-3, 3))


@given(st.sampled_from([100.0, 137.3, 170.0, 200.0, 250.0]).flatmap(
    lambda block: st.tuples(
        st.just(block),
        st.integers(2, 8), st.integers(2, 8), st.sampled_from([0.0, 0.5]),
        grid_coordinate(block), grid_coordinate(block))))
def test_nearest_intersection_matches_brute_force(case):
    block, cols, rows, spare, x, y = case
    graph = make_grid_graph((cols + spare) * block, (rows + spare) * block, block)
    assert graph.nearest_intersection((x, y)) == scan_nearest(graph, (x, y))
