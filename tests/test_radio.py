"""Link quality, adaptive beaconing, reachability and the shared channel."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetsim.engine import Message, build_run
from vanetsim.radio import (BUSY_WINDOW, Channel, LinkQualityInputs,
                            RadioConfig, abe_estimate, atb_interval, lqf,
                            reachable, segment_intersects_rect)
from vanetsim.roadnet import make_grid_graph

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_lqf_is_the_equal_weight_mean():
    assert lqf(LinkQualityInputs(1.0, 1.0, 0.0)) == 1.0
    assert lqf(LinkQualityInputs(0.0, 0.0, 1.0)) == 0.0
    assert abs(lqf(LinkQualityInputs(0.6, 0.3, 0.3)) - (0.6 + 0.3 + 0.7) / 3.0) < 1e-12


def test_lqf_rejects_out_of_range_inputs():
    with pytest.raises(ValueError):
        lqf(LinkQualityInputs(1.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        lqf(LinkQualityInputs(0.5, 0.5, -0.1))


@given(unit, unit, unit)
def test_lqf_stays_in_unit_interval(signal, channel, coll):
    assert 0.0 <= lqf(LinkQualityInputs(signal, channel, coll)) <= 1.0


@given(unit, unit, st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
def test_lqf_improves_with_signal_and_degrades_with_collisions(signal, channel, delta):
    base = lqf(LinkQualityInputs(signal, channel, 0.5))
    better_signal = lqf(LinkQualityInputs(min(1.0, signal + delta), channel, 0.5))
    more_collisions = lqf(LinkQualityInputs(signal, channel, 0.5 + delta))
    assert better_signal >= base - 1e-12
    assert more_collisions <= base + 1e-12


def test_abe_is_the_idle_fraction_of_the_bitrate():
    assert abe_estimate(0.0, 6e6) == 6e6
    assert abe_estimate(1.0, 6e6) == 0.0
    assert abs(abe_estimate(0.25, 6e6) - 4.5e6) < 1e-6
    with pytest.raises(ValueError):
        abe_estimate(1.5, 6e6)


def test_atb_interval_grows_quadratically():
    assert atb_interval(0.0, 1.0, 5.0) == 1.0
    assert atb_interval(1.0, 1.0, 5.0) == 5.0
    assert abs(atb_interval(0.5, 1.0, 5.0) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        atb_interval(0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        atb_interval(-0.1, 1.0, 5.0)


@given(unit, unit)
def test_atb_interval_is_bounded_and_monotone(b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    i_lo = atb_interval(lo, 0.5, 3.0)
    i_hi = atb_interval(hi, 0.5, 3.0)
    assert 0.5 <= i_lo <= i_hi <= 3.0


def test_segment_rect_intersection_cases():
    rect = (10.0, 10.0, 20.0, 20.0)
    assert segment_intersects_rect((0.0, 15.0), (30.0, 15.0), rect)      # crosses
    assert segment_intersects_rect((15.0, 15.0), (40.0, 15.0), rect)     # starts inside
    assert segment_intersects_rect((0.0, 10.0), (30.0, 10.0), rect)      # touches edge
    assert not segment_intersects_rect((0.0, 5.0), (30.0, 5.0), rect)    # passes below
    assert not segment_intersects_rect((0.0, 0.0), (5.0, 30.0), rect)    # passes left
    assert segment_intersects_rect((12.0, 12.0), (12.0, 12.0), rect)     # point inside
    assert not segment_intersects_rect((5.0, 5.0), (5.0, 5.0), rect)     # point outside


def test_in_range_distance_boundary():
    coords = np.array([(100.0, 0.0), (100.1, 0.0), (60.0, 80.0)])
    assert reachable((0.0, 0.0), coords, [], 100.0).tolist() == [True, False, True]


RECT = (10.0, 10.0, 20.0, 20.0)
BLOCK = 200.0
# the inset city blocks of a 3 x 3 block grid: the street on x = 200 runs
# between the block faces on x = 195 and x = 205
GRID_RECTS = make_grid_graph(3 * BLOCK, 3 * BLOCK, BLOCK, with_obstacles=True).obstacles


def test_in_range_respects_obstacle_blocking():
    cases = [
        ((0.0, 0.0), (100.0, 0.0), [(40.0, -10.0, 60.0, 10.0)], False),  # crosses
        ((0.0, 50.0), (100.0, 50.0), [(40.0, -10.0, 60.0, 10.0)], True),  # passes by
        ((0.0, 0.0), (100.0, 0.0), [], True),          # no rectangles, no blocking
        ((0.0, 10.0), (30.0, 10.0), [RECT], False),    # runs along a face
        ((0.0, 20.0), (20.0, 0.0), [RECT], False),     # touches a corner only
        ((0.0, 5.0), (30.0, 5.0), [RECT], True),       # parallel, outside
        ((15.0, 15.0), (15.0, 15.0), [RECT], False),   # zero length, inside
        ((5.0, 5.0), (5.0, 5.0), [RECT], True),        # zero length, outside
    ]
    for sender, p, rects, hears in cases:
        assert reachable(sender, np.array([p]), rects, 100.0).tolist() == [hears]
    # from a street centre line: ends on a face, runs along the street to
    # exactly r_max, crosses a block, ends beyond r_max
    coords = np.array([(195.0, 100.0), (200.0, 300.0), (400.0, 100.0), (200.0, 300.1)])
    assert reachable((200.0, 100.0), coords, GRID_RECTS, BLOCK).tolist() == [
        False, True, False, False]


def make_channel(per_link_loss=0.0, bitrate=6e6, seed=0):
    cfg = RadioConfig(bitrate=bitrate, per_link_loss=per_link_loss)
    return Channel(cfg, np.random.default_rng(seed))


def test_airtime_is_size_over_bitrate():
    ch = make_channel(bitrate=6e6)
    assert abs(ch.airtime(750) - 1e-3) < 1e-15


def test_receiver_set_excludes_sender_and_out_of_range_nodes(tiny_cfg):
    run = build_run(tiny_cfg, 30.0, "flooding-distance", 0)
    ids, coords = run.positions.ids, run.positions.coords_at(0.0)
    for i, sender in enumerate(ids):
        run.broadcast(sender, Message(f"m{i}", "warning", (0.0, 0.0), 0.0, 100, 1),
                      lambda *_: None)
        x, y = run.positions.pos(sender, 0.0)
        assert run.channel.transmissions[-1].receivers == {
            nid for nid, (px, py) in zip(ids, coords)
            if nid != sender and math.hypot(px - x, py - y) <= tiny_cfg.radio.r_max}


def test_lossless_isolated_transmission_delivers_to_everyone():
    ch = make_channel()
    tx = ch.start_transmission("a", (0.0, 0.0), 100, 0.0, ["b", "c"])
    delivered, collided = ch.resolve(tx)
    assert delivered == ["b", "c"]
    assert collided == []
    assert ch.collision_events == 0


def test_overlapping_transmissions_collide_at_shared_receivers():
    ch = make_channel()
    # b hears both a and c; their airtimes overlap, so b loses both frames
    tx1 = ch.start_transmission("a", (0.0, 0.0), 1000, 0.0, ["b", "c"])
    tx2 = ch.start_transmission("c", (100.0, 0.0), 1000, 0.0005, ["a", "b"])
    d1, c1 = ch.resolve(tx1)
    d2, c2 = ch.resolve(tx2)
    assert "b" in c1 and "b" in c2
    assert "b" not in d1 and "b" not in d2
    assert ch.collision_events == 1  # one event for the colliding pair
    assert ch.lost_collision == 2    # counted once per lost frame


def test_disjoint_airtimes_do_not_collide():
    ch = make_channel()
    tx1 = ch.start_transmission("a", (0.0, 0.0), 100, 0.0, ["b"])
    ch.resolve(tx1)
    tx2 = ch.start_transmission("a", (0.0, 0.0), 100, 1.0, ["b"])
    delivered, collided = ch.resolve(tx2)
    assert delivered == ["b"] and collided == []


def test_channel_loss_accounting_is_conservative():
    ch = make_channel(per_link_loss=0.3, seed=7)
    rng = np.random.default_rng(11)
    nodes = {f"n{i}": (float(rng.uniform(0, 300)), float(rng.uniform(0, 300)))
             for i in range(12)}
    pending = []
    t = 0.0
    for round_idx in range(60):
        sender = f"n{round_idx % 12}"
        x, y = nodes[sender]
        hearers = [n for n, (px, py) in nodes.items()
                   if n != sender and math.hypot(px - x, py - y) <= 100.0]
        tx = ch.start_transmission(sender, (x, y), 1500, t, hearers)
        pending.append(tx)
        if rng.random() < 0.6:   # sometimes let transmissions overlap
            t += 0.0001
        else:
            t += 0.01
            for done in pending:
                ch.resolve(done)
            pending.clear()
    for done in pending:
        ch.resolve(done)
    assert ch.receivable == ch.delivered + ch.lost_collision + ch.lost_link
    assert ch.receivable > 0 and ch.lost_link > 0


def test_busy_ratio_tracks_heard_airtime_and_expires():
    ch = make_channel(bitrate=6e6)
    air = ch.airtime(7500)  # 10 ms
    ch.start_transmission("a", (0.0, 0.0), 7500, 0.0, ["b"])
    assert abs(ch.busy_ratio("b", air) - air / BUSY_WINDOW) < 1e-12
    assert ch.busy_ratio("a", air) == 0.0          # senders do not hear themselves
    assert ch.busy_ratio("b", BUSY_WINDOW + 1.0) == 0.0
    assert ch.busy_ratio("unknown", 0.0) == 0.0


def test_collision_prob_is_the_windowed_collision_fraction():
    ch = make_channel()
    tx1 = ch.start_transmission("a", (0.0, 0.0), 1000, 0.0, ["b", "c"])
    tx2 = ch.start_transmission("c", (100.0, 0.0), 1000, 0.0005, ["a", "b"])
    ch.resolve(tx1)
    ch.resolve(tx2)
    tx3 = ch.start_transmission("a", (0.0, 0.0), 1000, 1.0, ["b", "c"])
    ch.resolve(tx3)
    # b heard three frames, two of which collided
    assert abs(ch.collision_prob("b", 1.1) - 2.0 / 3.0) < 1e-12
    assert ch.collision_prob("unknown", 1.1) == 0.0


# --- batched channel against the per-receiver reference ----------------------

class ScalarChannel(Channel):
    """The plain channel the batched one replaced: a clash list and a scalar
    loss draw per receiver, then one scalar MAC draw per delivered receiver."""

    def resolve(self, tx):
        delivered, collided = [], []
        overlapping = [
            t for t in self.transmissions
            if t is not tx and t.start < tx.end and t.end > tx.start
        ]
        for node in sorted(tx.receivers):
            self.receivable += 1
            clash = [t for t in overlapping if node in t.receivers]
            hist = self._collision_hist.setdefault(node, deque())
            if clash:
                self.lost_collision += 1
                collided.append(node)
                hist.append((tx.end, 1))
                self._collision_sum[node] = self._collision_sum.get(node, 0) + 1
                if all((tx.end, tx.start, tx.sender) <= (t.end, t.start, t.sender)
                       for t in clash):
                    self.collision_events += 1
                continue
            hist.append((tx.end, 0))
            if self.cfg.per_link_loss > 0 and \
                    self.loss_rng.random() < self.cfg.per_link_loss:
                self.lost_link += 1
                continue
            self.delivered += 1
            delivered.append(node)
        return delivered, collided

    def mac_survivors(self, delivered, mac_loss):
        received = []
        for node, p in zip(delivered, mac_loss):
            if p > 0 and self.loss_rng.random() < p:
                self.lost_mac += 1
                continue
            received.append(node)
        return received


NODES = [f"n{i}" for i in range(8)]
COUNTERS = ("receivable", "delivered", "lost_collision", "lost_link", "lost_mac",
            "collision_events")

# start slots of 0.5 ms and airtimes of 0.5 or 1 ms make overlaps, shared
# receivers and equal end times common; a slot past the busy window prunes
schedule = st.lists(
    st.tuples(st.sampled_from(NODES),
              st.one_of(st.integers(0, 12), st.just(20_000)),
              st.sampled_from([375, 750]),
              st.sets(st.sampled_from(NODES))),
    min_size=1, max_size=25)


@given(schedule, st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       st.lists(st.sampled_from([0.0, 0.1, 0.6]), min_size=8, max_size=8),
       st.integers(0, 2**32 - 1))
def test_batched_resolve_matches_the_per_receiver_reference(txs, per_link_loss,
                                                             mac, seed):
    mac_loss = dict(zip(NODES, mac))
    channels = [cls(RadioConfig(per_link_loss=per_link_loss),
                    np.random.default_rng(seed)) for cls in (Channel, ScalarChannel)]
    # (time, 0 = start / 1 = end, order): starts and ends interleave by time
    events = []
    for k, (sender, slot, size, hearers) in enumerate(txs):
        start = slot * 0.0005
        events.append((start, 0, k))
        events.append((start + channels[0].airtime(size), 1, k))
    started = [{}, {}]
    for t, kind, k in sorted(events):
        sender, _slot, size, hearers = txs[k]
        if kind == 0:
            for ch, live in zip(channels, started):
                live[k] = ch.start_transmission(sender, (0.0, 0.0), size, t,
                                                sorted(hearers - {sender}))
            continue
        outcomes = []
        for ch, live in zip(channels, started):
            delivered, collided = ch.resolve(live[k])
            received = ch.mac_survivors(delivered, [mac_loss[n] for n in delivered])
            outcomes.append((delivered, collided, received,
                             [ch.collision_prob(n, t) for n in NODES],
                             [ch.busy_ratio(n, t) for n in NODES]))
        assert outcomes[0] == outcomes[1]
    fast, plain = channels
    for name in COUNTERS:
        assert getattr(fast, name) == getattr(plain, name), name
    assert fast.loss_rng.bit_generator.state == plain.loss_rng.bit_generator.state


def test_every_delivery_the_mac_keeps_reaches_the_application(tiny_cfg):
    run = build_run(tiny_cfg, 30.0, "flooding-distance", 0)
    received = 0
    broadcast = run.broadcast

    def counting_broadcast(sender, msg, on_delivery):
        def counted(receivers, *args):
            nonlocal received
            received += len(receivers)
            on_delivery(receivers, *args)

        broadcast(sender, msg, counted)

    run.broadcast = counting_broadcast
    run.execute()
    ch = run.channel
    assert ch.lost_mac > 0
    assert received == ch.delivered - ch.lost_mac
