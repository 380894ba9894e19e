"""Engine fast paths against the plain per-axis, per-receiver and per-beacon
code they replace: position lookup, shared neighbor entries, hello-driven
relays and DSW weights evaluated on read."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetsim import routing as rt
from vanetsim.config import resolve_scenario, scenario_from_dict
from vanetsim.engine import DisseminationRun, PositionTable, RoutingRun, build_run
from vanetsim.roadnet import MOBILITY_DT

from conftest import SCF_SCENARIO, TINY_SCENARIO


class PerAxisPositions:
    """The position lookup as it was: separate X and Y tables, differences
    taken at every call."""

    def __init__(self, mobile_ids, X, Y, V, static):
        fixed = sorted(static)
        self.index = {nid: i for i, nid in enumerate(list(mobile_ids) + fixed)}
        pad = np.zeros((len(X), len(fixed)))
        self.X = np.hstack((X, pad + [static[nid][0] for nid in fixed]))
        self.Y = np.hstack((Y, pad + [static[nid][1] for nid in fixed]))
        self.V = np.hstack((V, pad))

    def _bracket(self, t):
        k = int(t / MOBILITY_DT)
        k = max(0, min(k, len(self.X) - 2))
        frac = (t - k * MOBILITY_DT) / MOBILITY_DT
        return k, min(1.0, max(0.0, frac))

    def coords_at(self, t):
        k, frac = self._bracket(t)
        x = self.X[k] + frac * (self.X[k + 1] - self.X[k])
        y = self.Y[k] + frac * (self.Y[k + 1] - self.Y[k])
        return np.column_stack((x, y))

    def pos(self, nid, t):
        i = self.index[nid]
        k, frac = self._bracket(t)
        return (float(self.X[k, i] + frac * (self.X[k + 1, i] - self.X[k, i])),
                float(self.Y[k, i] + frac * (self.Y[k + 1, i] - self.Y[k, i])))

    def speed(self, nid, t):
        i = self.index[nid]
        k, _ = self._bracket(t)
        return float(self.V[k, i])

    def velocity(self, nid, t):
        i = self.index[nid]
        k, _ = self._bracket(t)
        return ((self.X[k + 1, i] - self.X[k, i]) / MOBILITY_DT,
                (self.Y[k + 1, i] - self.Y[k, i]) / MOBILITY_DT)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       rows=st.integers(min_value=2, max_value=9),
       mobile=st.integers(min_value=1, max_value=6),
       n_static=st.integers(min_value=0, max_value=3),
       times=st.lists(st.floats(min_value=-3.0, max_value=8.0, allow_nan=False),
                      min_size=1, max_size=12))
def test_position_lookup_equals_the_per_axis_formulas_bit_for_bit(
        seed, rows, mobile, n_static, times):
    rng = np.random.default_rng(seed)
    # wide magnitudes, so rounding in the interpolation shows if it differs
    XY = rng.uniform(-1.0, 1.0, (rows, mobile, 2)) * 10.0 ** rng.integers(0, 6)
    V = rng.uniform(0.0, 20.0, (rows, mobile))
    ids = [f"n{i}" for i in range(mobile)]
    static = {f"s{j}": tuple(rng.uniform(0.0, 1000.0, 2).tolist())
              for j in range(n_static)}
    fast = PositionTable(ids, XY, XY[1:] - XY[:-1], V, static)
    plain = PerAxisPositions(ids, XY[..., 0], XY[..., 1], V, static)
    # past the horizon too; the table spans (rows - 1) * MOBILITY_DT
    times = times + [(rows - 1) * MOBILITY_DT, (rows + 2) * MOBILITY_DT]
    for t in times:
        coords = fast.coords_at(t)
        assert coords.shape == (mobile + n_static, 2)
        assert bits(coords) == bits(plain.coords_at(t))
        for nid in fast.ids:
            assert bits(fast.pos(nid, t)) == bits(plain.pos(nid, t))
            assert fast.speed(nid, t) == plain.speed(nid, t)
            pos, speed, velocity = fast.motion(nid, t)
            assert bits(pos) == bits(plain.pos(nid, t))
            assert bits(speed) == bits(plain.speed(nid, t))
            assert bits(velocity) == bits(plain.velocity(nid, t))


def test_mobile_only_tables_are_shared_not_copied():
    XY = np.arange(24.0).reshape(3, 4, 2)
    DXY, V = XY[1:] - XY[:-1], np.ones((3, 4))
    ids = ["a", "b", "c", "d"]
    shared = PositionTable(ids, XY, DXY, V, {})
    assert shared.XY is XY and shared.DXY is DXY and shared.V is V
    with_origin = PositionTable(ids, XY, DXY, V, {"origin": (5.0, 6.0)})
    assert with_origin.ids == ids + ["origin"]
    assert with_origin.pos("origin", 0.7) == (5.0, 6.0)
    assert with_origin.speed("origin", 0.7) == 0.0
    # a static node's hello carries zero speed and no heading
    assert with_origin.motion("origin", 0.7) == ((5.0, 6.0), 0.0, (0.0, 0.0))


def tiny_run(protocol: str, seed: int = 0):
    cfg = scenario_from_dict(dict(TINY_SCENARIO))
    return build_run(cfg, 30.0, protocol, seed)


def test_one_hello_gives_every_receiver_the_same_frozen_entry():
    run = tiny_run("flooding-distance")
    sender = run.vehicle_ids[0]
    receivers = run.vehicle_ids[1:5]
    msg = run.make_hello(run.nodes[sender], 1.0)
    run.on_hello(receivers, msg, 1.25, sender)
    entries = [run.nodes[r].neighbors[sender] for r in receivers]
    assert all(e is entries[0] for e in entries)
    entry = entries[0]
    assert (entry.neighbor, entry.position, entry.last_heard) == (
        sender, msg.origin, 1.25)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.last_heard = 2.0


def test_a_finished_run_shares_one_entry_per_hello():
    run = tiny_run("nsf")
    run.execute()
    by_hello: dict = {}
    for node in run.nodes.values():
        for sender, entry in node.neighbors.items():
            by_hello.setdefault((sender, entry.last_heard), set()).add(id(entry))
    assert by_hello and all(len(ids) == 1 for ids in by_hello.values())


@pytest.mark.parametrize("step", [0, -1, 1])
def test_a_sender_is_new_exactly_when_its_entry_is_not_fresh(step):
    run = tiny_run("nsf")
    sender, receiver = run.vehicle_ids[:2]
    timeout = run.neighbor_timeout
    heard = 1.0
    # step the receipt time one ulp around heard + timeout, the freshness edge
    t = heard + timeout
    for _ in range(abs(step)):
        t = float(np.nextafter(t, np.inf if step > 0 else -np.inf))
    old = rt.NeighborEntry(sender, (0.0, 0.0), 0.0, (0.0, 0.0), 0.0, 0.0, 0.0, heard)
    run.nodes[receiver].neighbors[sender] = old
    run.pending_nsf[receiver] = [("f0", frozenset())]
    relayed = []
    run.relay_now = lambda node, msg_id: relayed.append((node.id, msg_id))
    msg = run.make_hello(run.nodes[sender], t)
    run.on_hello([receiver], msg, t, sender)
    if step == 0:
        assert t - heard == timeout and old.fresh(t, timeout)
    assert relayed == ([] if old.fresh(t, timeout) else [(receiver, "f0")])
    assert (receiver in run.pending_nsf) == old.fresh(t, timeout)


class PerReceiverHellos(DisseminationRun):
    """The hello handler as it was: one entry and one relay check per
    receiver, in receiver order."""

    def on_hello(self, receivers, msg, t, sender):
        p = msg.payload
        for receiver in receivers:
            node = self.nodes[receiver]
            is_new = sender not in node.neighbors or \
                not node.neighbors[sender].fresh(t, self.neighbor_timeout)
            node.neighbors[sender] = rt.NeighborEntry(
                sender, p["position"], p["speed"], p["heading"],
                p["density"], p["abe"], p["mac_loss"], t)
            pending_nsf = self.pending_nsf.get(receiver)
            if is_new and pending_nsf:
                for entry in list(pending_nsf):
                    msg_id, known = entry
                    if sender not in known:
                        pending_nsf.remove(entry)
                        self.relay_now(node, msg_id)
            pending_scf = self.pending_scf.get(receiver)
            if pending_scf:
                for msg_id in list(pending_scf):
                    pending_scf.remove(msg_id)
                    self.relay_now(node, msg_id)


held = st.lists(st.tuples(
    st.sampled_from(["none", "fresh", "edge", "stale"]),  # sender's entry
    st.lists(st.booleans(), max_size=3),  # NSF messages: sender known at receipt?
    st.integers(min_value=0, max_value=2)),  # SCF messages
    min_size=1, max_size=8)


@given(receivers=held)
def test_hello_relays_fire_for_the_same_receivers_as_the_per_receiver_code(receivers):
    cfg = scenario_from_dict(dict(TINY_SCENARIO))
    runs = [build_run(cfg, 30.0, "nsf", 0), PerReceiverHellos(cfg, 30.0, "nsf", 0)]
    t = 3.0
    relayed = []
    for run in runs:
        sender, *hearers = run.vehicle_ids[:len(receivers) + 1]
        timeout = run.neighbor_timeout
        heard = {"fresh": t - timeout / 2, "edge": t - timeout,
                 "stale": float(np.nextafter(t - timeout, -np.inf))}
        for r, (state, known, n_scf) in zip(hearers, receivers):
            if state != "none":
                run.nodes[r].neighbors[sender] = rt.NeighborEntry(
                    sender, (0.0, 0.0), 0.0, (0.0, 0.0), 0.0, 0.0, 0.0, heard[state])
            if known:
                run.pending_nsf[r] = [(f"n{k}", frozenset([sender] if s else ["x"]))
                                      for k, s in enumerate(known)]
            if n_scf:
                run.pending_scf[r] = [f"s{k}" for k in range(n_scf)]
        calls = []
        run.relay_now = lambda node, msg_id, calls=calls: calls.append((node.id, msg_id))
        run.on_hello(hearers, run.make_hello(run.nodes[sender], t), t, sender)
        pending = ({r: v for r, v in run.pending_nsf.items() if v},
                   {r: v for r, v in run.pending_scf.items() if v})
        relayed.append((calls, pending))
    assert relayed[0] == relayed[1]


def relays_of(run):
    calls = []
    relay_now = run.relay_now

    def recorded(node, msg_id):
        calls.append((run.sim.now, node.id, msg_id))
        relay_now(node, msg_id)

    run.relay_now = recorded
    ledger = run.execute()
    return calls, ledger


def test_nsf_runs_relay_as_under_the_per_receiver_code():
    cfg = scenario_from_dict(dict(TINY_SCENARIO))
    relays = 0
    for seed in range(3):
        fast, fast_ledger = relays_of(build_run(cfg, 30.0, "nsf", seed))
        plain, plain_ledger = relays_of(PerReceiverHellos(cfg, 30.0, "nsf", seed))
        assert fast == plain
        assert fast_ledger == plain_ledger
        relays += len(fast)
    assert relays > 0


def test_a_whole_run_stores_frames_and_relays_them_on_a_hello():
    run = build_run(scenario_from_dict(dict(SCF_SCENARIO)), 30.0, "add-vod", 0)
    on_hello, relay_now = run.on_hello, run.relay_now
    hearing, hello_relays = [], []

    def recorded_hello(*args):
        hearing.append(args)
        on_hello(*args)
        hearing.pop()

    def recorded_relay(node, msg_id):
        if hearing:
            hello_relays.append((node.id, msg_id))
        relay_now(node, msg_id)

    run.on_hello, run.relay_now = recorded_hello, recorded_relay
    ledger = run.execute()
    # add-vod holds nothing for NSF, so every relay a hello makes is SCF
    assert ledger.scf_stores > 0
    assert hello_relays and not run.pending_nsf


class EagerDsw(RoutingRun):
    """DSW weights as they were: brought up to date at every vehicle beacon,
    read as they stand."""

    def on_beacon_tick(self, node, now):
        if self.protocol == "3mrp-dsw" and node.kind == "vehicle":
            fresh = self.fresh_neighbors(node, now)
            if len(fresh) >= 2:
                pos = self.positions.pos(node.id, now)
                dest = self.closest_rsu_pos(pos)
                snaps = [rt.normalize_metrics(e, pos, dest,
                                              bitrate=self.cfg.radio.bitrate,
                                              density_ref=self.cfg.routing.density_ref)
                         for _nid, e in sorted(fresh.items())]
                node.weights = rt.dsw_update(snaps, node.weights,
                                             self.cfg.routing.dsw_lambda)
            else:
                node.weights = rt.equal_weights(self.cfg.routing.w_floor)

    def dsw_weights(self, node):
        return node.weights


def neighbor_table(seed, n_fresh, n_stale, now, timeout, ids):
    """n_fresh entries heard within the timeout and n_stale heard before it,
    with advertised state spread over the tiny scenario's ranges."""
    rng = np.random.default_rng(seed)
    table = {}
    for k, nid in enumerate(ids[:n_fresh + n_stale]):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        heard = now - rng.uniform(0.0, timeout) if k < n_fresh \
            else now - timeout - rng.uniform(0.01, 2.0)
        table[nid] = rt.NeighborEntry(
            nid, tuple(rng.uniform(0.0, 800.0, 2).tolist()), float(rng.uniform(0.0, 14.0)),
            (float(np.cos(angle)), float(np.sin(angle))), float(rng.uniform(0.0, 200.0)),
            float(rng.uniform(0.0, 6.0e6)), float(rng.uniform(0.0, 0.25)), heard)
    return table


beacon_or_read = st.one_of(
    st.tuples(st.just("beacon"), st.floats(min_value=0.05, max_value=1.5),
              st.integers(min_value=0, max_value=2**32 - 1),
              st.integers(min_value=0, max_value=6),  # fresh entries: < 2 resets
              st.integers(min_value=0, max_value=3)),  # stale entries
    st.just(("read",)))


@given(history=st.lists(beacon_or_read, min_size=1, max_size=25),
       vehicle=st.integers(min_value=0, max_value=9))
def test_weights_read_equal_the_weights_updated_at_every_beacon(history, vehicle):
    cfg = scenario_from_dict(dict(TINY_SCENARIO))
    runs = [build_run(cfg, 30.0, "3mrp-dsw", 0), EagerDsw(cfg, 30.0, "3mrp-dsw", 0)]
    reads = []
    for run in runs:
        node = run.nodes[run.vehicle_ids[vehicle]]
        others = [nid for nid in run.vehicle_ids if nid != node.id]
        t, seen = 0.5, []
        for op in history + [("read",)]:
            if op[0] == "beacon":
                _, dt, seed, n_fresh, n_stale = op
                t += dt
                node.neighbors = neighbor_table(seed, n_fresh, n_stale, t,
                                                run.neighbor_timeout, others)
                run.on_beacon_tick(node, t)
                assert len(node.neighbors) == n_fresh  # stale entries dropped
            else:
                seen.append(bits(run.dsw_weights(node).as_tuple()))
        reads.append(seen)
    assert reads[0] == reads[1]


def weight_reads(run):
    """Execute run, recording the DSW weights at every read."""
    reads = []
    dsw_weights = run.dsw_weights

    def recorded(node):
        w = dsw_weights(node)
        reads.append((run.sim.now, node.id, bits(w.as_tuple())))
        return w

    run.dsw_weights = recorded
    ledger = run.execute()
    return reads, ledger


@pytest.mark.parametrize("scenario", ["tiny", "leganes-routing"])
def test_dsw_runs_read_the_weights_the_per_beacon_code_held(scenario):
    if scenario == "tiny":
        cfg, densities, seeds = scenario_from_dict(dict(TINY_SCENARIO)), [30.0], [0, 1]
    else:
        # the preset cut short: beacons from 0 s, video packets from 5 s
        cfg = dataclasses.replace(resolve_scenario(scenario), duration=8.0)
        densities, seeds = cfg.densities, [0]
    total = 0
    for density in densities:
        for seed in seeds:
            lazy, lazy_ledger = weight_reads(build_run(cfg, density, "3mrp-dsw", seed))
            eager, eager_ledger = weight_reads(EagerDsw(cfg, density, "3mrp-dsw", seed))
            assert lazy == eager
            assert lazy_ledger == eager_ledger
            total += len(lazy)
    assert total > 0
