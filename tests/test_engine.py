"""Engine fast paths against the plain per-axis and per-receiver code they
replace: position lookup, shared neighbor entries and hello-driven relays."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetsim import routing as rt
from vanetsim.config import scenario_from_dict
from vanetsim.engine import DisseminationRun, PositionTable, build_run
from vanetsim.roadnet import MOBILITY_DT

from conftest import TINY_SCENARIO


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
            assert bits(fast.velocity(nid, t)) == bits(plain.velocity(nid, t))
            assert fast.speed(nid, t) == plain.speed(nid, t)


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
