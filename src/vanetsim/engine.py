"""Run orchestration: builds scenarios and executes one seeded run per
(protocol, density), producing a MetricsLedger."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import dissemination as dis
from . import routing as rt
from .config import (CTD_PROTOCOLS, ROUTING_PROTOCOLS, ScenarioConfig, Frame,
                     expand_protocol, synthetic_frame_trace)
from .ctd import Alert, majority_confirms, passive_accept, reply_draw
from .metrics import MetricsLedger
from .radio import Channel, LinkQualityInputs, abe_estimate, lqf, reachable
from .roadnet import MOBILITY_DT, generate_grid
from .simcore import RngStreams, SimEvent, Simulator

HELLO_SIZE = 64          # bytes
ALERT_SIZE = 200
REPLY_SIZE = 64
PROC_DELAY = 0.002       # per-hop forwarding latency beyond airtime, seconds
MAC_LOSS_MAX = 0.25      # intrinsic per-vehicle MAC loss upper bound
DATA_MAC_RETRIES = 3     # unicast attempts per data hop before giving up
JSF_JUNCTION_RADIUS = 10.0  # metres: a JSF holder within this of a junction relays
TIMER_V_MAX = 14.0       # m/s: timer-relay speeds are capped here


@dataclass
class Message:
    id: str
    kind: str               # hello | warning | data | alert | ctd-query | ctd-reply
    origin: tuple[float, float]
    created: float
    size: int
    ttl: int
    hops: int = 0
    payload: object = None
    dest: object = None     # routing destination (point) or addressed node id
    ring: object = None
    perimeter: object = None


@dataclass
class Node:
    id: str
    kind: str               # vehicle | pedestrian | rsu
    static_pos: Optional[tuple[float, float]] = None
    mac_loss: float = 0.0
    neighbors: dict = field(default_factory=dict)
    seen: set = field(default_factory=set)
    msg_state: dict = field(default_factory=dict)
    weights: rt.MetricWeights = field(default_factory=rt.equal_weights)


class PositionTable:
    """Positions of every node on the mobility sample grid, vectorized lookup
    by time.  Mobile columns come from the random-trip walk and are shared
    with it; static nodes (origin, RSUs) follow as constant columns with zero
    speed, appended to a copy."""

    def __init__(self, mobile_ids: list[str], XY: np.ndarray, DXY: np.ndarray,
                 V: np.ndarray, static: dict[str, tuple[float, float]]):
        fixed = sorted(static)
        self.ids = list(mobile_ids) + fixed
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        if fixed:
            spots = np.array([static[nid] for nid in fixed], dtype=float)
            XY = np.concatenate((XY, np.broadcast_to(spots, (len(XY),) + spots.shape)),
                                axis=1)
            DXY = np.concatenate((DXY, np.zeros((len(DXY),) + spots.shape)), axis=1)
            V = np.concatenate((V, np.zeros((len(V), len(fixed)))), axis=1)
        self.XY, self.DXY, self.V = XY, DXY, V

    def _bracket(self, t: float) -> tuple[int, float]:
        k = int(t / MOBILITY_DT)
        k = max(0, min(k, len(self.DXY) - 1))
        frac = (t - k * MOBILITY_DT) / MOBILITY_DT
        return k, min(1.0, max(0.0, frac))

    def coords_at(self, t: float) -> np.ndarray:
        k, frac = self._bracket(t)
        return self.XY[k] + frac * self.DXY[k]

    def pos(self, nid: str, t: float) -> tuple[float, float]:
        i = self.index[nid]
        k, frac = self._bracket(t)
        x, y = self.XY[k, i].tolist()
        dx, dy = self.DXY[k, i].tolist()
        return (x + frac * dx, y + frac * dy)

    def speed(self, nid: str, t: float) -> float:
        i = self.index[nid]
        k, _ = self._bracket(t)
        return float(self.V[k, i])

    def velocity(self, nid: str, t: float) -> tuple[float, float]:
        i = self.index[nid]
        k, _ = self._bracket(t)
        dx, dy = self.DXY[k, i].tolist()
        return (dx / MOBILITY_DT, dy / MOBILITY_DT)


class Run:
    """Shared substrate for one seeded run."""

    def __init__(self, cfg: ScenarioConfig, density: float, protocol: str, seed: int):
        self.cfg = cfg
        self.protocol = protocol
        self.seed = seed
        self.sim = Simulator()
        self.rngs = RngStreams(seed)
        self.ledger = MetricsLedger(rings=tuple(cfg.rings))
        self.msg_counter = 0

        pedestrians = cfg.pedestrian_count if protocol in CTD_PROTOCOLS else 0
        vehicle_density = 0.0 if protocol in CTD_PROTOCOLS else density
        self.graph, mobile_ids, XY, DXY, V = generate_grid(
            cfg.area.width, cfg.area.height, cfg.area.block_size,
            vehicle_density, seed, duration=cfg.duration + 1.0,
            with_obstacles=cfg.radio.obstacle_blocking, pedestrian_count=pedestrians)

        static: dict[str, tuple[float, float]] = {}
        if cfg.warning.origin is not None:
            self.origin = cfg.warning.origin
        else:
            # default to the junction nearest the area center so the source
            # sits on a street rather than inside a building block
            center = (cfg.area.width / 2.0, cfg.area.height / 2.0)
            iid, _ = self.graph.nearest_intersection(center)
            node = self.graph.intersections[iid]
            self.origin = (node.x, node.y)
        self.rsu_ids: list[str] = []
        if protocol in ROUTING_PROTOCOLS:
            for r, frac in enumerate(self._rsu_fractions(cfg.routing.rsu_count)):
                p = (frac[0] * cfg.area.width, frac[1] * cfg.area.height)
                iid, _ = self.graph.nearest_intersection(p)
                node = self.graph.intersections[iid]
                static[f"rsu{r}"] = (node.x, node.y)
                self.rsu_ids.append(f"rsu{r}")
        elif protocol not in CTD_PROTOCOLS:
            static["origin"] = self.origin

        self.positions = PositionTable(mobile_ids, XY, DXY, V, static)
        self.channel = Channel(cfg.radio, self.rngs.get("radio-loss"))
        mac_rng = self.rngs.get("scenario")
        self.nodes: dict[str, Node] = {}
        for nid in mobile_ids:
            kind = "pedestrian" if nid.startswith("ped") else "vehicle"
            loss = float(mac_rng.uniform(0.0, MAC_LOSS_MAX)) if kind == "vehicle" else 0.0
            self.nodes[nid] = Node(nid, kind, mac_loss=loss,
                                   weights=rt.equal_weights(cfg.routing.w_floor))
        for nid, pos in static.items():
            kind = "rsu" if nid.startswith("rsu") else "vehicle"
            self.nodes[nid] = Node(nid, kind, static_pos=pos)
        self.jitter_rng = self.rngs.get("jitter")
        self.game_rng = self.rngs.get("game-draw")
        self.assess_rng = self.rngs.get("assessment")
        self.neighbor_timeout = cfg.routing.hello_interval * cfg.routing.neighbor_timeout_factor

    @staticmethod
    def _rsu_fractions(count: int) -> list[tuple[float, float]]:
        spots = [(0.25, 0.25), (0.75, 0.75), (0.25, 0.75), (0.75, 0.25),
                 (0.5, 0.5), (0.5, 0.25), (0.5, 0.75), (0.25, 0.5), (0.75, 0.5)]
        return spots[:max(1, min(count, len(spots)))]

    # --- shared machinery ---------------------------------------------------

    def run_to_horizon(self) -> None:
        """Process the events up to the horizon and drop those queued past it.
        Their handlers refer to this run, so keeping them would tie the
        finished run into a reference cycle that only the cyclic GC frees."""
        self.sim.run_until(self.cfg.duration)
        self.sim.clear()

    def next_msg_id(self, prefix: str) -> str:
        self.msg_counter += 1
        return f"{prefix}{self.msg_counter}"

    def fresh_neighbors(self, node: Node, now: float) -> dict[str, rt.NeighborEntry]:
        out = {}
        stale = []
        for nid, entry in node.neighbors.items():
            if entry.fresh(now, self.neighbor_timeout):
                out[nid] = entry
            else:
                stale.append(nid)
        for nid in stale:
            del node.neighbors[nid]
        return out

    def broadcast(self, sender: str, msg: Message, on_delivery) -> None:
        """Send msg from sender now; at the end of its airtime,
        on_delivery(receiver_ids, msg, t, sender_pos) is called once with the
        receivers that got it, in sorted id order."""
        now = self.sim.now
        positions = self.positions
        coords = positions.coords_at(now)
        i = positions.index[sender]
        pos = tuple(coords[i].tolist())
        hears = reachable(pos, coords, self.graph.obstacles, self.cfg.radio.r_max)
        hears[i] = False
        ids = positions.ids
        receivers = [ids[j] for j in np.flatnonzero(hears).tolist()]
        tx = self.channel.start_transmission(sender, pos, msg.size, now, receivers)
        self.ledger.count_message(msg.kind)

        def resolve(_event: SimEvent) -> None:
            delivered, _collided = self.channel.resolve(tx)
            self.ledger.collisions = self.channel.collision_events
            received = self.channel.mac_survivors(
                delivered, [self.nodes[r].mac_loss for r in delivered])
            on_delivery(received, msg, tx.end, tx.pos)

        self.sim.call_at(tx.end, resolve, kind="transmit-end")

    def busy(self, nid: str) -> float:
        return self.channel.busy_ratio(nid, self.sim.now)

    def make_hello(self, node: Node, now: float) -> Message:
        pos = self.positions.pos(node.id, now)
        return Message(self.next_msg_id("h"), "hello", pos, now, HELLO_SIZE, 1,
                       payload=self.hello_payload(node, now, pos))

    def hello_payload(self, node: Node, now: float, pos: tuple[float, float]) -> dict:
        if node.static_pos is not None:
            speed, heading = 0.0, (0.0, 0.0)
        else:
            speed = self.positions.speed(node.id, now)
            heading = rt.heading_of(self.positions.velocity(node.id, now))
        # NeighborEntry.fresh, inlined
        timeout = self.neighbor_timeout
        fresh = sum(1 for e in node.neighbors.values() if now - e.last_heard <= timeout)
        range_km2 = math.pi * (self.cfg.radio.r_max / 1000.0) ** 2
        busy = self.busy(node.id)
        return {
            "position": pos,
            "speed": speed,
            "heading": heading,
            "density": fresh / range_km2 if range_km2 > 0 else 0.0,
            "abe": abe_estimate(busy, self.cfg.radio.bitrate),
            "mac_loss": node.mac_loss,
        }

    def on_hello(self, receivers: list[str], msg: Message, t: float,
                 sender: str) -> None:
        """Refresh the sender's entry in every receiver's neighbor table.  All
        of them heard it at t, so they share one immutable entry."""
        p = msg.payload
        entry = rt.NeighborEntry(sender, p["position"], p["speed"], p["heading"],
                                 p["density"], p["abe"], p["mac_loss"], t)
        nodes = self.nodes
        for receiver in receivers:
            nodes[receiver].neighbors[sender] = entry

    def start_beacons(self) -> None:
        interval = self.cfg.routing.hello_interval
        for nid in sorted(self.nodes):
            phase = float(self.jitter_rng.uniform(0.0, interval))
            self.sim.call_at(phase, partial(self._beacon, nid), kind="beacon")

    def _beacon(self, nid: str, _event: SimEvent) -> None:
        node = self.nodes[nid]
        now = self.sim.now
        self.on_beacon_tick(node, now)
        msg = self.make_hello(node, now)
        self.broadcast(nid, msg, lambda rs, m, t, _pos: self.on_hello(rs, m, t, nid))
        nxt = now + self.cfg.routing.hello_interval
        if nxt <= self.cfg.duration:
            self.sim.call_at(nxt, partial(self._beacon, nid), kind="beacon")

    def on_beacon_tick(self, node: Node, now: float) -> None:
        """Hook: per-beacon protocol housekeeping, run before the hello."""


# --- dissemination runs -----------------------------------------------------

class DisseminationRun(Run):
    """Warning-frame broadcast from the accident origin under one of the
    suppression/relay protocols."""

    def __init__(self, cfg, density, protocol, seed):
        super().__init__(cfg, density, protocol, seed)
        self.frame_rings: dict[str, dict[str, float]] = {}
        self.vehicle_ids = sorted(n for n, node in self.nodes.items()
                                  if node.kind == "vehicle" and n != "origin")
        self.reached: set[str] = set()
        # node id -> messages held for a later relay: NSF waits for a
        # neighbor outside the set it knew at receipt, SCF for any hello
        self.pending_nsf: dict[str, list[tuple[str, frozenset]]] = {}
        self.pending_scf: dict[str, list[str]] = {}

    def execute(self) -> MetricsLedger:
        cfg = self.cfg
        self.start_beacons()
        frames = synthetic_frame_trace(cfg.warning.duration, cfg.warning.frame_rate,
                                       cfg.warning.mean_bitrate)
        for frame in frames:
            t = cfg.warning.start_time + frame.index / cfg.warning.frame_rate
            if t > cfg.duration:
                break
            self.sim.call_at(t, lambda e, f=frame: self.emit_frame(f),
                             kind="transmit-start")
        self.run_to_horizon()
        self.ledger.extras["coverage"] = (
            len(self.reached & set(self.vehicle_ids)) / len(self.vehicle_ids)
            if self.vehicle_ids else 0.0)
        self.ledger.check_invariants()
        return self.ledger

    def emit_frame(self, frame: Frame) -> None:
        now = self.sim.now
        msg = Message(f"f{frame.index}", "warning", self.origin, now,
                      frame.size_bytes, self.cfg.warning.ttl,
                      payload=frame.frame_type)
        coords = self.positions.coords_at(now)
        rings = {}
        for nid in self.vehicle_ids:
            i = self.positions.index[nid]
            d = math.hypot(coords[i, 0] - self.origin[0], coords[i, 1] - self.origin[1])
            ring = self.ledger.ring_for(d)
            if ring is not None:
                rings[nid] = ring
                c = self.ledger.counters(ring)
                c.frames_sent += 1
                key = f"frames_{frame.frame_type}_sent"
                self.ledger.extras[key] = self.ledger.extras.get(key, 0) + 1
        self.frame_rings[msg.id] = rings
        self.broadcast("origin", msg, self.on_warning)
        if self.protocol == "timer-relay":
            # the source is a message holder too: keep re-announcing under the
            # same timer scheme so an initially empty neighborhood is not fatal
            node = self.nodes["origin"]
            state = dis.DisseminationState(stored_msg=msg)
            node.msg_state[msg.id] = state
            node.seen.add(msg.id)
            self._start_timer_relay(node, msg, now, state)

    def forward_warning(self, sender: str, msg: Message) -> None:
        copy = dataclasses.replace(msg, ttl=msg.ttl - 1, hops=msg.hops + 1)
        self.broadcast(sender, copy, self.on_warning)

    def on_hello(self, receivers: list[str], msg: Message, t: float,
                 sender: str) -> None:
        """Also relay what each receiver held for a neighbor like this one:
        NSF messages when the sender is new to it and was not among the
        neighbors it knew at receipt, SCF messages on any hello."""
        nsf, scf = self.pending_nsf, self.pending_scf
        holders = [r for r in receivers if r in nsf or r in scf] if nsf or scf else []
        # "new" reads the tables before this hello refreshes them: no entry,
        # or one that NeighborEntry.fresh no longer accepts
        timeout = self.neighbor_timeout
        new = set()
        for r in holders:
            if r in nsf:
                entry = self.nodes[r].neighbors.get(sender)
                if entry is None or t - entry.last_heard > timeout:
                    new.add(r)
        super().on_hello(receivers, msg, t, sender)
        for r in holders:
            node = self.nodes[r]
            if r in new:
                waiting = nsf.pop(r)
                kept = [(msg_id, known) for msg_id, known in waiting if sender in known]
                if kept:
                    nsf[r] = kept
                for msg_id, known in waiting:
                    if sender not in known:
                        self.relay_now(node, msg_id)
            for msg_id in scf.pop(r, ()):
                self.relay_now(node, msg_id)

    def relay_now(self, node: Node, msg_id: str) -> None:
        state = node.msg_state.get(msg_id)
        if state is None or state.forwarded:
            return
        stored = state.stored_msg
        if stored is None or stored.ttl <= 0:
            return
        if self.sim.now > stored.created + self.cfg.warning.lifetime:
            return
        state.forwarded = True
        self.forward_warning(node.id, stored)

    def on_warning(self, receivers: list[str], msg: Message, t: float,
                   sender_pos: tuple[float, float]) -> None:
        rings = self.frame_rings.get(msg.id, {})
        for receiver in receivers:
            node = self.nodes[receiver]
            if node.kind != "vehicle":
                continue
            if msg.id in node.seen:
                self.ledger.record_duplicate()
                continue
            node.seen.add(msg.id)
            self.reached.add(receiver)
            ring = rings.get(receiver)
            if ring is not None:
                c = self.ledger.counters(ring)
                c.frames_delivered += 1
                c.packets_sent += 1
                c.packets_delivered += 1
                c.delay_sum += t - msg.created
                c.delay_count += 1
                key = f"frames_{msg.payload}_delivered"
                self.ledger.extras[key] = self.ledger.extras.get(key, 0) + 1
            state = dis.DisseminationState(stored_msg=msg)
            node.msg_state[msg.id] = state
            if msg.ttl > 0:
                self.dispatch(node, msg, t, state, sender_pos)

    def dispatch(self, node: Node, msg: Message, t: float,
                 state: dis.DisseminationState,
                 sender_pos: tuple[float, float]) -> None:
        cfg = self.cfg
        protocol = self.protocol
        if protocol == "nsf":
            fresh = self.fresh_neighbors(node, t)
            self.pending_nsf.setdefault(node.id, []).append((msg.id, frozenset(fresh)))
            self.ledger.scf_stores += 1
            return
        if protocol == "jsf":
            self._start_jsf(node, msg, t, state)
            return
        if protocol == "timer-relay":
            self._start_timer_relay(node, msg, t, state)
            return
        ctx = self.reception_context(node, t, sender_pos)
        decision = dis.decide_forward(protocol, ctx, cfg.game, self.game_rng,
                                      alpha1=cfg.alpha1, alpha2=cfg.alpha2)
        if decision.action == "forward":
            state.forwarded = True
            delay = float(self.jitter_rng.uniform(0.0, cfg.jitter_max))
            self.sim.call_after(delay,
                                lambda e: self.forward_warning(node.id, msg),
                                kind="transmit-start")
        elif decision.action == "store":
            self.ledger.scf_stores += 1
            self.pending_scf.setdefault(node.id, []).append(msg.id)
            self._schedule_scf_retry(node, msg)

    def _schedule_scf_retry(self, node: Node, msg: Message) -> None:
        self.sim.call_after(self.cfg.routing.hello_interval,
                            partial(self._scf_retry, node, msg), kind="timer-expiry")

    def _scf_retry(self, node: Node, msg: Message, _event: SimEvent) -> None:
        pending = self.pending_scf.get(node.id, ())
        if msg.id not in pending:
            return
        now = self.sim.now
        expired = now > msg.created + self.cfg.warning.lifetime
        if not expired and not self.fresh_neighbors(node, now):
            self._schedule_scf_retry(node, msg)
            return
        pending.remove(msg.id)
        if not pending:  # so that on_hello meets only nodes that hold something
            del self.pending_scf[node.id]
        if not expired:
            self.relay_now(node, msg.id)

    def _start_jsf(self, node: Node, msg: Message, t: float,
                   state: dis.DisseminationState) -> None:
        """Rebroadcast at every new junction until the message timer expires."""
        self.sim.call_after(self.cfg.timers.poll_interval,
                            partial(self._jsf_tick, node, msg, state), kind="timer-expiry")

    def _jsf_tick(self, node: Node, msg: Message, state: dis.DisseminationState,
                  _event: SimEvent) -> None:
        now = self.sim.now
        if now > msg.created + self.cfg.warning.lifetime or now > self.cfg.duration:
            return
        pos = self.positions.pos(node.id, now)
        iid, d = self.graph.nearest_intersection(pos)
        if d <= JSF_JUNCTION_RADIUS and iid != state.last_relay_intersection:
            state.last_relay_intersection = iid
            self.forward_warning(node.id, msg)
        self._start_jsf(node, msg, now, state)

    def _start_timer_relay(self, node: Node, msg: Message, t: float,
                           state: dis.DisseminationState) -> None:
        """Periodic retransmission under the configured timer scheme."""
        cfg = self.cfg
        scheme = cfg.timers.scheme
        state.last_tx = t
        delay = dis.retransmission_delay(
            scheme, min(self.positions.speed(node.id, t), TIMER_V_MAX), TIMER_V_MAX,
            self.graph.is_at_intersection(self.positions.pos(node.id, t)), cfg.timers)
        if scheme == "map":
            delay = cfg.timers.poll_interval
        # random phase so holders that heard the same broadcast do not stay
        # lock-stepped (synchronized timers collide at every shared hearer)
        delay += float(self.jitter_rng.uniform(0.0, cfg.jitter_max))
        self._schedule_timer(node, msg, state, delay)

    def _schedule_timer(self, node: Node, msg: Message,
                        state: dis.DisseminationState, delay: float) -> None:
        self.sim.call_after(delay, partial(self._timer_fire, node, msg, state),
                            kind="timer-expiry")

    def _timer_fire(self, node: Node, msg: Message, state: dis.DisseminationState,
                    _event: SimEvent) -> None:
        cfg = self.cfg
        scheme = cfg.timers.scheme
        now = self.sim.now
        if now > msg.created + cfg.warning.lifetime or now > cfg.duration:
            return
        pos = self.positions.pos(node.id, now)
        at_int = self.graph.is_at_intersection(pos)
        v = min(self.positions.speed(node.id, now), TIMER_V_MAX)
        if scheme == "map":
            elapsed = now - state.last_tx
            delay = dis.retransmission_delay(scheme, v, TIMER_V_MAX, at_int,
                                             cfg.timers, elapsed)
            if delay == 0.0:
                state.last_tx = now
                self.forward_warning(node.id, msg)
                self._schedule_timer(node, msg, state, cfg.timers.poll_interval)
            else:
                self._schedule_timer(node, msg, state, delay)
        else:
            state.last_tx = now
            self.forward_warning(node.id, msg)
            delay = dis.retransmission_delay(scheme, v, TIMER_V_MAX, at_int, cfg.timers)
            self._schedule_timer(node, msg, state, delay)

    def reception_context(self, node: Node, t: float,
                          sender_pos: tuple[float, float]) -> dis.ReceptionContext:
        """d_sr is the distance to the hop sender's position at transmit start."""
        cfg = self.cfg
        r_max = cfg.radio.r_max
        pos = self.positions.pos(node.id, t)
        d_sr = min(r_max, math.hypot(pos[0] - sender_pos[0], pos[1] - sender_pos[1]))
        _iid, d_rint = self.graph.nearest_intersection(pos)
        busy = self.busy(node.id)
        quality = lqf(LinkQualityInputs(
            signal=max(0.0, 1.0 - d_sr / r_max),
            channel=1.0 - busy,
            collision_prob=self.channel.collision_prob(node.id, t)))
        fresh = self.fresh_neighbors(node, t)
        abe_norm = 1.0 - busy
        ctx = dis.ReceptionContext(d_sr=d_sr, d_rint=d_rint, r_max=r_max,
                                   lqf=quality, n_candidates=len(fresh),
                                   abe_norm=abe_norm)
        if self.protocol == "njl":
            ctx.neighbor_d_rint = [self.graph.nearest_intersection(e.position)[1]
                                   for _nid, e in sorted(fresh.items())]
        elif self.protocol == "add-fg":
            avails = ctx.candidate_avails = [dis.availability(d_sr, r_max, abe_norm)]
            for _nid, e in sorted(fresh.items()):
                d_n = math.hypot(e.position[0] - sender_pos[0],
                                 e.position[1] - sender_pos[1])
                if d_n <= r_max:
                    avails.append(dis.availability(
                        d_n, r_max, min(1.0, e.advertised_abe / cfg.radio.bitrate)))
        return ctx


# --- routing runs -----------------------------------------------------------

class RoutingRun(Run):
    """Unicast video reporting toward the closest RSU under GPSR or the
    multimetric forwarder selection."""

    def __init__(self, cfg, density, protocol, seed):
        super().__init__(cfg, density, protocol, seed)
        self.vehicle_ids = sorted(n for n, node in self.nodes.items()
                                  if node.kind == "vehicle")

    def execute(self) -> MetricsLedger:
        cfg = self.cfg
        self.start_beacons()
        rng = self.rngs.get("scenario")
        n_src = min(cfg.routing.source_count, len(self.vehicle_ids))
        sources = sorted(rng.choice(self.vehicle_ids, size=n_src, replace=False).tolist())
        frames = synthetic_frame_trace(cfg.warning.duration, cfg.warning.frame_rate,
                                       cfg.warning.mean_bitrate)
        for src in sources:
            for frame in frames:
                t = cfg.warning.start_time + frame.index / cfg.warning.frame_rate
                if t > cfg.duration:
                    break
                self.sim.call_at(
                    t, lambda e, s=src, f=frame: self.emit_packet(s, f),
                    kind="transmit-start")
        self.run_to_horizon()
        sent = sum(c.packets_sent for c in self.ledger.per_ring.values())
        delivered = sum(c.packets_delivered for c in self.ledger.per_ring.values())
        self.ledger.extras["loss"] = 1.0 - delivered / sent if sent else 0.0
        self.ledger.check_invariants()
        return self.ledger

    def on_beacon_tick(self, node: Node, now: float) -> None:
        """DSW: refresh the vehicle's metric weights from its neighbor table."""
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

    def closest_rsu_pos(self, p: tuple[float, float]) -> tuple[float, float]:
        best, best_d = None, float("inf")
        for rid in self.rsu_ids:
            rp = self.nodes[rid].static_pos
            d = math.hypot(rp[0] - p[0], rp[1] - p[1])
            if d < best_d:
                best, best_d = rp, d
        return best

    def emit_packet(self, src: str, frame: Frame) -> None:
        now = self.sim.now
        pos = self.positions.pos(src, now)
        dest = self.closest_rsu_pos(pos)
        d0 = math.hypot(pos[0] - dest[0], pos[1] - dest[1])
        ring = self.ledger.ring_for(d0) or self.ledger.rings[-1]
        self.ledger.counters(ring).packets_sent += 1
        msg = Message(self.next_msg_id("p"), "data", pos, now, frame.size_bytes,
                      self.cfg.routing.ttl, dest=dest)
        msg.ring = ring
        msg.perimeter = None
        self.hop(src, msg)

    def hop(self, holder_id: str, msg: Message) -> None:
        now = self.sim.now
        node = self.nodes[holder_id]
        if node.kind == "rsu":
            c = self.ledger.counters(msg.ring)
            c.packets_delivered += 1
            c.delay_sum += now - msg.created
            c.delay_count += 1
            return
        if msg.ttl <= 0:
            return
        pos = self.positions.pos(holder_id, now)
        dest = msg.dest
        fresh = self.fresh_neighbors(node, now)
        if not fresh:
            return  # lost: no forwarding opportunity
        neighbor_pos = {nid: e.position for nid, e in fresh.items()}
        nxt = self.select_next_hop(node, pos, neighbor_pos, fresh, dest, msg)
        if nxt is None:
            return
        self.transmit(holder_id, nxt, msg, pos, now)

    def select_next_hop(self, node: Node, pos, neighbor_pos, fresh, dest,
                        msg: Message) -> Optional[str]:
        if msg.perimeter is not None:
            d_cur = math.hypot(pos[0] - dest[0], pos[1] - dest[1])
            if d_cur < msg.perimeter.entry_distance:
                msg.perimeter = None  # recovered: back to greedy
        if msg.perimeter is None:
            if self.protocol == "gpsr":
                nxt = rt.gpsr_greedy_next(pos, neighbor_pos, dest)
            else:
                d_cur = math.hypot(pos[0] - dest[0], pos[1] - dest[1])
                closer = {nid: e for nid, e in fresh.items()
                          if math.hypot(e.position[0] - dest[0],
                                        e.position[1] - dest[1]) < d_cur}
                if closer:
                    w = node.weights if self.protocol == "3mrp-dsw" \
                        else rt.equal_weights(self.cfg.routing.w_floor)
                    scores = {}
                    for nid, e in closer.items():
                        v = rt.normalize_metrics(
                            e, pos, dest, bitrate=self.cfg.radio.bitrate,
                            density_ref=self.cfg.routing.density_ref)
                        scores[nid] = rt.multimetric_score(v, w)
                    nxt = rt.select_forwarder(scores)
                else:
                    nxt = None
            if nxt is not None:
                return nxt
            d_cur = math.hypot(pos[0] - dest[0], pos[1] - dest[1])
            msg.perimeter = rt.PerimeterState(entry_point=pos, entry_distance=d_cur)
        try:
            nxt = rt.gpsr_perimeter_next(node.id, pos, neighbor_pos, dest, msg.perimeter)
        except rt.PerimeterDrop:
            return None
        return nxt

    def transmit(self, holder_id: str, nxt: str, msg: Message, pos, now) -> None:
        actual = np.array([self.positions.pos(nxt, now)])
        self.ledger.count_message("data")
        if not reachable(pos, actual, self.graph.obstacles, self.cfg.radio.r_max)[0]:
            return  # stale neighbor entry or blocked: transmission fails, packet lost
        rng = self.channel.loss_rng
        target = self.nodes[nxt]
        # unicast MAC retries: a transient per-attempt loss only sinks the
        # packet when every attempt fails; a stale pick (above) fails outright
        # because the chosen neighbor is genuinely out of range
        attempts = 0
        delivered_hop = False
        while attempts < DATA_MAC_RETRIES:
            attempts += 1
            if self.cfg.radio.per_link_loss > 0 and \
                    rng.random() < self.cfg.radio.per_link_loss:
                continue
            if target.mac_loss > 0 and rng.random() < target.mac_loss:
                continue
            delivered_hop = True
            break
        if not delivered_hop:
            return
        msg.ttl -= 1
        msg.hops += 1
        delay = attempts * (msg.size * 8.0 / self.cfg.radio.bitrate) + PROC_DELAY
        if msg.perimeter is not None:
            msg.perimeter.came_from = holder_id
        self.sim.call_after(delay, lambda e: self.hop(nxt, msg), kind="transmit-end")


# --- CTD runs ---------------------------------------------------------------

class CtdRun(Run):
    """Pedestrian alert assessment: query-based, passive, or plain flooding."""

    def __init__(self, cfg, density, protocol, seed):
        super().__init__(cfg, density, protocol, seed)
        self.device_ids = sorted(n for n, node in self.nodes.items()
                                 if node.kind == "pedestrian")
        self.reached: set[str] = set()
        self.alerts: dict[str, Alert] = {}

    def execute(self) -> MetricsLedger:
        cfg = self.cfg
        rng = self.rngs.get("scenario")
        n = min(cfg.alert_senders, len(self.device_ids))
        senders = sorted(rng.choice(self.device_ids, size=n, replace=False).tolist())
        for k, sender in enumerate(senders):
            t0 = cfg.warning.start_time + 0.1 * k
            self.sim.call_at(t0, lambda e, s=sender: self.propose(s), kind="transmit-start")
        self.run_to_horizon()
        self.ledger.extras["coverage"] = (
            len(self.reached) / len(self.device_ids) if self.device_ids else 0.0)
        self.ledger.extras["total_messages"] = float(
            sum(self.ledger.messages_by_kind.values()))
        self.ledger.check_invariants()
        return self.ledger

    def propose(self, sender: str) -> None:
        now = self.sim.now
        pos = self.positions.pos(sender, now)
        alert = Alert(self.next_msg_id("a"), "incident", pos, now, sender)
        self.alerts[alert.id] = alert
        node = self.nodes[sender]
        node.seen.add(alert.id)
        self.reached.add(sender)
        if self.protocol == "none-assessment":
            self.flood_alert(sender, alert)
        elif self.protocol == "ctd-passive":
            self.broadcast_alert(sender, alert)
        elif self.protocol == "ctd-query":
            self.query_initiate(sender, alert)

    def _alert_msg(self, alert: Alert, kind: str, size: int, now: float) -> Message:
        return Message(alert.id, kind, alert.origin, now, size, 64, payload=alert)

    def flood_alert(self, sender: str, alert: Alert) -> None:
        msg = self._alert_msg(alert, "alert", ALERT_SIZE, self.sim.now)
        self.broadcast(sender, msg, self.on_flood_alert)

    def on_flood_alert(self, receivers: list[str], msg: Message, t: float,
                       _sender_pos) -> None:
        for receiver in receivers:
            node = self.nodes[receiver]
            if msg.id in node.seen:
                self.ledger.record_duplicate()
                continue
            node.seen.add(msg.id)
            self.reached.add(receiver)
            delay = float(self.jitter_rng.uniform(0.0, self.cfg.jitter_max))
            self.sim.call_after(delay,
                                lambda e, r=receiver: self.flood_alert(r, msg.payload),
                                kind="transmit-start")

    def query_initiate(self, detector: str, alert: Alert) -> None:
        now = self.sim.now
        msg = self._alert_msg(alert, "ctd-query", REPLY_SIZE, now)
        replies = {"confirm": 0, "total": 0}

        def on_query(receivers: list[str], m: Message, t: float, _sender_pos) -> None:
            key = ("replied", m.id)
            for receiver in receivers:
                node = self.nodes[receiver]
                if key in node.seen:
                    continue
                node.seen.add(key)
                confirm = reply_draw(self.assess_rng, self.cfg.ctd.p_a)
                delay = float(self.jitter_rng.uniform(0.0,
                                                      self.cfg.ctd.reply_window * 0.4))
                reply = Message(self.next_msg_id("r"), "ctd-reply", m.origin,
                                t, REPLY_SIZE, 1, payload=(m.id, confirm),
                                dest=detector)
                self.sim.call_after(
                    delay, lambda e, r=receiver, rp=reply: self.broadcast(r, rp, on_reply),
                    kind="transmit-start")

        def on_reply(receivers: list[str], m: Message, t: float, _sender_pos) -> None:
            if m.dest not in receivers:
                return
            if t > now + self.cfg.ctd.reply_window:
                return
            _alert_id, confirm = m.payload
            replies["total"] += 1
            if confirm:
                replies["confirm"] += 1

        def close_window(_e):
            if majority_confirms(replies["confirm"], replies["total"],
                                 self.cfg.ctd.majority_threshold):
                self.flood_alert(detector, alert)
            # else: discarded; the query is not repeated

        self.broadcast(detector, msg, on_query)
        self.sim.call_after(self.cfg.ctd.reply_window, close_window, kind="timer-expiry")

    def broadcast_alert(self, sender: str, alert: Alert) -> None:
        msg = self._alert_msg(alert, "alert", ALERT_SIZE, self.sim.now)
        self.broadcast(sender, msg, self.on_passive_alert)

    def on_passive_alert(self, receivers: list[str], msg: Message, t: float,
                         _sender_pos) -> None:
        alert: Alert = msg.payload
        for receiver in receivers:
            node = self.nodes[receiver]
            if msg.id in node.seen:
                self.ledger.record_duplicate()
                continue
            seen_alerts = [self.alerts[a] for a in node.seen
                           if isinstance(a, str) and a in self.alerts]
            action, dup = passive_accept(alert, seen_alerts, self.cfg.ctd,
                                         self.assess_rng)
            node.seen.add(msg.id)
            self.alerts.setdefault(alert.id, alert)
            if dup:
                self.ledger.record_duplicate()
                continue
            self.reached.add(receiver)
            if action == "rebroadcast":
                delay = float(self.jitter_rng.uniform(0.0, self.cfg.jitter_max))
                self.sim.call_after(delay,
                                    lambda e, r=receiver: self.broadcast_alert(r, alert),
                                    kind="transmit-start")


def build_run(cfg: ScenarioConfig, density: float, protocol_label: str,
              seed: int) -> Run:
    cfg, protocol = expand_protocol(cfg, protocol_label)
    if protocol in ROUTING_PROTOCOLS:
        return RoutingRun(cfg, density, protocol, seed)
    if protocol in CTD_PROTOCOLS:
        return CtdRun(cfg, density, protocol, seed)
    return DisseminationRun(cfg, density, protocol, seed)


def execute_run(cfg: ScenarioConfig, density: float, protocol: str,
                seed: int) -> MetricsLedger:
    return build_run(cfg, density, protocol, seed).execute()
