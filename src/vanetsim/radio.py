"""Broadcast radio abstraction: unit-disk delivery, obstacle blocking,
collision model, channel-load accounting, link quality and adaptive beaconing."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

BUSY_WINDOW = 5.0  # seconds, sliding window for channel-load measurement


@dataclass
class RadioConfig:
    r_max: float = 300.0          # transmission range, meters
    bitrate: float = 6e6          # bits/s
    per_link_loss: float = 0.05   # independent per-link loss probability
    obstacle_blocking: bool = False

    def validate(self) -> list[str]:
        errors = []
        if self.r_max <= 0:
            errors.append("radio.r_max must be positive")
        if not 0.0 <= self.per_link_loss <= 1.0:
            errors.append("radio.per_link_loss must be in [0, 1]")
        if self.bitrate <= 0:
            errors.append("radio.bitrate must be positive")
        return errors


@dataclass
class LinkQualityInputs:
    signal: float
    channel: float
    collision_prob: float


def lqf(inputs: LinkQualityInputs) -> float:
    """Equal-weight mean of signal quality, channel quality and (1 - collision
    probability), each in [0, 1]."""
    for v in (inputs.signal, inputs.channel, inputs.collision_prob):
        if not 0.0 <= v <= 1.0:
            raise ValueError("link quality inputs must be in [0, 1]")
    return (inputs.signal + inputs.channel + (1.0 - inputs.collision_prob)) / 3.0


def abe_estimate(busy_ratio: float, bitrate: float) -> float:
    """Available bandwidth: idle fraction of the nominal bitrate."""
    if not 0.0 <= busy_ratio <= 1.0:
        raise ValueError("busy_ratio must be in [0, 1]")
    return (1.0 - busy_ratio) * bitrate


def atb_interval(busy_ratio: float, i_min: float, i_max: float) -> float:
    """Adaptive beacon interval; grows quadratically as the channel loads."""
    if not 0.0 < i_min <= i_max:
        raise ValueError("need 0 < i_min <= i_max")
    if not 0.0 <= busy_ratio <= 1.0:
        raise ValueError("busy_ratio must be in [0, 1]")
    return i_min + (i_max - i_min) * busy_ratio * busy_ratio


def segment_intersects_rect(p: tuple[float, float], q: tuple[float, float],
                            rect: tuple[float, float, float, float]) -> bool:
    """True iff segment p-q intersects the axis-aligned rectangle.

    Liang-Barsky clipping; touching the boundary counts as intersecting.
    """
    xmin, ymin, xmax, ymax = rect
    x0, y0 = p
    x1, y1 = q
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for pk, qk in ((-dx, x0 - xmin), (dx, xmax - x0), (-dy, y0 - ymin), (dy, ymax - y0)):
        if pk == 0.0:
            if qk < 0.0:
                return False
            continue
        r = qk / pk
        if pk < 0.0:
            if r > t1:
                return False
            t0 = max(t0, r)
        else:
            if r < t0:
                return False
            t1 = min(t1, r)
    return t0 <= t1


def in_range(a: tuple[float, float], b: tuple[float, float], cfg: RadioConfig,
             graph=None) -> bool:
    if math.hypot(a[0] - b[0], a[1] - b[1]) > cfg.r_max:
        return False
    if cfg.obstacle_blocking and graph is not None:
        for rect in graph.obstacles:
            if segment_intersects_rect(a, b, rect):
                return False
    return True


@dataclass
class Transmission:
    sender: str
    pos: tuple[float, float]
    start: float
    end: float
    msg: object
    receivers: frozenset


class Channel:
    """Shared broadcast medium for one run.

    Tracks in-flight transmissions for the collision check, per-node heard
    airtime for the busy ratio, and the exact loss-accounting counters
    (receivable = delivered + lost to collision + lost to link).
    """

    def __init__(self, cfg: RadioConfig, loss_rng: np.random.Generator, graph=None):
        self.cfg = cfg
        self.graph = graph
        self.loss_rng = loss_rng
        self.transmissions: deque[Transmission] = deque()
        self._heard: dict[str, deque[tuple[float, float]]] = {}
        self._heard_sum: dict[str, float] = {}
        self._collision_hist: dict[str, deque[tuple[float, int]]] = {}
        self._collision_sum: dict[str, int] = {}
        self._max_air = 0.0
        self.receivable = 0
        self.delivered = 0
        self.lost_collision = 0
        self.lost_link = 0
        self.collision_events = 0

    def airtime(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.cfg.bitrate

    def _prune(self, now: float) -> None:
        # the transmission log is only consulted for airtime-overlap checks in
        # resolve(); anything older than the longest airtime seen cannot
        # overlap a transmission still in flight
        horizon = now - 2.0 * self._max_air - 1e-9
        while self.transmissions and self.transmissions[0].end < horizon:
            self.transmissions.popleft()

    def start_transmission(self, sender: str, pos: tuple[float, float],
                           msg, size_bytes: int, now: float,
                           positions: dict[str, tuple[float, float]]) -> Transmission:
        """Register a broadcast. Returns the transmission; receivers are every
        in-range node other than the sender. Delivery resolution happens in
        resolve() at the end of the airtime."""
        air = self.airtime(size_bytes)
        self._max_air = max(self._max_air, air)
        self._prune(now)
        end = now + air
        receivers = []
        for node, p in positions.items():
            if node == sender:
                continue
            if in_range(pos, p, self.cfg, self.graph):
                receivers.append(node)
        tx = Transmission(sender, pos, now, end, msg, frozenset(receivers))
        self.transmissions.append(tx)
        for node in receivers:
            self._heard.setdefault(node, deque()).append((end, air))
            self._heard_sum[node] = self._heard_sum.get(node, 0.0) + air
        return tx

    def resolve(self, tx: Transmission) -> tuple[list[str], list[str]]:
        """Decide deliveries at the end of a transmission's airtime.

        A candidate whose reception window overlaps another transmission it can
        hear loses both frames; survivors suffer independent per-link loss.
        Returns (delivered receivers, collided receivers) in sorted order.
        """
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
                # count the event once per colliding group, at the
                # earliest-ending member
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

    def busy_ratio(self, node: str, now: float) -> float:
        heard = self._heard.get(node)
        if not heard:
            return 0.0
        total = self._heard_sum.get(node, 0.0)
        while heard and heard[0][0] < now - BUSY_WINDOW:
            total -= heard.popleft()[1]
        self._heard_sum[node] = total
        return min(1.0, max(0.0, total) / BUSY_WINDOW)

    def collision_prob(self, node: str, now: float) -> float:
        """Empirical collision fraction at this receiver over the window."""
        hist = self._collision_hist.get(node)
        if not hist:
            return 0.0
        total = self._collision_sum.get(node, 0)
        while hist and hist[0][0] < now - BUSY_WINDOW:
            total -= hist.popleft()[1]
        self._collision_sum[node] = total
        if not hist:
            return 0.0
        return total / len(hist)
