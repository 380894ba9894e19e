"""Broadcast radio abstraction: unit-disk delivery, obstacle blocking,
collision model, channel-load accounting, link quality and adaptive beaconing."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

BUSY_WINDOW = 5.0  # seconds, sliding window for channel-load measurement


@dataclass
class RadioConfig:
    r_max: float = 300.0          # transmission range, meters
    bitrate: float = 6e6          # bits/s
    per_link_loss: float = 0.05   # independent per-link loss probability
    obstacle_blocking: bool = False  # build the city blocks; they block line of sight

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


def reachable(sender: tuple[float, float], coords: np.ndarray,
              rects: list[tuple[float, float, float, float]],
              r_max: float) -> np.ndarray:
    """Mask over the rows of coords (n, 2) that can hear sender: within r_max
    by np.hypot, and no rectangle of rects touched by the segment between them.

    Only in-range rows get the line-of-sight test. np.hypot and math.hypot do
    not promise the same rounding; on seed 0 of the bundled presets they agreed
    on every range decision, so results matched the scalar test by measurement.
    """
    x0, y0 = sender
    mask = np.hypot(coords[:, 0] - x0, coords[:, 1] - y0) <= r_max
    if not rects:
        return mask
    for i in np.flatnonzero(mask):
        p = (float(coords[i, 0]), float(coords[i, 1]))
        mask[i] = not any(segment_intersects_rect(sender, p, r) for r in rects)
    return mask


@dataclass
class Transmission:
    sender: str
    pos: tuple[float, float]
    start: float
    end: float
    receivers: frozenset


class Channel:
    """Shared broadcast medium for one run.

    Tracks in-flight transmissions for the collision check, per-node heard
    airtime for the busy ratio, and the exact loss-accounting counters
    (receivable = delivered + lost to collision + lost to link; MAC loss is
    counted apart, among the delivered).
    """

    def __init__(self, cfg: RadioConfig, loss_rng: np.random.Generator):
        self.cfg = cfg
        self.loss_rng = loss_rng
        self.transmissions: deque[Transmission] = deque()
        # per-node logs, created on a node's first reception
        self._heard: defaultdict[str, deque[tuple[float, float]]] = defaultdict(deque)
        self._heard_sum: dict[str, float] = {}
        self._collision_hist: defaultdict[str, deque[tuple[float, int]]] = \
            defaultdict(deque)
        self._collision_sum: dict[str, int] = {}
        self._max_air = 0.0
        self.receivable = 0
        self.delivered = 0
        self.lost_collision = 0
        self.lost_link = 0
        self.lost_mac = 0
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
                           size_bytes: int, now: float,
                           receivers: list[str]) -> Transmission:
        """Register a broadcast heard by receivers (the sender excluded);
        resolve() decides deliveries at the end of the airtime."""
        air = self.airtime(size_bytes)
        self._max_air = max(self._max_air, air)
        self._prune(now)
        end = now + air
        tx = Transmission(sender, pos, now, end, frozenset(receivers))
        self.transmissions.append(tx)
        heard, heard_sum, entry = self._heard, self._heard_sum, (end, air)
        for node in receivers:
            heard[node].append(entry)
            heard_sum[node] = heard_sum.get(node, 0.0) + air
        return tx

    def resolve(self, tx: Transmission) -> tuple[list[str], list[str]]:
        """Decide deliveries at the end of a transmission's airtime.

        A candidate that also hears another transmission overlapping this
        one's airtime loses both frames.  Each group of colliding frames at a
        receiver is one collision event, counted at its earliest-ending
        member.  Survivors suffer independent per-link loss, drawn in one
        batch in receiver order.  Returns (delivered receivers, collided
        receivers) in sorted order.
        """
        overlapping = [
            t for t in self.transmissions
            if t is not tx and t.start < tx.end and t.end > tx.start
        ]
        clashing = tx.receivers & set().union(*(t.receivers for t in overlapping))
        receivers = sorted(tx.receivers)
        self.receivable += len(receivers)
        hist, hit, miss = self._collision_hist, (tx.end, 1), (tx.end, 0)
        if clashing:
            collided = [n for n in receivers if n in clashing]
            clear = [n for n in receivers if n not in clashing]
            for node in collided:
                hist[node].append(hit)
                self._collision_sum[node] = self._collision_sum.get(node, 0) + 1
        else:
            collided, clear = [], receivers
        for node in clear:
            hist[node].append(miss)
        if collided:
            self.lost_collision += len(collided)
            # a receiver that also hears an overlapping frame ending before
            # this one counts the event there, not here
            first = (tx.end, tx.start, tx.sender)
            earlier = set().union(*(t.receivers for t in overlapping
                                    if (t.end, t.start, t.sender) < first))
            self.collision_events += len(clashing - earlier)
        p = self.cfg.per_link_loss
        if p > 0 and clear:
            lost = (self.loss_rng.random(len(clear)) < p).tolist()
            delivered = [n for n, gone in zip(clear, lost) if not gone]
            self.lost_link += len(clear) - len(delivered)
        else:
            delivered = clear
        self.delivered += len(delivered)
        return delivered, collided

    def mac_survivors(self, delivered: list[str], mac_loss: list[float]) -> list[str]:
        """The delivered receivers that their own MAC does not drop: one loss
        draw per receiver with mac_loss > 0, in one batch in list order."""
        lossy = [k for k, p in enumerate(mac_loss) if p > 0]
        if not lossy:
            return delivered
        draws = self.loss_rng.random(len(lossy)).tolist()
        dropped = {k for k, u in zip(lossy, draws) if u < mac_loss[k]}
        self.lost_mac += len(dropped)
        return [n for k, n in enumerate(delivered) if k not in dropped]

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
