"""Deterministic discrete-event engine: event queue, clock, seeded RNG streams."""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class SimEvent:
    """A scheduled occurrence in the simulation.

    Events dequeue in non-decreasing fire_time; equal times dequeue in
    sequence order.  The sequence counter is assigned by the simulator at
    scheduling time and is unique within a run.
    """

    fire_time: float
    kind: str
    action: Optional[Callable[["SimEvent"], None]] = None
    sequence: int = field(default=-1)


class EventHandle:
    """Permits cancellation of a scheduled event."""

    __slots__ = ("event", "cancelled")

    def __init__(self, event: SimEvent):
        self.event = event
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimulationError(RuntimeError):
    pass


class Simulator:
    """Single-threaded event loop with a monotone clock.

    Tie-breaking is by insertion sequence, never by node identifier, so
    protocol logic cannot accidentally depend on id ordering.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self.processed = 0

    def schedule(self, event: SimEvent) -> EventHandle:
        if event.fire_time < self.now:
            raise ValueError(
                f"cannot schedule event {event.kind!r} at t={event.fire_time} "
                f"in the past (clock={self.now})"
            )
        event.sequence = self._seq
        self._seq += 1
        handle = EventHandle(event)
        heapq.heappush(self._queue, (event.fire_time, event.sequence, handle))
        return handle

    def call_at(self, t: float, action: Callable[[SimEvent], None],
                kind: str = "call") -> EventHandle:
        return self.schedule(SimEvent(t, kind, action))

    def call_after(self, delay: float, action: Callable[[SimEvent], None],
                   kind: str = "call") -> EventHandle:
        return self.call_at(self.now + delay, action, kind)

    def run_until(self, t_end: float) -> float:
        if t_end < self.now:
            raise ValueError(f"t_end={t_end} is before clock={self.now}")
        while self._queue and self._queue[0][0] <= t_end:
            fire_time, _seq, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self.now = fire_time
            event = handle.event
            if event.action is not None:
                try:
                    event.action(event)
                except Exception as exc:
                    raise SimulationError(
                        f"handler for event {event.kind!r} (t={fire_time}) "
                        f"failed: {exc}"
                    ) from exc
            self.processed += 1
        self.now = t_end
        return self.now

    def clear(self) -> None:
        """Drop every queued event; the clock stays where it is."""
        self._queue.clear()


# Fixed purpose labels keep substreams stable even if call sites move around.
STREAM_LABELS = ("mobility", "radio-loss", "game-draw", "assessment", "scenario", "jitter")


class RngStreams:
    """Named, independent random substreams of a single run seed.

    Identical (seed, stream_id) yields an identical draw sequence; distinct
    stream ids map to distinct SeedSequence spawn keys so changing one
    protocol's draws does not perturb another's.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, stream_id: str) -> np.random.Generator:
        gen = self._streams.get(stream_id)
        if gen is None:
            key = zlib.crc32(stream_id.encode("utf-8"))
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[stream_id] = gen
        return gen
