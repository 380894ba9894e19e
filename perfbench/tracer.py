"""Per-layer tracing from outside the package: wraps public functions of each
vanetsim module, counts calls and accumulates self time (span duration minus
the time of traced spans nested inside it).

Nothing here edits vanetsim; the wrappers are installed on the module and
class attributes the engine looks up at call time, and removed afterwards.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from vanetsim import dissemination, engine, radio, roadnet, routing, simcore

# (owner, attribute, span name).  Owners are where the engine resolves the
# name at call time: names engine imported with `from .x import y` are
# patched on the engine module.
SPANS = (
    (engine, "generate_grid", "roadnet.generate_grid"),
    (engine, "PositionTable", "engine.PositionTable"),
    (roadnet.RoadGraph, "nearest_intersection", "roadnet.nearest_intersection"),
    (engine.Run, "broadcast", "engine.broadcast"),
    (engine.DisseminationRun, "reception_context", "engine.reception_context"),
    (radio.Channel, "start_transmission", "radio.start_transmission"),
    (radio.Channel, "resolve", "radio.resolve"),
    (dissemination, "forwarding_game_equilibrium",
     "dissemination.forwarding_game_equilibrium"),
    (dissemination, "decide_forward", "dissemination.decide_forward"),
    (routing, "gpsr_greedy_next", "routing.gpsr_greedy_next"),
    (routing, "gpsr_perimeter_next", "routing.gpsr_perimeter_next"),
    (routing, "normalize_metrics", "routing.normalize_metrics"),
    (routing, "dsw_update", "routing.dsw_update"),
    (engine, "passive_accept", "ctd.passive_accept"),
    (simcore.Simulator, "run_until", "simcore.run_until"),
)
# reported as total seconds; they run once per build
BUILD_SPANS = ("roadnet.generate_grid", "engine.PositionTable")
EVENT_KINDS = ("beacon", "transmit-start", "transmit-end", "timer-expiry")
HANDLER_SPAN = "simcore.handler"


@contextlib.contextmanager
def patched(replacements):
    """Set owner.attr = value for each (owner, attr, value); restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class Tracer:
    """Call counts and self/total seconds per span name, for one round."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.scheduled: Counter = Counter()
        self.receivers = 0
        self.forwards = 0
        self.missing: list[str] = []
        # child-time accumulators of the open spans; the bottom entry
        # collects time spent in top-level spans
        self._stack = [0.0]

    def wrap(self, fn, name, observe=None):
        """fn wrapped in a span; observe(result) runs outside the span."""
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - child
            if observe is not None:
                observe(result)
            return result

        return traced

    def _count_receivers(self, tx) -> None:
        self.receivers += len(tx.receivers)

    def _count_forward(self, decision) -> None:
        self.forwards += decision.action == "forward"

    def install(self):
        """Context manager that wraps every span found for its duration.

        Span names that could not be found are kept in self.missing, so a
        renamed function shows up as missing rather than as zero calls.
        """
        observers = {"radio.start_transmission": self._count_receivers,
                     "dissemination.decide_forward": self._count_forward}
        replacements = []
        for owner, attr, name in SPANS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.missing.append(name)
                continue
            replacements.append((owner, attr, self.wrap(fn, name, observers.get(name))))
        schedule = simcore.Simulator.__dict__["schedule"]

        def traced_schedule(sim, event):
            self.scheduled[event.kind] += 1
            if event.action is not None:
                # the handler span separates event-handler code from the
                # loop's own overhead in simcore.run_until's self time
                event.action = self.wrap(event.action, HANDLER_SPAN)
            return schedule(sim, event)

        replacements.append((simcore.Simulator, "schedule", traced_schedule))
        return patched(replacements)
