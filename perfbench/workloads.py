"""Benchmark workloads: each is a fixed list of (preset, protocol, density,
seed) runs, executed as one round.

Run lengths are shortened from the presets so that one round takes a few
seconds and a measured run repeats it several times; the overrides below are
the only departures from the bundled preset files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from vanetsim.config import ScenarioConfig, resolve_scenario


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    protocols: tuple[str, ...]
    densities: tuple[float, ...]
    # scenario seeds of a round: base * seeds_per_round + k, k < seeds_per_round
    seeds_per_round: int = 1
    # when set, the round ignores the base seed (see add-fg)
    fixed_seed: Optional[int] = None
    overrides: dict = field(default_factory=dict)

    def seeds(self, base_seed: int) -> list[int]:
        if self.fixed_seed is not None:
            return [self.fixed_seed]
        n = self.seeds_per_round
        return [base_seed * n + k for k in range(n)]

    def scenario(self, base_seed: int) -> ScenarioConfig:
        cfg = _override(resolve_scenario(self.preset), self.overrides)
        return dataclasses.replace(cfg, seeds=self.seeds(base_seed))

    def runs(self, base_seed: int) -> list[tuple[str, float, int]]:
        """(protocol, density, scenario seed) in execution order."""
        return [(protocol, density, seed)
                for protocol in self.protocols
                for density in self.densities
                for seed in self.seeds(base_seed)]


def _override(obj, changes: dict):
    """dataclasses.replace applied recursively to nested config sections."""
    updates = {}
    for key, value in changes.items():
        if isinstance(value, dict):
            updates[key] = _override(getattr(obj, key), value)
        else:
            updates[key] = value
    return dataclasses.replace(obj, **updates)


# A short warning burst two seconds in, after every vehicle has sent two
# hellos, and a horizon long enough for the burst to cross the whole grid.
SHORT_ADD = {"duration": 5.0,
             "warning": {"start_time": 2.0, "duration": 0.3}}

WORKLOADS = {w.name: w for w in (
    Workload(
        "add-dense",
        "626 vehicles: neighbour query, channel start/resolve and "
        "nearest_intersection dominate; the game solver is closed-form",
        "leganes-add", ("add-vod",), (100.0,),
        overrides=SHORT_ADD),
    Workload(
        "add-fg",
        "forwarding-game solver dominates; channel and geometry are light; "
        "fixed seed because its non-converged solves are counted as failed",
        "leganes-add", ("add-fg",), (40.0,),
        # The damped solver's non-converged solves count as failed operations,
        # and their share must not depend on the seed, so this round always
        # uses scenario seed 0.
        fixed_seed=0,
        overrides=SHORT_ADD),
    Workload(
        "routing",
        "GPSR and multimetric next-hop selection; unicast data hops bypass the "
        "channel, which carries only hellos",
        "leganes-routing", ("gpsr", "3mrp", "3mrp-dsw"), (50.0, 100.0),
        # work per run varies with the seed here more than elsewhere; two
        # seeds per round halve that variance in wall_s
        seeds_per_round=2,
        overrides={"duration": 12.0,
                   "warning": {"start_time": 3.0, "duration": 5.0}}),
    Workload(
        "ctd-pedestrian",
        "1000 pedestrians: mobility build dominates; one alert per node and "
        "many collisions on the channel",
        "ctd-1000", ("none-assessment", "ctd-query@pa=0.2", "ctd-query@pa=0.5",
                     "ctd-query@pa=0.8", "ctd-passive@pa=0.2",
                     "ctd-passive@pa=0.5", "ctd-passive@pa=0.8"), (1.0,)),
)}
