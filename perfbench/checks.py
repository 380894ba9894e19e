"""Output checks, computed apart from the program.

Each check is a plain function over recorded values that returns a list of
error strings (empty when the output is right), so the self-test can feed it
corrupted inputs.  CheckRecorder applies the per-event checks while a run
executes, in an untimed round; it keeps counts, not records, so it adds
little memory.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from vanetsim import dissemination, radio, roadnet

from tracer import patched

TOL = 1e-6
KEEP_ERRORS = 20  # messages kept per check round; all are counted


# --- channel ----------------------------------------------------------------

def conservation_errors(receivable: int, delivered: int, lost_collision: int,
                        lost_link: int) -> list[str]:
    if receivable != delivered + lost_collision + lost_link:
        return [f"channel: receivable {receivable} != delivered {delivered} + "
                f"lost_collision {lost_collision} + lost_link {lost_link}"]
    return []


def receiver_total_errors(receivers_sum: int, receivable: int) -> list[str]:
    if receivers_sum != receivable:
        return [f"channel: receivers of transmissions ended by the run's end "
                f"sum to {receivers_sum}, Channel.receivable is {receivable}"]
    return []


def receiver_errors(sender: str, sender_pos, receivers, ids: list[str],
                    coords: np.ndarray, r_max: float) -> list[str]:
    """Brute force: the receivers are every other node within r_max of the
    sender.  Nodes within TOL of the range edge may go either way."""
    i = ids.index(sender)
    errors = []
    if math.hypot(coords[i, 0] - sender_pos[0], coords[i, 1] - sender_pos[1]) > TOL:
        errors.append(f"tx from {sender}: sent from {tuple(sender_pos)}, "
                      f"node is at {tuple(coords[i])}")
    d = np.hypot(coords[:, 0] - coords[i, 0], coords[:, 1] - coords[i, 1])
    must = {ids[k] for k in np.flatnonzero(d < r_max - TOL)} - {sender}
    may = {ids[k] for k in np.flatnonzero(d <= r_max + TOL)} - {sender}
    receivers = set(receivers)
    if must - receivers:
        errors.append(f"tx from {sender}: in range but not receivers: "
                      f"{sorted(must - receivers)[:5]}")
    if receivers - may:
        errors.append(f"tx from {sender}: receivers out of range: "
                      f"{sorted(receivers - may)[:5]}")
    return errors


# --- geometry ---------------------------------------------------------------

def grid_nearest(p, width: float, height: float, block: float) -> tuple[int, float]:
    """Nearest junction of the generated Manhattan grid by arithmetic: round
    each coordinate to the block size (ties to the lower index, which is the
    lower id) and clamp to the grid."""
    n_cols = int(width // block) + 1
    n_rows = int(height // block) + 1

    def axis(v: float, n: int) -> int:
        k = math.floor(v / block)
        if (k + 1) * block - v < v - k * block:
            k += 1
        return min(max(k, 0), n - 1)

    i, j = axis(p[0], n_cols), axis(p[1], n_rows)
    return j * n_cols + i, math.hypot(p[0] - i * block, p[1] - j * block)


def nearest_errors(p, result, width: float, height: float, block: float) -> list[str]:
    want_id, want_d = grid_nearest(p, width, height, block)
    got_id, got_d = result
    if got_id != want_id or abs(got_d - want_d) > TOL:
        return [f"nearest_intersection{tuple(p)} = {result}, grid gives "
                f"({want_id}, {want_d})"]
    return []


# --- forwarding game --------------------------------------------------------

def equilibrium_errors(avails, probs, benefit: float, cost: float,
                       tol: float = TOL) -> list[str]:
    """Nash conditions of the forwarding game.  For an active player i
    (benefit*a_i > cost), q_-i = 1 - prod_{j!=i}(1 - p_j) must equal
    1 - cost/(benefit*a_i) when 0 < p_i < 1, be at most that when p_i = 1 and
    at least that when p_i = 0.  Inactive players never forward."""
    if len(probs) != len(avails):
        return [f"game: {len(probs)} probabilities for {len(avails)} players"]
    errors = []
    for i, (a, p) in enumerate(zip(avails, probs)):
        if not 0.0 <= p <= 1.0:
            errors.append(f"game: player {i} has p={p}")
            continue
        if benefit * a <= cost:
            if p != 0.0:
                errors.append(f"game: inactive player {i} has p={p}")
            continue
        q = 1.0 - math.prod(1.0 - pj for j, pj in enumerate(probs) if j != i)
        target = 1.0 - cost / (benefit * a)
        if 0.0 < p < 1.0:
            bad = abs(q - target) > tol
        elif p == 1.0:
            bad = q > target + tol
        else:
            bad = q < target - tol
        if bad:
            errors.append(f"game: player {i} p={p} is no best response "
                          f"(q_-i={q}, indifference at {target})")
    return errors


# --- ledgers and reports ----------------------------------------------------

def ledger_errors(ledger, routing: bool) -> list[str]:
    errors = []
    coverage = ledger.extras.get("coverage")
    if coverage is not None and not 0.0 <= coverage <= 1.0:
        errors.append(f"ledger: coverage {coverage} outside [0, 1]")
    for ring, c in sorted(ledger.per_ring.items()):
        if c.frames_delivered > c.frames_sent:
            errors.append(f"ledger: ring {ring} delivered {c.frames_delivered} "
                          f"> sent {c.frames_sent} frames")
        if routing and c.packets_delivered > c.packets_sent:
            errors.append(f"ledger: ring {ring} delivered {c.packets_delivered} "
                          f"> sent {c.packets_sent} packets")
    return errors


def report_errors(out_dir: str) -> list[str]:
    """Every results.csv mean equals the mean of summary.json's per-run values,
    and every metric a run recorded has its row."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    per_group: dict[tuple[str, float, str], list[tuple[int, float]]] = {}
    for key, metrics in runs.items():
        protocol, density, seed = key.split("|")
        for name, value in metrics.items():
            per_group.setdefault((protocol, float(density), name), []).append(
                (int(seed), value))
    errors = []
    seen = set()
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["protocol"], float(row["density"]), row["metric"])
            seen.add(key)
            values = [v for _s, v in sorted(per_group.get(key, []))]
            if not values:
                errors.append(f"report: row {key} has no per-run values")
                continue
            mean = sum(values) / len(values)
            if int(row["n_runs"]) != len(values) or not math.isclose(
                    float(row["mean"]), mean, rel_tol=1e-12, abs_tol=1e-12):
                errors.append(f"report: row {key} mean {row['mean']} over "
                              f"{row['n_runs']} runs; per-run values give {mean!r} "
                              f"over {len(values)}")
    for key in sorted(set(per_group) - seen):
        errors.append(f"report: no row for {key}")
    return errors


# --- recording the checks during a run --------------------------------------

class CheckRecorder:
    """Wraps the channel, the nearest-junction query and the game solver for
    one untimed round and checks every call as it happens."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.error_count = 0
        self.solves = 0
        self.failed_solves = 0
        self.first_failed_solve: list[str] = []
        self.nearest_calls = 0
        self.transmissions = 0
        self.run = None
        self.receivers_sum = 0
        # the first call of each kind, for the self-test to corrupt
        self.samples: dict[str, tuple] = {}

    def _add(self, errors: list[str]) -> None:
        self.error_count += len(errors)
        self.errors += errors[:KEEP_ERRORS - len(self.errors)]

    def start_run(self, run) -> None:
        if run.cfg.radio.obstacle_blocking and run.graph.obstacles:
            raise ValueError("the receiver check does not model obstacles")
        self.run = run
        self.receivers_sum = 0

    def end_run(self) -> None:
        ch = self.run.channel
        self._add(receiver_total_errors(self.receivers_sum, ch.receivable))
        self.run = None

    def _on_transmission(self, tx) -> None:
        run = self.run
        self.transmissions += 1
        if tx.end <= run.cfg.duration:
            self.receivers_sum += len(tx.receivers)
        ids = run.positions.ids
        coords = run.positions.coords_at(tx.start)
        if tx.receivers:
            self.samples.setdefault("tx", (tx, ids, coords, run.cfg.radio.r_max))
        self._add(receiver_errors(tx.sender, tx.pos, tx.receivers, ids,
                                  coords, run.cfg.radio.r_max))

    def _on_nearest(self, p, result) -> None:
        self.nearest_calls += 1
        area = self.run.cfg.area
        self.samples.setdefault("nearest", (p, result, area))
        self._add(nearest_errors(p, result, area.width, area.height,
                                 area.block_size))

    def _on_solve(self, avails, game, result) -> None:
        probs = result[0] if isinstance(result, tuple) else result
        self.solves += 1
        errors = equilibrium_errors(list(avails), list(probs),
                                    game.fg_benefit, game.fg_cost)
        if not errors:
            self.samples.setdefault("solve", (list(avails), list(probs), game))
        else:
            self.failed_solves += 1
            self.first_failed_solve = self.first_failed_solve or errors

    def install(self):
        start_tx = radio.Channel.start_transmission
        nearest = roadnet.RoadGraph.nearest_intersection
        solve = dissemination.forwarding_game_equilibrium

        def start_transmission(channel, *args, **kwargs):
            tx = start_tx(channel, *args, **kwargs)
            self._on_transmission(tx)
            return tx

        def nearest_intersection(graph, p, *args, **kwargs):
            result = nearest(graph, p, *args, **kwargs)
            if self.run is not None:
                self._on_nearest(p, result)
            return result

        def forwarding_game_equilibrium(avails, game, *args, **kwargs):
            result = solve(avails, game, *args, **kwargs)
            self._on_solve(avails, game, result)
            return result

        return patched([
            (radio.Channel, "start_transmission", start_transmission),
            (roadnet.RoadGraph, "nearest_intersection", nearest_intersection),
            (dissemination, "forwarding_game_equilibrium", forwarding_game_equilibrium),
        ])
