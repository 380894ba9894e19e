"""Self-test: every output check accepts a real output and rejects a
corrupted copy of it.

    python3 perfbench/selftest.py

Runs a small scenario (the size of the test suite's tiny fixture) with the
check recorder installed, then feeds each check the recorded values and a
corrupted variant.  run.py calls run_selftest() after its check round, so a
check that can no longer fail makes the benchmark report correct: false.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the same scenario as tests/conftest.py's TINY_SCENARIO, with the forwarding
# game so that the solver is exercised too
TINY = {
    "name": "tiny",
    "area": {"width": 800.0, "height": 800.0, "block_size": 200.0},
    "densities": [30.0],
    "protocols": ["add-fg"],
    "radio": {"r_max": 200.0, "bitrate": 6.0e6, "per_link_loss": 0.05},
    "game": {"fg_benefit": 1000.0, "fg_cost": 1.0},
    "warning": {"start_time": 2.0, "duration": 0.5, "mean_bitrate": 30.0e3,
                "lifetime": 8.0},
    "duration": 8.0,
    "seeds": [0],
    "rings": [300.0, 600.0, 1200.0],
}


def run_selftest(verbose: bool = True) -> list[str]:
    """Names of the cases that misbehaved: a real output that a check
    rejected, or a corrupted one that it accepted."""
    from vanetsim.config import scenario_from_dict
    from vanetsim.engine import build_run
    from vanetsim.report import write_reports

    import checks

    cfg = scenario_from_dict(dict(TINY))
    recorder = checks.CheckRecorder()
    with recorder.install():
        run = build_run(cfg, 30.0, "add-fg", 0)
        recorder.start_run(run)
        ledger = run.execute()
        recorder.end_run()
    ch = run.channel
    cases = []  # (name, errors returned, errors expected)

    def case(name, errors, expect_errors):
        cases.append((name, bool(errors), expect_errors))

    case("real run: recorded checks", recorder.errors, False)

    counts = (ch.receivable, ch.delivered, ch.lost_collision, ch.lost_link)
    case("conservation: real", checks.conservation_errors(*counts), False)
    case("conservation: one delivery too many",
         checks.conservation_errors(counts[0], counts[1] + 1, *counts[2:]), True)
    case("receiver totals: real",
         checks.receiver_total_errors(ch.receivable, ch.receivable), False)
    case("receiver totals: one receiver too many",
         checks.receiver_total_errors(ch.receivable + 1, ch.receivable), True)

    tx, ids, coords, r_max = recorder.samples["tx"]
    case("receivers: real",
         checks.receiver_errors(tx.sender, tx.pos, tx.receivers, ids, coords, r_max),
         False)
    i = ids.index(tx.sender)
    dist2 = (coords[:, 0] - coords[i, 0]) ** 2 + (coords[:, 1] - coords[i, 1]) ** 2
    far = ids[int(dist2.argmax())]
    case("receivers: one added out of range",
         checks.receiver_errors(tx.sender, tx.pos, tx.receivers | {far}, ids,
                                coords, r_max), True)
    case("receivers: one in range dropped",
         checks.receiver_errors(tx.sender, tx.pos, set(sorted(tx.receivers)[1:]),
                                ids, coords, r_max), True)
    case("receivers: sender position moved",
         checks.receiver_errors(tx.sender, (tx.pos[0] + 1.0, tx.pos[1]),
                                tx.receivers, ids, coords, r_max), True)

    p, (iid, d), area = recorder.samples["nearest"]
    grid = (area.width, area.height, area.block_size)
    case("nearest junction: real", checks.nearest_errors(p, (iid, d), *grid), False)
    case("nearest junction: neighbouring id",
         checks.nearest_errors(p, (iid + 1, d), *grid), True)
    case("nearest junction: wrong distance",
         checks.nearest_errors(p, (iid, d + 1.0), *grid), True)
    case("nearest junction: tie goes to the lower id",
         checks.nearest_errors((100.0, 0.0), (0, 100.0), 800.0, 800.0, 200.0), False)

    # two equal players mix at 1/2 each; [1, 0.6] has a pure equilibrium
    case("game: mixed equilibrium", checks.equilibrium_errors([1.0, 1.0], [0.5, 0.5], 2.0, 1.0), False)
    case("game: pure equilibrium", checks.equilibrium_errors([1.0, 0.6], [1.0, 0.0], 2.0, 1.0), False)
    case("game: off-equilibrium mix",
         checks.equilibrium_errors([1.0, 1.0], [0.6, 0.5], 2.0, 1.0), True)
    case("game: nobody forwards",
         checks.equilibrium_errors([1.0, 0.6], [0.0, 0.0], 2.0, 1.0), True)
    case("game: inactive player forwards",
         checks.equilibrium_errors([1.0, 0.4], [1.0, 0.1], 2.0, 1.0), True)
    avails, probs, game = recorder.samples["solve"]  # one that passed
    # move the receiver's own probability off its best response
    p0 = probs[0]
    shifted = [p0 - 0.01 if 0.0 < p0 < 1.0 else 0.0 if p0 == 1.0 else 0.5] + probs[1:]
    case("game: recorded solve perturbed",
         checks.equilibrium_errors(avails, shifted, game.fg_benefit, game.fg_cost), True)

    case("ledger: real", checks.ledger_errors(ledger, routing=True), False)
    ring, counters = next(iter(ledger.per_ring.items()))
    broken = copy.deepcopy(ledger)
    broken.per_ring[ring] = dataclasses.replace(
        counters, frames_delivered=counters.frames_sent + 1)
    case("ledger: more frames delivered than sent",
         checks.ledger_errors(broken, routing=False), True)
    broken = copy.deepcopy(ledger)
    broken.per_ring[ring] = dataclasses.replace(
        counters, packets_delivered=counters.packets_sent + 1)
    case("ledger: more packets delivered than sent",
         checks.ledger_errors(broken, routing=True), True)
    broken = copy.deepcopy(ledger)
    broken.extras["coverage"] = 1.5
    case("ledger: coverage above one", checks.ledger_errors(broken, routing=False), True)

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as out:
        results = {("add-fg", 30.0, s): build_run(cfg, 30.0, "add-fg", s).execute()
                   for s in (0, 1)}
        write_reports(out, cfg, results)
        case("reports: real", checks.report_errors(out), False)
        path = os.path.join(out, "results.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        row = lines[1].split(",")
        row[3] = repr(float(row[3]) + 0.5)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:1] + [",".join(row)] + lines[2:])
        case("reports: wrong CSV mean", checks.report_errors(out), True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:1] + lines[2:])
        case("reports: CSV row missing", checks.report_errors(out), True)

    for name, got, want in cases:
        if verbose or got != want:
            print(f"self-test {'ok  ' if got == want else 'FAIL'} {name}")
    return [name for name, got, want in cases if got != want]


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    try:
        failures = run_selftest()
    finally:
        try:
            os.rmdir(out)
        except OSError:  # another run is using it
            pass
    sys.exit(1 if failures else 0)
