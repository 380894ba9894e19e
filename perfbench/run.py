"""Benchmark command for vanetsim sweeps.

    python3 perfbench/run.py --workload add-dense --seed 0 --seconds 20 --trace 0

Runs one named workload (see workloads.py) in this process.  A round builds
every run with build_run, executes it and writes the reports into a scratch
directory.  The first round is untimed and checks the outputs apart from the
program (checks.py); then rounds repeat for --seconds.  Every metric is
printed as `name value unit`, and the last line is one JSON object with
correct / attempted / failed / metrics; the metric names and units come from
BENCHMARK.json at the repository root.  End-to-end times are corrected for
host speed (see REFERENCE_S); the raw times are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds (tracer.py) and reports the per-layer metrics, including the
tracing overhead; the traced reports must be byte-identical to the untraced.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


@dataclass
class Round:
    wall: float = 0.0
    setup: float = 0.0
    execute: float = 0.0
    report: float = 0.0
    events: int = 0
    csv: bytes = b""
    errors: list = field(default_factory=list)
    channel: Counter = field(default_factory=Counter)
    packets: Counter = field(default_factory=Counter)
    fg_nonconverged: int = 0


def run_round(cfg, runs, out_dir, recorder=None) -> Round:
    """One pass over the workload's runs; checks run after the clock stops."""
    from vanetsim.config import ROUTING_PROTOCOLS
    from vanetsim.engine import build_run
    from vanetsim.report import write_reports

    import checks

    r = Round()
    results = {}
    counters = []
    t_round = time.perf_counter()
    for protocol, density, seed in runs:
        t0 = time.perf_counter()
        run = build_run(cfg, density, protocol, seed)
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.start_run(run)
        results[(protocol, density, seed)] = run.execute()
        t2 = time.perf_counter()
        if recorder is not None:
            recorder.end_run()
        ch = run.channel
        counters.append((run.protocol in ROUTING_PROTOCOLS, ch.receivable,
                         ch.delivered, ch.lost_collision, ch.lost_link))
        r.setup += t1 - t0
        r.execute += t2 - t1
        r.events += run.sim.processed
        del run
    t3 = time.perf_counter()
    write_reports(out_dir, cfg, results)
    t4 = time.perf_counter()
    r.report = t4 - t3
    r.wall = t4 - t_round

    with open(os.path.join(out_dir, "results.csv"), "rb") as fh:
        r.csv = fh.read()
    r.errors += checks.report_errors(out_dir)
    for (is_routing, receivable, delivered, lost_collision, lost_link), ledger in zip(
            counters, results.values()):
        r.errors += checks.conservation_errors(receivable, delivered,
                                               lost_collision, lost_link)
        r.errors += checks.ledger_errors(ledger, is_routing)
        r.channel.update(receivable=receivable, delivered=delivered,
                         lost_collision=lost_collision, lost_link=lost_link)
        r.fg_nonconverged += getattr(ledger, "fg_nonconverged", 0)
        if is_routing:
            r.packets.update(
                sent=sum(c.packets_sent for c in ledger.per_ring.values()),
                delivered=sum(c.packets_delivered for c in ledger.per_ring.values()))
    return r


# The host is shared, and its speed drifts by up to 2x over tens of seconds:
# a fixed pure-Python loop drifts too, so the drift is the host's, not the
# program's.  To keep that drift out of the end-to-end metrics, a
# fixed reference kernel that touches no vanetsim code runs before the cold
# set-up and after every round.  Each time is scaled by
# REFERENCE_S / (kernel time around it): it is reported in seconds at the
# host speed where the kernel takes REFERENCE_S.  Raw times are printed too.
REFERENCE_S = 0.05


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work."""
    import numpy as np

    xs = np.arange(600.0)
    counts: dict[int, int] = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(4000):
        acc += float(np.hypot(xs - i, xs + i).min())
        counts[i % 97] = counts.get(i % 97, 0) + 1
        for j in range(20):
            acc += (i * j) % 7
    return time.perf_counter() - t0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(rounds: list, speeds: list, setup_s: float) -> dict:
    """speeds[i] is REFERENCE_S over the kernel time around round i."""
    return {
        "wall_s": (statistics.median(r.wall * f for r, f in zip(rounds, speeds)), "s"),
        "setup_s": (setup_s, "s"),
        "events_per_s": (statistics.median(
            r.events / r.execute / f for r, f in zip(rounds, speeds)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Counts from the first traced round (every round repeats them); times
    are medians over the traced rounds."""
    from tracer import BUILD_SPANS, EVENT_KINDS, HANDLER_SPAN, SPANS

    first_round, first = traced[0]

    def med(get):
        return statistics.median(get(t) for _r, t in traced)

    m = {}
    for name in BUILD_SPANS:
        m[f"{name}.s"] = (med(lambda t: t.total_s[name]), "s")
    for name in [n for _o, _a, n in SPANS if n not in BUILD_SPANS] + [HANDLER_SPAN]:
        m[f"{name}.calls"] = (first.calls[name], "count")
        m[f"{name}.self_s"] = (med(lambda t: t.self_s[name]), "s")
    ch = first_round.channel
    m["radio.receivers_per_tx"] = (
        ratio(first.receivers, first.calls["radio.start_transmission"]), "count")
    for key in ("receivable", "delivered", "lost_collision", "lost_link"):
        m[f"radio.{key}"] = (ch[key], "count")
    m["radio.delivered_ratio"] = (ratio(ch["delivered"], ch["receivable"]), "ratio")
    m["dissemination.forward_ratio"] = (
        ratio(first.forwards, first.calls["dissemination.decide_forward"]), "ratio")
    m["routing.packet_delivery_ratio"] = (
        ratio(first_round.packets["delivered"], first_round.packets["sent"]), "ratio")
    m["simcore.events"] = (first_round.events, "count")
    for kind in EVENT_KINDS:
        m[f"simcore.scheduled.{kind}"] = (first.scheduled[kind], "count")
    m["report.write_reports.s"] = (statistics.median(r.report for r, _t in traced), "s")
    untraced_wall = statistics.median(r.wall for r in plain)
    overhead = statistics.median(r.wall for r, _t in traced) - untraced_wall
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_ratio"] = (overhead / untraced_wall, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed the workload derives its scenario seeds from")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure rounds for this long (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vanetsim", "__init__.py")):
        print(f"error: no vanetsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from checks import CheckRecorder
    from selftest import run_selftest
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cfg = workload.scenario(args.seed)
    runs = workload.runs(args.seed)

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        n = 0

        def next_dir():
            nonlocal n
            n += 1
            return os.path.join(scratch, f"round{n}")

        # The check round comes first: it is the cold round, so its builds
        # give the cold set-up time, and it warms the process up for the
        # timed rounds.  The recorders act only while a run executes, so the
        # builds run as they do in the timed rounds.
        t_ready = time.perf_counter()
        reference_kernel()  # the first call pays one-off costs; discard it
        kernel = [reference_kernel()]
        recorder = CheckRecorder()
        with recorder.install():
            check = run_round(cfg, runs, next_dir(), recorder)
        setup_raw = t_ready - _T0 + check.setup
        kernel.append(reference_kernel())

        plain, traced, speeds = [], [], []
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            plain.append(run_round(cfg, runs, next_dir()))
            kernel.append(reference_kernel())
            speeds.append(2.0 * REFERENCE_S / (kernel[-2] + kernel[-1]))
            if args.trace:
                tracer = Tracer()
                with tracer.install():
                    traced.append((run_round(cfg, runs, next_dir()), tracer))
                kernel.append(reference_kernel())
            # stop before a further round (or traced pair) would overrun
            t_now = time.perf_counter()
            if t_now - t_start + (t_now - t_round) > args.seconds:
                break
        e2e = end_to_end(plain, speeds, setup_raw * REFERENCE_S / kernel[0])
        selftest_failures = run_selftest(verbose=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass

    errors = [e for r in plain + [t[0] for t in traced] + [check] for e in r.errors]
    errors += recorder.errors
    errors += [f"self-test: {name}" for name in selftest_failures]
    csvs = {r.csv for r in plain + [t[0] for t in traced] + [check]}
    if len(csvs) != 1:
        errors.append(f"results.csv differs between rounds ({len(csvs)} versions)")
    if traced and any(t.calls != traced[0][1].calls for _r, t in traced):
        errors.append("traced rounds made different calls")
    if traced and traced[0][1].missing:
        errors.append(f"spans not found: {traced[0][1].missing}")
    n_rounds = len(plain) + len(traced) + 1
    ops_per_round = len(runs) + recorder.solves
    attempted = n_rounds * ops_per_round
    failed = n_rounds * recorder.failed_solves

    print(f"workload {workload.name}: {len(runs)} runs per round "
          f"(preset {workload.preset}, scenario seeds {workload.seeds(args.seed)}), "
          f"{len(plain)} untraced + {len(traced)} traced + 1 check rounds")
    print("untraced round walls, raw (s): " + " ".join(f"{r.wall:.3f}" for r in plain))
    print("reference kernel (s): " + " ".join(f"{k:.4f}" for k in kernel))
    print(f"raw: wall_s {statistics.median(r.wall for r in plain)!r} s, setup_s "
          f"{setup_raw!r} s, events_per_s "
          f"{statistics.median(r.events / r.execute for r in plain)!r} 1/s")
    print(f"checks: {recorder.transmissions} transmissions, "
          f"{recorder.nearest_calls} nearest-junction calls, {recorder.solves} game "
          f"solves ({recorder.failed_solves} not an equilibrium; "
          f"{check.fg_nonconverged} flagged non-converged); "
          f"{recorder.error_count} check errors")
    if recorder.first_failed_solve:
        print(f"first failed solve: {recorder.first_failed_solve[0]}")

    metrics = dict(e2e)
    if args.trace:
        metrics.update(per_layer(plain, traced))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")

    # the result carries exactly the metrics BENCHMARK.json lists
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    wanted = {m["name"]: metrics[m["name"]] for m in listed}
    for m in listed:
        if wanted[m["name"]][1] != m["unit"]:
            errors.append(f"metric {m['name']} is in {wanted[m['name']][1]}, "
                          f"BENCHMARK.json says {m['unit']}")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
