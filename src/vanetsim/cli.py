"""Experiment-runner command line: validate configs, execute seeded sweeps,
and emit report files."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import ConfigError, ScenarioConfig, list_presets, resolve_scenario
from .engine import execute_run
from .metrics import MetricsLedger
from .report import write_reports


def _run_one(args: tuple[ScenarioConfig, str, float, int]
             ) -> tuple[tuple[str, float, int], MetricsLedger]:
    cfg, protocol, density, seed = args
    return (protocol, density, seed), execute_run(cfg, density, protocol, seed)


def run_sweep(cfg: ScenarioConfig, jobs: int = 1
              ) -> dict[tuple[str, float, int], MetricsLedger]:
    densities = cfg.densities or [0.0]
    # the protocols of one (density, seed) replay one memoized walk, so they
    # run back to back, and a pool worker takes the whole group as one chunk
    tasks = [(cfg, protocol, density, seed)
             for density in densities
             for seed in cfg.seeds
             for protocol in cfg.protocols]
    results: dict[tuple[str, float, int], MetricsLedger] = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, ledger in pool.map(_run_one, tasks,
                                        chunksize=len(cfg.protocols)):
                results[key] = ledger
    else:
        for task in tasks:
            key, ledger = _run_one(task)
            results[key] = ledger
    return results


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = resolve_scenario(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = cfg.validate()
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = resolve_scenario(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seeds:
        cfg = dataclasses.replace(
            cfg, seeds=[int(s) for s in args.seeds.split(",")])
    errors = cfg.validate()
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 2
    results = run_sweep(cfg, jobs=args.jobs)
    write_reports(args.out, cfg, results)
    print(f"wrote {args.out}/results.csv and summary.json "
          f"({len(results)} runs)")
    return 0


def cmd_presets(_args: argparse.Namespace) -> int:
    for name in list_presets():
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vanetsim",
        description="Warning-dissemination experiments for urban ad hoc networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario sweep and write reports")
    p_run.add_argument("config", help="scenario YAML path or preset name")
    p_run.add_argument("--seeds", help="comma-separated seed override")
    p_run.add_argument("--out", default="out", help="report output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes; each runs whole (density, seed) "
                            "groups (results are order-independent)")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("config", help="scenario YAML path or preset name")
    p_val.set_defaults(func=cmd_validate)

    p_pre = sub.add_parser("presets", help="list bundled scenario presets")
    p_pre.set_defaults(func=cmd_presets)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
