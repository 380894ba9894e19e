"""Aggregation of per-run ledgers into delimited tables and a JSON summary."""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Optional

from .config import ScenarioConfig
from .metrics import MetricsLedger, ci, fdr, mean_delay

CI_LEVEL = 0.95


def run_metrics(ledger: MetricsLedger) -> dict[str, float]:
    """Flatten one ledger into named scalar metrics."""
    out: dict[str, float] = {}
    for ring in ledger.rings:
        value = fdr(ledger, ring)
        if value is not None:
            out[f"fdr@{ring:g}"] = value
        d = mean_delay(ledger, ring)
        if d is not None:
            out[f"delay@{ring:g}"] = d
    out["duplicates"] = float(ledger.duplicates_total)
    out["collisions"] = float(ledger.collisions)
    out["scf_stores"] = float(ledger.scf_stores)
    out["messages_total"] = float(sum(ledger.messages_by_kind.values()))
    for kind, count in ledger.messages_by_kind.items():
        out[f"messages_{kind}"] = float(count)
    for key, value in ledger.extras.items():
        out[key] = float(value)
    return out


def aggregate(results: dict[tuple[str, float, int], MetricsLedger]
              ) -> list[dict]:
    """One row per (protocol, density, metric) with mean and CI over seeds."""
    grouped: dict[tuple[str, float], dict[int, dict[str, float]]] = {}
    for (protocol, density, seed), ledger in results.items():
        grouped.setdefault((protocol, density), {})[seed] = run_metrics(ledger)
    rows = []
    for (protocol, density) in sorted(grouped):
        per_seed = grouped[(protocol, density)]
        names = sorted({m for metrics in per_seed.values() for m in metrics})
        for name in names:
            values = [per_seed[s][name] for s in sorted(per_seed)
                      if name in per_seed[s]]
            if not values:
                continue
            if len(values) >= 2:
                summary = ci(values, CI_LEVEL)
                mean, half = summary.mean, summary.half_width
            else:
                mean, half = values[0], 0.0
            rows.append({
                "protocol": protocol,
                "density": density,
                "metric": name,
                "mean": mean,
                "ci_half_width": half,
                "ci_level": CI_LEVEL,
                "n_runs": len(values),
            })
    return rows


def write_reports(out_dir: str, cfg: ScenarioConfig,
                  results: dict[tuple[str, float, int], MetricsLedger]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows = aggregate(results)
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("protocol,density,metric,mean,ci_half_width,ci_level,n_runs\n")
        for row in rows:
            fh.write(f"{row['protocol']},{row['density']!r},{row['metric']},"
                     f"{row['mean']!r},{row['ci_half_width']!r},"
                     f"{row['ci_level']!r},{row['n_runs']}\n")
    summary = {
        "config": dataclasses.asdict(cfg),
        "seeds": sorted({seed for (_p, _d, seed) in results}),
        "rows": rows,
        "runs": {
            f"{protocol}|{density:g}|{seed}": run_metrics(ledger)
            for (protocol, density, seed), ledger in sorted(results.items())
        },
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
