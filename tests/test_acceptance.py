"""End-to-end acceptance gate.

One test per criterion, so the verbose test report shows one pass/fail line
for each.  The scenario-level criteria run the bundled presets over ten seeds
and compare protocol means (with Student-t confidence half-widths where a
criterion allows statistical overlap).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from test_dissemination import mutual_best_response_gap
from test_routing import c_shaped_void, dist, route_packet

from vanetsim.config import resolve_scenario, scenario_from_dict
from vanetsim.dissemination import (GameConfig, ReceptionContext,
                                    UtilityInputs, availability,
                                    decide_forward, distance_factor,
                                    forwarding_game_equilibrium,
                                    retransmission_delay, utility,
                                    vod_forward_probability)
from vanetsim.engine import build_run, execute_run
from vanetsim.metrics import ci, fdr
from vanetsim.radio import LinkQualityInputs, abe_estimate, atb_interval, lqf
from vanetsim.report import run_metrics, write_reports
from vanetsim.routing import MetricVector, dsw_update, equal_weights, gpsr_greedy_next

from conftest import TINY_SCENARIO

EXACT = 1e-12
N_SEEDS = 10


def mean(values):
    return sum(values) / len(values)


# --- shared preset sweeps (executed once per module) ------------------------

@pytest.fixture(scope="module")
def add_runs():
    cfg = resolve_scenario("leganes-add")
    seeds = cfg.seeds[:N_SEEDS]
    wanted = [("add-vod", 40.0), ("add-fg", 40.0), ("flooding-distance", 40.0),
              ("nsf", 40.0), ("add-vod", 100.0), ("add-fg", 100.0)]
    return {(proto, density): [execute_run(cfg, density, proto, s) for s in seeds]
            for proto, density in wanted}


@pytest.fixture(scope="module")
def timer_runs():
    cfg = resolve_scenario("timers-25")
    seeds = cfg.seeds[:N_SEEDS]
    density = cfg.densities[0]
    return {proto: [execute_run(cfg, density, proto, s) for s in seeds]
            for proto in cfg.protocols}


@pytest.fixture(scope="module")
def ctd_runs():
    cfg = resolve_scenario("ctd-1000")
    seeds = cfg.seeds[:N_SEEDS]
    density = cfg.densities[0]
    return {proto: [execute_run(cfg, density, proto, s) for s in seeds]
            for proto in cfg.protocols}


@pytest.fixture(scope="module")
def routing_runs():
    cfg = resolve_scenario("leganes-routing")
    assert cfg.radio.per_link_loss == 0.05
    seeds = cfg.seeds[:N_SEEDS]
    return {proto: [execute_run(cfg, 100.0, proto, s) for s in seeds]
            for proto in ("gpsr", "3mrp-dsw")}


# --- criterion 1: closed-form building blocks are exact ---------------------

def test_ac1_closed_form_building_blocks_are_exact():
    assert abs(distance_factor(150.0, 400.0, 300.0) - 0.5) < EXACT
    assert abs(distance_factor(150.0, 9.0, 300.0) - 0.1) < EXACT
    assert abs(distance_factor(150.0, 300.0, 300.0) - 1.0 / 301.0) < EXACT
    assert abs(utility(UtilityInputs(1.0, 1.0, 6.0, 4.0)) - 1.0) < EXACT
    assert abs(utility(UtilityInputs(0.5, 0.5, 6.0, 4.0)) - 1e5) < 1e5 * EXACT
    assert abs(vod_forward_probability(2.0, 3) - 0.25) < EXACT
    assert vod_forward_probability(0.5, 9) == 1.0
    assert abs(lqf(LinkQualityInputs(0.6, 0.3, 0.3)) - (1.6 / 3.0)) < EXACT
    assert abs(availability(150.0, 300.0, 0.5) - 0.5) < EXACT
    assert abs(abe_estimate(0.25, 6e6) - 4.5e6) < 6e6 * EXACT
    assert abs(atb_interval(0.5, 1.0, 5.0) - 2.0) < EXACT
    from vanetsim.dissemination import TimerConfig
    timers = TimerConfig("speed", 2.0, 1.0, 5.0, 0.5)
    assert abs(retransmission_delay("speed", 7.0, 14.0, False, timers) - 3.0) < EXACT
    interval = ci([0.0, 1.0], level=0.95)
    assert abs(interval.half_width - 6.35310) < 1e-4


# --- criterion 2: geographic routing against brute-force oracles ------------

def test_ac2_routing_matches_exhaustive_oracle_and_escapes_voids():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        pts = {f"n{i:02d}": (float(rng.uniform(0, 1000)),
                             float(rng.uniform(0, 1000))) for i in range(50)}
        current = pts.pop("n00")
        dest = (float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
        neighbors = {nid: p for nid, p in pts.items() if dist(current, p) <= 250.0}
        closer = {nid: dist(p, dest) for nid, p in neighbors.items()
                  if dist(p, dest) < dist(current, dest)}
        choice = gpsr_greedy_next(current, neighbors, dest)
        if not closer:
            assert choice is None
        else:
            assert choice == min(sorted(closer), key=lambda nid: closer[nid])
    # a void between source and destination forces a perimeter tour
    assert route_packet(c_shaped_void(), "src", "dst", radio_range=100.0) == "dst"


# --- criterion 3: game correctness ------------------------------------------

def test_ac3_game_rules_match_theory():
    # realized volunteer-dilemma decisions follow the closed-form probability
    game = GameConfig(cost_k=1.0, fg_benefit=2.0, fg_cost=1.0)
    d_rint = 1.0 / 19.0                            # df = 1 - d/(d+1) = 0.95
    ctx = ReceptionContext(d_sr=150.0, d_rint=d_rint, r_max=300.0, lqf=1.0,
                           n_candidates=3, abe_norm=0.5)
    df = distance_factor(ctx.d_sr, ctx.d_rint, ctx.r_max)
    p = vod_forward_probability(utility(UtilityInputs(df, ctx.lqf, 6.0, 4.0)),
                                ctx.n_candidates, game.cost_k)
    assert 0.05 < p < 0.95                         # an informative fixture
    rng = np.random.default_rng(7)
    n = 10**6
    forwards = sum(decide_forward("add-vod", ctx, game, rng).action == "forward"
                   for _ in range(n))
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(forwards / n - p) <= 3.0 * sigma

    # forwarding-game equilibria are exact mutual best responses
    for avails, benefit, cost in ([1.0, 1.0], 2.0, 1.0), \
            ([1.0, 0.6], 2.0, 1.0), ([0.9, 0.7, 0.5], 3.0, 1.0):
        cfg = GameConfig(cost_k=1.0, fg_benefit=benefit, fg_cost=cost)
        probs = forwarding_game_equilibrium(avails, cfg)
        assert mutual_best_response_gap(avails, probs, benefit, cost) <= 1e-9


# --- criterion 4: dissemination ranking at the 600 m ring -------------------

def test_ac4_utility_games_beat_flooding_and_store_forward_at_600m(add_runs):
    ring = 600.0
    means = {}
    half = {}
    for proto in ("add-vod", "add-fg", "flooding-distance", "nsf"):
        values = [fdr(ledger, ring) for ledger in add_runs[(proto, 40.0)]]
        assert all(v is not None for v in values)
        summary = ci(values)
        means[proto], half[proto] = summary.mean, summary.half_width
    for variant in ("add-vod", "add-fg"):
        assert means[variant] >= means["flooding-distance"] - half["flooding-distance"], \
            f"{variant} {means[variant]:.3f} vs flooding {means['flooding-distance']:.3f}"
        assert means[variant] >= means["nsf"] - half["nsf"], \
            f"{variant} {means[variant]:.3f} vs nsf {means['nsf']:.3f}"


# --- criterion 5: density helps at the 1200 m ring --------------------------

def test_ac5_higher_density_extends_the_reach_at_1200m(add_runs):
    ring = 1200.0
    for variant in ("add-vod", "add-fg"):
        sparse = mean([fdr(ledger, ring) for ledger in add_runs[(variant, 40.0)]])
        dense = mean([fdr(ledger, ring) for ledger in add_runs[(variant, 100.0)]])
        assert dense >= sparse, f"{variant}: {dense:.3f} at 100 < {sparse:.3f} at 40"


# --- criterion 6: retransmission timer schemes ------------------------------

def test_ac6_adaptive_timers_cut_duplicates_without_losing_coverage(timer_runs):
    dup = {proto: mean([run_metrics(ledger)["duplicates"]
                        for ledger in ledgers])
           for proto, ledgers in timer_runs.items()}
    cov = {proto: mean([ledger.extras["coverage"] for ledger in ledgers])
           for proto, ledgers in timer_runs.items()}
    assert dup["timer-relay-speed"] < dup["timer-relay-fixed"], dup
    assert cov["timer-relay-map"] >= cov["timer-relay-fixed"] - 1e-12, cov


# --- criterion 7: collaborative assessment overhead -------------------------

def test_ac7_assessment_reduces_traffic_and_passive_sends_no_replies(ctd_runs):
    totals = {proto: mean([ledger.extras["total_messages"]
                           for ledger in ledgers])
              for proto, ledgers in ctd_runs.items()}
    baseline = totals["none-assessment"]
    query_mean = mean([totals[p] for p in totals if p.startswith("ctd-query")])
    assert query_mean < baseline, (query_mean, baseline)
    for proto, ledgers in ctd_runs.items():
        if proto.startswith("ctd-passive"):
            assert totals[proto] < baseline, (proto, totals[proto], baseline)
            replies = sum(ledger.messages_by_kind.get("ctd-reply", 0)
                          for ledger in ledgers)
            assert replies == 0, (proto, replies)


# --- criterion 8: multimetric forwarding under link loss --------------------

def test_ac8_multimetric_selection_loses_no_more_than_greedy(routing_runs):
    loss = {proto: mean([ledger.extras["loss"] for ledger in ledgers])
            for proto, ledgers in routing_runs.items()}
    assert loss["3mrp-dsw"] <= loss["gpsr"], loss


# --- criterion 9: structural invariants -------------------------------------

def test_ac9_determinism_conservation_and_protocol_invariants(tmp_path):
    cfg = scenario_from_dict(dict(TINY_SCENARIO))

    # identical seeds give byte-identical reports
    results = {("flooding-distance", 30.0, s):
               execute_run(cfg, 30.0, "flooding-distance", s)
               for s in (0, 1)}
    again = {("flooding-distance", 30.0, s):
             execute_run(cfg, 30.0, "flooding-distance", s)
             for s in (0, 1)}
    write_reports(str(tmp_path / "a"), cfg, results)
    write_reports(str(tmp_path / "b"), cfg, again)
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    # channel conservation and at-most-once application delivery
    run = build_run(cfg, 30.0, "flooding-distance", 0)
    ledger = run.execute()
    ch = run.channel
    assert ch.receivable == ch.delivered + ch.lost_collision + ch.lost_link
    for counters in ledger.per_ring.values():
        assert counters.frames_delivered <= counters.frames_sent
    ledger.check_invariants()

    # weight invariants survive a long randomized update chain
    rng = np.random.default_rng(99)
    weights = equal_weights()
    for _ in range(2000):
        snaps = [MetricVector(*rng.uniform(0.0, 1.0, size=5).tolist())
                 for _ in range(int(rng.integers(2, 7)))]
        weights = dsw_update(snaps, weights, lam=float(rng.uniform(0.0, 1.0)))
        weights.check()

    # hop counts strictly consume the TTL budget on the unicast path
    from vanetsim.engine import RoutingRun
    route_cfg = resolve_scenario("leganes-routing")
    route_run = build_run(route_cfg, 50.0, "gpsr", 0)
    ttl_trace: dict[str, list[int]] = {}
    original_hop = RoutingRun.hop

    def tracing_hop(self, holder_id, msg):
        ttl_trace.setdefault(msg.id, []).append(msg.ttl)
        return original_hop(self, holder_id, msg)

    RoutingRun.hop = tracing_hop
    try:
        route_run.execute()
    finally:
        RoutingRun.hop = original_hop
    assert ttl_trace
    for msg_id, ttls in ttl_trace.items():
        assert all(b < a for a, b in zip(ttls, ttls[1:])), msg_id
        assert all(t >= 0 for t in ttls)
