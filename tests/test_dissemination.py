"""Relay-worthiness utility, forwarding games, retransmission timers and the
one-shot relay decision rules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetsim.dissemination import (GameConfig, ReceptionContext,
                                    TimerConfig, UtilityInputs, availability,
                                    decide_forward, distance_factor,
                                    forwarding_game_equilibrium,
                                    retransmission_delay, utility,
                                    vod_forward_probability)


def game(cost_k=1.0, benefit=2.0, cost=1.0):
    return GameConfig(cost_k=cost_k, fg_benefit=benefit, fg_cost=cost)


# --- distance factor --------------------------------------------------------

def test_distance_factor_far_from_any_intersection_scores_by_sender_distance():
    assert abs(distance_factor(150.0, 400.0, 300.0) - 0.5) < 1e-12
    assert abs(distance_factor(300.0, 301.0, 300.0) - 1.0) < 1e-12


def test_distance_factor_near_an_intersection_scores_by_junction_distance():
    assert abs(distance_factor(150.0, 0.0, 300.0) - 1.0) < 1e-12
    assert abs(distance_factor(150.0, 9.0, 300.0) - 0.1) < 1e-12
    # boundary: an intersection exactly at the range edge still counts
    assert abs(distance_factor(150.0, 300.0, 300.0) - 1.0 / 301.0) < 1e-12


def test_distance_factor_input_validation():
    with pytest.raises(ValueError):
        distance_factor(350.0, 100.0, 300.0)   # cannot hear the sender
    with pytest.raises(ValueError):
        distance_factor(100.0, -1.0, 300.0)
    with pytest.raises(ValueError):
        distance_factor(100.0, 100.0, 0.0)


# --- utility ----------------------------------------------------------------

def test_utility_closed_form_values():
    assert abs(utility(UtilityInputs(1.0, 1.0, 6.0, 4.0)) - 1.0) < 1e-12
    assert abs(utility(UtilityInputs(0.0, 0.0, 6.0, 4.0)) - 1e10) < 1e-2
    assert abs(utility(UtilityInputs(0.5, 0.5, 6.0, 4.0)) - 1e5) < 1e-7


def test_utility_rejects_bad_inputs():
    with pytest.raises(ValueError):
        utility(UtilityInputs(1.5, 0.5, 6.0, 4.0))
    with pytest.raises(ValueError):
        utility(UtilityInputs(0.5, 0.5, 5.0, 4.0))   # factors must sum to 10


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
def test_utility_strictly_decreases_as_relay_worthiness_improves(df, delta):
    better_df = min(1.0, df + delta)
    if better_df > df:
        assert utility(UtilityInputs(better_df, 0.5, 6.0, 4.0)) < \
            utility(UtilityInputs(df, 0.5, 6.0, 4.0))


# --- volunteer-dilemma forwarding probability -------------------------------

def test_vod_probability_closed_form():
    assert vod_forward_probability(1e5, 1) == 1.0        # lone candidate
    assert vod_forward_probability(0.5, 7) == 1.0        # best possible relay
    assert abs(vod_forward_probability(1e5, 3) - 1e-10) < 1e-22
    assert abs(vod_forward_probability(2.0, 3) - 0.25) < 1e-12


def test_vod_probability_input_validation():
    with pytest.raises(ValueError):
        vod_forward_probability(1.0, 0)
    with pytest.raises(ValueError):
        vod_forward_probability(1.0, 2, cost_k=0.0)


@given(st.floats(min_value=1.0, max_value=1e10, allow_nan=False),
       st.integers(min_value=1, max_value=20))
def test_vod_probability_diffuses_with_more_candidates(u, n):
    p_n = vod_forward_probability(u, n)
    p_more = vod_forward_probability(u, n + 1)
    assert 0.0 <= p_more <= p_n <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.integers(min_value=2, max_value=10))
def test_vod_probability_rises_for_better_placed_receivers(df_lo, df_hi, n):
    lo, hi = sorted((df_lo, df_hi))
    u_lo = utility(UtilityInputs(hi, 0.5, 6.0, 4.0))   # better relay, lower u
    u_hi = utility(UtilityInputs(lo, 0.5, 6.0, 4.0))
    assert vod_forward_probability(u_lo, n) >= vod_forward_probability(u_hi, n)


# --- availability and the forwarding game -----------------------------------

def test_availability_mixes_distance_and_bandwidth_equally():
    assert abs(availability(150.0, 300.0, 0.5) - 0.5) < 1e-12
    assert availability(300.0, 300.0, 1.0) == 1.0
    assert availability(0.0, 300.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        availability(400.0, 300.0, 0.5)


def test_forwarding_game_symmetric_interior_equilibrium():
    probs = forwarding_game_equilibrium([1.0, 1.0], game())
    assert abs(probs[0] - 0.5) < 1e-12 and abs(probs[1] - 0.5) < 1e-12
    # three equal players: each mixes so the other two together forward with
    # probability 1 - cost/(benefit*a), i.e. (1 - p)^2 = 1/1.6
    probs = forwarding_game_equilibrium([0.8] * 3, game())
    assert all(abs(p - (1.0 - 1.6 ** -0.5)) < 1e-12 for p in probs)


def test_forwarding_game_stronger_player_forwards_less():
    # asymmetric volunteer's dilemma: each player mixes to keep the *other*
    # indifferent, so the player who values the relay more forwards less
    probs = forwarding_game_equilibrium([1.0, 0.6], game())
    assert abs(probs[0] - 1.0 / 6.0) < 1e-12 and abs(probs[1] - 0.5) < 1e-12
    probs = forwarding_game_equilibrium([0.6, 1.0], game())
    assert abs(probs[0] - 0.5) < 1e-12 and abs(probs[1] - 1.0 / 6.0) < 1e-12


def test_forwarding_game_support_takes_the_strongest_players_first():
    # 0.55 is active (2 * 0.55 > 1), but ln(1.1) is too small to join the
    # support of the two strongest, so it plays 0
    probs = forwarding_game_equilibrium([1.0, 0.6, 0.55], game())
    assert abs(probs[0] - 1.0 / 6.0) < 1e-12 and abs(probs[1] - 0.5) < 1e-12
    assert probs[2] == 0.0
    # only one of two equal 0.6 players fits: ties keep input order
    probs = forwarding_game_equilibrium([0.6, 1.0, 0.6], game())
    assert abs(probs[0] - 0.5) < 1e-12 and abs(probs[1] - 1.0 / 6.0) < 1e-12
    assert probs[2] == 0.0


def test_forwarding_game_many_marginal_players_mix_exactly():
    probs = forwarding_game_equilibrium([1.0] * 40, game(benefit=1.05))
    expected = 1.0 - (1.0 / 1.05) ** (1.0 / 39.0)
    assert len(probs) == 40
    assert all(abs(p - expected) < 1e-12 for p in probs)


def test_forwarding_game_inactive_players_never_forward():
    assert forwarding_game_equilibrium([0.4], game()) == [0.0]
    assert forwarding_game_equilibrium([1.0], game()) == [1.0]
    assert forwarding_game_equilibrium([0.4, 0.3], game()) == [0.0, 0.0]
    # a lone active player forwards surely, whoever else is present
    assert forwarding_game_equilibrium([0.4, 0.9, 0.5], game()) == [0.0, 1.0, 0.0]


def test_forwarding_game_requires_a_player():
    with pytest.raises(ValueError):
        forwarding_game_equilibrium([], game())


def nash_violations(avails, probs, benefit, cost, tol):
    """Players whose probability is no best response: an active player
    (benefit*a > cost) who mixes must see the others forward with probability
    exactly 1 - cost/(benefit*a), at most that if it forwards surely and at
    least that if it never forwards; an inactive player never forwards."""
    bad = []
    for i, (a, p) in enumerate(zip(avails, probs)):
        if not 0.0 <= p <= 1.0:
            bad.append(i)
            continue
        if benefit * a <= cost:
            if p != 0.0:
                bad.append(i)
            continue
        q = 1.0 - math.prod(1.0 - pj for j, pj in enumerate(probs) if j != i)
        target = 1.0 - cost / (benefit * a)
        if (0.0 < p < 1.0 and abs(q - target) > tol) or \
                (p == 1.0 and q > target + tol) or (p == 0.0 and q < target - tol):
            bad.append(i)
    return bad


def mutual_best_response_gap(avails, probs, benefit, cost):
    """Worst payoff a player could gain by deviating to any pure strategy."""
    worst = 0.0
    n = len(avails)
    for i in range(n):
        q_others = 1.0
        for j in range(n):
            if j != i:
                q_others *= 1.0 - probs[j]
        def payoff(p):
            return benefit * avails[i] * (1.0 - (1.0 - p) * q_others) - cost * p
        best = max(payoff(g / 1000.0) for g in range(1001))
        worst = max(worst, best - payoff(probs[i]))
    return worst


@pytest.mark.parametrize("avails,benefit,cost", [
    ([1.0, 1.0], 2.0, 1.0),
    ([1.0, 0.6], 2.0, 1.0),
    ([0.9, 0.7, 0.5], 3.0, 1.0),
    ([0.8, 0.8, 0.8], 2.0, 1.0),
])
def test_forwarding_game_fixed_points_are_mutual_best_responses(avails, benefit, cost):
    probs = forwarding_game_equilibrium(avails, game(benefit=benefit, cost=cost))
    assert nash_violations(avails, probs, benefit, cost, 1e-9) == []
    assert mutual_best_response_gap(avails, probs, benefit, cost) <= 1e-9


# availabilities in [0, 1], with repeats drawn from a short list so that ties
# (including ties at the edge of the support) come up often
avail_lists = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
              st.sampled_from([0.3, 0.6, 0.9, 1.0])),
    min_size=1, max_size=80)


@given(avail_lists, st.floats(min_value=1.05, max_value=1000.0, allow_nan=False))
def test_forwarding_game_solution_is_an_exact_equilibrium(avails, ratio):
    probs = forwarding_game_equilibrium(avails, game(benefit=ratio, cost=1.0))
    assert len(probs) == len(avails)
    assert nash_violations(avails, probs, ratio, 1.0, 1e-9) == []
    assert mutual_best_response_gap(avails, probs, ratio, 1.0) <= 1e-9


# --- retransmission timers --------------------------------------------------

def timers(scheme="fixed"):
    return TimerConfig(scheme=scheme, fixed_interval=2.0, t_min=1.0, t_max=5.0,
                       poll_interval=0.5)


def test_fixed_timer_is_constant():
    cfg = timers("fixed")
    assert retransmission_delay("fixed", 0.0, 14.0, False, cfg) == 2.0
    assert retransmission_delay("fixed", 14.0, 14.0, True, cfg) == 2.0


def test_speed_timer_interpolates_between_bounds():
    cfg = timers("speed")
    assert retransmission_delay("speed", 0.0, 14.0, False, cfg) == 5.0
    assert retransmission_delay("speed", 14.0, 14.0, False, cfg) == 1.0
    assert abs(retransmission_delay("speed", 7.0, 14.0, False, cfg) - 3.0) < 1e-12


def test_map_timer_fires_at_intersections_or_at_the_deadline():
    cfg = timers("map")
    assert retransmission_delay("map", 5.0, 14.0, True, cfg) == 0.0
    assert retransmission_delay("map", 5.0, 14.0, False, cfg, elapsed=5.0) == 0.0
    assert retransmission_delay("map", 5.0, 14.0, False, cfg, elapsed=0.0) == 0.5
    assert abs(retransmission_delay("map", 5.0, 14.0, False, cfg, elapsed=4.8)
               - 0.2) < 1e-12
    # float residue a hair before the deadline must not spin forever
    assert retransmission_delay("map", 5.0, 14.0, False, cfg,
                                elapsed=5.0 - 1e-12) == 0.0


def test_timer_input_validation():
    cfg = timers("fixed")
    with pytest.raises(ValueError):
        retransmission_delay("fixed", 20.0, 14.0, False, cfg)
    with pytest.raises(ValueError):
        retransmission_delay("warp", 5.0, 14.0, False, cfg)


# --- one-shot relay decisions -----------------------------------------------

def ctx(**overrides):
    base = dict(d_sr=250.0, d_rint=400.0, r_max=300.0, lqf=0.8, n_candidates=4,
                abe_norm=0.5, neighbor_d_rint=[50.0, 80.0])
    base.update(overrides)
    return ReceptionContext(**base)


def test_isolated_receiver_stores_for_later_contact():
    d = decide_forward("flooding-distance", ctx(n_candidates=0), game(),
                       np.random.default_rng(0))
    assert d.action == "store"


def test_distance_flooding_threshold_is_strict():
    rng = np.random.default_rng(0)
    g = game()
    assert decide_forward("flooding-distance", ctx(d_sr=241.0), g, rng).action == "forward"
    assert decide_forward("flooding-distance", ctx(d_sr=240.0), g, rng).action == "suppress"


def test_junction_rule_forwards_only_the_closest_to_a_junction():
    rng = np.random.default_rng(0)
    g = game()
    winner = ctx(d_rint=40.0, neighbor_d_rint=[50.0, 80.0])
    loser = ctx(d_rint=60.0, neighbor_d_rint=[50.0, 80.0])
    assert decide_forward("njl", winner, g, rng).action == "forward"
    assert decide_forward("njl", loser, g, rng).action == "suppress"


def test_vod_decision_forwards_surely_when_cost_dominates_utility():
    # cost_k above the worst-case utility makes every candidate a volunteer
    d = decide_forward("add-vod", ctx(), game(cost_k=1e11),
                       np.random.default_rng(0))
    assert d.action == "forward" and d.probability == 1.0


def test_vod_decision_probability_matches_the_closed_form():
    c = ctx()
    df = distance_factor(c.d_sr, c.d_rint, c.r_max)
    u = utility(UtilityInputs(df, c.lqf, 6.0, 4.0))
    expected = vod_forward_probability(u, c.n_candidates, 1.0)
    d = decide_forward("add-vod", c, game(cost_k=1.0), np.random.default_rng(0))
    assert abs(d.probability - expected) < 1e-12


def test_game_decision_uses_the_receivers_own_equilibrium_probability():
    c = ctx(candidate_avails=[1.0, 0.6])
    p0 = forwarding_game_equilibrium([1.0, 0.6], game())[0]
    assert abs(p0 - 1.0 / 6.0) < 1e-12
    for seed in range(20):
        d = decide_forward("add-fg", c, game(), np.random.default_rng(seed))
        draw = np.random.default_rng(seed).random()
        assert d.probability == p0
        assert d.action == ("forward" if draw < p0 else "suppress")


def test_unknown_protocol_is_rejected():
    with pytest.raises(ValueError):
        decide_forward("carrier-pigeon", ctx(), game(), np.random.default_rng(0))
