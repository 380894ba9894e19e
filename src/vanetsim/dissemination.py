"""Warning-message dissemination: utility-driven suppression games,
retransmission timer schemes, store-carry-forward, and baseline relays."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_ALPHA1 = 6.0
DEFAULT_ALPHA2 = 4.0


@dataclass
class UtilityInputs:
    df: float
    lqf: float
    alpha1: float = DEFAULT_ALPHA1
    alpha2: float = DEFAULT_ALPHA2

    def check(self) -> None:
        if not 0.0 <= self.df <= 1.0:
            raise ValueError("df must be in [0, 1]")
        if not 0.0 <= self.lqf <= 1.0:
            raise ValueError("lqf must be in [0, 1]")
        if abs(self.alpha1 + self.alpha2 - 10.0) > 1e-9:
            raise ValueError("alpha1 + alpha2 must equal 10")


@dataclass
class GameConfig:
    cost_k: float = 1.0
    fg_benefit: float = 2.0
    fg_cost: float = 1.0

    def validate(self) -> list[str]:
        errors = []
        if self.cost_k <= 0:
            errors.append("game.cost_k must be positive")
        if not self.fg_cost < self.fg_benefit:
            errors.append("game.fg_cost must be below game.fg_benefit")
        return errors


@dataclass
class TimerConfig:
    scheme: str = "speed"      # fixed | speed | map
    fixed_interval: float = 1.0
    t_min: float = 1.0
    t_max: float = 5.0
    poll_interval: float = 0.5

    def validate(self) -> list[str]:
        errors = []
        if self.scheme not in ("fixed", "speed", "map"):
            errors.append(f"unknown timer scheme {self.scheme!r}")
        if not 0 < self.t_min <= self.t_max:
            errors.append("timers require 0 < t_min <= t_max")
        if self.fixed_interval <= 0:
            errors.append("timers.fixed_interval must be positive")
        return errors


@dataclass
class DisseminationState:
    """Per-node, per-message bookkeeping."""
    forwarded: bool = False
    last_relay_intersection: Optional[int] = None
    stored_msg: object = None
    last_tx: float = 0.0


def distance_factor(d_sr: float, d_rint: float, r_max: float) -> float:
    """Relay-worthiness of a receiver's position.

    Far receivers score by their sender distance; receivers with an
    intersection within the transmission range score by a decreasing function
    of the intersection distance (closer to the junction is better).
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    if not 0.0 <= d_sr <= r_max:
        raise ValueError(f"d_sr={d_sr} outside [0, r_max={r_max}]: cannot hear the sender")
    if d_rint < 0:
        raise ValueError("d_rint must be non-negative")
    if d_rint > r_max:
        return d_sr / r_max
    return 1.0 - d_rint / (d_rint + 1.0)


def utility(u_in: UtilityInputs) -> float:
    """10^(10 - (alpha1*df + alpha2*lqf)); lower utility marks a better relay."""
    u_in.check()
    return 10.0 ** (10.0 - (u_in.alpha1 * u_in.df + u_in.alpha2 * u_in.lqf))


def vod_forward_probability(u: float, n_candidates: int, cost_k: float = 1.0) -> float:
    """Volunteer's-dilemma forwarding probability.

    The lowest-utility (best) candidate always forwards; responsibility
    diffuses as the candidate count grows.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be at least 1")
    if cost_k <= 0:
        raise ValueError("cost_k must be positive")
    if n_candidates == 1 or u <= cost_k:
        return 1.0
    p = (cost_k / u) ** (n_candidates - 1)
    return min(1.0, max(0.0, p))


def availability(d_sr: float, r_max: float, abe_norm: float) -> float:
    """Normalized willingness of a candidate: half distance, half bandwidth."""
    if d_sr > r_max:
        raise ValueError("d_sr must not exceed r_max")
    return 0.5 * (d_sr / r_max) + 0.5 * abe_norm


def forwarding_game_equilibrium(avails: list[float], cfg: GameConfig) -> list[float]:
    """Exact mixed equilibrium of the forwarding game, an asymmetric
    volunteer's dilemma (Diekmann 1993).

    Player i gains benefit*a_i if anyone forwards and pays cost if it does;
    it is active when benefit*a_i > cost.  With c_i = ln(benefit*a_i/cost)
    and x_i = -ln(1 - p_i), a mixing player is indifferent exactly when the
    others' x sum to c_i.  Selection rule: the largest-support mixed
    equilibrium over the strongest players.  Sort the active players by a_i,
    highest first (ties keep input order), and take the k strongest with k
    the largest value >= 2 such that sum_{j<=k} c_(j) > (k-1)*c_(1).  With
    X = sum_{j<=k} c_(j)/(k-1) they play p_i = 1 - exp(-(X - c_i)); every
    other player plays 0.  Each excluded player has c_i <= c_(1) < X, so it
    does not want to forward.  A lone active player forwards surely.
    """
    if not avails:
        raise ValueError("need at least one player")
    b, c = cfg.fg_benefit, cfg.fg_cost
    probs = [0.0] * len(avails)
    order = sorted((i for i, a in enumerate(avails) if b * a > c),
                   key=avails.__getitem__, reverse=True)
    if len(order) == 1:
        probs[order[0]] = 1.0
    if len(order) < 2:
        return probs
    gains = [math.log(b * avails[i] / c) for i in order]
    # sum_{j<=k} c_(j) - (k-1)*c_(1) only shrinks as k grows: stop at the
    # first player whose inclusion breaks the condition
    total, k = gains[0] + gains[1], 2
    for g in gains[2:]:
        if total + g <= k * gains[0]:
            break
        total += g
        k += 1
    x_sum = total / (k - 1)
    for i, g in zip(order[:k], gains):
        probs[i] = -math.expm1(g - x_sum)
    return probs


def retransmission_delay(scheme: str, v: float, v_max: float,
                         at_intersection: bool, cfg: TimerConfig,
                         elapsed: float = 0.0) -> float:
    """Delay until the next retransmission attempt under the given scheme."""
    if not 0.0 <= v <= v_max:
        raise ValueError("require 0 <= v <= v_max")
    if scheme == "fixed":
        return cfg.fixed_interval
    if scheme == "speed":
        return cfg.t_min + (cfg.t_max - cfg.t_min) * (1.0 - v / v_max)
    if scheme == "map":
        # the epsilon absorbs float rounding when a poll lands a hair before
        # the deadline; without it the residual delay shrinks geometrically
        if at_intersection or elapsed >= cfg.t_max - 1e-9:
            return 0.0
        return min(cfg.poll_interval, cfg.t_max - elapsed)
    raise ValueError(f"unknown timer scheme {scheme!r}")


# --- per-reception relay decisions -----------------------------------------

DISSEMINATION_PROTOCOLS = (
    "flooding-distance", "jsf", "nsf", "njl", "add-vod", "add-fg", "timer-relay",
)


@dataclass
class ReceptionContext:
    """What a relay decision looks at, gathered by the engine.  The two lists
    are filled only for the rule that reads them."""
    d_sr: float                    # distance receiver-sender, meters
    d_rint: float                  # distance receiver-nearest intersection
    r_max: float
    lqf: float
    n_candidates: int              # fresh neighbors of the receiver (>= 0)
    abe_norm: float
    # njl: candidates' distances to their nearest junction
    neighbor_d_rint: list[float] = field(default_factory=list)
    # add-fg: availabilities of co-hearing candidates, the receiver first
    candidate_avails: list[float] = field(default_factory=list)


@dataclass
class Decision:
    action: str                    # forward | suppress | store
    probability: float = 1.0


def decide_forward(protocol: str, ctx: ReceptionContext, game: GameConfig,
                   rng: np.random.Generator, *,
                   alpha1: float = DEFAULT_ALPHA1,
                   alpha2: float = DEFAULT_ALPHA2) -> Decision:
    """First-reception relay decision for the one-shot protocols.

    JSF/NSF/timer-relay re-attempts are timer-driven and handled by the
    engine; this covers the probabilistic and geometric one-shot rules.
    """
    if ctx.n_candidates == 0 and protocol != "njl":
        return Decision("store")
    if protocol == "flooding-distance":
        return Decision("forward" if ctx.d_sr > 0.8 * ctx.r_max else "suppress")
    if protocol == "njl":
        if all(ctx.d_rint <= other + 1e-12 for other in ctx.neighbor_d_rint):
            return Decision("forward")
        return Decision("suppress")
    if protocol == "add-vod":
        df = distance_factor(ctx.d_sr, ctx.d_rint, ctx.r_max)
        u = utility(UtilityInputs(df, ctx.lqf, alpha1, alpha2))
        p = vod_forward_probability(u, max(1, ctx.n_candidates), game.cost_k)
        return Decision("forward" if rng.random() < p else "suppress", p)
    if protocol == "add-fg":
        avails = ctx.candidate_avails or [availability(ctx.d_sr, ctx.r_max, ctx.abe_norm)]
        p = forwarding_game_equilibrium(avails, game)[0]  # receiver is listed first
        return Decision("forward" if rng.random() < p else "suppress", p)
    raise ValueError(f"no one-shot decision rule for protocol {protocol!r}")
