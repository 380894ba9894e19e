"""Scenario configuration: YAML schema, validation, presets, frame traces."""

from __future__ import annotations

import importlib.resources
import os
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np
import yaml

from .ctd import CtdConfig
from .dissemination import GameConfig, TimerConfig, DISSEMINATION_PROTOCOLS
from .metrics import DEFAULT_RINGS
from .radio import RadioConfig

ROUTING_PROTOCOLS = ("gpsr", "3mrp", "3mrp-dsw")
CTD_PROTOCOLS = ("ctd-query", "ctd-passive", "none-assessment")
ALL_PROTOCOLS = ROUTING_PROTOCOLS + DISSEMINATION_PROTOCOLS + CTD_PROTOCOLS


def expand_protocol(cfg: "ScenarioConfig", label: str) -> tuple["ScenarioConfig", str]:
    """Resolve a protocol label with variant suffixes into (config, base protocol).

    Supported: `timer-relay-<scheme>` pins the retransmission timer scheme and
    `<proto>@pa=<x>` pins the CTD assessment probability, so one scenario file
    can sweep schemes or p_a values side by side.
    """
    import dataclasses
    proto = label
    if proto.startswith("timer-relay-"):
        scheme = proto[len("timer-relay-"):]
        cfg = dataclasses.replace(
            cfg, timers=dataclasses.replace(cfg.timers, scheme=scheme))
        proto = "timer-relay"
    if "@pa=" in proto:
        proto, _, pa = proto.partition("@pa=")
        try:
            cfg = dataclasses.replace(
                cfg, ctd=dataclasses.replace(cfg.ctd, p_a=float(pa)))
        except ValueError:
            return cfg, label  # reported by validate()
    return cfg, proto


class ConfigError(ValueError):
    pass


@dataclass
class AreaConfig:
    width: float = 2500.0
    height: float = 2500.0
    block_size: float = 250.0


@dataclass
class RoutingParams:
    hello_interval: float = 1.0
    neighbor_timeout_factor: float = 3.0
    dsw_lambda: float = 0.5
    w_floor: float = 0.05
    density_ref: float = 100.0
    rsu_count: int = 4
    source_count: int = 5
    ttl: int = 64


@dataclass
class WarningConfig:
    origin: Optional[tuple[float, float]] = None  # default: area center
    start_time: float = 5.0
    frame_rate: float = 10.0           # frames/s for the synthetic trace
    mean_bitrate: float = 150e3        # bits/s for the synthetic trace
    duration: float = 10.0             # seconds of warning traffic
    ttl: int = 32
    lifetime: float = 30.0             # relay/timer validity horizon


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    area: AreaConfig = field(default_factory=AreaConfig)
    densities: list[float] = field(default_factory=lambda: [40.0])
    pedestrian_count: int = 0
    alert_senders: int = 1
    radio: RadioConfig = field(default_factory=RadioConfig)
    protocols: list[str] = field(default_factory=lambda: ["add-vod"])
    game: GameConfig = field(default_factory=GameConfig)
    timers: TimerConfig = field(default_factory=TimerConfig)
    ctd: CtdConfig = field(default_factory=CtdConfig)
    routing: RoutingParams = field(default_factory=RoutingParams)
    warning: WarningConfig = field(default_factory=WarningConfig)
    duration: float = 40.0
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    rings: list[float] = field(default_factory=lambda: list(DEFAULT_RINGS))
    jitter_max: float = 0.02           # rebroadcast jitter upper bound, seconds

    def validate(self) -> list[str]:
        """Every invariant checked; all violations reported, not just the first."""
        errors: list[str] = []
        if self.duration <= 0:
            errors.append("duration must be positive")
        if not self.seeds:
            errors.append("seeds must be non-empty")
        if not self.protocols:
            errors.append("protocols must be non-empty")
        base_protocols = []
        for label in self.protocols:
            variant, proto = expand_protocol(self, label)
            base_protocols.append(proto)
            if proto not in ALL_PROTOCOLS:
                errors.append(f"unknown protocol {label!r}")
                continue
            errors += [f"{label}: {e}" for e in variant.timers.validate()
                       if e not in [f"timers: {x}" for x in self.timers.validate()]
                       and proto == "timer-relay"]
            errors += [f"{label}: {e}" for e in variant.ctd.validate()
                       if proto in CTD_PROTOCOLS and "@pa=" in label]
        needs_vehicles = any(p not in CTD_PROTOCOLS for p in base_protocols)
        if needs_vehicles and (not self.densities or any(d <= 0 for d in self.densities)):
            errors.append("densities must be positive")
        if self.area.block_size >= min(self.area.width, self.area.height):
            errors.append("area.block_size must be smaller than both dimensions")
        if self.area.width <= 0 or self.area.height <= 0:
            errors.append("area dimensions must be positive")
        errors += [f"radio: {e}" for e in self.radio.validate()]
        errors += [f"game: {e}" for e in self.game.validate()]
        errors += [f"timers: {e}" for e in self.timers.validate()]
        errors += [f"ctd: {e}" for e in self.ctd.validate()]
        if abs(self.alpha1 + self.alpha2 - 10.0) > 1e-9:
            errors.append("alpha1 + alpha2 must equal 10")
        if self.rings != sorted(self.rings) or any(r <= 0 for r in self.rings):
            errors.append("rings must be positive and increasing")
        if any(p in CTD_PROTOCOLS for p in base_protocols) and self.pedestrian_count <= 0:
            errors.append("pedestrian_count must be positive for CTD protocols")
        return errors

    alpha1: float = 6.0
    alpha2: float = 4.0


def _coerce(value, annotation: str, where: str):
    # PyYAML reads "6.0e6" as a string (YAML 1.1 wants e+6); accept both
    if isinstance(value, str) and annotation in ("float", "int"):
        try:
            return float(value) if annotation == "float" else int(value)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int) and annotation == "float":
        return float(value)
    return value


def _build(cls, data: dict, path: str):
    kwargs = {}
    fields = cls.__dataclass_fields__
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")
        ann = fields[key].type
        kwargs[key] = _coerce(value, ann, f"{path}.{key}")
    return cls(**kwargs)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    data = dict(data)
    nested = {
        "area": AreaConfig,
        "radio": RadioConfig,
        "game": GameConfig,
        "timers": TimerConfig,
        "ctd": CtdConfig,
        "routing": RoutingParams,
        "warning": WarningConfig,
    }
    kwargs = {}
    for key, value in data.items():
        if key in nested:
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: expected a mapping")
            kwargs[key] = _build(nested[key], value, key)
        elif key in ScenarioConfig.__dataclass_fields__:
            ann = ScenarioConfig.__dataclass_fields__[key].type
            kwargs[key] = _coerce(value, ann, key)
        else:
            raise ConfigError(f"{key}: unknown field")
    cfg = ScenarioConfig(**kwargs)
    if cfg.warning.origin is not None:
        cfg.warning.origin = tuple(cfg.warning.origin)
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return scenario_from_dict(data)


def preset_path(name: str) -> Optional[str]:
    base = importlib.resources.files("vanetsim").joinpath("presets")
    candidate = base.joinpath(f"{name}.yaml")
    if candidate.is_file():
        return str(candidate)
    return None


def list_presets() -> list[str]:
    base = importlib.resources.files("vanetsim").joinpath("presets")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".yaml"))


def resolve_scenario(name_or_path: str) -> ScenarioConfig:
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    preset = preset_path(name_or_path)
    if preset is not None:
        return load_scenario(preset)
    raise ConfigError(f"no such config file or preset: {name_or_path}")


# --- frame traces -----------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    index: int
    frame_type: str  # I | P | B
    size_bytes: int


GOP_PATTERN = "IBBPBBPBBPBB"
TYPE_SIZE_RATIO = {"I": 3.0, "P": 1.0, "B": 0.5}


def synthetic_frame_trace(duration: float, frame_rate: float,
                          mean_bitrate: float) -> list[Frame]:
    """I/P/B frame sequence whose sizes average the configured bitrate."""
    n = int(round(duration * frame_rate))
    types = [GOP_PATTERN[i % len(GOP_PATTERN)] for i in range(n)]
    mean_ratio = sum(TYPE_SIZE_RATIO[t] for t in types) / max(1, n)
    base = mean_bitrate / frame_rate / 8.0 / mean_ratio  # bytes for ratio 1.0
    return [Frame(i, t, max(1, int(round(base * TYPE_SIZE_RATIO[t]))))
            for i, t in enumerate(types)]
