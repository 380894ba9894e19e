"""Shared fixtures: a small scenario that runs in well under a second."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from vanetsim.config import scenario_from_dict

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


TINY_SCENARIO = {
    "name": "tiny",
    "area": {"width": 800.0, "height": 800.0, "block_size": 200.0},
    "densities": [30.0],
    "protocols": ["flooding-distance"],
    "radio": {"r_max": 200.0, "bitrate": 6.0e6, "per_link_loss": 0.05},
    "warning": {"start_time": 2.0, "duration": 0.5, "mean_bitrate": 30.0e3,
                "lifetime": 8.0},
    "duration": 8.0,
    "seeds": [0, 1],
    "rings": [300.0, 600.0, 1200.0],
}

# The tiny scenario with the warning sent from 0 s, before the first hellos
# have filled the neighbor tables: add-vod receivers with no fresh neighbor
# store the frame and relay it on the next hello they hear.
SCF_SCENARIO = dict(TINY_SCENARIO, protocols=["add-vod"], seeds=[0],
                    warning=dict(TINY_SCENARIO["warning"], start_time=0.0))


@pytest.fixture
def tiny_cfg():
    return scenario_from_dict(dict(TINY_SCENARIO))


@pytest.fixture
def tiny_yaml(tmp_path):
    import yaml

    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_SCENARIO), encoding="utf-8")
    return str(path)
