"""Scenario configs, protocol label expansion, frame traces, the command line
and run-level invariants (determinism, conservation, parallel equivalence)."""

from __future__ import annotations

import hashlib
import json

import pytest

from vanetsim import cli
from vanetsim.config import (ConfigError, expand_protocol, list_presets,
                             load_scenario, preset_path, resolve_scenario,
                             scenario_from_dict, synthetic_frame_trace)
from vanetsim.engine import build_run, execute_run
from vanetsim.report import run_metrics

from conftest import TINY_SCENARIO


# --- scenario parsing and validation ----------------------------------------

def test_defaults_produce_a_valid_scenario():
    cfg = scenario_from_dict({})
    assert cfg.validate() == []


def test_unknown_fields_are_rejected_with_their_path():
    with pytest.raises(ConfigError, match="warp_speed"):
        scenario_from_dict({"warp_speed": 9})
    with pytest.raises(ConfigError, match="radio.flux"):
        scenario_from_dict({"radio": {"flux": 1}})


def test_removed_game_knobs_are_rejected():
    removed = [({"game": {key: 1}}, f"game.{key}")
               for key in ("mechanism", "fg_tol", "fg_max_iters")]
    removed.append(({"mobility_dt": 0.5}, "mobility_dt"))
    removed.append(({"obstacles": True}, "obstacles"))
    removed.append(({"warning": {"frame_trace": "frames.csv"}}, "warning.frame_trace"))
    for data, path in removed:
        with pytest.raises(ConfigError, match=path):
            scenario_from_dict(data)


def test_numeric_strings_are_coerced():
    cfg = scenario_from_dict({"radio": {"bitrate": "6.0e6"}})
    assert cfg.radio.bitrate == 6.0e6


def test_validation_collects_every_error():
    cfg = scenario_from_dict({"duration": -1.0, "seeds": [],
                              "protocols": ["teleport"]})
    errors = cfg.validate()
    assert len(errors) == 3
    assert any("duration" in e for e in errors)
    assert any("seeds" in e for e in errors)
    assert any("teleport" in e for e in errors)


def test_ctd_protocols_require_pedestrians():
    cfg = scenario_from_dict({"protocols": ["ctd-query"], "pedestrian_count": 0})
    assert any("pedestrian" in e for e in cfg.validate())


def test_utility_exponents_must_sum_to_ten():
    cfg = scenario_from_dict({"alpha1": 5.0, "alpha2": 4.0})
    assert any("alpha" in e for e in cfg.validate())


def test_yaml_loading_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_scenario(str(bad))
    with pytest.raises(ConfigError, match="no such"):
        resolve_scenario("not-a-preset-or-path")


# --- protocol label expansion -----------------------------------------------

def test_timer_scheme_suffix_pins_the_scheme():
    cfg = scenario_from_dict({})
    expanded, proto = expand_protocol(cfg, "timer-relay-speed")
    assert proto == "timer-relay"
    assert expanded.timers.scheme == "speed"
    assert cfg.timers.scheme != "speed" or expanded is not cfg  # original intact


def test_assessment_probability_suffix_pins_pa():
    cfg = scenario_from_dict({})
    expanded, proto = expand_protocol(cfg, "ctd-query@pa=0.8")
    assert proto == "ctd-query"
    assert expanded.ctd.p_a == 0.8


def test_plain_labels_pass_through():
    cfg = scenario_from_dict({})
    assert expand_protocol(cfg, "add-vod") == (cfg, "add-vod")


# --- presets ----------------------------------------------------------------

EXPECTED_PRESETS = {"leganes-add", "leganes-routing", "timers-25", "ctd-1000"}


def test_bundled_presets_exist_and_validate():
    names = set(list_presets())
    assert EXPECTED_PRESETS <= names
    for name in EXPECTED_PRESETS:
        assert preset_path(name) is not None
        cfg = resolve_scenario(name)
        assert cfg.validate() == [], name


# --- frame traces -----------------------------------------------------------

def test_synthetic_trace_follows_the_gop_pattern_and_bitrate():
    frames = synthetic_frame_trace(duration=2.0, frame_rate=12.0,
                                   mean_bitrate=120_000.0)
    assert len(frames) == 24
    assert [f.frame_type for f in frames[:12]] == list("IBBPBBPBBPBB")
    total_bits = 8.0 * sum(f.size_bytes for f in frames)
    assert abs(total_bits / 2.0 - 120_000.0) / 120_000.0 < 0.05
    i_size = frames[0].size_bytes
    p_size = frames[3].size_bytes
    b_size = frames[1].size_bytes
    assert i_size > p_size > b_size


# --- run-level invariants ---------------------------------------------------

def test_runs_are_deterministic_per_seed(tiny_cfg):
    a = run_metrics(execute_run(tiny_cfg, 30.0, "flooding-distance", 0))
    b = run_metrics(execute_run(tiny_cfg, 30.0, "flooding-distance", 0))
    c = run_metrics(execute_run(tiny_cfg, 30.0, "flooding-distance", 1))
    assert a == b
    assert a != c


def test_channel_conservation_holds_after_a_run(tiny_cfg):
    run = build_run(tiny_cfg, 30.0, "flooding-distance", 0)
    run.execute()
    ch = run.channel
    assert ch.receivable == ch.delivered + ch.lost_collision + ch.lost_link
    assert ch.receivable > 0


@pytest.mark.parametrize("protocol", ["flooding-distance", "jsf", "timer-relay-fixed",
                                      "timer-relay-map", "3mrp-dsw", "ctd-query"])
def test_a_finished_run_is_freed_by_reference_counting(protocol):
    import gc
    import weakref

    cfg = scenario_from_dict(dict(TINY_SCENARIO, pedestrian_count=60))
    gc.disable()
    try:
        run = build_run(cfg, 30.0, protocol, 0)
        run.execute()
        ref = weakref.ref(run)
        del run
        assert ref() is None
    finally:
        gc.enable()


def test_obstacle_blocking_builds_blocks_that_cut_receptions():
    receivable = {}
    for blocking in (False, True):
        cfg = scenario_from_dict(dict(TINY_SCENARIO, radio=dict(
            TINY_SCENARIO["radio"], obstacle_blocking=blocking)))
        run = build_run(cfg, 30.0, "flooding-distance", 0)
        run.execute()
        assert len(run.graph.obstacles) == (16 if blocking else 0)
        receivable[blocking] = run.channel.receivable
    assert receivable[True] < receivable[False]


def test_application_delivery_is_at_most_once_per_frame(tiny_cfg):
    run = build_run(tiny_cfg, 30.0, "flooding-distance", 0)
    ledger = run.execute()
    for ring, counters in ledger.per_ring.items():
        assert counters.frames_delivered <= counters.frames_sent
    # every counted delivery corresponds to one distinct reached vehicle
    sent = sum(c.frames_sent for c in ledger.per_ring.values())
    delivered = sum(c.frames_delivered for c in ledger.per_ring.values())
    assert delivered <= sent * len(run.vehicle_ids)


def test_sweep_results_cover_the_full_grid(tiny_cfg):
    results = cli.run_sweep(tiny_cfg, jobs=1)
    assert set(results) == {("flooding-distance", 30.0, 0),
                            ("flooding-distance", 30.0, 1)}


# --- command line -----------------------------------------------------------

def test_cli_validate_accepts_presets(capsys):
    assert cli.main(["validate", "timers-25"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_cli_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration: -3\n", encoding="utf-8")
    assert cli.main(["validate", str(bad)]) == 2
    assert "duration" in capsys.readouterr().err
    assert cli.main(["validate", "missing-preset"]) == 2


def test_cli_presets_lists_the_bundled_scenarios(capsys):
    assert cli.main(["presets"]) == 0
    assert EXPECTED_PRESETS <= set(capsys.readouterr().out.split())


def test_cli_run_writes_reports(tmp_path, tiny_yaml):
    out = tmp_path / "out"
    assert cli.main(["run", tiny_yaml, "--out", str(out)]) == 0
    csv_text = (out / "results.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("protocol,density,metric,mean,ci_half_width")
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    assert rows and all(row[0] == "flooding-distance" and row[-1] == "2"
                        for row in rows)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary


def test_cli_reports_are_byte_identical_across_runs(tmp_path, tiny_yaml):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", tiny_yaml, "--out", str(out_a)]) == 0
    assert cli.main(["run", tiny_yaml, "--out", str(out_b)]) == 0
    for name in ("results.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# sha256 of results.csv for the tiny scenario under one protocol per run
# family: NSF (store-and-forward on hello), add-vod (one-shot relay), 3mrp-dsw
# (DSW weights on beacon) and ctd-query (pedestrian mobility).  A change that
# moves any reported number must update this value and say which numbers moved.
PINNED_RESULTS_SHA256 = \
    "6453c7561a217ddf10f6c87f23a4405bab3661047f54c07c8644b993706ee2d6"


def test_cli_results_match_the_pinned_digest(tmp_path):
    import yaml

    path = tmp_path / "pinned.yaml"
    scenario = dict(TINY_SCENARIO, pedestrian_count=60,
                    protocols=["nsf", "add-vod", "3mrp-dsw", "ctd-query"])
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == PINNED_RESULTS_SHA256


# sha256 of results.csv for the tiny scenario (60 pedestrians) run under one
# protocol label at a time: every protocol, plus each timer-relay scheme.  The
# label is part of each row, so timer-relay and timer-relay-speed differ.
PINNED_PROTOCOL_SHA256 = {
    "gpsr": "18493f4e8af398b1c8f7c8f3b33519fd19140968a14c4e3359dae21b512b7f98",
    "3mrp": "eb6f6de84c507aa83d7f228ec274d1cb1254a74240815ef22970fd1c5559d2b9",
    "3mrp-dsw": "09e413d696c207c42ac20f99ec63995c970a8c753e295ccd7db7d463e96ebe12",
    "flooding-distance":
        "8dc1fb4e72ea10f4df9d26640e2d54b829e79408ac99c53541ab74d3c91177fc",
    "jsf": "c5bebaf52f4828b1b51127282b6332788bbbe4ed5c167c7fd94fde531526e7b8",
    "nsf": "bdcd5aaf510c6349c694d0a05207f55bc2d9f935483f37448f2db34edfd37ea8",
    "njl": "3e93dc1cf932a4c9490333ebf289083ca6803cd19c66924b4b72973b15e16018",
    "add-vod": "4a9bf989363a646bfebf282ff073f6a754da2560c459e5f069ca16393ce9e724",
    "add-fg": "eb3356e46b9809a7fba5a569225b0fa762d692b97c436515fe16c9a2ca57bef9",
    "timer-relay": "8d81c5aeb9c09200e0a5591c2966c9d182de3f65af45c3b18bfdd342891a46fc",
    "ctd-query": "e38c81cf65475f7e04dd1ca248d292dd405edd71ecf9852c385728687eadee89",
    "ctd-passive": "60f302abca4aa2ece01a972624fca79eef9c81f4df0116f5797cf9185ae5da13",
    "none-assessment":
        "7621a08e29ca1354a1b2212b059ba740803621544a761e4bbb6f78e7ba2731e9",
    "timer-relay-fixed":
        "be8706be1a5bce35757af3c9e07553296446a0570e8697f8bf5ba788e69f3821",
    "timer-relay-speed":
        "2460012ac6442e14c13b9fbd0ac55a04f6f1837498450027d7941f53592d9999",
    "timer-relay-map":
        "be435ddfc30987036fce906b9fd785bcbcb988e651fe380d3f2ae962a5736c04",
}


def test_pinned_digests_cover_every_protocol():
    from vanetsim.config import ALL_PROTOCOLS

    assert set(ALL_PROTOCOLS) <= set(PINNED_PROTOCOL_SHA256)


@pytest.mark.parametrize("label", sorted(PINNED_PROTOCOL_SHA256))
def test_cli_results_match_the_pinned_digest_per_protocol(tmp_path, label):
    import yaml

    path = tmp_path / "pinned.yaml"
    scenario = dict(TINY_SCENARIO, pedestrian_count=60, protocols=[label])
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == PINNED_PROTOCOL_SHA256[label]


def test_cli_seed_override_limits_the_sweep(tmp_path, tiny_yaml):
    out = tmp_path / "out"
    assert cli.main(["run", tiny_yaml, "--out", str(out), "--seeds", "0"]) == 0
    csv_text = (out / "results.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    assert rows and all(row[-1] == "1" for row in rows)  # one run per cell


def test_parallel_execution_matches_sequential(tmp_path, tiny_yaml):
    out_seq, out_par = tmp_path / "seq", tmp_path / "par"
    assert cli.main(["run", tiny_yaml, "--out", str(out_seq), "--jobs", "1"]) == 0
    assert cli.main(["run", tiny_yaml, "--out", str(out_par), "--jobs", "2"]) == 0
    for name in ("results.csv", "summary.json"):
        assert (out_seq / name).read_bytes() == (out_par / name).read_bytes()


def test_parallel_sweep_of_shared_walks_matches_sequential(tmp_path):
    # vehicle and pedestrian walks in one sweep: each (density, seed) group
    # is one pool chunk whose protocols share the memoized walks
    import yaml

    path = tmp_path / "mixed.yaml"
    scenario = dict(TINY_SCENARIO, pedestrian_count=40, densities=[20.0, 30.0],
                    protocols=["add-vod", "gpsr", "ctd-passive"])
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out_seq, out_par = tmp_path / "seq", tmp_path / "par"
    assert cli.main(["run", str(path), "--out", str(out_seq), "--jobs", "1"]) == 0
    assert cli.main(["run", str(path), "--out", str(out_par), "--jobs", "2"]) == 0
    for name in ("results.csv", "summary.json"):
        assert (out_seq / name).read_bytes() == (out_par / name).read_bytes()
    runs = json.loads((out_seq / "summary.json").read_text(encoding="utf-8"))["runs"]
    assert len(runs) == 3 * 2 * 2


def test_cli_runs_a_forwarding_game_scenario(tmp_path):
    import yaml

    path = tmp_path / "fg.yaml"
    path.write_text(yaml.safe_dump(dict(TINY_SCENARIO, protocols=["add-fg"])),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out), "--seeds", "0"]) == 0
    csv_text = (out / "results.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    assert rows and all(row[0] == "add-fg" for row in rows)
    assert any(row[2] == "fdr@300" for row in rows)
