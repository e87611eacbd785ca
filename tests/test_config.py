"""Config loading: defaults, strict key checking, type and value errors,
obstacle wiring, path resolution, serialization round trips."""

import json
import math
import re
from pathlib import Path

import pytest

from vanetsim.config import (
    DEFAULT_DENSITIES,
    ProtocolKnobs,
    ScenarioConfig,
    WorkloadSpec,
    config_json,
    from_dict,
    load_config,
)
from vanetsim.errors import ConfigError
from vanetsim.radio import EMPTY_MAP


def test_empty_config_is_a_complete_scenario():
    cfg = from_dict({})
    assert cfg.mobility.mode == "synthetic_highway"
    assert cfg.mobility.road_length_m == 10_000.0
    assert cfg.radio.range_m == 300.0
    assert cfg.radio.data_rate_bps == 2_000_000
    assert cfg.radio.msg_size_bytes == 256
    assert cfg.densities == DEFAULT_DENSITIES
    assert cfg.seeds == (1,)
    assert cfg.protocols == ("baseline", "dfcv", "hybrid_vehcloud")
    assert cfg.sim_duration_s == 30.0
    assert cfg.load_obstacles() is EMPTY_MAP


def test_defaults_match_dataclass_defaults():
    assert from_dict({}) == ScenarioConfig()


def test_round_trip_preserves_overrides(tmp_path):
    data = {
        "mobility": {
            "mode": "synthetic_grid",
            "vehicle_count": 80,
            "grid_blocks": 4,
            "grid_spacing_m": 250.0,
            "speed_range_mph": [20, 45],
            "gateway_fraction": 0.1,
        },
        "radio": {"range_m": 250.0, "base_loss": 0.05},
        "cloud": {"uplink_us": 60_000},
        "workload": {"rate_per_s": 2.5, "explicit_targets": [3, 4]},
        "knobs": {"ttl_hops": 3, "th_cap": 12, "include_beacons_in_metrics": True},
        "obstacles": [[0, 0, 10, 10], [50, 50, 80, 90]],
        "protocols": ["baseline", "dfcv"],
        "densities": [10, 20],
        "seeds": [7, 8, 9],
        "sim_duration_s": 12.0,
    }
    cfg = from_dict(data, base_dir=str(tmp_path))
    assert from_dict(cfg.to_dict(), base_dir=str(tmp_path)) == cfg
    assert cfg.obstacles == ((0.0, 0.0, 10.0, 10.0), (50.0, 50.0, 80.0, 90.0))
    assert cfg.workload.explicit_targets == (3, 4)
    assert cfg.knobs.include_beacons_in_metrics is True


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"radios": {}}, "radios: unknown key"),
        ({"radio": {"fading": "rician"}}, "radio.fading: unknown key"),
        ({"mobility": {"model": "x"}}, "mobility.model: unknown key"),
        ({"knobs": {"ttl": 3}}, "knobs.ttl: unknown key"),
        ({"radio": {"range_m": "far"}}, "radio.range_m: unexpected type"),
        ({"radio": {"range_m": True}}, "radio.range_m: expected a number, got a boolean"),
        ({"radio": {"max_defers": 2.5}}, "radio.max_defers: unexpected type"),
        (
            {"knobs": {"include_beacons_in_metrics": 1}},
            "knobs.include_beacons_in_metrics: expected true or false",
        ),
        ({"mobility": {"speed_range_mph": [30]}}, "speed_range_mph: expected [min, max]"),
        ({"workload": {"explicit_targets": [1, "x"]}}, "workload.explicit_targets[1]"),
        ({"radio": {"range_m": -5}}, "radio.range_m"),
        ({"knobs": {"th_cap": 0}}, "knobs.th_cap"),
        ({"workload": {"rate_per_s": 0}}, "workload.rate_per_s"),
        ({"workload": {"target_rule": "broadcast"}}, "workload.target_rule"),
        ({"workload": {"explicit_targets": 3}}, "workload.explicit_targets"),
        ({"densities": [0]}, "densities: 0 outside"),
        ({"densities": []}, "densities: must not be empty"),
        ({"seeds": [2**64]}, "seeds"),
        ({"seeds": []}, "seeds: must not be empty"),
        ({"protocols": ["psycho"]}, "protocols: unknown protocol 'psycho'"),
        ({"protocols": []}, "protocols: must name at least one"),
        ({"sim_duration_s": 0}, "sim_duration_s: must be positive"),
        ({"obstacles": 42}, "obstacles: expected a path"),
        ({"obstacles": [[0, 0, 10]]}, "obstacles[0]: expected [x_min, y_min, x_max, y_max]"),
        ({"mobility": {"mode": "teleport"}}, "mobility.mode"),
        ({"radio": {"range_m": float("nan")}}, "radio.range_m: must be a finite number"),
        ({"sim_duration_s": float("inf")}, "sim_duration_s: must be a finite number"),
        ({"knobs": {"window_s": float("-inf")}}, "knobs.window_s: must be a finite number"),
        ({"mobility": {"speed_range_mph": [10, float("nan")]}},
         "mobility.speed_range_mph[1]: must be a finite number"),
        ({"obstacles": [[0, 0, float("inf"), 10]]}, "obstacles[0][2]: must be a finite number"),
        ({"cloud": {"uplink_us": -1}}, "cloud.uplink_us: must be non-negative"),
        ({"cloud": {"downlink_us": -1}}, "cloud.downlink_us: must be non-negative"),
        ({"cloud": {"processing_us": -1}}, "cloud.processing_us: must be non-negative"),
        ({"protocols": ["baseline", "dfcv", "baseline"]}, "protocols: 'baseline' is listed twice"),
        ({"densities": [20, 30, 20]}, "densities: 20 is listed twice"),
        ({"seeds": [3, 3]}, "seeds: 3 is listed twice"),
        # beacons have their own knobs, and explicit_targets alone picks the targets
        ({"workload": {"kind": "event_driven"}}, "workload.kind: unknown key"),
        ({"workload": {"target_rule": "explicit", "explicit_targets": [1]}},
         "workload.target_rule: unknown key"),
    ],
)
def test_bad_configs_name_the_offending_key(data, fragment):
    with pytest.raises(ConfigError) as err:
        from_dict(data)
    assert fragment in str(err.value)


def test_library_rectangles_are_checked_finite():
    # from_dict refuses these through _num; a library caller gets the same
    # answer from ObstacleMap, where a nan rectangle would never block sight
    cfg = ScenarioConfig(obstacles=((0, 0, 5, 5), (0, 0, math.inf, 10)))
    with pytest.raises(ConfigError, match=re.escape("obstacles[1]: coordinates must be finite")):
        cfg.load_obstacles()


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"```json\n(.*?)```", readme, re.S)
    cfg = from_dict(json.loads(block))
    assert cfg.load_obstacles().rects == [(215.0, 215.0, 385.0, 385.0)]


def test_obstacle_file_resolved_relative_to_config(tmp_path):
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "town.txt").write_text("# two slabs\n0 0 10 10\n20 20 30 30\n")
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps({"obstacles": "maps/town.txt"}))
    cfg = load_config(str(cfg_file))
    assert cfg.obstacles == str(tmp_path / "maps" / "town.txt")
    assert len(cfg.load_obstacles().rects) == 2


def test_missing_obstacle_file_fails_at_load(tmp_path):
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps({"obstacles": "nowhere.txt"}))
    with pytest.raises(ConfigError):
        load_config(str(cfg_file))


def test_trace_path_resolved_and_checked(tmp_path):
    trace = tmp_path / "run.xml"
    trace.write_text(
        '<fcd-export><timestep time="0">'
        '<vehicle id="a" x="0" y="0" speed="1"/>'
        "</timestep></fcd-export>"
    )
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(
        json.dumps({"mobility": {"mode": "trace", "trace_path": "run.xml", "vehicle_count": 1}})
    )
    cfg = load_config(str(cfg_file))
    assert cfg.mobility.trace_path == str(trace)

    cfg_file.write_text(
        json.dumps({"mobility": {"mode": "trace", "trace_path": "gone.xml", "vehicle_count": 1}})
    )
    with pytest.raises(ConfigError, match="no such file"):
        load_config(str(cfg_file))


def test_load_config_reports_bad_json_and_missing_file(tmp_path):
    fp = tmp_path / "broken.json"
    fp.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(fp))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_config_root_must_be_object():
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        from_dict([1, 2, 3])


def test_config_json_is_sorted_and_parseable():
    cfg = ScenarioConfig()
    text = config_json(cfg)
    assert json.loads(text) == cfg.to_dict()
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


def test_workload_spec_validation():
    assert WorkloadSpec(rate_per_s=2.0).explicit_targets == ()
    with pytest.raises(ConfigError, match="workload.rate_per_s"):
        WorkloadSpec(rate_per_s=-1.0)


def test_knob_validation_messages():
    with pytest.raises(ConfigError, match="knobs.event_budget"):
        ProtocolKnobs(event_budget=0)
    with pytest.raises(ConfigError, match="knobs.mobility_tick_s"):
        ProtocolKnobs(mobility_tick_s=0)
    with pytest.raises(ConfigError, match="knobs.window_s"):
        ProtocolKnobs(window_s=-1)
