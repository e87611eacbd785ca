"""Scenario configuration: JSON schema, defaults, strict validation.

An empty config object is a complete, runnable scenario (300 m radio at
2 Mbps, 256 B messages, a 10 km highway, densities 50..450, one seed).
Unknown keys are rejected with their full key path so typos never pass
silently.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Union

from .engine import DEFAULT_EVENT_BUDGET
from .errors import AT_LEAST_1, NON_NEGATIVE, POSITIVE, ConfigError, check_bounds
from .mobility import MAX_VEHICLES, MobilitySpec
from .protocols import PROTOCOLS, CloudModel
from .radio import EMPTY_MAP, ObstacleMap, RadioParams, Rect

DEFAULT_DENSITIES = (50, 150, 250, 350, 450)

# The "obstacles" key: a rectangle file's path, inline rectangles, or none.
Obstacles = Union[str, tuple[Rect, ...], None]


@dataclass(frozen=True)
class WorkloadSpec:
    rate_per_s: float = 1.0
    # A non-empty list addresses every message to these vehicles; without
    # one, a message goes to its sender's station region.
    explicit_targets: tuple[int, ...] = ()

    def __post_init__(self):
        check_bounds("workload", self, {"rate_per_s": POSITIVE})


@dataclass(frozen=True)
class ProtocolKnobs:
    ttl_hops: int = 8
    route_setup_delay_us: int = 0
    bs_spacing_m: float = 2_000.0
    bs_coverage_m: float = 1_000.0
    k_max_gateways: int = 4
    window_s: float = 5.0
    gateway_access_us: int = 5_000
    fog_processing_us: int = 5_000
    d_min_m: float = 300.0
    th_cap: int = 20
    maintenance_interval_s: float = 1.0
    mobility_tick_s: float = 1.0
    beacon_interval_s: float = 0.1  # 0 turns beacons off
    include_beacons_in_metrics: bool = False
    drain_s: float = 2.0
    event_budget: int = DEFAULT_EVENT_BUDGET

    def __post_init__(self):
        check_bounds("knobs", self, {
            "ttl_hops": AT_LEAST_1, "route_setup_delay_us": NON_NEGATIVE,
            "bs_spacing_m": POSITIVE, "bs_coverage_m": POSITIVE, "k_max_gateways": AT_LEAST_1,
            "window_s": NON_NEGATIVE, "gateway_access_us": NON_NEGATIVE,
            "fog_processing_us": NON_NEGATIVE, "d_min_m": POSITIVE, "th_cap": AT_LEAST_1,
            "maintenance_interval_s": POSITIVE, "mobility_tick_s": POSITIVE,
            "beacon_interval_s": NON_NEGATIVE, "drain_s": NON_NEGATIVE,
            "event_budget": AT_LEAST_1,
        })


@dataclass
class ScenarioConfig:
    mobility: MobilitySpec = dataclasses.field(default_factory=MobilitySpec)
    radio: RadioParams = dataclasses.field(default_factory=RadioParams)
    cloud: CloudModel = dataclasses.field(default_factory=CloudModel)
    workload: WorkloadSpec = dataclasses.field(default_factory=WorkloadSpec)
    knobs: ProtocolKnobs = dataclasses.field(default_factory=ProtocolKnobs)
    obstacles: Obstacles = None
    protocols: tuple[str, ...] = tuple(sorted(PROTOCOLS))
    densities: tuple[int, ...] = DEFAULT_DENSITIES
    seeds: tuple[int, ...] = (1,)
    sim_duration_s: float = 30.0

    def __post_init__(self):
        if not self.protocols:
            raise ConfigError("protocols: must name at least one protocol")
        for name in self.protocols:
            if name not in PROTOCOLS:
                raise ConfigError(
                    f"protocols: unknown protocol {name!r} "
                    f"(choose from {', '.join(sorted(PROTOCOLS))})"
                )
        if not self.densities:
            raise ConfigError("densities: must not be empty")
        for d in self.densities:
            if not 1 <= d <= MAX_VEHICLES:
                raise ConfigError(f"densities: {d} outside [1, {MAX_VEHICLES}]")
        if not self.seeds:
            raise ConfigError("seeds: must not be empty")
        for s in self.seeds:
            if not 0 <= s < 2**64:
                raise ConfigError(f"seeds: {s} does not fit in 64 bits")
        # a repeated entry would run, and count, the same runs again
        for key in ("protocols", "densities", "seeds"):
            listed = set()
            for value in getattr(self, key):
                if value in listed:
                    raise ConfigError(f"{key}: {value!r} is listed twice")
                listed.add(value)
        check_bounds("", self, {"sim_duration_s": POSITIVE})

    def load_obstacles(self) -> ObstacleMap:
        if isinstance(self.obstacles, str):
            return ObstacleMap.load(self.obstacles)
        return ObstacleMap(list(self.obstacles)) if self.obstacles else EMPTY_MAP

    def to_dict(self) -> dict:
        """The JSON form that from_dict reads back."""
        return _plain(self)


def _plain(value):
    # Dataclasses to dicts of their fields and tuples to lists, recursively.
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _check_keys(section: dict, path: str, allowed) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def _expect(value, types, path: str):
    # bool is an int subtype; keep the two apart for numeric fields.
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ConfigError(f"{path}: expected a number, got a boolean")
    if not isinstance(value, types):
        raise ConfigError(f"{path}: unexpected type {type(value).__name__}")
    return value


def _int(value, path: str) -> int:
    return int(_expect(value, int, path))


def _num(value, path: str) -> float:
    # json reads NaN, Infinity and 1e400 as floats, and NaN passes every range check
    num = float(_expect(value, (int, float), path))
    if not math.isfinite(num):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return num


def _str(value, path: str) -> str:
    return _expect(value, str, path)


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _opt_str(value, path: str) -> Optional[str]:
    return None if value is None else _str(value, path)


def _items(parse):
    # A JSON list read into a tuple, each item through ``parse``.
    def parse_list(value, path: str) -> tuple:
        _expect(value, list, path)
        return tuple(parse(v, f"{path}[{i}]") for i, v in enumerate(value))

    return parse_list


def _range(value, path: str) -> Optional[tuple[float, float]]:
    # a [min, max] pair
    if value is None:
        return None
    if len(_expect(value, list, path)) != 2:
        raise ConfigError(f"{path}: expected [min, max]")
    return _items(_num)(value, path)


def _obstacles(value, path: str) -> Obstacles:
    # JSON types only: ObstacleMap checks each rectangle when it is loaded
    if value is None or isinstance(value, str):
        return value
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a path, a list of rectangles, or null")
    return _items(_items(_num))(value, path)


# Parsers by field annotation.  A parser returns None only for a JSON null
# it accepts, and a None leaves the field at its default.
_PARSERS = {
    "int": _int,
    "SimTime": _int,
    "float": _num,
    "str": _str,
    "bool": _bool,
    "Optional[str]": _opt_str,
    "tuple[int, ...]": _items(_int),
    "tuple[str, ...]": _items(_str),
    "tuple[float, float]": _range,
    "Obstacles": _obstacles,
}


def _build_section(cls, data, path: str):
    _expect(data, dict, path)
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    _check_keys(data, path, types)
    kwargs = {}
    for name, raw in data.items():
        value = _PARSERS[types[name]](raw, f"{path}.{name}" if path else name)
        if value is not None:
            kwargs[name] = value
    return cls(**kwargs)


_PARSERS.update(
    (cls.__name__, functools.partial(_build_section, cls))
    for cls in (MobilitySpec, RadioParams, CloudModel, WorkloadSpec, ProtocolKnobs)
)


def from_dict(data: dict, base_dir: str = ".") -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _build_section(ScenarioConfig, data, "")
    if isinstance(cfg.obstacles, str):
        cfg.obstacles = _resolve(cfg.obstacles, base_dir)
    trace = cfg.mobility.trace_path
    if trace is not None:
        cfg.mobility.trace_path = _resolve(trace, base_dir)
    # Fail now, not at run time, when a referenced file is unreadable.
    cfg.load_obstacles()
    if cfg.mobility.trace_path is not None and not os.path.isfile(cfg.mobility.trace_path):
        raise ConfigError(f"mobility.trace_path: no such file {cfg.mobility.trace_path!r}")
    return cfg


def _resolve(path: str, base_dir: str) -> str:
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base_dir, path))


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def config_json(cfg: ScenarioConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)
