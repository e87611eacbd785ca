"""Deterministic discrete-event simulator for vehicular message
dissemination over DSRC radio, cloud and fog infrastructure."""

__version__ = "0.1.0"

from .config import ProtocolKnobs, ScenarioConfig, WorkloadSpec, load_config
from .engine import Simulator, derive_stream_seed
from .metrics import (
    DeliveryRecord,
    MetricsSummary,
    aggregate_sweep,
    csv_text,
    summarize,
)
from .mobility import MobilitySpec, NeighborIndex, Position, build_provider
from .protocols import PROTOCOLS, BaseStation, CloudModel, Message
from .radio import ObstacleMap, RadioParams, line_of_sight
from .runner import RunResult, place_stations, run_single, run_sweep

__all__ = [
    "__version__",
    "ProtocolKnobs",
    "ScenarioConfig",
    "WorkloadSpec",
    "load_config",
    "Simulator",
    "derive_stream_seed",
    "DeliveryRecord",
    "MetricsSummary",
    "aggregate_sweep",
    "csv_text",
    "summarize",
    "MobilitySpec",
    "NeighborIndex",
    "Position",
    "build_provider",
    "PROTOCOLS",
    "BaseStation",
    "CloudModel",
    "Message",
    "ObstacleMap",
    "RadioParams",
    "line_of_sight",
    "RunResult",
    "place_stations",
    "run_single",
    "run_sweep",
]
