"""A fleet that never moves, for tests that pin down exact geometries."""

from typing import Sequence

from vanetsim.engine import SimTime
from vanetsim.mobility import MobilityProvider, Position


class StaticProvider(MobilityProvider):
    """Vehicle ``i`` stays at ``positions[i]``; ``gateways`` lists the gateway ids."""

    def __init__(self, positions: Sequence[Position], gateways: Sequence[int] = ()):
        self._positions = [(float(x), float(y)) for x, y in positions]
        self.vehicle_ids = list(range(len(self._positions)))
        self._gateways = set(gateways)

    def position_at(self, vehicle_id: int, t_us: SimTime) -> Position:
        return self._positions[vehicle_id]

    def is_gateway(self, vehicle_id: int) -> bool:
        return vehicle_id in self._gateways

    def max_drift_mps(self) -> float:
        return 0.0

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self._positions]
        ys = [p[1] for p in self._positions]
        return (min(xs), min(ys), max(xs), max(ys))
