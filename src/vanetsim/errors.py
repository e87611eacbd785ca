"""Exception types shared across the simulator.

ConfigError and its subclasses mean the input (config file, trace file,
obstacle file, parameter value) was rejected; the CLI maps them to exit
code 1.  SimulationError and its subclasses mean a run failed after the
input was accepted; the CLI maps them to exit code 2.

A numeric config key is checked against one of four bounds: positive,
non-negative, at least 1, or within [0, 1].  A bound is a refusal test and
the words that name it, and each config class lists its keys against their
bounds for ``check_bounds``, which refuses the first key out of bounds with
``ConfigError("<section>.<key>: <words>")``.  The refusal tests are
``v <= 0``, ``v < 0``, ``v < 1`` and ``not 0 <= v <= 1``, so of a NaN
passed from Python only the [0, 1] bound refuses; ``from_dict`` refuses a
NaN before any bound.
"""

from typing import Callable, Mapping


class VanetSimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(VanetSimError):
    """Invalid configuration or input file."""


class TraceParseError(ConfigError):
    """A mobility trace file was rejected; the message names the spot."""


class SchedulingError(ConfigError):
    """An event was scheduled before the current simulation clock."""


class SimulationError(VanetSimError):
    """A run failed at simulation time."""


class BudgetError(SimulationError):
    """The engine hit its event budget before reaching the horizon."""


class MaintenanceError(SimulationError):
    """Fog cell maintenance did not reach a consistent fixed point."""


# A bound: (refuses, words), a test that is true for a value out of bounds,
# and how the refusal names the bound.
Bound = tuple[Callable[[float], bool], str]

POSITIVE: Bound = (lambda v: v <= 0, "must be positive")
NON_NEGATIVE: Bound = (lambda v: v < 0, "must be non-negative")
AT_LEAST_1: Bound = (lambda v: v < 1, "must be at least 1")
UNIT_INTERVAL: Bound = (lambda v: not 0 <= v <= 1, "must lie in [0, 1]")


def check_bounds(section: str, obj, bounds: Mapping[str, Bound]) -> None:
    """Refuse the first field of ``obj``, in the order ``bounds`` lists them,
    whose value its bound refuses; an empty ``section`` names a top-level key."""
    for name, (refuses, words) in bounds.items():
        if refuses(getattr(obj, name)):
            raise ConfigError(f"{section}.{name}: {words}" if section else f"{name}: {words}")
