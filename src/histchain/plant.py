"""Two-tank water process: three valves, two level sensors, two hysteresis PLCs.

Tank1 fills through valve A1 and drains into tank2 through A2; tank2 drains
through A3. Each step() moves the levels by one tick of valve flow, clamped
to [0, capacity]. Sensors report floor-quantized levels, optionally with
seeded unit noise.

A PLC commands its valves only when a reading leaves its band and commands
nothing inside it, so each valve keeps its last commanded position: that
position is the PLC's only memory, which holds because each valve has
exactly one PLC commanding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SimConfig, noise_offset

SENSOR_TANK = {"S1": 1, "S2": 2}


@dataclass
class Tanks:
    capacity: float
    levels: dict[int, float]  # tank number -> level in [0, capacity]


@dataclass(frozen=True)
class Plc:
    """Hysteresis controller: `below` is what it commands under setpoint_low,
    `above` what it commands over setpoint_high."""

    sensor_id: str
    setpoint_low: int
    setpoint_high: int
    below: dict[str, bool]
    above: dict[str, bool]


def read_sensor(tanks: Tanks, sensor_id: str, tick: int,
                noise_seed: int | None = None) -> int:
    """Floor-quantized level; identical for repeated calls at the same tick."""
    value = math.floor(tanks.levels[SENSOR_TANK[sensor_id]])
    if noise_seed is not None:
        value += noise_offset(noise_seed, sensor_id, tick)
        value = min(max(value, 0), math.floor(tanks.capacity))
    return value


def plc_control(plc: Plc, reading: int) -> dict[str, bool]:
    """The PLC's commands for a reading, {} inside its band. The map returned
    is the PLC's own; do not change it."""
    if reading < plc.setpoint_low:
        return plc.below
    if reading > plc.setpoint_high:
        return plc.above
    return {}


def default_plcs(cfg: SimConfig) -> tuple[Plc, Plc]:
    """PLC1 opens fill valve A1 under the band and closes it over the band.
    PLC2 runs that law on its fill valve A2 and the mirrored law on drain A3."""
    low, high = cfg.setpoint_low, cfg.setpoint_high
    return (Plc("S1", low, high, {"A1": True}, {"A1": False}),
            Plc("S2", low, high, {"A2": True, "A3": False},
                {"A2": False, "A3": True}))


class TwoTankPlant:
    """Tank levels and valve positions, advanced one tick per step()."""

    def __init__(self, cfg: SimConfig):
        self.tanks = Tanks(cfg.capacity, {1: 0.0, 2: 0.0})
        self.valves = {"A1": False, "A2": False, "A3": False}
        self.flow_rates = {"A1": cfg.flow_rate_a1, "A2": cfg.flow_rate_a2,
                           "A3": cfg.flow_rate_a3}

    def step(self):
        a1, a2, a3 = (rate if self.valves[valve] else 0.0
                      for valve, rate in self.flow_rates.items())
        levels, capacity = self.tanks.levels, self.tanks.capacity
        levels[1] = min(max(levels[1] + (a1 - a2), 0.0), capacity)
        levels[2] = min(max(levels[2] + (a2 - a3), 0.0), capacity)
