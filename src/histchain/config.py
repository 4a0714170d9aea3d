"""Run configuration, the flat key=value config file format, and seeded RNG streams.

All randomness in a run flows from the single config seed through named
sub-streams, so adding a new consumer never perturbs an existing one.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from datetime import datetime, timedelta

MINUTE_FMT = "%Y-%m-%dT%H:%M"


class ConfigError(ValueError):
    """Invalid simulation configuration or config file."""


def fmt_minute(ts: datetime) -> str:
    return ts.strftime(MINUTE_FMT)


def parse_minute(text: str) -> datetime:
    try:
        return datetime.strptime(text, MINUTE_FMT)
    except ValueError as exc:
        raise ConfigError(f"bad minute timestamp {text!r}: {exc}") from None


@dataclass
class SimConfig:
    seed: int = 42
    n_storage_nodes: int = 6
    replication_factor: int = 3
    interval_ticks: int = 60
    sample_every: int = 6
    capacity: float = 10.0
    flow_rate_a1: float = 1.0
    flow_rate_a2: float = 1.0
    flow_rate_a3: float = 1.0
    setpoint_low: int = 3
    setpoint_high: int = 6
    sensor_noise: bool = False
    start_time: datetime = datetime(2020, 12, 23, 17, 26)
    trace_wire: bool = False

    def validate(self) -> "SimConfig":
        if self.n_storage_nodes < 1:
            raise ConfigError("n_storage_nodes must be >= 1")
        if not (1 <= self.replication_factor <= self.n_storage_nodes):
            raise ConfigError(
                f"replication_factor {self.replication_factor} must be between 1 "
                f"and n_storage_nodes ({self.n_storage_nodes})"
            )
        if self.interval_ticks < 1:
            raise ConfigError("interval_ticks must be >= 1")
        if not (1 <= self.sample_every <= self.interval_ticks):
            raise ConfigError("sample_every must be between 1 and interval_ticks")
        if self.capacity <= 0:
            raise ConfigError("capacity must be positive")
        for name in ("flow_rate_a1", "flow_rate_a2", "flow_rate_a3"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not self.setpoint_low < self.setpoint_high:
            raise ConfigError("setpoint_low must be < setpoint_high")
        if not (0 <= self.setpoint_low and self.setpoint_high <= self.capacity):
            raise ConfigError("setpoints must lie within [0, capacity]")
        return self

    def interval_start(self, interval_index: int) -> datetime:
        """Timestamp of an interval, minute resolution (one interval = one minute)."""
        return self.start_time + timedelta(minutes=interval_index)


# Config file keys -> (dataclass field, parser). Keys use the external names;
# flow rates are spelled per valve.
def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


_CONFIG_KEYS = {
    "seed": ("seed", int),
    "n_storage_nodes": ("n_storage_nodes", int),
    "replication_factor": ("replication_factor", int),
    "interval_ticks": ("interval_ticks", int),
    "sample_every": ("sample_every", int),
    "capacity": ("capacity", float),
    "flow_rate.A1": ("flow_rate_a1", float),
    "flow_rate.A2": ("flow_rate_a2", float),
    "flow_rate.A3": ("flow_rate_a3", float),
    "setpoint_low": ("setpoint_low", int),
    "setpoint_high": ("setpoint_high", int),
    "sensor_noise": ("sensor_noise", _parse_bool),
    "start_time": ("start_time", parse_minute),
    "trace_wire": ("trace_wire", _parse_bool),
}


def parse_config_file(text: str) -> dict:
    """Parse flat key=value lines into SimConfig field overrides."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        field_name, parser = _CONFIG_KEYS[key]
        try:
            overrides[field_name] = parser(value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return overrides


def load_config(path=None, **overrides) -> SimConfig:
    """Validated SimConfig from an optional config file, with overrides on top."""
    fields = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            fields = parse_config_file(fh.read())
    fields.update(overrides)
    return SimConfig(**fields).validate()


def rng_stream(seed: int, name: str) -> random.Random:
    """Independent deterministic RNG stream derived from the run seed."""
    material = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(material[:8], "big"))


def noise_offset(seed: int, sensor_id: str, tick: int) -> int:
    """Seeded per-sample sensor noise in {-1, 0, 1}; stable for a (sensor, tick) pair."""
    material = hashlib.sha256(f"{seed}:sensor-noise:{sensor_id}:{tick}".encode()).digest()
    return material[0] % 3 - 1
