"""Run configuration, the flat key=value config file format, seeded RNG streams,
and the ISO-minute codec every artifact and wire body uses.

SimConfig's fields are the one list of settings: each is a config file key,
parsed by the field's type (flow rates spelled per valve, `flow_rate.A1`), and
CLI flags set the same fields through load_config.

All randomness in a run flows from the single config seed through named
sub-streams, so adding a new consumer never perturbs an existing one.

An ISO minute is `YYYY-MM-DDTHH:MM` (MINUTE_FMT) for a naive datetime.
fmt_minute writes it, and parse_minute is strict: it accepts exactly the
strings fmt_minute writes, so no second spelling of a minute (seconds, a
space, the basic format, a zone, unpadded fields, non-ASCII digits) parses.
The record and chain-dump patterns build on MINUTE_PATTERN and DECIMAL_PATTERN.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from typing import ClassVar

MINUTE_FMT = "%Y-%m-%dT%H:%M"
# MINUTE_FMT as text: ASCII digits, hour 00-23 (so no Python reads `T24:00` as
# the next midnight); fromisoformat checks the rest. A decimal has no sign, `_`
# or leading zero.
MINUTE_PATTERN = "[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-9]{2}"
DECIMAL_PATTERN = "(?:0|[1-9][0-9]*)"
_MINUTE = re.compile(MINUTE_PATTERN)

# The one storage node each PLC ships its vectors to; that node accepts a
# MEASUREMENT from no other sender.
PLC_TARGET_NODE = {"plc1": "node1", "plc2": "node2"}


class ConfigError(ValueError):
    """Invalid simulation configuration or config file."""


def fmt_minute(ts: datetime) -> str:
    """MINUTE_FMT for a naive datetime with a four-digit year."""
    return ts.isoformat(timespec="minutes")


def parse_minute(text: str) -> datetime:
    """Inverse of fmt_minute; raises ConfigError unless fmt_minute wrote `text`."""
    try:
        if _MINUTE.fullmatch(text):
            return datetime.fromisoformat(text)
    except ValueError:
        pass
    raise ConfigError(f"bad minute timestamp {text!r}: expected {MINUTE_FMT}")


@dataclass
class SimConfig:
    # The fixed clock: plant ticks per interval, and ticks per PLC sample.
    interval_ticks: ClassVar[int] = 60
    sample_every: ClassVar[int] = 6
    seed: int = 42
    n_storage_nodes: int = 6
    replication_factor: int = 3
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
        # PLC2 always sends to node2, and storage nodes take wire ids 1..N
        # below plc1's 101.
        if not (2 <= self.n_storage_nodes <= 100):
            raise ConfigError(
                f"n_storage_nodes {self.n_storage_nodes} must be between 2 and 100")
        if not (1 <= self.replication_factor <= self.n_storage_nodes):
            raise ConfigError(f"replication_factor {self.replication_factor} must be between "
                              f"1 and n_storage_nodes ({self.n_storage_nodes})")
        for name in ("capacity", "flow_rate_a1", "flow_rate_a2", "flow_rate_a3"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # false for NaN as well
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not self.setpoint_low < self.setpoint_high:
            raise ConfigError("setpoint_low must be < setpoint_high")
        if not (0 <= self.setpoint_low and self.setpoint_high <= self.capacity):
            raise ConfigError("setpoints must lie within [0, capacity]")
        start = self.start_time
        if start.tzinfo is not None or start.second or start.microsecond:
            raise ConfigError(f"start_time {start} must be a naive whole minute")
        return self

    def interval_start(self, interval_index: int) -> datetime:
        """Timestamp of an interval, minute resolution (one interval = one minute)."""
        return self.start_time + timedelta(minutes=interval_index)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


# Config file key -> (SimConfig field, parser), one key per field: the key is
# the field's name, but flow rates are spelled per valve (`flow_rate.A1`), and
# the parser follows the field's declared type.
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "datetime": parse_minute}
_CONFIG_KEYS = {
    (f"flow_rate.{f.name[-2:].upper()}" if f.name.startswith("flow_rate_") else f.name):
        (f.name, _PARSERS[f.type])
    for f in fields(SimConfig)
}


def parse_config_file(text: str) -> dict:
    """Parse flat key=value lines into SimConfig field overrides; a key set
    twice is an error naming both lines."""
    overrides = {}
    set_on: dict[str, int] = {}
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
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        field_name, parser = _CONFIG_KEYS[key]
        try:
            overrides[field_name] = parser(value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return overrides


def load_config(path=None, **overrides) -> SimConfig:
    """Validated SimConfig from an optional config file, with overrides on top."""
    settings = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            settings = parse_config_file(fh.read())
    settings.update(overrides)
    return SimConfig(**settings).validate()


def rng_stream(seed: int, name: str) -> random.Random:
    """Independent deterministic RNG stream derived from the run seed."""
    material = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(material[:8], "big"))


def noise_offset(seed: int, sensor_id: str, tick: int) -> int:
    """Seeded per-sample sensor noise in {-1, 0, 1}; stable for a (sensor, tick) pair."""
    material = hashlib.sha256(f"{seed}:sensor-noise:{sensor_id}:{tick}".encode()).digest()
    return material[0] % 3 - 1
