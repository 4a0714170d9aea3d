"""Deterministic two-tank control-system simulator with a hash-chained
historian ledger, replicated storage nodes, and planned attack scenarios."""

__version__ = "0.1.0"

from .config import SimConfig
from .sim import Simulation

__all__ = ["SimConfig", "Simulation", "__version__"]
