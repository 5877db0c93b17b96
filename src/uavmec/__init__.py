"""Three-tier IoT/UAV/cloud edge-computing simulator with a DQN allocator."""

from .config import ConfigError, SimConfig, load_config
from .environment import MecEnvironment, action_catalog

__all__ = [
    "ConfigError",
    "SimConfig",
    "load_config",
    "MecEnvironment",
    "action_catalog",
]

__version__ = "0.1.0"
