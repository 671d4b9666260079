"""Configuration-driven experiment runner and its command-line front end."""

from .config import ConfigError, ExperimentConfig, validate_config
from .scenarios import SCENARIOS, ScenarioResult, run_scenario

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "validate_config",
    "SCENARIOS",
    "ScenarioResult",
    "run_scenario",
]
