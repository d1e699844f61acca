"""Simulation engine and policy library for early-exit self-speculative decoding."""

from .baselines import DvPolicy, FsPolicy, LsPolicy, VanillaPolicy, make_policy
from .config import ConfigError, SessionConfig, derive_seed, validate_config
from .controller import DecayedStats, DelController, select_plan, tpl
from .engine import CostLedger, DraftPlan, RoundOutcome, run_round
from .harness import RunReport, compute_etpl, grid_sweep, run_experiment, run_session
from .model import LayeredModel, ModelSpec, build_model
from .types import InvariantViolation, LayerStep, TokenId

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CostLedger",
    "DecayedStats",
    "DelController",
    "DraftPlan",
    "DvPolicy",
    "FsPolicy",
    "InvariantViolation",
    "LayerStep",
    "LayeredModel",
    "LsPolicy",
    "ModelSpec",
    "RoundOutcome",
    "RunReport",
    "SessionConfig",
    "TokenId",
    "VanillaPolicy",
    "build_model",
    "compute_etpl",
    "derive_seed",
    "grid_sweep",
    "make_policy",
    "run_experiment",
    "run_round",
    "run_session",
    "select_plan",
    "tpl",
    "validate_config",
    "__version__",
]
