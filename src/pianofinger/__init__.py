"""Right-hand piano fingering via Q-learning with an exact DP baseline.

The package root holds the names the README's library quickstart uses;
everything else is imported from its submodule (``pianofinger.oracle``,
``pianofinger.experiments``, ...).
"""

from .agent import Batch, ReplayBuffer, TrainConfig, TrainingError, greedy_rollout, train
from .env import FingeringEnv, FingerState, StateEncoding
from .oracle import dp_optimal
from .score import Score

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "FingerState",
    "FingeringEnv",
    "ReplayBuffer",
    "Score",
    "StateEncoding",
    "TrainConfig",
    "TrainingError",
    "dp_optimal",
    "greedy_rollout",
    "train",
]
