"""Exact baselines for the fingering problem.

Because the reward for a transition depends only on (current finger,
current pitch, next pitch, chosen finger), the best total reward from any
position is a function of (note index, finger) and backward induction
over that 5-wide table is exact.  ``exhaustive_optimal`` recomputes the
same answer by scoring every finger sequence outright, so the two routes
validate each other; a tabular Q-learner on the raw state tuples gives a
third, learning-based route to the same optimum.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agent import TrainConfig, epsilon_at
from .env import FingeringEnv
from .reward import RewardModel, is_feasible, reward_table
from .score import FINGERS, Score, ScoreSizeError

_EXHAUSTIVE_MAX_LEN = 12


class FingeringError(ValueError):
    """Raised for malformed or infeasible complete fingerings."""


def dp_optimal(score: Score, model: Optional[RewardModel] = None):
    """Best achievable total reward and one optimal fingering.

    Backward induction on (note index, finger); the forward pass breaks
    ties toward the lowest finger, so the result is the lexicographically
    smallest optimal fingering.  Returns (fingering, total_reward) with
    the fingering including the score's fixed first finger.
    """
    model = model if model is not None else RewardModel()
    table = reward_table(score, model)
    n_steps = table.shape[0]
    # value[t][f-1] = best total reward from note t onward, holding finger f
    value = np.zeros(5)
    values = [value]
    for t in range(n_steps - 1, -1, -1):
        value = (table[t] + value[None, :]).max(axis=1)
        values.append(value)
    values.reverse()
    fingering = [score.first_finger]
    f = score.first_finger
    total = 0.0
    for t in range(n_steps):
        continuation = table[t, f - 1] + values[t + 1]
        g = int(np.argmax(continuation)) + 1   # first max = lowest finger
        total += table[t, f - 1, g - 1]
        fingering.append(g)
        f = g
    return fingering, float(total)


def exhaustive_optimal(score: Score, model: Optional[RewardModel] = None):
    """Score every finger sequence and return the best.

    Grows a vector of path totals by a factor of five per note, so it is
    capped at _EXHAUSTIVE_MAX_LEN notes.  Ties resolve to the
    lexicographically smallest sequence (path totals are laid out with
    earlier decisions as more significant digits and argmax takes the
    first maximum), matching the DP tie-break.
    """
    if len(score) > _EXHAUSTIVE_MAX_LEN:
        raise ScoreSizeError(
            f"exhaustive search is capped at {_EXHAUSTIVE_MAX_LEN} notes, "
            f"got {len(score)}"
        )
    model = model if model is not None else RewardModel()
    table = reward_table(score, model)
    totals = table[0, score.first_finger - 1].copy()
    for t in range(1, table.shape[0]):
        totals = (totals.reshape(-1, 5, 1) + table[t][None, :, :]).reshape(-1)
    best = int(np.argmax(totals))
    digits = []
    for _ in range(table.shape[0]):
        digits.append(best % 5 + 1)
        best //= 5
    fingering = [score.first_finger] + digits[::-1]
    return fingering, float(totals.max())


def fingering_total_reward(score: Score, fingering, model: Optional[RewardModel] = None) -> float:
    """Total reward of a complete fingering (first entry must match the
    score's fixed first finger)."""
    model = model if model is not None else RewardModel()
    _validate_fingering(score, fingering)
    pitches = score.pitches
    total = 0.0
    for t in range(len(pitches) - 1):
        total += model.reward((fingering[t], pitches[t], pitches[t + 1]), fingering[t + 1])
    return total


def count_position_changes(score: Score, fingering, model: Optional[RewardModel] = None) -> int:
    """Number of hand relocations along a fingering.

    Raises FingeringError if any transition is infeasible — a crossing
    has no meaningful relocation count.
    """
    model = model if model is not None else RewardModel()
    _validate_fingering(score, fingering)
    pitches = score.pitches
    changes = 0
    for t in range(len(pitches) - 1):
        state = (fingering[t], pitches[t], pitches[t + 1])
        if not is_feasible(fingering[t], pitches[t], fingering[t + 1], pitches[t + 1]):
            raise FingeringError(
                f"transition {t} ({fingering[t]} on {pitches[t]} -> "
                f"{fingering[t + 1]} on {pitches[t + 1]}) is infeasible"
            )
        if model.reward(state, fingering[t + 1]) == model.r_move:
            changes += 1
    return changes


def _validate_fingering(score: Score, fingering) -> None:
    if len(fingering) != len(score):
        raise FingeringError(
            f"fingering length {len(fingering)} != score length {len(score)}"
        )
    for i, f in enumerate(fingering):
        if f not in FINGERS:
            raise FingeringError(f"entry {i} is {f!r}, expected a finger 1-5")
    if fingering[0] != score.first_finger:
        raise FingeringError(
            f"fingering starts with {fingering[0]} but the score fixes "
            f"finger {score.first_finger}"
        )


class TabularQ:
    """Q-table keyed by the raw (finger, pitch, next pitch) tuples."""

    def __init__(self):
        self._table: dict[tuple[int, int, int], np.ndarray] = {}

    def values(self, state) -> np.ndarray:
        key = (state[0], state[1], state[2])
        if key not in self._table:
            self._table[key] = np.zeros(5)
        return self._table[key]

    def greedy_action(self, state) -> int:
        return int(np.argmax(self.values(state))) + 1

    def greedy_fingering(self, score: Score, env: Optional[FingeringEnv] = None):
        env = env if env is not None else FingeringEnv(score)
        fingering = [score.first_finger]
        total = 0.0
        state = env.reset()
        while state is not None:
            action = self.greedy_action(state)
            fingering.append(action)
            outcome = env.step(state, action)
            total += outcome.reward
            state = outcome.next_state
        return fingering, total


def tabular_q_train(score: Score, reward_model: Optional[RewardModel],
                    config: TrainConfig, alpha: float = 0.5) -> TabularQ:
    """One-step Q-learning on the raw state tuples (no function
    approximation, no replay) under the same exploration schedule as the
    network learner.  Serves as an independent learning-based route to
    the optimum."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    env = FingeringEnv(score, reward_model=reward_model)
    q = TabularQ()
    rng = np.random.default_rng(config.seed)
    for episode in range(config.episodes):
        eps = epsilon_at(config, episode)
        state = env.reset()
        while state is not None:
            if rng.random() < eps:
                action = int(rng.integers(1, 6))
            else:
                action = q.greedy_action(state)
            outcome = env.step(state, action)
            target = outcome.reward
            if not outcome.done:
                target += config.gamma * float(np.max(q.values(outcome.next_state)))
            values = q.values(state)
            values[action - 1] += alpha * (target - values[action - 1])
            state = outcome.next_state
    return q
