"""Exact baselines for the fingering problem.

Because the reward for a transition depends only on (current finger,
current pitch, next pitch, chosen finger), the best total reward from any
position is a function of (note index, finger) and backward induction
over that 5-wide table is exact.  ``dp_optimal`` runs it in plain
Python floats, one IEEE ``reward + value`` add per cell, and keeps each
step's best next finger and its reward; ``solve`` takes the fingering,
its total and its position changes from one walk over those choices.
While sums are exact, a handful of (row of values, interval) steps
serve every score.  ``exhaustive_optimal`` recomputes the same answer by
scoring every finger sequence outright, so the two routes validate each
other; a tabular Q-learner on the raw state tuples gives a third,
learning-based route to the same optimum.  It trains on a
``FingeringEnv``'s reward and successor tables with plain-float Q rows,
one per (finger, pitch, next pitch) key and shared by every state with
that key, and reads its exploration draws from lists that numpy fills a
block of raw PCG64 words at a time, each the one ``default_rng(seed)`` makes.

The solver, the scorers and the learner read the same blocks, from the
model's compiled form (``reward._compile``), which also holds the DP's
exact-sum horizon and memo.  Totals of a fingering are added one
transition at a time, left to right, so ``dp_optimal`` and
``fingering_total_reward`` agree to the last bit.  The solvers' and the
scorers' ``model`` defaults to one shared, frozen ``RewardModel()``;
only ``tabular_q_train`` takes ``None`` for it, as ``FingeringEnv`` does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agent import Draws, TrainConfig, epsilon_at
from .env import FingeringEnv
from .reward import RewardModel, _compile, block_index, reward_rows
from .score import FINGERS, Score, ScoreSizeError

_EXHAUSTIVE_MAX_LEN = 12
_DEFAULT_MODEL = RewardModel()
_MEMO_ROWS = 4096   # rows a memo holds before it starts over (each row keeps <= 175 steps)


class FingeringError(ValueError):
    """Raised for malformed or infeasible complete fingerings."""


def dp_optimal(score: Score, model: RewardModel = _DEFAULT_MODEL):
    """Best achievable total reward and one optimal fingering.

    Backward induction on (note index, finger) in Python floats: each
    step adds every held finger's five rewards in the interval's block to
    the five values of the step after it and keeps the first best next
    finger (strict ``>``, so the lowest on ties, as ``argmax`` keeps it)
    with its reward.  While path sums are exact (the compiled model's
    ``longest``), each (row of values, interval) step is computed once,
    then read from the model's memo over rows less their maximum;
    otherwise none is kept.  The walk from the first finger is the
    smallest optimal fingering in lexicographic order when path sums are
    exact (integer or dyadic rewards); with arbitrary floats, rounding can
    break a mathematical tie and give another.  Returns (fingering,
    total_reward), the total added left to right, as
    ``fingering_total_reward`` adds it.
    """
    return _optimal_path(score, model)[:2]


def solve(score: Score, model: RewardModel = _DEFAULT_MODEL):
    """``dp_optimal``'s answer and its position changes (None at a crossing), from one walk."""
    fingering, total, rewards = _optimal_path(score, model)
    return fingering, total, _tally(rewards, model)


def _optimal_path(score: Score, model: RewardModel):
    """Backward induction and its walk: (fingering, total, each transition's reward)."""
    index = block_index(score, model)
    blocks, longest, memo, _ = _compile(model._key)
    exact = len(index) <= longest
    row = (0.0,) * 5   # row[f-1]: the best total from the next note on, holding finger f
    # steps: interval index -> (next row, its steps, move); none are kept unless exact
    steps = memo.setdefault(row, {}) if exact else {}
    moves = []
    for i in reversed(index):
        step = steps.get(i)
        if step is None:
            v0, v1, v2, v3, v4 = row
            value, move = [], []   # move[f]: (best next finger's index, its reward, that finger)
            for cells in blocks[i]:   # the held finger's five rewards
                r0, r1, r2, r3, r4 = cells
                best, g = r0 + v0, 0
                c = r1 + v1
                if c > best:
                    best, g = c, 1
                c = r2 + v2
                if c > best:
                    best, g = c, 2
                c = r3 + v3
                if c > best:
                    best, g = c, 3
                c = r4 + v4
                if c > best:
                    best, g = c, 4
                value.append(best)
                move.append((g, cells[g], g + 1))
            step = value, steps, move
            if exact:
                top = max(value)
                if len(memo) >= _MEMO_ROWS - 1:   # start over, leaving room for a call's first row
                    memo.clear()
                row = tuple([v - top for v in value])
                step = steps[i] = row, memo.setdefault(row, {}), tuple(move)
        row, steps, move = step
        moves.append(move)
    f = score.first_finger - 1
    fingering = [score.first_finger]
    rewards = []
    total = 0.0
    for move in reversed(moves):
        f, r, finger = move[f]
        fingering.append(finger)
        rewards.append(r)
        total += r
    return fingering, total, rewards


def exhaustive_optimal(score: Score, model: RewardModel = _DEFAULT_MODEL):
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
    table = np.array(reward_rows(score, model))
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


def fingering_total_reward(score: Score, fingering, model: RewardModel = _DEFAULT_MODEL) -> float:
    """Total reward of a complete fingering, added one transition at a
    time from 0.0, left to right, as ``dp_optimal`` adds it (``sum``
    compensates from Python 3.12 on and can round differently)."""
    return evaluate_fingering(score, fingering, model)[0]


def count_position_changes(score: Score, fingering, model: RewardModel = _DEFAULT_MODEL) -> int:
    """Number of hand relocations along a fingering.

    Raises FingeringError if any transition is infeasible — a crossing
    has no meaningful relocation count.
    """
    rewards = _rewards_along(score, fingering, model)
    changes = _tally(rewards, model)
    if changes is None:
        t, pitches = rewards.index(model.r_infeasible), score.pitches
        raise FingeringError(f"transition {t} ({fingering[t]} on {pitches[t]} -> "
                             f"{fingering[t + 1]} on {pitches[t + 1]}) is infeasible")
    return changes


def evaluate_fingering(score: Score, fingering,
                       model: RewardModel = _DEFAULT_MODEL) -> tuple[float, Optional[int]]:
    """``fingering_total_reward`` and ``count_position_changes`` from one
    read of the fingering's rewards; the count is None where
    ``count_position_changes`` raises, for an infeasible transition."""
    rewards = _rewards_along(score, fingering, model)
    total = 0.0
    for r in rewards:
        total += r
    return total, _tally(rewards, model)


def _tally(rewards: list, model: RewardModel) -> Optional[int]:
    """The position changes along a path's rewards; None if one is infeasible."""
    return None if model.r_infeasible in rewards else rewards.count(model.r_move)


_FINGER_INDEX = {f: f - 1 for f in FINGERS}


def _rewards_along(score: Score, fingering, model: RewardModel) -> list:
    """The reward of each transition of a complete fingering (first entry
    must match the score's fixed first finger): entry t is note t -> t+1.
    An entry equal to a finger (``2.0``, ``True``) counts as that finger."""
    try:
        f = [_FINGER_INDEX[g] for g in fingering]
    except (KeyError, TypeError):   # an entry that is no finger, or unhashable
        _validate_fingering(score, fingering)
        f = [FINGERS.index(g) for g in fingering]   # unhashable, but equal to a finger
    if len(f) != len(score) or f[0] != score.first_finger - 1:
        _validate_fingering(score, fingering)
    blocks = _compile(model._key).blocks
    return [blocks[step][a][b] for step, a, b in zip(block_index(score, model), f, f[1:])]


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
    """The Q-table ``tabular_q_train`` learned on one env: a row of five
    values per (finger, pitch, next pitch) key and the row of each state
    id; the env holds the score and the rewards it was trained on."""

    def __init__(self, env: FingeringEnv, rows: dict, row_of: list):
        self.env, self._rows, self._row_of = env, rows, row_of

    def values(self, state) -> np.ndarray:
        """The row of a (finger, pitch, next pitch) key; zeros for a key
        the score does not have."""
        return np.array(self._rows.get((state[0], state[1], state[2]), [0.0] * 5))

    def greedy_fingering(self, score: Score):
        """The env's walk taking the first maximum of each row, as in
        training, and its total under the trained model.  ``score`` must
        be the score the table was trained on."""
        trained = self.env.score
        if (score.pitches, score.first_finger) != (trained.pitches, trained.first_finger):
            raise ValueError("greedy_fingering walks the score the table was trained on")
        row_of = self._row_of
        return self.env.walk(lambda state: row_of[state].index(max(row_of[state])) + 1)


def tabular_q_train(score: Score, reward_model: Optional[RewardModel],
                    config: TrainConfig, alpha: float = 0.5) -> TabularQ:
    """One-step Q-learning on the raw state tuples (no function
    approximation, no replay) under the same exploration schedule as the
    network learner.  Serves as an independent learning-based route to
    the optimum.

    Episodes walk the state ids of ``FingeringEnv(score, reward_model)``
    through its ``rewards`` and ``next_ids`` tables; each id points at
    the five-float Q row of its (f, pitch t, pitch t+1) key, shared by
    every state with that key.  Greedy takes the first maximum, as
    ``np.argmax`` does, and Python floats round as numpy's do, so the
    rows equal those of a walk over (finger, pitch, next pitch) keys
    with ``RewardModel.reward`` bit for bit.  Each step draws
    ``random() < eps`` and, if so, ``integers(1, 6)`` from
    ``default_rng(config.seed)``; ``Draws.explore`` replays both from the
    same raw words, so the stream and the rows are the per-call ones."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    env = FingeringEnv(score, reward_model)
    rewards, next_ids = env.rewards, env.next_ids
    pitches = score.pitches
    rows: dict[tuple[int, int, int], list[float]] = {}
    row_of = [rows.setdefault((f, pitches[t], pitches[t + 1]), [0.0] * 5)
              for t in range(len(pitches) - 1) for f in FINGERS]
    gamma = config.gamma
    draws = Draws(np.random.PCG64(config.seed))
    for episode in range(config.episodes):
        state = env.start_id
        for pick in draws.explore(epsilon_at(config, episode), len(pitches) - 1):
            row = row_of[state]
            action = pick if pick >= 0 else row.index(max(row))   # the first maximum
            target = rewards[state][action]
            state = next_ids[state][action]
            if state >= 0:
                target += gamma * max(row_of[state])
            row[action] += alpha * (target - row[action])
    return TabularQ(env, rows, row_of)
