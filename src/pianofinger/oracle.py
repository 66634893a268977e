"""Exact baselines for the fingering problem.

Because the reward for a transition depends only on (current finger,
current pitch, next pitch, chosen finger), the best total reward from any
position is a function of (note index, finger) and backward induction
over that 5-wide table is exact.  ``dp_optimal`` runs it in plain
Python floats over the model's cached blocks (``reward_rows``), one
IEEE ``reward + value`` add per cell, and keeps each step's best next
finger, so the forward pass is a walk over those choices.  ``exhaustive_optimal`` recomputes the same answer by
scoring every finger sequence outright, so the two routes validate each
other; a tabular Q-learner on the raw state tuples gives a third,
learning-based route to the same optimum.  It walks the state ids
5t + (f-1) over plain-float rows, one row per (finger, pitch, next
pitch) key, which every state with that key shares, and reads its
exploration draws from lists that numpy fills a block of raw PCG64
words at a time, each draw the one ``default_rng(seed)`` would make.

The scorers and the learner read ``reward.reward_table``, a gather from
the same blocks; a caller that already holds a score's table (``eval``
builds one for the total and the position-change count) passes it as
``table=`` instead of having each function gather it again.  Totals of a fingering are added one transition at a time, left
to right, so ``dp_optimal`` and ``fingering_total_reward`` agree to the
last bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agent import TrainConfig, epsilon_at
from .reward import RewardModel, reward_rows, reward_table
from .score import FINGERS, Score, ScoreSizeError

_EXHAUSTIVE_MAX_LEN = 12


class FingeringError(ValueError):
    """Raised for malformed or infeasible complete fingerings."""


def dp_optimal(score: Score, model: Optional[RewardModel] = None):
    """Best achievable total reward and one optimal fingering.

    Backward induction on (note index, finger) over ``reward_rows``, in
    Python floats: each step adds the five next-finger rewards of every
    held finger's row to the five values of the step after it and keeps
    the first best next finger (strict ``>``, so the lowest on ties, as
    ``argmax`` keeps it).  Walking those choices forward from the fixed
    first finger gives the lexicographically smallest optimal fingering
    when path sums are exact, as with integer or dyadic rewards (the
    defaults among them).  With arbitrary float rewards the backward pass
    adds right to left, so rounding can break a mathematical tie and
    another optimal fingering may come back.  Returns (fingering,
    total_reward) with the fingering including the score's fixed first
    finger; the total is the fingering's rewards added left to right, as
    ``fingering_total_reward`` adds them.
    """
    steps = reward_rows(score, model if model is not None else RewardModel())
    # v[f-1] = best total reward from the note after this step on, holding finger f
    v0 = v1 = v2 = v3 = v4 = 0.0
    choices = []
    for block in reversed(steps):
        value, choice = [], []
        for r0, r1, r2, r3, r4 in block:
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
            choice.append(g)
        v0, v1, v2, v3, v4 = value
        choices.append(choice)
    f = score.first_finger - 1
    fingering = [score.first_finger]
    total = 0.0
    for block, choice in zip(steps, reversed(choices)):
        g = choice[f]
        total += block[f][g]
        fingering.append(g + 1)
        f = g
    return fingering, total


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


def fingering_rewards(score: Score, fingering, model: Optional[RewardModel] = None, *,
                      table: Optional[np.ndarray] = None) -> np.ndarray:
    """Reward of each transition of a complete fingering (first entry must
    match the score's fixed first finger): entry t is note t -> t+1."""
    _validate_fingering(score, fingering)
    if table is None:
        table = reward_table(score, model if model is not None else RewardModel())
    return _path_rewards(table, fingering)


def fingering_total_reward(score: Score, fingering, model: Optional[RewardModel] = None, *,
                           table: Optional[np.ndarray] = None) -> float:
    """Total reward of a complete fingering, added as ``dp_optimal`` adds it."""
    return _left_to_right_sum(fingering_rewards(score, fingering, model, table=table))


def count_position_changes(score: Score, fingering, model: Optional[RewardModel] = None, *,
                           table: Optional[np.ndarray] = None) -> int:
    """Number of hand relocations along a fingering.

    Raises FingeringError if any transition is infeasible — a crossing
    has no meaningful relocation count.
    """
    model = model if model is not None else RewardModel()
    rewards = fingering_rewards(score, fingering, model, table=table)
    infeasible = np.flatnonzero(rewards == model.r_infeasible)
    if len(infeasible):
        t = int(infeasible[0])
        pitches = score.pitches
        raise FingeringError(
            f"transition {t} ({fingering[t]} on {pitches[t]} -> "
            f"{fingering[t + 1]} on {pitches[t + 1]}) is infeasible"
        )
    return int(np.count_nonzero(rewards == model.r_move))


def _path_rewards(table: np.ndarray, fingering) -> np.ndarray:
    f = np.asarray(fingering, dtype=np.intp) - 1
    return table[np.arange(len(table)), f[:-1], f[1:]]


def _left_to_right_sum(rewards: np.ndarray) -> float:
    """One addition at a time from 0.0: ``np.sum`` adds pairwise and
    Python 3.12's ``sum`` compensates, and either can round differently."""
    total = 0.0
    for r in rewards.tolist():
        total += r
    return total


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
    """The Q-table ``tabular_q_train`` learned on one score: a row of five
    values per (finger, pitch, next pitch) key, the row of each state id,
    and the score's reward table under the model it was trained with."""

    def __init__(self, score: Score, table: np.ndarray, rows: dict, row_of: list):
        self.score = score
        self._table = table
        self._rows = rows
        self._row_of = row_of

    def values(self, state) -> np.ndarray:
        """The row of a (finger, pitch, next pitch) key; zeros for a key
        the score does not have."""
        return np.array(self._rows.get((state[0], state[1], state[2]), [0.0] * 5))

    def greedy_fingering(self, score: Score):
        """The greedy walk from the score's first finger (the first maximum
        of each row, as in training) and its total under the trained
        model.  ``score`` must be the score the table was trained on."""
        if (score.pitches, score.first_finger) != (self.score.pitches, self.score.first_finger):
            raise ValueError("greedy_fingering walks the score the table was trained on")
        rewards = self._table.reshape(-1, 5).tolist()
        state = score.first_finger - 1
        fingering = [score.first_finger]
        total = 0.0
        while state < len(self._row_of):
            row = self._row_of[state]
            action = row.index(max(row))
            total += rewards[state][action]
            fingering.append(action + 1)
            state += 5 - state % 5 + action
        return fingering, total


class _Draws:
    """The draws of ``Generator(bits)`` that exploration makes, replayed
    from blocks of raw PCG64 words.  ``random()`` is ``(w >> 11) * 2**-53``
    of one word ``w``.  ``integers(1, 6)`` is Lemire's multiply-shift on
    the next 32 bits: the low half of a fresh word, whose high half PCG64
    keeps for the next such draw (its ``has_uint32`` buffer), and a zero
    half is rejected for the 32 bits after it."""

    def __init__(self, bits: np.random.PCG64, block: int = 4096):
        self._bits, self._block = bits, block
        self._uniform, self._low, self._high = [], [], []
        self._next = 0
        self._pending = None   # the buffered high half, as a pick

    def _more(self) -> None:
        """Append a block: each word's ``random()`` and the
        ``integers(1, 6) - 1`` of its low and high halves (-1 if zero)."""
        words = self._bits.random_raw(self._block)
        self._uniform += ((words >> 11) * 2.0**-53).tolist()
        for picks, half in ((self._low, words & 0xFFFFFFFF), (self._high, words >> 32)):
            picks += np.where(half == 0, -1, (half * 5 >> 32).astype(np.int64)).tolist()

    def episode(self, eps: float, steps: int) -> list:
        """Each step's ``rng.integers(1, 6) - 1`` if ``rng.random() < eps``,
        else -1 (greedy)."""
        uniform, low, high = self._uniform, self._low, self._high
        i, pending = self._next, self._pending
        if len(uniform) - i < 2 * steps:   # a step reads at most two words
            del uniform[:i], low[:i], high[:i]
            i = 0
            while len(uniform) < 2 * steps:
                self._more()
        picks = []
        for _ in range(steps):
            u = uniform[i]
            i += 1
            if u >= eps:
                picks.append(-1)
                continue
            while True:
                if pending is None:
                    pick, pending = low[i], high[i]
                    i += 1
                else:
                    pick, pending = pending, None
                if pick >= 0:
                    break
                self._more()   # a rejected half may read past the two words a step
            picks.append(pick)
        self._next, self._pending = i, pending
        return picks


def tabular_q_train(score: Score, reward_model: Optional[RewardModel],
                    config: TrainConfig, alpha: float = 0.5) -> TabularQ:
    """One-step Q-learning on the raw state tuples (no function
    approximation, no replay) under the same exploration schedule as the
    network learner.  Serves as an independent learning-based route to
    the optimum.

    Episodes walk state ids 5t + (f-1) over the reward table as nested
    lists; each id points at the five-float Q row of its (f, pitch t,
    pitch t+1) key, shared by every state with that key.  Greedy takes
    the first maximum, as ``np.argmax`` does, and Python floats round as
    numpy's do, so the rows equal those of a walk over (finger, pitch,
    next pitch) keys with ``RewardModel.reward`` bit for bit.  Each step
    draws ``random() < eps`` and, if so, ``integers(1, 6)`` from
    ``default_rng(config.seed)``; ``_Draws`` replays both from the same
    raw words, so the stream and the rows are the per-call ones."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    model = reward_model if reward_model is not None else RewardModel()
    table = reward_table(score, model)
    rewards = table.reshape(-1, 5).tolist()
    pitches = score.pitches
    rows: dict[tuple[int, int, int], list[float]] = {}
    row_of = [rows.setdefault((f, pitches[t], pitches[t + 1]), [0.0] * 5)
              for t in range(len(pitches) - 1) for f in FINGERS]
    end = len(row_of)
    gamma = config.gamma
    draws = _Draws(np.random.PCG64(config.seed))
    for episode in range(config.episodes):
        state = score.first_finger - 1
        for pick in draws.episode(epsilon_at(config, episode), len(pitches) - 1):
            row = row_of[state]
            action = pick if pick >= 0 else row.index(max(row))   # the first maximum
            target = rewards[state][action]
            state += 5 - state % 5 + action    # 5(t + 1) + action
            if state < end:
                target += gamma * max(row_of[state])
            row[action] += alpha * (target - row[action])
    return TabularQ(score, table, rows, row_of)
