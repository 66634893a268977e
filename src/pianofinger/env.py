"""The fingering decision process of one score, as tables.

A state is (cf, cn, nn): the finger and pitch just played and the pitch
due next.  An action picks the finger for ``nn``; an episode walks the
score left to right, so a score of L notes is exactly L-1 decisions.

The process is finite: a score of L notes has 5(L-1) states, numbered
``5 * index + (cf - 1)``.  ``FingeringEnv`` tabulates each score once:
the (cf, cn, nn) key of every state, ``keys``, the package's one
description of a state; the reward and the next state of every (state,
finger) pair; and, on first read, the one-hot input row [finger | pitch |
next pitch] of every key, ``inputs``.  Learners step through
``transition`` or the tables, the tabular learner keeps one Q row per
key, greedy rollouts are one ``walk`` (each finger read by
``score.as_finger``), and the Q-network reads its rows from ``inputs``.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .reward import RewardModel, reward_rows
from .score import FINGERS, PITCH_MAX, PITCH_MIN, Score, as_finger


class EncodingError(ValueError):
    """A pitch falls outside the encoder's window."""


@dataclass(frozen=True)
class StateEncoding:
    """One-hot layout: 5 finger slots, then two pitch blocks of ``width``
    columns for the pitches ``min_pitch`` to ``min_pitch + width - 1``."""

    min_pitch: int
    width: int

    def __post_init__(self):
        if not isinstance(self.min_pitch, numbers.Integral):
            raise ValueError(f"min_pitch must be an integer, got {self.min_pitch!r}")
        if not (isinstance(self.width, numbers.Integral) and self.width >= 1):
            raise ValueError(f"width must be an integer >= 1, got {self.width!r}")

    @classmethod
    def full_piano(cls) -> "StateEncoding":
        return cls(PITCH_MIN, PITCH_MAX - PITCH_MIN + 1)

    @classmethod
    def for_score(cls, score: Score) -> "StateEncoding":
        """The narrowest window that holds every pitch of ``score``."""
        low = min(score.pitches)
        return cls(low, max(score.pitches) - low + 1)

    @property
    def dim(self) -> int:
        return 5 + 2 * self.width


class FingeringEnv:
    """The tables of one score under one reward model.

    Stateless once built, so independent episodes can share one
    instance.  An infeasible action is penalized but the episode
    continues with the chosen finger.
    """

    def __init__(self, score: Score, reward_model: Optional[RewardModel] = None,
                 encoding: Optional[StateEncoding] = None):
        self.score = score
        self.reward_model = reward_model if reward_model is not None else RewardModel()
        self.encoding = encoding if encoding is not None else StateEncoding.full_piano()
        p = score.pitches
        low, high = self.encoding.min_pitch, self.encoding.min_pitch + self.encoding.width - 1
        for pitch in (min(p), max(p)):   # fails fast if the window cannot hold the score
            if not low <= pitch <= high:
                raise EncodingError(f"pitch {pitch} outside encoding window [{low}, {high}]")
        # keys[5t + f - 1]: state (t, f) as (finger f, pitch t, pitch t + 1)
        self.keys = [(f, p[t], p[t + 1]) for t in range(len(p) - 1) for f in FINGERS]
        # rewards[5t + f - 1][g - 1]: reward for answering state (t, f) with g
        self.rewards = [cells for block in reward_rows(score, self.reward_model)
                        for cells in block]
        # next_ids[5t + f - 1][g - 1]: the state (t + 1, g), or -1 after the last note
        successors = [tuple(range(5 * t, 5 * t + 5)) for t in range(1, len(score) - 1)]
        self.next_ids = [ids for ids in successors + [(-1,) * 5] for _ in FINGERS]

    @functools.cached_property
    def inputs(self) -> np.ndarray:
        """inputs[5t + f - 1]: the one-hot of that state's key, 1.0 at its
        finger, pitch and next-pitch columns and 0.0 elsewhere.  Built on
        the first read (the tabular learner never reads it) and read-only,
        since every run and rollout on this env shares it."""
        enc = self.encoding
        keys = np.fromiter(itertools.chain.from_iterable(self.keys), np.intp, 3 * len(self.keys))
        columns = keys.reshape(-1, 3) + (-1, 5 - enc.min_pitch, 5 + enc.width - enc.min_pitch)
        inputs = np.zeros((len(columns), enc.dim))
        inputs[np.arange(len(columns))[:, None], columns] = 1.0
        inputs.flags.writeable = False
        return inputs

    @property
    def input_dim(self) -> int:
        return self.encoding.dim

    @property
    def start_id(self) -> int:
        """The first state: note 0 held by the score's first finger."""
        return self.score.first_finger - 1

    def transition(self, state_id: int, action: int) -> tuple[float, int]:
        """(reward, next state id) for answering a state id with a finger, by
        ``score.as_finger``; the next id is -1 once the last note is assigned."""
        try:   # a non-integer id fails the compare or the lookup
            if not 0 <= state_id < len(self.keys):
                raise ValueError("cannot step a terminal state" if state_id == -1 else
                                 f"state id {state_id!r} outside 0..{len(self.keys) - 1}")
            rewards, next_ids = self.rewards[state_id], self.next_ids[state_id]
        except TypeError:
            raise ValueError(f"state id {state_id!r} is not an integer") from None
        g = as_finger(action, "action", ValueError) - 1
        return rewards[g], next_ids[g]

    def walk(self, choose: Callable[[int], int]) -> tuple[list, float]:
        """One episode from ``start_id``: (the score's first finger, then the
        fingers ``score.as_finger`` reads from ``choose(state_id)``, as ints;
        the total reward added left to right from 0.0)."""
        fingering = [self.score.first_finger]
        total = 0.0
        state = self.start_id
        while state >= 0:
            finger = as_finger(choose(state), "action", ValueError)
            reward, state = self.transition(state, finger)
            fingering.append(finger)
            total += reward
        return fingering, total
