"""The fingering decision process of one score, as tables.

A state is (cf, cn, nn): the finger and pitch just played and the pitch
due next.  An action picks the finger for ``nn``; an episode walks the
score left to right, so a score of L notes is exactly L-1 decisions.

The process is finite: a score of L notes has 5(L-1) states, numbered
``5 * index + (cf - 1)``, as are ``oracle.tabular_q_train``'s ``row_of``
(ROADMAP item 18 moves those here).  ``FingeringEnv`` tabulates each
score once: the reward and the next state of every (state, finger) pair
and, on first read, the one-hot input row [finger | pitch | next pitch]
of every state, ``inputs``.  Learners step through ``transition`` or the
tables, greedy rollouts are one ``walk`` (each finger read by
``score.as_finger``), and the Q-network reads its rows from ``inputs``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .reward import RewardModel, reward_rows
from .score import FINGERS, PITCH_MAX, PITCH_MIN, Score, as_finger


class EncodingError(ValueError):
    """A pitch falls outside the encoder's window."""


@dataclass(frozen=True)
class StateEncoding:
    """One-hot layout: 5 finger slots, then two pitch blocks of ``width``."""

    min_pitch: int
    width: int

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

    def pitch_index(self, pitch: int) -> int:
        i = pitch - self.min_pitch
        if not 0 <= i < self.width:
            raise EncodingError(
                f"pitch {pitch} outside encoding window "
                f"[{self.min_pitch}, {self.min_pitch + self.width - 1}]"
            )
        return i


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
        # fails fast if the window cannot hold the score
        self.encoding.pitch_index(min(score.pitches))
        self.encoding.pitch_index(max(score.pitches))
        # rewards[5t + f - 1][g - 1]: reward for answering state (t, f) with g
        self.rewards = [cells for block in reward_rows(score, self.reward_model)
                        for cells in block]
        # next_ids[5t + f - 1][g - 1]: the state (t + 1, g), or -1 after the last note
        successors = [tuple(range(5 * t, 5 * t + 5)) for t in range(1, len(score) - 1)]
        self.next_ids = [ids for ids in successors + [(-1,) * 5] for _ in FINGERS]

    @functools.cached_property
    def inputs(self) -> np.ndarray:
        """inputs[5t + f - 1]: that state's input row, 1.0 at its finger,
        pitch and next-pitch columns and 0.0 elsewhere.  Built on the
        first read (the tabular learner never reads it) and read-only,
        since every run and rollout on this env shares it."""
        enc = self.encoding
        offsets = np.array(self.score.pitches) - enc.min_pitch
        t = np.arange(len(offsets) - 1)
        inputs = np.zeros((len(t), 5, enc.dim))
        inputs[:, range(5), range(5)] = 1.0
        inputs[t, :, 5 + offsets[:-1]] = 1.0
        inputs[t, :, 5 + enc.width + offsets[1:]] = 1.0
        inputs.flags.writeable = False
        return inputs.reshape(-1, enc.dim)

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
        if state_id < 0:
            raise ValueError("cannot step a terminal state")
        g = as_finger(action, "action", ValueError) - 1
        return self.rewards[state_id][g], self.next_ids[state_id][g]

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
