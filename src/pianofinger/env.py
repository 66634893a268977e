"""Score-walking decision process with one-hot state features.

A state is (cf, cn, nn, index): the finger and pitch just played and the
pitch due next.  An action picks the finger for ``nn``; an episode walks
the score left to right, so a score of L notes is exactly L-1 decisions.

The process is finite: a score of L notes has 5(L-1) states, numbered
``5 * index + (cf - 1)``.  ``FingeringEnv`` tabulates each score once,
at construction: the reward of every (state, finger) pair and the three
one-hot columns of every state's features.  The learner walks state ids
through these tables (``transition``, ``features``); ``reset``/``step``
walk ``FingerState`` tuples for callers that want the named fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .reward import RewardModel, reward_table
from .score import PITCH_MAX, PITCH_MIN, MelodicRange, Score, melodic_range


class EncodingError(ValueError):
    """A pitch falls outside the encoder's window."""


class FingerState(NamedTuple):
    cf: int         # finger holding the current note
    cn: int         # current note pitch
    nn: int         # next note pitch
    index: int = 0  # position of the current note in the score


@dataclass(frozen=True)
class StateEncoding:
    """One-hot layout: 5 finger slots, then two pitch blocks of ``width``."""

    min_pitch: int
    width: int

    @classmethod
    def full_piano(cls) -> "StateEncoding":
        return cls(PITCH_MIN, PITCH_MAX - PITCH_MIN + 1)

    @classmethod
    def for_range(cls, rng: MelodicRange) -> "StateEncoding":
        return cls(rng.min_pitch, rng.size)

    @classmethod
    def for_score(cls, score: Score) -> "StateEncoding":
        return cls.for_range(melodic_range(score))

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


def encode_state(state: FingerState, encoding: StateEncoding) -> np.ndarray:
    """Concatenated one-hots [finger | current pitch | next pitch]."""
    vec = np.zeros(encoding.dim)
    vec[state.cf - 1] = 1.0
    vec[5 + encoding.pitch_index(state.cn)] = 1.0
    vec[5 + encoding.width + encoding.pitch_index(state.nn)] = 1.0
    return vec


@dataclass(frozen=True)
class StepOutcome:
    next_state: Optional[FingerState]   # None once the last note is assigned
    reward: float
    done: bool


class FingeringEnv:
    """Walks one score under one reward model.

    The walker is stateless: ``reset`` hands out the initial state and
    ``step`` maps (state, action) to an outcome, so independent episodes
    can share one instance.  An infeasible action is penalized but the
    episode continues with the chosen finger.
    """

    def __init__(self, score: Score, reward_model: Optional[RewardModel] = None,
                 encoding: Optional[StateEncoding] = None):
        self.score = score
        self.reward_model = reward_model if reward_model is not None else RewardModel()
        self.encoding = encoding if encoding is not None else StateEncoding.full_piano()
        self._pitches = score.pitches
        enc = self.encoding
        # fails fast if the window cannot hold the score
        offsets = np.array([enc.pitch_index(p) for p in self._pitches])
        # rewards[5t + f - 1, g - 1]: reward for answering state (t, f) with g
        self.rewards = reward_table(score, self.reward_model).reshape(-1, 5)
        # columns[5t + f - 1]: the one-hot positions of that state's features
        columns = np.empty((self.n_steps, 5, 3), dtype=np.intp)
        columns[:, :, 0] = np.arange(5)
        columns[:, :, 1] = 5 + offsets[:-1, None]
        columns[:, :, 2] = 5 + enc.width + offsets[1:, None]
        self.columns = columns.reshape(-1, 3)

    @property
    def n_steps(self) -> int:
        return len(self._pitches) - 1

    @property
    def input_dim(self) -> int:
        return self.encoding.dim

    def reset(self) -> FingerState:
        return FingerState(self.score.first_finger, self._pitches[0], self._pitches[1], 0)

    def step(self, state: FingerState, action: int) -> StepOutcome:
        """Reads the reward from ``rewards`` at the state's index and
        finger, so ``state`` must come from this env's ``reset``/``step``."""
        if state is None:
            raise ValueError("cannot step a terminal state")
        if action not in (1, 2, 3, 4, 5):
            raise ValueError(f"action must be a finger in 1..5, got {action}")
        r = float(self.rewards[5 * state.index + state.cf - 1, action - 1])
        nxt = state.index + 1
        if nxt + 1 < len(self._pitches):
            return StepOutcome(
                FingerState(action, self._pitches[nxt], self._pitches[nxt + 1], nxt), r, False
            )
        return StepOutcome(None, r, True)

    def encode(self, state: FingerState) -> np.ndarray:
        return encode_state(state, self.encoding)

    @property
    def start_id(self) -> int:
        """State id of ``reset()``: note 0 held by the score's first finger."""
        return self.score.first_finger - 1

    def transition(self, state_id: int, action: int) -> tuple[float, int]:
        """(reward, next state id) for answering a state id with a finger;
        the next id is -1 once the last note is assigned."""
        if state_id < 0:
            raise ValueError("cannot step a terminal state")
        if action not in (1, 2, 3, 4, 5):
            raise ValueError(f"action must be a finger in 1..5, got {action}")
        nxt = state_id - state_id % 5 + 4 + action   # 5 * (index + 1) + action - 1
        return float(self.rewards[state_id, action - 1]), nxt if nxt < len(self.rewards) else -1

    def features(self, state_ids) -> np.ndarray:
        """One-hot features: (dim,) for one state id, (k, dim) for k ids.
        Equal to ``encode`` of the same states."""
        cols = self.columns[state_ids]
        if cols.ndim == 1:
            x = np.zeros(self.input_dim)
            x[cols] = 1.0
        else:
            x = np.zeros((len(cols), self.input_dim))
            x[np.arange(len(cols))[:, None], cols] = 1.0
        return x
