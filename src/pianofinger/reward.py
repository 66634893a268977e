"""Fingering rules encoded as a three-valued reward.

Putting finger ``f`` on pitch ``p`` implies a hand position summarized by
its thumb anchor ``p - NATURAL_OFFSET[f]``: the pitch the thumb would sit
on with the hand in the five-finger C-major shape (offsets 0, 2, 4, 5, 7
semitones for fingers 1..5).

A transition from (cf, cn) to (nf, nn) keeps the hand in position when it
moves to a *different* finger whose anchor agrees with the current one
within ``anchor_tolerance`` semitones.  Playing a new pitch with the same
finger re-plants the hand, and so does swapping fingers on a repeated
pitch; both count as position changes no matter how small the anchor
drift.  Staying in position earns ``r_stay``, changing position earns
``r_move``.

Crossing one non-thumb finger over another against the direction of the
melody is anatomically infeasible and earns ``r_infeasible``; transitions
that involve the thumb, keep the finger, or repeat the pitch are always
feasible.

The scalar functions state the rules.  A transition's 5x5 block of
(held finger, next finger) rewards depends only on the model and the
interval nn - cn, so each model's 175 blocks (intervals -87..+87) are
built once, by one numpy broadcast, and held as nested tuples of floats.
``block_index`` reads a score's intervals as block indices, which the DP
solver takes and ``reward_rows`` gathers for the others.
"""

from __future__ import annotations

import functools
import math
import reprlib
import struct
import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .score import FINGERS, PITCH_MAX, PITCH_MIN, Score, ScoreSizeError

NATURAL_OFFSET = {1: 0, 2: 2, 3: 4, 4: 5, 5: 7}

# Finger facts over the 5x5 grid [held finger - 1, next finger - 1]
_HELD = np.array(FINGERS)[:, None]
_NEXT = np.array(FINGERS)[None, :]
_SAME_FINGER = _HELD == _NEXT
_ALWAYS_FEASIBLE = _SAME_FINGER | (_HELD == 1) | (_NEXT == 1)
_FINGERS_ASCEND = _NEXT > _HELD
_OFFSET = np.array([NATURAL_OFFSET[f] for f in FINGERS])
_SPAN = _OFFSET[None, :] - _OFFSET[:, None]   # NATURAL_OFFSET[next] - NATURAL_OFFSET[held]

_WIDEST = PITCH_MAX - PITCH_MIN   # block i is for the interval i - _WIDEST


def anchor(finger: int, pitch: int) -> int:
    """Thumb pitch implied by playing ``pitch`` with ``finger``."""
    return pitch - NATURAL_OFFSET[finger]


def is_feasible(cf: int, cn: int, nf: int, nn: int) -> bool:
    """False exactly for a non-thumb crossing against the melodic direction."""
    if cf == nf or cn == nn or cf == 1 or nf == 1:
        return True
    return (nn > cn) == (nf > cf)


def is_position_change(cf: int, cn: int, nf: int, nn: int, tolerance: float = 2.0) -> bool:
    if cf == nf:
        return cn != nn   # the same finger keeps position only by repeating its pitch
    if cn == nn:
        return True       # finger substitution re-plants the hand
    return abs(anchor(nf, nn) - anchor(cf, cn)) > tolerance


@dataclass(frozen=True)
class RewardModel:
    """Reward constants; defaults follow the expert fingering rules above."""

    anchor_tolerance: float = 2.0
    r_stay: float = 1.0
    r_move: float = -1.0
    r_infeasible: float = -10.0

    def __post_init__(self):
        for name in ("anchor_tolerance", "r_stay", "r_move", "r_infeasible"):
            value = getattr(self, name)
            if type(value) is float:   # held as float64, the width of every table and cache key
                continue
            try:
                if not isinstance(value, Real):
                    raise TypeError
                object.__setattr__(self, name, float(value))
            except (TypeError, OverflowError):
                raise ValueError(f"{name} must be a real number within float64 range, "
                                 f"got {reprlib.repr(value)}") from None
        for name in ("r_stay", "r_move", "r_infeasible"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.anchor_tolerance >= 0:   # also rejects nan
            raise ValueError(f"anchor_tolerance must be >= 0, got {self.anchor_tolerance}")
        if not self.r_infeasible < self.r_move < self.r_stay:
            raise ValueError(
                "reward ordering violated: need r_infeasible < r_move < r_stay, got "
                f"{self.r_infeasible}, {self.r_move}, {self.r_stay}"
            )

    def reward(self, state, action: int) -> float:
        """Reward for answering state (cf, cn, nn, ...) with the next finger."""
        cf, cn, nn = state[0], state[1], state[2]
        if not is_feasible(cf, cn, action, nn):
            return self.r_infeasible
        if is_position_change(cf, cn, action, nn, self.anchor_tolerance):
            return self.r_move
        return self.r_stay


def reward_rows(score: Score, model: RewardModel) -> list:
    """The score's rewards: entry t is the model's cached block for the
    interval from note t to t+1, read as ``[t][f-1][g-1]`` for playing
    note t+1 with finger g when note t is held by finger f; equal to
    ``model.reward`` cell by cell.  Raises as ``block_index`` does."""
    blocks = _blocks(_bits(model))
    return [blocks[i] for i in block_index(score, model)]


def block_index(score: Score, model: RewardModel) -> list:
    """Entry t: the index of the model's block for note t -> t+1.  Raises
    ScoreSizeError unless (L-1) times the largest reward, the largest path
    total, is at most a quarter of the largest float64, so that path totals
    and Q-learning updates stay finite with room to spare."""
    largest = max(abs(model.r_stay), abs(model.r_infeasible))
    if largest > sys.float_info.max / (4 * (len(score) - 1)):
        raise ScoreSizeError(f"rewards up to {largest:g} in size over {len(score)} notes "
                             "can overflow float64 totals")
    pitches = score.pitches
    return [q - p + _WIDEST for p, q in zip(pitches, pitches[1:])]


def _bits(model: RewardModel) -> bytes:
    """The cache key of a model's blocks: its fields' float64 bytes, since
    r_move=0.0 and -0.0 compare equal, but their tables do not."""
    return struct.pack("4d", model.anchor_tolerance, model.r_stay, model.r_move,
                       model.r_infeasible)


@functools.lru_cache(maxsize=8)   # 190 KB of blocks per model
def _blocks(bits: bytes) -> tuple:
    """The rules of ``is_feasible`` and ``is_position_change`` broadcast over
    every piano interval and the 5x5 finger grid: (175, 5, 5) nested tuples
    of Python floats."""
    tolerance, r_stay, r_move, r_infeasible = struct.unpack("4d", bits)
    step = np.arange(-_WIDEST, _WIDEST + 1)[:, None, None]   # nn - cn
    repeat = step == 0
    feasible = _ALWAYS_FEASIBLE | repeat | ((step > 0) == _FINGERS_ASCEND)
    # |anchor(g, nn) - anchor(f, cn)| = |step - (offset[g] - offset[f])|
    drift = np.abs(step - _SPAN)
    move = np.where(_SAME_FINGER, ~repeat, repeat | (drift > tolerance))
    outcome = np.where(feasible, move, 2)   # 0 stay, 1 move, 2 infeasible
    blocks = np.array([r_stay, r_move, r_infeasible])[outcome]
    return tuple(tuple(map(tuple, block)) for block in blocks.tolist())
