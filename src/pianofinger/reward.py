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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .score import FINGERS, Score

NATURAL_OFFSET = {1: 0, 2: 2, 3: 4, 4: 5, 5: 7}


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


def reward_table(score: Score, model: RewardModel) -> np.ndarray:
    """R[t, f-1, g-1] = reward for playing note t+1 with finger g when
    note t is held by finger f."""
    pitches = score.pitches
    n = len(pitches)
    table = np.empty((n - 1, 5, 5), dtype=float)
    for t in range(n - 1):
        for f in FINGERS:
            state = (f, pitches[t], pitches[t + 1])
            for g in FINGERS:
                table[t, f - 1, g - 1] = model.reward(state, g)
    return table
