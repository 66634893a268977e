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
interval nn - cn, so ``_compile`` builds a model's 175 blocks once per
float64 key, in plain Python, with what else its readers need.
``block_index`` reads a score's intervals, which the DP solver takes and
``reward_rows`` gathers for the others.
"""

from __future__ import annotations

import functools
import math
import operator
import reprlib
import struct
import sys
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Real

from .score import FINGERS, PITCH_MAX, PITCH_MIN, Score, ScoreSizeError

NATURAL_OFFSET = {1: 0, 2: 2, 3: 4, 4: 5, 5: 7}

_FIELDS = ("anchor_tolerance", "r_stay", "r_move", "r_infeasible")
_INF, _pack = math.inf, struct.Struct("4d").pack
_WIDEST = PITCH_MAX - PITCH_MIN   # intervals run -_WIDEST..+_WIDEST


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


@dataclass(frozen=True, init=False)
class RewardModel:
    """Reward constants; defaults follow the expert fingering rules above.
    Held as float64s, whose bytes ``_key`` packs to look up ``_compile``."""

    anchor_tolerance: float = 2.0
    r_stay: float = 1.0
    r_move: float = -1.0
    r_infeasible: float = -10.0

    def __init__(self, anchor_tolerance=2.0, r_stay=1.0, r_move=-1.0, r_infeasible=-10.0):
        f64 = type(anchor_tolerance) is type(r_stay) is type(r_move) is type(r_infeasible) is float
        if not (f64 and anchor_tolerance >= 0 and -_INF < r_infeasible < r_move < r_stay < _INF):
            anchor_tolerance, r_stay, r_move, r_infeasible = _checked(
                anchor_tolerance, r_stay, r_move, r_infeasible)
        fields = self.__dict__   # frozen, so set past __setattr__
        fields["anchor_tolerance"], fields["r_stay"] = anchor_tolerance, r_stay
        fields["r_move"], fields["r_infeasible"] = r_move, r_infeasible
        fields["_key"] = _pack(anchor_tolerance, r_stay, r_move, r_infeasible)

    def reward(self, state, action: int) -> float:
        """Reward for answering state (cf, cn, nn, ...) with the next finger."""
        cf, cn, nn = state[0], state[1], state[2]
        if not is_feasible(cf, cn, action, nn):
            return self.r_infeasible
        if is_position_change(cf, cn, action, nn, self.anchor_tolerance):
            return self.r_move
        return self.r_stay


def _checked(*values) -> tuple:
    """The fields as float64s, for inputs the fast path of ``RewardModel``
    leaves; raises ValueError on the first field that is wrong."""
    values = list(values)
    for i, (name, value) in enumerate(zip(_FIELDS, values)):
        try:
            if not isinstance(value, Real):
                raise TypeError
            values[i] = float(value)   # held as float64, the width of every table and cache key
        except (TypeError, OverflowError):
            raise ValueError(f"{name} must be a real number within float64 range, "
                             f"got {reprlib.repr(value)}") from None
    tolerance, r_stay, r_move, r_infeasible = values
    for name, value in zip(_FIELDS[1:], values[1:]):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not tolerance >= 0:   # also rejects nan
        raise ValueError(f"anchor_tolerance must be >= 0, got {tolerance}")
    if not r_infeasible < r_move < r_stay:
        raise ValueError("reward ordering violated: need r_infeasible < r_move < r_stay, "
                         f"got {r_infeasible}, {r_move}, {r_stay}")
    return tuple(values)


def reward_rows(score: Score, model: RewardModel) -> list:
    """The score's rewards: entry t is the model's block for the interval
    from note t to t+1, read as ``[t][f-1][g-1]`` for playing note t+1
    with finger g when note t is held by finger f; equal to
    ``model.reward`` cell by cell.  Raises as ``block_index`` does."""
    blocks = _compile(model._key).blocks
    return [blocks[step] for step in block_index(score, model)]


def block_index(score: Score, model: RewardModel) -> list:
    """Entry t: the interval from note t to t+1, its block's index in the
    compiled ``blocks``.  Raises ScoreSizeError unless (L-1) times the
    largest reward, the largest path total, is at most a quarter of the
    largest float64, so that path totals and Q-learning updates stay
    finite with room to spare."""
    pitches = score.pitches
    if len(pitches) > _compile(model._key).limit:
        largest = max(abs(model.r_stay), abs(model.r_infeasible))
        raise ScoreSizeError(f"rewards up to {largest:g} in size over {len(pitches)} notes "
                             "can overflow float64 totals")
    return list(map(operator.sub, islice(pitches, 1, None), pitches))


_Compiled = namedtuple("_Compiled", "blocks longest memo limit")


@functools.lru_cache(maxsize=8)
def _compile(key: bytes) -> _Compiled:
    """The compiled form every model packed as ``key`` shares, built on
    first use.  ``blocks[s]`` is the block of interval s (-87..+87, a
    falling one read from the end), equal blocks one tuple: the rewards the
    scalar rules pick for finger f on pitch 0 and g on pitch s, so no
    arithmetic touches a float.
    ``longest`` is the most transitions k whose path sums are exact: with
    rewards n/d and D the largest d (a power of two), sums of k rewards and
    their differences are multiples of 1/D of size at most 2k·max|r|, exact
    while 2k·max|r|·D <= 2**53; ``memo`` holds the DP's steps while they are.
    ``limit``: the most notes L <= ``sys.maxsize`` with ``largest <= float_max /
    (4 * (L-1))``, found by bisection, since the quotient never rises with L."""
    tolerance, r_stay, r_move, r_infeasible = struct.unpack("4d", key)
    # past 7 + tolerance semitones every new finger moves the hand: wider blocks repeat the edge
    edge = min(_WIDEST, 8 + int(min(tolerance, _WIDEST)))
    interned, near = {}, {}
    for step in range(-edge, edge + 1):
        block = tuple([tuple([r_infeasible if not is_feasible(f, 0, g, step)
                              else r_move if is_position_change(f, 0, g, step, tolerance)
                              else r_stay for g in FINGERS]) for f in FINGERS])
        near[step] = interned.setdefault(block, block)
    blocks = tuple(near[max(-edge, min(edge, step))]   # falling intervals from the end
                   for step in chain(range(_WIDEST + 1), range(-_WIDEST, 0)))
    ratios = [r.as_integer_ratio() for r in (r_stay, r_move, r_infeasible)]
    scale = max(d for _, d in ratios)
    top = max(abs(n) * (scale // d) for n, d in ratios)
    largest, fits, over = max(abs(r_stay), abs(r_infeasible)), 1, sys.maxsize + 1
    while over - fits > 1:
        notes = (fits + over) // 2
        too_many = largest > sys.float_info.max / (4 * (notes - 1))
        fits, over = (fits, notes) if too_many else (notes, over)
    return _Compiled(blocks, 2**53 // (2 * top), {}, fits)
