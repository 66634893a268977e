import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pianofinger import oracle
from pianofinger.agent import Draws, TrainConfig, epsilon_at
from pianofinger.oracle import (
    FingeringError,
    _validate_fingering,
    count_position_changes,
    dp_optimal,
    evaluate_fingering,
    exhaustive_optimal,
    fingering_total_reward,
    solve,
    tabular_q_train,
)
from pianofinger.reward import RewardModel, _compile, reward_rows
from pianofinger.score import (
    FINGERS,
    PITCH_MAX,
    PITCH_MIN,
    PitchRangeError,
    Score,
    ScoreSizeError,
    mirror_for_left_hand,
)

from helpers import pcg64
from strategies import reward_models, scores, walks

# The five study melodies, written out as plain pitch lists so these
# checks do not depend on the experiment bundle.
REPEATED_NOTE = Score([60] * 8, 3)
SCALE_UP_DOWN = Score([60, 62, 64, 65, 67, 67, 65, 64, 62, 60], 1)
ODE_PHRASE = Score(
    [64, 64, 65, 67, 67, 65, 64, 62, 60, 60, 62, 64, 64, 62, 62], 3)
FULL_SCALE = Score(
    [60, 62, 64, 65, 67, 69, 71, 72, 72, 71, 69, 67, 65, 64, 62, 60], 1)
LONG_MELODY = Score(
    [60, 62, 64, 65, 64, 62, 60, 62, 64, 65, 67, 69, 71, 72,
     71, 72, 72, 71, 69, 67, 65, 64, 62, 60], 1)


# --- frozen optima ----------------------------------------------------------

def test_repeated_note_optimum():
    fingering, total = dp_optimal(REPEATED_NOTE)
    assert fingering == [3] * 8
    assert total == 7.0


def test_scale_up_down_optimum():
    fingering, total = dp_optimal(SCALE_UP_DOWN)
    assert fingering == [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]
    assert total == 9.0


def test_ode_phrase_optimum():
    fingering, total = dp_optimal(ODE_PHRASE)
    assert total == 14.0
    assert count_position_changes(ODE_PHRASE, fingering) == 0


def test_full_scale_optimum():
    fingering, total = dp_optimal(FULL_SCALE)
    assert total == 11.0
    assert count_position_changes(FULL_SCALE, fingering) == 2


def test_full_scale_textbook_fingering_is_also_optimal():
    # the standard two-octave-style fingering: thumb under after finger 3
    # going up, finger 3 over after the thumb coming down
    textbook = [1, 2, 3, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 3, 2, 1]
    _, best = dp_optimal(FULL_SCALE)
    assert fingering_total_reward(FULL_SCALE, textbook) == best
    assert count_position_changes(FULL_SCALE, textbook) == 2


def test_long_melody_optimum():
    fingering, total = dp_optimal(LONG_MELODY)
    assert total == 19.0
    assert count_position_changes(LONG_MELODY, fingering) == 2


def test_five_note_scale_optimum():
    fingering, total = dp_optimal(Score([60, 62, 64, 65, 67], 1))
    assert fingering == [1, 2, 3, 4, 5]
    assert total == 4.0


# --- the two exact routes agree ---------------------------------------------

def test_dp_matches_exhaustive_on_random_scores():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        score = Score(
            [int(p) for p in rng.integers(55, 80, size=n)], int(rng.integers(1, 6)))
        dp_fingering, dp_total = dp_optimal(score)
        ex_fingering, ex_total = exhaustive_optimal(score)
        assert dp_total == ex_total
        assert dp_fingering == ex_fingering   # shared lowest-finger tie-break


# Sixteenths keep every path total exact, so equal totals are real ties.
# With arbitrary floats the two routes add in different orders and can
# round a tie apart: under r_stay=85.5572113248941, r_move=0.05 the paths
# 1 5 5 5 1 and 1 1 1 1 1 over 108 108 108 108 101 both score 3 stays and
# a move, and the DP and the brute force each pick a different one.
_SIXTEENTHS = st.integers(-1600, 1600).map(lambda k: k / 16)


@given(scores(max_notes=8), reward_models(rewards=_SIXTEENTHS))
@settings(max_examples=300)
def test_dp_matches_exhaustive_under_non_integer_rewards(score, model):
    assert dp_optimal(score, model) == exhaustive_optimal(score, model)


# entries equal to a finger, and entries that are no finger
_AS_A_FINGER = st.sampled_from([2.0, True, np.int64(3), np.float64(4.0)])
# [1] is unhashable; np.array([1, 2]) == 2 has no truth value
_NO_FINGER = st.sampled_from([0, 6, 2.5, -1, "3", None, [1], np.array([1, 2])])
_ENTRIES = st.one_of(st.sampled_from(FINGERS), _AS_A_FINGER)
_MOVES_OF_NEGATIVE_ZERO = st.builds(RewardModel, st.floats(0, 90), st.floats(0.5, 100),
                                    st.just(-0.0), st.floats(-100, -0.5))


def _scalar_scores(score, fingering, model):
    """Total and position-change count by ``model.reward``, one transition
    at a time from 0.0, and the message of the first crossing (or None)."""
    p = score.pitches
    total, changes, crossing = 0.0, 0, None
    for t in range(len(p) - 1):
        r = model.reward((fingering[t], p[t], p[t + 1]), fingering[t + 1])
        total += r
        changes += r == model.r_move
        if r == model.r_infeasible and crossing is None:
            crossing = (f"transition {t} ({fingering[t]} on {p[t]} -> "
                        f"{fingering[t + 1]} on {p[t + 1]}) is infeasible")
    return total, changes, crossing


@given(scores(), st.one_of(reward_models(), _MOVES_OF_NEGATIVE_ZERO), st.data())
def test_scorers_add_the_scalar_rule_left_to_right(score, model, data):
    first = data.draw(st.one_of(st.just(score.first_finger), _ENTRIES))
    fingering = [first] + data.draw(st.lists(_ENTRIES, min_size=len(score) - 1,
                                             max_size=len(score) - 1))
    change = data.draw(st.integers(0, 4))
    if change == 0:
        fingering[data.draw(st.integers(0, len(fingering) - 1))] = data.draw(_NO_FINGER)
    elif change == 1:
        fingering = fingering[:-1] if data.draw(st.booleans()) else fingering + [1]
    try:
        _validate_fingering(score, fingering)
    except FingeringError as exc:
        for scorer in (fingering_total_reward, count_position_changes, evaluate_fingering):
            with pytest.raises(FingeringError, match=f"^{re.escape(str(exc))}$"):
                scorer(score, fingering, model)
        return
    total, changes, crossing = _scalar_scores(score, fingering, model)
    assert struct.pack("<d", fingering_total_reward(score, fingering, model)) == struct.pack(
        "<d", total)
    both = evaluate_fingering(score, fingering, model)
    assert struct.pack("<d", both[0]) == struct.pack("<d", total)
    if crossing is None:
        assert count_position_changes(score, fingering, model) == changes == both[1]
    else:
        assert both[1] is None
        with pytest.raises(FingeringError, match=f"^{re.escape(crossing)}$"):
            count_position_changes(score, fingering, model)


_ROW_START = np.arange(0, 25, 5)   # flat index of each row of a 5x5 block


def _reference_dp(score, model):
    """The numpy backward pass that ``dp_optimal`` replaced: per step one
    ``np.add``, ``argmax(axis=1)`` and ``take`` over the reward table,
    then a forward walk over the kept choices."""
    table = np.array(reward_rows(score, model))
    value = np.zeros(5)
    continuation = np.empty((5, 5))
    choice = np.empty((table.shape[0], 5), dtype=np.intp)
    for row, step in zip(choice[::-1], table[::-1]):
        np.add(step, value, out=continuation)
        continuation.argmax(axis=1, out=row)   # first max = lowest finger
        value = continuation.take(row + _ROW_START)
    fingering = [score.first_finger]
    f = score.first_finger
    for row in choice.tolist():
        f = row[f - 1] + 1
        fingering.append(f)
    return fingering, fingering_total_reward(score, fingering, model)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Integer rewards up to 2**48: path sums stay exact over 16 transitions
_BOUNDARY_MODEL = RewardModel(0.0, r_stay=2.0**48, r_move=-3.0, r_infeasible=-2.0**48)
_BOUNDARY_PITCHES = [60, 64, 59, 67, 62, 60, 72, 65, 60, 61, 63, 58, 70, 66, 60, 55, 57, 52]
# Rewards of 2**50 are exact over 4 transitions; over this walk's 17 the
# values less their maximum would round and pick another fingering.
_ROUNDING_MODEL = RewardModel(0.0, r_stay=2.0**50, r_move=-1.0, r_infeasible=-2.0**50)
_ROUNDING_WALK = Score(
    [70, 67, 67, 64, 62, 59, 62, 61, 63, 65, 67, 65, 66, 69, 67, 70, 69, 66], 4)


@given(st.one_of(scores(), walks(max_notes=300)),
       reward_models(rewards=st.one_of(_FINITE, st.floats(-100, 100), _SIXTEENTHS),
                     tolerances=st.one_of(st.just(0.0), st.floats(0, 100), _FINITE.map(abs))))
@example(Score([108, 108, 108, 108, 101], 1),
         RewardModel(0.0, r_stay=85.5572113248941, r_move=0.05))
@example(Score(_BOUNDARY_PITCHES[:17], 2), _BOUNDARY_MODEL)   # 16 transitions: exact
@example(Score(_BOUNDARY_PITCHES, 2), _BOUNDARY_MODEL)   # 17: one past the bound
@example(_ROUNDING_WALK, _ROUNDING_MODEL)
@settings(max_examples=200, deadline=None)
def test_dp_equals_the_numpy_backward_pass_bit_for_bit(score, model):
    try:
        expected_fingering, expected_total = _reference_dp(score, model)
    except ScoreSizeError as exc:
        with pytest.raises(ScoreSizeError, match=f"^{re.escape(str(exc))}$"):
            dp_optimal(score, model)
        return
    fingering, total = dp_optimal(score, model)
    assert fingering == expected_fingering
    assert struct.pack("<d", total) == struct.pack("<d", expected_total)


def test_the_exactness_bound_of_a_model():
    # 2·k·max|r|·D <= 2**53, D the largest denominator of the rewards
    assert _compile(_BOUNDARY_MODEL._key).longest == 16
    assert _compile(_ROUNDING_MODEL._key).longest == 4
    assert _compile(RewardModel()._key).longest == 2**53 // 20
    assert _compile(RewardModel(r_stay=1.5, r_move=-0.0625)._key).longest == 2**53 // 320
    assert _compile(RewardModel(r_stay=0.1, r_move=0.05)._key).longest == 0


def _exact(result):
    fingering, total = result
    return fingering, struct.pack("<d", total)


def _benchmark_walks(seed):
    """Scores like the solve benchmark's: 1000-note walks of -5..+5
    semitones from any key, then one walk of each length from 2 to 10."""
    rng = np.random.default_rng(seed)
    walks = []
    for n in [1000] * 3 + list(range(2, 11)):
        pitches = [int(rng.integers(PITCH_MIN, PITCH_MAX + 1))]
        for step in rng.integers(-5, 6, size=n - 1).tolist():
            pitches.append(min(PITCH_MAX, max(PITCH_MIN, pitches[-1] + step)))
        walks.append(Score(pitches, int(rng.integers(1, 6))))
    return walks


def test_cold_and_warm_solves_agree():
    walks = _benchmark_walks(0)
    results = []
    for model in (RewardModel(), RewardModel(r_move=0.0), RewardModel(r_move=-0.0),
                  RewardModel(1.5, r_stay=0.75, r_move=-0.125, r_infeasible=-8.0625)):
        cold = []
        for score in walks:
            _compile.cache_clear()
            cold.append(_exact(dp_optimal(score, model)))
        assert _compile(model._key).memo   # the memo outlasts the call
        warm = [_exact(dp_optimal(score, model)) for score in walks + walks[::-1]]
        assert warm == cold + cold[::-1]
        assert cold[0] == _exact(_reference_dp(walks[0], model))
        results.append(cold)
    assert results[1] == results[2]   # r_move=-0.0 has its own memo and the same answers


def test_a_model_whose_sums_can_round_keeps_no_memo():
    model = RewardModel(r_stay=0.1, r_move=0.05)
    _compile.cache_clear()
    for score in _benchmark_walks(1):
        assert _exact(dp_optimal(score, model)) == _exact(_reference_dp(score, model))
    assert _compile(model._key).memo == {}


class _WatchedMemo(dict):
    """A memo that checks its size at every row it takes in, and counts
    the times it starts over."""

    clears = 0

    def setdefault(self, row, steps):
        steps = super().setdefault(row, steps)
        assert len(self) <= oracle._MEMO_ROWS
        return steps

    def clear(self):
        self.clears += 1
        super().clear()


@pytest.mark.parametrize("bound", [3, 8])
def test_a_models_memo_never_exceeds_its_bound(monkeypatch, bound):
    monkeypatch.setattr(oracle, "_MEMO_ROWS", bound)
    compiled, memos = oracle._compile, {}
    monkeypatch.setattr(oracle, "_compile",
                        lambda key: compiled(key)._replace(memo=memos.setdefault(key, _WatchedMemo())))
    walks = _benchmark_walks(2) + [REPEATED_NOTE, LONG_MELODY]
    for model in (RewardModel(), RewardModel(r_stay=1.5, r_move=-0.0625)):
        for score in walks + walks:
            assert _exact(dp_optimal(score, model)) == _exact(_reference_dp(score, model))
        assert memos[model._key].clears > 0


# a mild crossing penalty: the optimum of this score crosses fingers once
_MILD_CROSSING = RewardModel(r_infeasible=-1.5)
_CROSSING_SCORE = Score([62, 65, 67, 64, 61, 60], 5)


@given(st.one_of(scores(), walks()), st.one_of(
    reward_models(),
    st.sampled_from([RewardModel(), RewardModel(r_move=0.0), RewardModel(r_move=-0.0),
                     RewardModel(r_stay=0.1, r_move=0.05), _ROUNDING_MODEL]),
    st.floats(-3.0, -1.0, exclude_max=True).map(lambda r: RewardModel(r_infeasible=r))))
@example(_CROSSING_SCORE, _MILD_CROSSING)
@example(_ROUNDING_WALK, _ROUNDING_MODEL)
@settings(max_examples=200, deadline=None)
def test_solve_is_the_dp_optimum_and_its_count(score, model):
    fingering, total, changes = solve(score, model)
    expected_fingering, expected_total = dp_optimal(score, model)
    assert fingering == expected_fingering
    assert struct.pack("<d", total) == struct.pack("<d", expected_total)
    scored_total, expected_changes = evaluate_fingering(score, fingering, model)
    assert struct.pack("<d", scored_total) == struct.pack("<d", total)
    assert changes == expected_changes


def test_solve_counts_none_where_the_optimum_crosses():
    assert solve(_CROSSING_SCORE, _MILD_CROSSING) == ([5, 2, 4, 3, 2, 1], 2.5, None)
    assert solve(_CROSSING_SCORE) == ([5, 1, 2, 1, 2, 1], 1.0, 2)


def test_dp_raises_the_reward_tables_size_error():
    # the DP raises reward_rows' size error, message and all
    score = Score([60, 62, 64, 65], 1)
    limit = sys.float_info.max / 12   # 3 transitions: the largest accepted reward
    assert math.isfinite(dp_optimal(
        score, RewardModel(r_stay=limit, r_move=0.0, r_infeasible=-limit))[1])
    for model in (RewardModel(r_stay=limit * 1.01, r_move=0.0, r_infeasible=-1.0),
                  RewardModel(r_stay=1e308, r_move=-1e308, r_infeasible=-1.5e308)):
        with pytest.raises(ScoreSizeError) as built:
            reward_rows(score, model)
        with pytest.raises(ScoreSizeError, match=f"^{re.escape(str(built.value))}$"):
            dp_optimal(score, model)


def test_dp_matches_exhaustive_on_the_short_melodies():
    for score in (REPEATED_NOTE, SCALE_UP_DOWN):
        assert dp_optimal(score) == exhaustive_optimal(score)


def test_exhaustive_is_capped():
    with pytest.raises(ScoreSizeError):
        exhaustive_optimal(Score([60] * 13, 1))


def test_two_note_score_is_a_single_max():
    score = Score([60, 64], 2)
    model = RewardModel()
    fingering, total = dp_optimal(score)
    assert len(fingering) == 2
    assert total == max(model.reward((2, 60, 64), g) for g in range(1, 6))


# --- structural properties --------------------------------------------------

@given(scores(), reward_models(), st.data())
@settings(max_examples=200)
def test_dp_is_translation_invariant(score, model, data):
    # any shift that keeps the score within 21-108
    pitches = score.pitches
    shift = data.draw(st.integers(PITCH_MIN - min(pitches), PITCH_MAX - max(pitches)))
    shifted = Score([p + shift for p in pitches], score.first_finger)
    assert dp_optimal(shifted, model) == dp_optimal(score, model)


@given(st.lists(st.integers(48, 84), min_size=2, max_size=20), st.integers(1, 5),
       st.integers(40, 90), reward_models(rewards=_SIXTEENTHS))
def test_dp_total_of_a_mirrored_score_stays_in_its_bounds(pitches, first, axis, model):
    # sixteenths add exactly, so the bounds hold without rounding slack
    score = Score(pitches, first)
    reflected = [2 * axis - p for p in pitches]
    if not all(PITCH_MIN <= q <= PITCH_MAX for q in reflected):
        with pytest.raises(PitchRangeError):
            mirror_for_left_hand(score, axis)
        return
    mirrored = mirror_for_left_hand(score, axis)
    assert mirrored.pitches == tuple(reflected)
    fingering, total = dp_optimal(mirrored, model)
    n = len(pitches) - 1
    assert n * model.r_infeasible <= total <= n * model.r_stay
    assert fingering[0] == first and len(fingering) == len(pitches)


@pytest.mark.parametrize("first_finger", [1, 2, 3, 4, 5])
def test_constant_pitch_score_never_moves(first_finger):
    score = Score([65] * 6, first_finger)
    fingering, total = dp_optimal(score)
    assert fingering == [first_finger] * 6
    assert total == 5 * RewardModel().r_stay


@given(scores(), reward_models(rewards=_SIXTEENTHS), st.data())
@settings(max_examples=200)
def test_dp_total_is_an_upper_bound(score, model, data):
    # sixteenths keep every total exact, so no rounding can tip the bound
    fingers = data.draw(st.lists(st.integers(1, 5), min_size=len(score) - 1,
                                 max_size=len(score) - 1))
    _, best = dp_optimal(score, model)
    assert fingering_total_reward(score, [score.first_finger] + fingers, model) <= best


def test_dp_respects_a_custom_reward_model():
    # doubling the stay reward keeps the optimal shape (one thumb-under)
    # but rescores it: 6 stays and 1 move on a one-octave scale
    scale = Score([60, 62, 64, 65, 67, 69, 71, 72], 1)
    assert dp_optimal(scale) == ([1, 2, 3, 1, 2, 3, 4, 5], 5.0)
    model = RewardModel(r_stay=2.0, r_move=-1.0, r_infeasible=-10.0)
    assert dp_optimal(scale, model) == ([1, 2, 3, 1, 2, 3, 4, 5], 11.0)


# --- scoring a given fingering ----------------------------------------------

def test_total_reward_of_known_fingering():
    score = Score([60, 62, 64], 1)
    assert fingering_total_reward(score, [1, 2, 3]) == 2.0
    assert fingering_total_reward(score, [1, 1, 1]) == -2.0


def test_fingering_validation_errors():
    score = Score([60, 62, 64], 1)
    with pytest.raises(FingeringError):
        fingering_total_reward(score, [1, 2])            # wrong length
    with pytest.raises(FingeringError):
        fingering_total_reward(score, [2, 2, 3])         # wrong first finger
    with pytest.raises(FingeringError):
        fingering_total_reward(score, [1, 0, 3])         # not a finger
    assert fingering_total_reward(score, [1, np.array([2]), 3]) == 2.0   # equal to 2, unhashable


def test_count_position_changes_examples():
    fingering, _ = dp_optimal(SCALE_UP_DOWN)
    assert count_position_changes(SCALE_UP_DOWN, fingering) == 0
    assert count_position_changes(Score([60] * 4, 2), [2, 2, 2, 2]) == 0


def test_count_position_changes_rejects_infeasible_transitions():
    score = Score([60, 59], 2)
    with pytest.raises(FingeringError, match="transition 0"):
        count_position_changes(score, [2, 3])
    score = Score([60, 62, 61, 60, 59], 1)
    with pytest.raises(FingeringError, match=r"^transition 1 \(2 on 62 -> 3 on 61\) is infeasible$"):
        count_position_changes(score, [1, 2, 3, 4, 5])


def test_scorers_count_and_add_left_to_right():
    # these rewards added one at a time round differently from a pairwise
    # sum (np.sum) and from a compensated one (math.fsum, Python 3.12's sum)
    model = RewardModel(r_stay=0.1, r_move=-0.25, r_infeasible=-10.0, anchor_tolerance=0.0)
    p = [60, 62, 64, 64, 65, 60, 62, 64, 65, 67, 67, 60, 61, 60, 62, 64, 64]
    fingering = [1, 2, 3, 3, 1, 1, 2, 3, 4, 5, 5, 1, 2, 1, 2, 3, 3]
    score = Score(p, 1)
    rewards = [model.reward((fingering[t], p[t], p[t + 1]), fingering[t + 1])
               for t in range(len(p) - 1)]
    total = 0.0
    for r in rewards:
        total += r
    assert total != math.fsum(rewards) and total != np.sum(rewards)
    assert fingering_total_reward(score, fingering, model) == total
    assert count_position_changes(score, fingering, model) == rewards.count(model.r_move) == 4


# --- tabular learner ---------------------------------------------------------

def test_tabular_learner_recovers_the_repeated_note_optimum():
    cfg = TrainConfig(episodes=2000, gamma=1.0, seed=0)
    q = tabular_q_train(REPEATED_NOTE, None, cfg, alpha=0.5)
    fingering, total = q.greedy_fingering(REPEATED_NOTE)
    assert fingering == [3] * 8
    assert total == 7.0


def test_tabular_alpha_zero_learns_nothing():
    cfg = TrainConfig(episodes=50, seed=0)
    q = tabular_q_train(SCALE_UP_DOWN, None, cfg, alpha=0.0)
    state = (1, 60, 62)
    assert np.array_equal(q.values(state), np.zeros(5))


def test_tabular_alpha_is_validated():
    cfg = TrainConfig(episodes=1, seed=0)
    with pytest.raises(ValueError):
        tabular_q_train(REPEATED_NOTE, None, cfg, alpha=-0.1)
    with pytest.raises(ValueError):
        tabular_q_train(REPEATED_NOTE, None, cfg, alpha=1.1)


def test_tabular_greedy_never_beats_the_exact_optimum():
    score = Score([60, 64, 62, 67, 65, 60], 2)
    _, best = dp_optimal(score)
    for seed in range(3):
        q = tabular_q_train(score, None, TrainConfig(episodes=300, seed=seed))
        _, total = q.greedy_fingering(score)
        assert total <= best


def test_fresh_table_is_zero_and_greedy_prefers_finger_one():
    q = tabular_q_train(SCALE_UP_DOWN, None, TrainConfig(episodes=20, seed=0), alpha=0.0)
    values = q.values((3, 60, 62))
    assert values.dtype == np.float64 and np.array_equal(values, np.zeros(5))
    values[0] = 1.0   # a read: neither this nor a key the score lacks changes the table
    assert np.array_equal(q.values((3, 60, 62)), np.zeros(5))
    assert np.array_equal(q.values((3, 21, 108)), np.zeros(5))
    fingering, total = q.greedy_fingering(SCALE_UP_DOWN)
    assert fingering == [1] * len(SCALE_UP_DOWN)
    assert total == fingering_total_reward(SCALE_UP_DOWN, fingering)


def test_greedy_fingering_totals_under_the_trained_model():
    score = Score([60, 64, 62, 67, 65, 60, 60], 2)
    model = RewardModel(r_stay=0.5, r_move=-0.25, r_infeasible=-4.0)
    q = tabular_q_train(score, model, TrainConfig(episodes=300, seed=1))
    fingering, total = q.greedy_fingering(score)
    assert total == fingering_total_reward(score, fingering, model) == 3.0
    assert total <= dp_optimal(score, model)[1]
    with pytest.raises(ValueError, match="trained on"):
        q.greedy_fingering(Score([60, 64], 2))


# --- the exploration draws, replayed from raw words ---------------------------

def _generator_picks(bits, episodes):
    """Each step's ``integers(1, 6) - 1`` after ``random() < eps``, else -1,
    drawn from the generator call by call."""
    rng = np.random.Generator(bits)
    return [[int(rng.integers(1, 6)) - 1 if rng.random() < eps else -1 for _ in range(steps)]
            for eps, steps in episodes]


# a half pending at a block read; both halves of a word rejected
@example(seed=0, zero_at=None, x=1, block=2, episodes=[(1.0, 1)] * 8)
@example(seed=0, zero_at=1, x=1, block=4096, episodes=[(1.0, 2)])
@given(st.integers(0, 2**32 - 1), st.none() | st.integers(0, 8), st.integers(0, 2**64 - 1),
       st.integers(1, 16),
       st.lists(st.tuples(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                          st.integers(1, 12)), min_size=1, max_size=20))
def test_exploration_draws_replay_the_numpy_generator(seed, zero_at, x, block, episodes):
    if zero_at is not None:
        assert pcg64(seed, zero_at, x).random_raw(zero_at + 1)[-1] == 0
    draws = Draws(pcg64(seed, zero_at, x), block=block)
    got = [draws.explore(eps, steps) for eps, steps in episodes]
    assert got == _generator_picks(pcg64(seed, zero_at, x), episodes)


def _reference_tabular_q(score, model, config, alpha):
    """One-step Q-learning over (finger, pitch, next pitch) keys with
    numpy rows and ``model.reward``, walking the score note by note."""
    p = score.pitches
    q = {}
    rng = np.random.default_rng(config.seed)
    for episode in range(config.episodes):
        eps = epsilon_at(config, episode)
        held = score.first_finger
        for t in range(len(p) - 1):
            key = (held, p[t], p[t + 1])
            values = q.setdefault(key, np.zeros(5))
            if rng.random() < eps:
                action = int(rng.integers(1, 6))
            else:
                action = int(np.argmax(values)) + 1
            target = model.reward(key, action)
            if t + 2 < len(p):
                nxt = q.setdefault((action, p[t + 1], p[t + 2]), np.zeros(5))
                target += config.gamma * float(np.max(nxt))
            values[action - 1] += alpha * (target - values[action - 1])
            held = action
    return q


def _all_states(score):
    p = score.pitches
    return [(f, p[t], p[t + 1]) for t in range(len(p) - 1) for f in FINGERS]


@given(scores(max_notes=16), reward_models(), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.95, 1.0]),
       st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_tabular_q_matches_the_per_key_reference_bit_for_bit(
        score, model, seed, alpha, gamma, episodes):
    config = TrainConfig(episodes=episodes, gamma=gamma, seed=seed)
    q = tabular_q_train(score, model, config, alpha)
    ref = _reference_tabular_q(score, model, config, alpha)
    for state in _all_states(score):
        assert q.values(state).tobytes() == ref.get(state, np.zeros(5)).tobytes(), state


def test_tabular_q_stays_finite_at_the_largest_accepted_rewards():
    # rewards as large as reward_rows accepts for this score length:
    # every update subtracts two path totals and must not overflow
    score = Score([60, 67, 59, 60, 72, 55, 60, 60], 4)
    big = sys.float_info.max / (4 * (len(score) - 1))
    model = RewardModel(r_stay=big, r_move=-big / 2, r_infeasible=-big)
    q = tabular_q_train(score, model, TrainConfig(episodes=300, gamma=1.0, seed=0), 1.0)
    assert all(np.isfinite(q.values(state)).all() for state in _all_states(score))
