import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pianofinger.reward import (
    NATURAL_OFFSET,
    RewardModel,
    anchor,
    is_feasible,
    is_position_change,
    reward_rows,
)
from pianofinger.score import FINGERS, PITCH_MAX, PITCH_MIN, Score, ScoreSizeError

from strategies import reward_models, scores

MODEL = RewardModel()


def test_natural_offsets():
    assert NATURAL_OFFSET == {1: 0, 2: 2, 3: 4, 4: 5, 5: 7}
    offsets = [NATURAL_OFFSET[f] for f in range(1, 6)]
    assert offsets == sorted(offsets) and len(set(offsets)) == 5


# the worked examples, bit-exact
def test_anchor_examples():
    assert anchor(1, 60) == 60
    assert anchor(3, 64) == 60
    assert anchor(5, 67) == 60


def test_feasibility_examples():
    assert is_feasible(2, 60, 3, 59) is False   # fingers ascend, pitch descends
    assert is_feasible(1, 65, 3, 64) is True    # thumb involved, crossing allowed
    assert is_feasible(4, 64, 4, 64) is True    # identical state


def test_position_change_examples():
    assert is_position_change(1, 60, 5, 67) is False   # anchors 60 and 60
    assert is_position_change(3, 64, 1, 65) is True    # anchors 60 and 65
    assert is_position_change(2, 62, 2, 74) is True    # same-finger leap


def test_reward_examples():
    assert MODEL.reward((1, 60, 62), 2) == 1.0
    assert MODEL.reward((3, 64, 65), 1) == -1.0
    assert MODEL.reward((2, 60, 59), 3) == -10.0


def test_reward_ordering_enforced():
    with pytest.raises(ValueError):
        RewardModel(r_stay=-1.0, r_move=1.0)
    with pytest.raises(ValueError):
        RewardModel(r_infeasible=0.0)
    with pytest.raises(ValueError):
        RewardModel(anchor_tolerance=-1.0)
    with pytest.raises(ValueError, match="anchor_tolerance"):
        RewardModel(anchor_tolerance=float("nan"))


@pytest.mark.parametrize("rewards, name", [
    ({"r_stay": float("inf")}, "r_stay"),
    ({"r_infeasible": float("-inf")}, "r_infeasible"),
    ({"r_stay": float("inf"), "r_infeasible": float("-inf")}, "r_stay"),
    ({"r_move": float("nan")}, "r_move"),
])
def test_non_finite_rewards_are_rejected(rewards, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        RewardModel(**rewards)


@pytest.mark.parametrize("field, value", [
    pytest.param("anchor_tolerance", 10**400, id="tolerance-10**400"),   # the blocks' key failed
    pytest.param("r_stay", 10**400, id="r_stay-10**400"),
    pytest.param("r_move", -(10**400), id="r_move--10**400"),
    pytest.param("r_infeasible", "1", id="r_infeasible-str"),
    pytest.param("anchor_tolerance", None, id="tolerance-None"),
])
def test_fields_must_be_numbers_within_float64(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number within float64 range"):
        RewardModel(**{field: value})


def test_integer_fields_are_held_as_floats():
    score = Score.from_pitches([60, 62, 64, 60, 67, 55], 1)
    model = RewardModel(anchor_tolerance=2, r_stay=1, r_move=-1, r_infeasible=-10)
    assert all(type(getattr(model, f.name)) is float for f in dataclasses.fields(model))
    assert model == MODEL
    assert _table(score, model).tobytes() == _table(score, MODEL).tobytes()
    assert (_table(score, RewardModel(r_stay=1)).tobytes()
            == _table(score, RewardModel(r_stay=1.0)).tobytes())


def test_reward_table_rejects_rewards_whose_path_totals_overflow():
    score = Score.from_pitches([60, 62, 64, 65], 1)   # 3 transitions
    limit = sys.float_info.max / 12                    # 3 * limit is a quarter of the largest float
    reward_rows(score, RewardModel(r_stay=limit, r_move=0.0, r_infeasible=-limit))
    for model in (RewardModel(r_stay=limit * 1.01, r_move=0.0, r_infeasible=-1.0),
                  RewardModel(r_stay=1.0, r_move=0.0, r_infeasible=-limit * 1.01),
                  RewardModel(r_stay=1e308, r_move=-1e308, r_infeasible=-1.5e308)):
        with pytest.raises(ScoreSizeError, match="overflow"):
            reward_rows(score, model)


def test_same_finger_new_pitch_is_always_a_change():
    # sliding a finger along the keyboard relocates the hand no matter how
    # small the interval; otherwise constant-finger glissando would count
    # as staying in position
    assert is_position_change(2, 62, 2, 63) is True
    assert is_position_change(2, 62, 2, 61) is True
    assert MODEL.reward((2, 62, 63), 2) == MODEL.r_move


def test_substitution_on_repeated_pitch_is_a_change():
    # swapping fingers on a held pitch re-anchors the hand
    assert is_position_change(3, 60, 2, 60) is True
    assert MODEL.reward((3, 60, 60), 2) == MODEL.r_move
    assert MODEL.reward((3, 60, 60), 3) == MODEL.r_stay


def test_same_finger_same_pitch_stays():
    for f in range(1, 6):
        for p in (21, 60, 108):
            assert is_position_change(f, p, f, p) is False
            assert MODEL.reward((f, p, p), f) == MODEL.r_stay


def test_c_major_standard_fingering_two_changes():
    # one octave up and down with the textbook fingering: the two
    # thumb-under/over turns are the only relocations
    pitches = [60, 62, 64, 65, 67, 69, 71, 72, 72, 71, 69, 67, 65, 64, 62, 60]
    fingers = [1, 2, 3, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 3, 2, 1]
    changes = 0
    for t in range(len(pitches) - 1):
        cf, cn = fingers[t], pitches[t]
        nf, nn = fingers[t + 1], pitches[t + 1]
        assert is_feasible(cf, cn, nf, nn)
        if is_position_change(cf, cn, nf, nn):
            changes += 1
    assert changes == 2


states = st.tuples(st.integers(1, 5), st.integers(40, 90), st.integers(40, 90))
actions = st.integers(1, 5)


@given(states, actions)
def test_reward_is_three_valued(state, action):
    assert MODEL.reward(state, action) in (MODEL.r_stay, MODEL.r_move, MODEL.r_infeasible)


@given(states, actions, st.integers(-10, 10))
def test_reward_translation_invariance(state, action, k):
    cf, cn, nn = state
    assert MODEL.reward((cf, cn + k, nn + k), action) == MODEL.reward(state, action)


@given(st.integers(1, 5), st.integers(40, 90), actions)
def test_repeated_pitch_always_feasible(cf, pitch, action):
    assert is_feasible(cf, pitch, action, pitch) is True


@given(states, actions)
def test_feasibility_is_total_and_matches_crossing_rule(state, action):
    cf, cn, nn = state
    got = is_feasible(cf, cn, action, nn)
    crossing = (cf >= 2 and action >= 2 and cf != action and cn != nn
                and ((nn > cn) != (action > cf)))
    assert got == (not crossing)


@given(states, actions)
def test_infeasible_reward_iff_infeasible(state, action):
    cf, cn, nn = state
    r = MODEL.reward(state, action)
    assert (r == MODEL.r_infeasible) == (not is_feasible(cf, cn, action, nn))


# --- the tabulated rules ------------------------------------------------------

def _table(score, model):
    return np.array(reward_rows(score, model))


def _reward_loop(score, model):
    """The table cell by cell from ``model.reward``: the reference."""
    p = score.pitches
    table = np.empty((len(p) - 1, 5, 5))
    for t in range(len(p) - 1):
        for f in FINGERS:
            for g in FINGERS:
                table[t, f - 1, g - 1] = model.reward((f, p[t], p[t + 1]), g)
    return table


_STEPS = Score.from_pitches([60, 62, 62, 67, 55, 60], 1)


# r_move=0.0 and -0.0 compare equal but differ in the table's bytes; each
# tolerance builds the two in the opposite order
@example(_STEPS, RewardModel(2.0, r_move=0.0))
@example(_STEPS, RewardModel(2.0, r_move=-0.0))
@example(_STEPS, RewardModel(3.0, r_move=-0.0))
@example(_STEPS, RewardModel(3.0, r_move=0.0))
@given(scores(), reward_models())
def test_reward_table_is_the_rules_cell_by_cell(score, model):
    rows = reward_rows(score, model)
    assert all(type(r) is float for block in rows for cells in block for r in cells)
    assert _table(score, model).tobytes() == _reward_loop(score, model).tobytes()


def test_reward_tables_are_fresh_over_every_interval():
    # up from the lowest key by each interval and back, then one repeat
    pitches = [PITCH_MIN]
    for step in range(1, PITCH_MAX - PITCH_MIN + 1):
        pitches += [PITCH_MIN + step, PITCH_MIN]
    pitches.append(PITCH_MIN)
    assert set(np.diff(pitches)) == set(range(PITCH_MIN - PITCH_MAX, PITCH_MAX - PITCH_MIN + 1))
    score = Score.from_pitches(pitches, 1)
    expected = _reward_loop(score, MODEL).tobytes()
    assert _table(score, MODEL).tobytes() == expected
    first_block = expected[:25 * 8]   # a step up by one semitone
    assert _table(Score.from_pitches([60, 61], 1), MODEL).tobytes() == first_block

