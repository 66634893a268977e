import numpy as np
import pytest
from hypothesis import given, strategies as st

from pianofinger.env import (
    EncodingError,
    FingeringEnv,
    FingerState,
    StateEncoding,
    encode_state,
)
from pianofinger.reward import RewardModel, reward_table
from pianofinger.score import MelodicRange, Score


def test_reset_examples():
    env = FingeringEnv(Score.from_pitches([60, 62, 64], 1))
    assert env.reset() == FingerState(1, 60, 62, 0)
    env2 = FingeringEnv(Score.from_pitches([67, 67], 5))
    assert env2.reset() == FingerState(5, 67, 67, 0)
    assert env.reset() == env.reset()


def test_step_advances_and_terminates():
    env = FingeringEnv(Score.from_pitches([60, 62, 64], 1))
    s0 = env.reset()
    out = env.step(s0, 2)
    assert out.next_state == FingerState(2, 62, 64, 1)
    assert out.reward == 1.0
    assert out.done is False
    out2 = env.step(out.next_state, 3)
    assert out2.next_state is None
    assert out2.reward == 1.0
    assert out2.done is True


def test_infeasible_action_penalized_but_continues():
    env = FingeringEnv(Score.from_pitches([60, 59, 60], 2))
    s0 = env.reset()  # (2, 60, 59)
    out = env.step(s0, 3)  # non-thumb crossing while descending
    assert out.reward == -10.0
    assert out.done is False
    assert out.next_state.cf == 3   # the chosen finger is where the hand ends up


def test_stepping_terminal_state_raises():
    env = FingeringEnv(Score.from_pitches([60, 62], 1))
    out = env.step(env.reset(), 1)
    assert out.done
    with pytest.raises(ValueError):
        env.step(out.next_state, 1)


def test_step_validates_action():
    env = FingeringEnv(Score.from_pitches([60, 62], 1))
    with pytest.raises(ValueError):
        env.step(env.reset(), 0)
    with pytest.raises(ValueError):
        env.step(env.reset(), 6)


def test_episode_length_is_fixed():
    score = Score.from_pitches([60, 62, 64, 65, 67], 1)
    env = FingeringEnv(score)
    rng = np.random.default_rng(0)
    for _ in range(20):
        steps = 0
        state = env.reset()
        while state is not None:
            out = env.step(state, int(rng.integers(1, 6)))
            steps += 1
            state = out.next_state
        assert steps == len(score) - 1


def test_total_reward_bounds():
    model = RewardModel()
    score = Score.from_pitches([60, 65, 59, 70], 2)
    env = FingeringEnv(score)
    rng = np.random.default_rng(1)
    n = len(score) - 1
    for _ in range(50):
        total = 0.0
        state = env.reset()
        while state is not None:
            out = env.step(state, int(rng.integers(1, 6)))
            total += out.reward
            state = out.next_state
        assert n * model.r_infeasible <= total <= n * model.r_stay


# --- encodings -------------------------------------------------------------

def test_melodic_range_encoding_example():
    enc = StateEncoding.for_range(MelodicRange(60, 72))
    assert enc.dim == 31
    v = encode_state(FingerState(1, 60, 62, 0), enc)
    assert v.shape == (31,)
    assert set(np.flatnonzero(v)) == {0, 5, 20}


def test_full_piano_encoding_example():
    enc = StateEncoding.full_piano()
    assert enc.dim == 181
    v = encode_state(FingerState(5, 21, 21, 0), enc)
    assert set(np.flatnonzero(v)) == {4, 5, 93}


def test_encoding_for_score():
    score = Score.from_pitches([60, 62, 64, 65, 67], 1)
    enc = StateEncoding.for_score(score)
    assert enc.min_pitch == 60 and enc.width == 8
    assert enc.dim == 5 + 2 * 8


def test_pitch_outside_window_is_encoding_error():
    enc = StateEncoding.for_range(MelodicRange(60, 67))
    with pytest.raises(EncodingError):
        encode_state(FingerState(1, 59, 60, 0), enc)
    with pytest.raises(EncodingError):
        encode_state(FingerState(1, 60, 68, 0), enc)


def test_env_rejects_score_outside_encoding():
    score = Score.from_pitches([60, 75], 1)
    with pytest.raises(EncodingError):
        FingeringEnv(score, encoding=StateEncoding.for_range(MelodicRange(60, 67)))


@given(st.integers(1, 5), st.integers(60, 72), st.integers(60, 72))
def test_encoding_sums_to_three(cf, cn, nn):
    enc = StateEncoding.for_range(MelodicRange(60, 72))
    v = encode_state(FingerState(cf, cn, nn, 0), enc)
    assert v.sum() == 3.0
    assert set(np.unique(v)) <= {0.0, 1.0}


def test_encoding_injective_over_reachable_states():
    enc = StateEncoding.for_range(MelodicRange(60, 67))
    seen = {}
    for cf in range(1, 6):
        for cn in range(60, 68):
            for nn in range(60, 68):
                key = encode_state(FingerState(cf, cn, nn, 0), enc).tobytes()
                assert key not in seen, (cf, cn, nn, seen.get(key))
                seen[key] = (cf, cn, nn)


def test_index_not_part_of_features():
    # repeated (cf, cn, nn) at different score positions encode identically:
    # the learner is deliberately position-blind
    enc = StateEncoding.for_range(MelodicRange(60, 67))
    a = encode_state(FingerState(3, 64, 64, 0), enc)
    b = encode_state(FingerState(3, 64, 64, 11), enc)
    assert np.array_equal(a, b)


def test_reward_is_encoding_independent():
    score = Score.from_pitches([60, 62, 64], 1)
    env88 = FingeringEnv(score, encoding=StateEncoding.full_piano())
    env_range = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    for action in range(1, 6):
        a = env88.step(env88.reset(), action)
        b = env_range.step(env_range.reset(), action)
        assert a.reward == b.reward
        assert a.done == b.done


# --- per-score tables ------------------------------------------------------

def _all_states(score):
    """(state id, FingerState) for every state of the score."""
    p = score.pitches
    return [(5 * t + f - 1, FingerState(f, p[t], p[t + 1], t))
            for t in range(len(p) - 1) for f in range(1, 6)]


@given(st.lists(st.integers(55, 79), min_size=2, max_size=12), st.integers(1, 5),
       st.booleans())
def test_tables_match_step_and_encode(pitches, first, full_piano):
    score = Score.from_pitches(pitches, first)
    enc = StateEncoding.full_piano() if full_piano else StateEncoding.for_score(score)
    env = FingeringEnv(score, encoding=enc)
    states = _all_states(score)
    assert env.columns.shape == (5 * (len(score) - 1), 3)
    assert env.columns.dtype.kind == "i"
    assert env.reset() == states[env.start_id][1]
    for sid, state in states:
        assert np.array_equal(env.features(sid), env.encode(state))
        for action in range(1, 6):
            out = env.step(state, action)
            reward, nxt = env.transition(sid, action)
            assert reward == out.reward and type(reward) is float
            if out.done:
                assert nxt == -1
            else:
                assert states[nxt][1] == out.next_state
    ids = np.array([sid for sid, _ in states][::-1])
    assert np.array_equal(env.features(ids),
                          np.stack([env.encode(state) for _, state in states[::-1]]))


def test_reward_rows_are_the_oracle_table():
    score = Score.from_pitches([60, 59, 64, 64, 72], 2)
    model = RewardModel(anchor_tolerance=1.0)
    env = FingeringEnv(score, reward_model=model)
    assert np.array_equal(env.rewards, reward_table(score, model).reshape(-1, 5))


def test_transition_validates_its_input():
    env = FingeringEnv(Score.from_pitches([60, 62], 1))
    with pytest.raises(ValueError):
        env.transition(env.start_id, 0)
    with pytest.raises(ValueError):
        env.transition(env.start_id, 6)
    _, nxt = env.transition(env.start_id, 3)
    assert nxt == -1
    with pytest.raises(ValueError):
        env.transition(nxt, 1)
