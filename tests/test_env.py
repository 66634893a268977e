import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pianofinger.env import EncodingError, FingeringEnv, StateEncoding
from pianofinger.agent import TrainConfig
from pianofinger.experiments import ENCODINGS, encoding_for
from pianofinger.oracle import fingering_total_reward, tabular_q_train
from pianofinger.reward import RewardModel, reward_rows
from pianofinger.score import FINGERS, PITCH_MIN, Score

from helpers import state_keys
from strategies import reward_models, scores


def _hot(env, state_id):
    return set(np.flatnonzero(env.inputs[state_id]).tolist())


def _random_walk(env, rng):
    """Rewards of one episode under uniformly random fingers."""
    rewards = []
    state = env.start_id
    while state != -1:
        reward, state = env.transition(state, int(rng.integers(1, 6)))
        rewards.append(reward)
    return rewards


def test_start_id_examples():
    env = FingeringEnv(Score([60, 62, 64], 1))
    assert env.start_id == 0
    assert _hot(env, env.start_id) == {0, 5 + 60 - PITCH_MIN, 5 + 88 + 62 - PITCH_MIN}
    env2 = FingeringEnv(Score([67, 67], 5))
    assert env2.start_id == 4
    assert _hot(env2, env2.start_id) == {4, 5 + 67 - PITCH_MIN, 5 + 88 + 67 - PITCH_MIN}


def test_step_advances_and_terminates():
    env = FingeringEnv(Score([60, 62, 64], 1))
    reward, nxt = env.transition(env.start_id, 2)
    assert (reward, nxt) == (1.0, 6)   # note 1 held by finger 2
    assert _hot(env, nxt) == {1, 5 + 62 - PITCH_MIN, 5 + 88 + 64 - PITCH_MIN}
    assert env.transition(nxt, 3) == (1.0, -1)


def test_infeasible_action_penalized_but_continues():
    env = FingeringEnv(Score([60, 59, 60], 2))
    # (2, 60, 59) answered by 3: a non-thumb crossing while descending
    reward, nxt = env.transition(env.start_id, 3)
    assert reward == -10.0
    assert nxt == 5 + 3 - 1   # the chosen finger is where the hand ends up


def test_stepping_terminal_state_raises():
    env = FingeringEnv(Score([60, 62], 1))
    _, nxt = env.transition(env.start_id, 1)
    assert nxt == -1
    with pytest.raises(ValueError):
        env.transition(nxt, 1)


def test_step_validates_action():
    env = FingeringEnv(Score([60, 62, 64], 1))
    for state in (env.start_id, 5 + 4):
        with pytest.raises(ValueError):
            env.transition(state, 0)
        with pytest.raises(ValueError):
            env.transition(state, 6)
        # score.as_finger's rule: a value equal to a finger steps as that finger
        for value, finger in ((2.0, 2), (np.complex128(2), 2), (True, 1)):
            assert env.transition(state, value) == env.transition(state, finger)
        for bad in (2.5, "2", None, np.array([1, 2])):
            with pytest.raises(ValueError, match=("^action must be a finger in 1..5, got "
                                                  f"{re.escape(repr(bad))}$")):
                env.transition(state, bad)


def test_episode_length_is_fixed():
    score = Score([60, 62, 64, 65, 67], 1)
    env = FingeringEnv(score)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert len(_random_walk(env, rng)) == len(score) - 1


def test_total_reward_bounds():
    model = RewardModel()
    score = Score([60, 65, 59, 70], 2)
    env = FingeringEnv(score)
    rng = np.random.default_rng(1)
    n = len(score) - 1
    for _ in range(50):
        assert n * model.r_infeasible <= sum(_random_walk(env, rng)) <= n * model.r_stay


# --- encodings -------------------------------------------------------------

def test_melodic_range_encoding_example():
    score = Score([60, 62, 72], 1)
    enc = StateEncoding.for_score(score)
    assert enc == StateEncoding(60, 13)
    assert enc.dim == 31
    env = FingeringEnv(score, encoding=enc)
    assert env.input_dim == 31
    assert _hot(env, env.start_id) == {0, 5, 20}


def test_full_piano_encoding_example():
    enc = StateEncoding.full_piano()
    assert enc.dim == 181
    env = FingeringEnv(Score([21, 21], 5), encoding=enc)
    assert _hot(env, env.start_id) == {4, 5, 93}


def test_encoding_for_score():
    score = Score([60, 62, 64, 65, 67], 1)
    enc = StateEncoding.for_score(score)
    assert enc.min_pitch == 60 and enc.width == 8
    assert enc.dim == 5 + 2 * 8


def test_pitch_outside_window_is_encoding_error():
    # the window [60, 67] holds both its edges and nothing past them
    enc = StateEncoding(60, 8)
    for pitch in range(60, 68):
        env = FingeringEnv(Score([pitch, 67 - (pitch - 60)], 1), encoding=enc)
        assert _hot(env, env.start_id) == {0, 5 + pitch - 60, 5 + 8 + 7 - (pitch - 60)}
    for pitch in (59, 68):
        with pytest.raises(EncodingError, match=(f"^pitch {pitch} outside encoding "
                                                 r"window \[60, 67\]$")):
            FingeringEnv(Score([pitch, 64], 1), encoding=enc)


def test_env_rejects_score_outside_encoding():
    enc = StateEncoding(60, 8)
    for pitch in (59, 68, 75):
        with pytest.raises(EncodingError, match=(f"^pitch {pitch} outside encoding "
                                                 r"window \[60, 67\]$")):
            FingeringEnv(Score([64, pitch], 1), encoding=enc)


@pytest.mark.parametrize("fields, message", [
    ((59.0, 8), "min_pitch must be an integer, got 59.0"),
    (("a", 3), "min_pitch must be an integer, got 'a'"),
    ((60, 0), "width must be an integer >= 1, got 0"),
    ((60, 8.0), "width must be an integer >= 1, got 8.0"),
    ((60, None), "width must be an integer >= 1, got None"),
])
def test_encoding_fields_are_checked(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StateEncoding(*fields)
    assert StateEncoding(np.int64(60), np.int64(8)) == StateEncoding(60, 8)


@given(st.integers(1, 5), st.integers(60, 72), st.integers(60, 72))
def test_encoding_sums_to_three(cf, cn, nn):
    # one column in each block, so the input row holds three 1.0s
    env = FingeringEnv(Score([cn, nn], cf), encoding=StateEncoding(60, 13))
    row = env.inputs[env.start_id]
    finger, pitch, next_pitch = np.flatnonzero(row).tolist()
    assert row.sum() == 3.0
    assert 0 <= finger < 5 <= pitch < 5 + 13 <= next_pitch < env.input_dim


def test_encoding_injective_over_reachable_states():
    enc = StateEncoding(60, 8)
    seen = {}
    for cn in range(60, 68):
        for nn in range(60, 68):
            env = FingeringEnv(Score([cn, nn], 1), encoding=enc)
            for cf, row in zip(FINGERS, env.inputs[:5]):
                key = tuple(np.flatnonzero(row).tolist())
                assert key not in seen, (cf, cn, nn, seen.get(key))
                seen[key] = (cf, cn, nn)


def test_index_not_part_of_features():
    # repeated (cf, cn, nn) at different score positions encode identically:
    # the learner is deliberately position-blind
    env = FingeringEnv(Score([64, 64] + [60] * 10 + [64, 64], 1),
                       encoding=StateEncoding(60, 8))
    assert np.array_equal(env.inputs[5 * 0 + 2], env.inputs[5 * 12 + 2])


def test_reward_is_encoding_independent():
    score = Score([60, 62, 64], 1)
    env88 = FingeringEnv(score, encoding=StateEncoding.full_piano())
    env_range = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    assert env88.rewards == env_range.rewards
    for action in FINGERS:
        assert env88.transition(env88.start_id, action) == \
            env_range.transition(env_range.start_id, action)


# --- per-score tables ------------------------------------------------------

@given(st.lists(st.integers(55, 79), min_size=2, max_size=12), st.integers(1, 5),
       st.booleans(), reward_models())
def test_tables_match_the_scalar_rules(pitches, first, full_piano, model):
    score = Score(pitches, first)
    enc = StateEncoding.full_piano() if full_piano else StateEncoding.for_score(score)
    env = FingeringEnv(score, reward_model=model, encoding=enc)
    keys = state_keys(score)
    assert env.keys == keys
    assert env.inputs.shape == (len(keys), enc.dim)
    assert env.inputs.dtype == np.float64
    assert keys[env.start_id] == (first, pitches[0], pitches[1])
    for sid, key in enumerate(keys):
        assert np.flatnonzero(env.inputs[sid]).tolist() == [
            key[0] - 1, 5 + key[1] - enc.min_pitch, 5 + enc.width + key[2] - enc.min_pitch]
        for action in FINGERS:
            reward, nxt = env.transition(sid, action)
            assert reward == model.reward(key, action) and type(reward) is float
            assert env.next_ids[sid][action - 1] == nxt
            if sid // 5 == len(pitches) - 2:
                assert nxt == -1
            else:
                assert nxt // 5 == sid // 5 + 1
                assert keys[nxt][:2] == (action, key[2])


# (value choose returns, the finger walk records): a value equal to a finger
# is recorded as that int, the finger transition stepped
_EQUAL_TO_A_FINGER = [(f, f) for f in FINGERS] + [
    (2.0, 2), (True, 1), (np.int64(3), 3), (np.array([3]), 3)]


@given(scores(), reward_models(), st.data())
def test_walk_is_the_fingering_and_its_left_to_right_total(score, model, data):
    env = FingeringEnv(score, reward_model=model)
    steps = data.draw(st.lists(st.sampled_from(_EQUAL_TO_A_FINGER),
                               min_size=len(score) - 1, max_size=len(score) - 1))
    f = [score.first_finger] + [finger for _, finger in steps]
    fingering, total = env.walk(lambda s: steps[s // 5][0])
    assert fingering == f and all(type(g) is int for g in fingering)
    assert np.float64(total).tobytes() == \
        np.float64(fingering_total_reward(score, f, model)).tobytes()


def test_reward_rows_are_the_oracle_table():
    score = Score([60, 59, 64, 64, 72], 2)
    model = RewardModel(anchor_tolerance=1.0)
    env = FingeringEnv(score, reward_model=model)
    assert env.rewards == [cells for block in reward_rows(score, model) for cells in block]


def test_transition_validates_its_input():
    env = FingeringEnv(Score([60, 62], 1))
    with pytest.raises(ValueError):
        env.transition(env.start_id, 0)
    with pytest.raises(ValueError):
        env.transition(env.start_id, 6)
    _, nxt = env.transition(env.start_id, 3)
    assert nxt == -1
    with pytest.raises(ValueError, match="^cannot step a terminal state$"):
        env.transition(nxt, 1)
    # a 3-note score has the state ids 0..9
    env = FingeringEnv(Score([60, 62, 64], 1))
    assert env.transition(9, 1) == (env.rewards[9][0], -1)
    for state_id in (10, -2):
        with pytest.raises(ValueError, match=f"^state id {state_id} outside 0..9$"):
            env.transition(state_id, 1)
    # a non-integer id is named, not left to Python's own TypeError
    for state_id in (2.0, 1.5, "1", None):
        with pytest.raises(ValueError, match=f"^state id {re.escape(repr(state_id))} "
                                             f"is not an integer$"):
            env.transition(state_id, 1)
    for state_id in (2, np.int64(2), np.intp(2)):
        assert env.transition(state_id, 1) == (env.rewards[2][0], env.next_ids[2][0])
    assert env.transition(True, 1) == env.transition(1, 1)


@given(scores(), st.sampled_from(ENCODINGS))
@settings(max_examples=60, deadline=None)
def test_columns_are_built_on_first_read_only(score, encoding):
    # env.inputs, the one input table per env, shared by every run and
    # rollout on it: never built by the tabular learner, which trains and
    # walks without it, built once on the first read, and never written
    q = tabular_q_train(score, None, TrainConfig(episodes=5, seed=0))
    q.greedy_fingering(score)
    assert "inputs" not in vars(q.env)
    env = FingeringEnv(score, encoding=encoding_for(score, encoding))
    assert "inputs" not in vars(env)
    inputs = env.inputs
    assert env.inputs is inputs
    assert not inputs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        inputs[0, 0] = 1.0
