"""Hypothesis strategies shared by the reward and oracle tests."""

from hypothesis import strategies as st

from pianofinger.reward import RewardModel
from pianofinger.score import PITCH_MAX, PITCH_MIN, Score

_EDGES = st.sampled_from([PITCH_MIN, PITCH_MAX])


@st.composite
def scores(draw, max_notes=40):
    """Scores over the whole keyboard: repeated pitches, steps, and leaps
    of up to the full 87 semitones between the edge keys."""
    pitches = [draw(st.one_of(_EDGES, st.integers(PITCH_MIN, PITCH_MAX)))]
    for _ in range(draw(st.integers(1, max_notes - 1))):
        last = pitches[-1]
        pitches.append(draw(st.one_of(
            st.just(last),
            st.integers(max(PITCH_MIN, last - 7), min(PITCH_MAX, last + 7)),
            _EDGES,
            st.integers(PITCH_MIN, PITCH_MAX),
        )))
    return Score.from_pitches(pitches, draw(st.integers(1, 5)))


@st.composite
def reward_models(draw, rewards=st.floats(-100, 100)):
    """Valid reward models: any tolerance, non-integer rewards."""
    tolerance = draw(st.one_of(st.sampled_from([0.0, 1.5, 30.0]), st.floats(0, 90)))
    low, mid, high = sorted(draw(st.lists(rewards, min_size=3, max_size=3, unique=True)))
    return RewardModel(tolerance, r_stay=high, r_move=mid, r_infeasible=low)
