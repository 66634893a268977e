"""Hypothesis strategies shared by the score, reward, oracle and CLI tests."""

from hypothesis import strategies as st

from pianofinger.reward import RewardModel
from pianofinger.score import PITCH_MAX, PITCH_MIN, Score, serialize_score

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
    return Score(pitches, draw(st.integers(1, 5)))


@st.composite
def walks(draw, max_notes=300):
    """Long scores, cheap to draw: steps of -7..+7 semitones (0 repeats
    the pitch) from any key, held inside the keyboard."""
    pitches = [draw(st.integers(PITCH_MIN, PITCH_MAX))]
    n_steps = draw(st.integers(1, max_notes - 1))
    for step in draw(st.lists(st.integers(-7, 7), min_size=n_steps, max_size=n_steps)):
        pitches.append(min(PITCH_MAX, max(PITCH_MIN, pitches[-1] + step)))
    return Score(pitches, draw(st.integers(1, 5)))


@st.composite
def reward_models(draw, rewards=st.floats(-100, 100),
                  tolerances=st.one_of(st.sampled_from([0.0, 1.5, 30.0]), st.floats(0, 90))):
    """Valid reward models: any tolerance, non-integer rewards."""
    tolerance = draw(tolerances)
    low, mid, high = sorted(draw(st.lists(rewards, min_size=3, max_size=3, unique=True)))
    return RewardModel(tolerance, r_stay=high, r_move=mid, r_infeasible=low)


_SCORE_TOKENS = st.sampled_from([
    "C4", "C#4", "Db4", "F##3", "Bbb5", "A0", "C8", "B#8", "Cb0", "H2", "C", "#4", "4C",
    "60", "21", "108", "20", "109", "-1", "0", "1e2", "60.0", "0x3c", "1" * 30,
    "#", "##", ",", ",,", "nan", "NaN", "inf", "-inf", "1e309", "0.5", "-3", "+7",
    "first_finger=1", "first_finger=5", "first_finger=9", "first_finger=", "first_finger",
    "=", "==", "x", "١٢", "é", "\x00", "﻿",
    "6_0", "٦٢", "６０", "C+4", "C٤", "first_finger=١", "1_0", "٠.٥",
])


@st.composite
def _score_like_text(draw):
    """Lines of pitch names, numbers, comments, commas, non-finite
    durations and junk, joined by the separators a score file uses."""
    lines = []
    for tokens in draw(st.lists(st.lists(_SCORE_TOKENS, max_size=4), max_size=8)):
        seps = draw(st.lists(st.sampled_from(["", " ", ",", ", ", "\t", " #", "#"]),
                             min_size=len(tokens), max_size=len(tokens)))
        lines.append("".join(sep + tok for sep, tok in zip(seps, tokens)))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def score_texts():
    """Score-file text: arbitrary, score-like, and score-like under a
    valid header."""
    return st.one_of(st.text(), _score_like_text(),
                     _score_like_text().map(lambda body: "first_finger=1\n" + body))


def _joined(rows, end="\n"):
    return "".join(row + end for row in rows)


# each takes the canonical lines, a line position i >= 1 and two off-form lines
_MUTATIONS = [
    lambda rows, i, note, header: _joined(rows),                        # unchanged
    lambda rows, i, note, header: _joined(rows, "\r\n"),
    lambda rows, i, note, header: _joined(rows, "\r"),
    lambda rows, i, note, header: _joined(rows)[:-1],                   # no final newline
    lambda rows, i, note, header: _joined(rows[:i] + [""] + rows[i:]),  # a blank line
    lambda rows, i, note, header: _joined(rows[:i] + [note] + rows[i + 1:]),
    lambda rows, i, note, header: _joined([header] + rows[1:]),
    lambda rows, i, note, header: _joined(rows[:1]),                    # header only
    lambda rows, i, note, header: "",
]
_OFF_FORM_NOTES = ["{} ", " {}", "\t{}", "0{}", "+{}", "-{}", "20", "109", "{} {}"]
_OFF_FORM_HEADERS = ["first_finger = 1", "first_finger=0", "first_finger=6"]


@st.composite
def near_canonical_texts(draw):
    """The text serialize_score writes, with at most one mutation: other
    line ends, no final newline, a blank line, a padded, zero-led or signed
    token, a pitch off the keyboard, two numbers on a line, an off-form
    header, the header alone, or no text at all."""
    rows = serialize_score(draw(scores(max_notes=12))).split("\n")[:-1]
    i = draw(st.integers(1, len(rows) - 1))
    note = draw(st.sampled_from(_OFF_FORM_NOTES)).format(rows[i], rows[i])
    header = draw(st.sampled_from(_OFF_FORM_HEADERS))
    return draw(st.sampled_from(_MUTATIONS))(rows, i, note, header)
