import re

import pytest
from hypothesis import given, strategies as st

from pianofinger.env import StateEncoding
from pianofinger.score import (
    FINGERS,
    PITCH_MAX,
    PITCH_MIN,
    HeaderError,
    PitchRangeError,
    Score,
    ScoreError,
    ScoreParseError,
    ScoreSizeError,
    mirror_for_left_hand,
    parse_score,
    pitch_from_name,
    serialize_score,
)

from strategies import score_texts, scores

# spot checks against a standard MIDI note chart (C4 = 60 convention)
NAME_TABLE = {
    "C4": 60, "C#4": 61, "Db4": 61, "D4": 62, "A4": 69,
    "A0": 21, "C8": 108, "B3": 59, "E2": 40, "G7": 103,
    "F#3": 54, "Bb4": 70,
}


def test_pitch_names_match_midi_chart():
    for name, midi in NAME_TABLE.items():
        assert pitch_from_name(name) == midi, name


def test_pitch_name_accidentals_stack():
    assert pitch_from_name("C##4") == 62
    assert pitch_from_name("Dbb4") == 60


@pytest.mark.parametrize("bad", ["H4", "C", "4", "", "C#", "c4x", "C4.5"])
def test_bad_pitch_names_rejected(bad):
    with pytest.raises(ScoreError):
        pitch_from_name(bad)


def test_note_range_enforced():
    assert Score.from_pitches([21, 108.0], 1).pitches == (21, 108)
    assert type(Score.from_pitches([60.0, 62], 1).pitches[0]) is int
    for bad in (20, 109, 0, -5, 300):
        with pytest.raises(PitchRangeError, match=f"^pitch {bad} outside piano range"):
            Score.from_pitches([60, bad], 1)
    # the pitch check comes before the length check
    with pytest.raises(PitchRangeError, match="^pitch 200 outside piano range"):
        Score.from_pitches([200], 1)
    for bad in (60.9, 62.2, float("nan"), float("inf"), "60", None):
        with pytest.raises(ScoreError, match=rf"^pitch {re.escape(repr(bad))} is not a whole"):
            Score.from_pitches([bad, 62], 1)


def test_score_requires_two_notes():
    with pytest.raises(ScoreSizeError):
        Score.from_pitches([60], 1)
    with pytest.raises(ScoreSizeError):
        Score.from_pitches([], 1)
    assert len(Score.from_pitches([60, 62], 1)) == 2


def test_score_first_finger_validated():
    for bad in (0, 6, -1):
        with pytest.raises(HeaderError):
            Score.from_pitches([60, 62], bad)
    for ok in FINGERS:
        Score.from_pitches([60, 62], ok)


# --- parsing ---------------------------------------------------------------

def test_parse_integer_passthrough():
    s = parse_score("first_finger=1\n60\n62")
    assert s.pitches == (60, 62)
    assert s.first_finger == 1


def test_parse_pitch_names():
    s = parse_score("first_finger=2\nC4\nE4\nG4")
    assert s.pitches == (60, 64, 67)
    assert s.first_finger == 2


def test_parse_single_note_is_size_error():
    with pytest.raises(ScoreSizeError):
        parse_score("first_finger=1\n60")


def test_parse_comments_blanks_and_durations():
    text = (
        "# a scale fragment\n"
        "first_finger=1\n"
        "\n"
        "60,0.5\n"
        "62,1.0   # inline comment\n"
        "E4, 0\n"
    )
    s = parse_score(text)
    assert s.pitches == (60, 62, 64)


def test_parse_missing_header():
    with pytest.raises(HeaderError):
        parse_score("60\n62")


def test_parse_bad_header_value():
    with pytest.raises(HeaderError):
        parse_score("first_finger=9\n60\n62")


def test_parse_error_names_line_number():
    with pytest.raises(ScoreParseError) as err:
        parse_score("first_finger=1\n60\nnotanote\n64")
    assert "line 3" in str(err.value)


def test_parse_bad_duration_names_line_number():
    with pytest.raises(ScoreParseError) as err:
        parse_score("first_finger=1\n60\n62,abc")
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-3"])
def test_parse_rejects_non_finite_and_negative_durations(token):
    with pytest.raises(ScoreParseError, match=f"^line 4: duration .*'{token}'"):
        parse_score(f"first_finger=1\n60\n62, 1\n64, {token}\n65\n")


def test_parse_out_of_range_pitch():
    with pytest.raises(PitchRangeError):
        parse_score("first_finger=1\n60\n300")


# --- melodic range ---------------------------------------------------------

def test_melodic_range_examples():
    assert StateEncoding.for_score(Score.from_pitches([60, 60, 60], 1)) == StateEncoding(60, 1)
    assert StateEncoding.for_score(
        Score.from_pitches([62, 60, 64, 65, 67], 1)) == StateEncoding(60, 8)
    assert StateEncoding.for_score(Score.from_pitches([108, 21], 1)) == \
        StateEncoding.full_piano()


@given(scores())
def test_melodic_range_sizes(score):
    # the window is as narrow as the score allows: its lowest and highest
    # pitches sit at the two ends
    enc = StateEncoding.for_score(score)
    indices = [enc.pitch_index(p) for p in score.pitches]
    assert min(indices) == 0 and max(indices) == enc.width - 1


# --- mirroring -------------------------------------------------------------

def test_mirror_reflection_example():
    m = mirror_for_left_hand(Score.from_pitches([60, 62, 64], 1), 62)
    assert m.pitches == (64, 62, 60)
    assert m.first_finger == 1


def test_mirror_fixed_point():
    # the pitch equal to the axis maps to itself
    m = mirror_for_left_hand(Score.from_pitches([60, 60], 3), 60)
    assert m.pitches == (60, 60)


def test_mirror_out_of_range():
    # reflecting 23 about A0 would land on 19, below the keyboard
    with pytest.raises(PitchRangeError):
        mirror_for_left_hand(Score.from_pitches([21, 23], 1), 21)


score_pitches = st.lists(st.integers(PITCH_MIN, PITCH_MAX), min_size=2, max_size=20)
fingers = st.integers(1, 5)


@given(score_pitches, fingers)
def test_serialize_parse_round_trip(pitches, ff):
    s = Score.from_pitches(pitches, ff)
    back = parse_score(serialize_score(s))
    assert back.pitches == s.pitches
    assert back.first_finger == s.first_finger


def test_parse_sharps_are_not_comments():
    assert parse_score("first_finger=1\nC#4\nD4\n").pitches == (61, 62)
    assert parse_score("first_finger=2\nF##3\nC#4 # c-sharp\n").pitches == (55, 61)
    assert parse_score("first_finger=2\n#C#4\n60\n\t# F#4\n61\n").pitches == (60, 61)


_LETTERS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


@st.composite
def _spelled_pitch(draw):
    """A pitch and one of its spellings, up to three stacked accidentals."""
    letter = draw(st.sampled_from(sorted(_LETTERS)))
    shift = draw(st.integers(-3, 3))
    base = _LETTERS[letter] + shift
    octave = draw(st.integers(-(-(PITCH_MIN - base) // 12), (PITCH_MAX - base) // 12)) - 1
    accidentals = "#" * shift if shift > 0 else "b" * -shift
    return base + 12 * (octave + 1), f"{letter}{accidentals}{octave}"


@given(st.lists(st.tuples(_spelled_pitch(), st.sampled_from(["", ", 0.5", ",1"]),
                          st.sampled_from(["", " # note", "\t#C#4", "  #"])),
                min_size=2, max_size=12),
       fingers)
def test_pitch_name_files_round_trip(lines, ff):
    text = f"# written with pitch names\nfirst_finger={ff}\n" + "".join(
        f"{name}{duration}{comment}\n" for (_, name), duration, comment in lines)
    back = parse_score(text)
    assert back.pitches == tuple(pitch for (pitch, _), _, _ in lines)
    assert back.first_finger == ff
    assert parse_score(serialize_score(back)) == back


@given(st.lists(st.integers(40, 90), min_size=2, max_size=12), fingers,
       st.integers(55, 75))
def test_mirror_is_involution(pitches, ff, axis):
    s = Score.from_pitches(pitches, ff)
    try:
        once = mirror_for_left_hand(s, axis)
    except PitchRangeError:
        return  # reflection left the keyboard; nothing to check
    twice = mirror_for_left_hand(once, axis)
    assert twice.pitches == s.pitches
    assert twice.first_finger == s.first_finger


@given(st.lists(st.integers(50, 80), min_size=2, max_size=12), fingers)
def test_mirror_flips_interval_signs(pitches, ff):
    s = Score.from_pitches(pitches, ff)
    m = mirror_for_left_hand(s, 64)
    orig = [b - a for a, b in zip(s.pitches, s.pitches[1:])]
    mirrored = [b - a for a, b in zip(m.pitches, m.pitches[1:])]
    assert mirrored == [-d for d in orig]


@given(score_texts())
def test_parse_raises_only_score_errors(text):
    try:
        score = parse_score(text)
    except ScoreError:
        return
    assert len(score) >= 2 and score.first_finger in FINGERS
    assert all(PITCH_MIN <= p <= PITCH_MAX for p in score.pitches)
