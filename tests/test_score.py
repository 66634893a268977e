import re
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pianofinger.env import StateEncoding
from pianofinger.oracle import dp_optimal
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
    _parse_lines,
    _piano_pitch,
    integer,
    mirror_for_left_hand,
    number,
    parse_score,
    pitch_from_name,
    serialize_score,
)

from strategies import near_canonical_texts, score_texts, scores

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
    assert Score([21, 108.0], 1).pitches == (21, 108)
    assert type(Score([60.0, 62], 1).pitches[0]) is int
    for bad in (20, 109, 0, -5, 300):
        with pytest.raises(PitchRangeError, match=f"^pitch {bad} outside piano range"):
            Score([60, bad], 1)
    # the pitch check comes before the length check
    with pytest.raises(PitchRangeError, match="^pitch 200 outside piano range"):
        Score([200], 1)
    with pytest.raises(PitchRangeError, match="^pitch 200 outside piano range"):
        Score([60 + 0j, 200], 1)
    for bad in (60.9, 62.2, float("nan"), float("inf"), "60", None):
        with pytest.raises(ScoreError, match=rf"^pitch {re.escape(repr(bad))} is not a whole"):
            Score([bad, 62], 1)


def test_score_requires_two_notes():
    with pytest.raises(ScoreSizeError):
        Score([60], 1)
    with pytest.raises(ScoreSizeError):
        Score([], 1)
    assert len(Score([60, 62], 1)) == 2


def test_score_first_finger_validated():
    for bad in (0, 6, -1, 1.5, float("nan"), "1", np.array([1, 2])):
        with pytest.raises(HeaderError, match=rf"got {re.escape(repr(bad))}$"):
            Score([60, 62], bad)
    for ok in (*FINGERS, 1.0, True, 1 + 0j, np.complex128(1), np.float64(2.0)):
        score = Score([60, 62, 64], ok)
        assert type(score.first_finger) is int and score.first_finger == ok
        assert all(type(f) is int for f in dp_optimal(score)[0])


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
    for value in ("9", "١", "+1", "01", "1_0"):   # one ASCII digit 1-5 only
        with pytest.raises(HeaderError):
            parse_score(f"first_finger={value}\n60\n62")


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
    assert StateEncoding.for_score(Score([60, 60, 60], 1)) == StateEncoding(60, 1)
    assert StateEncoding.for_score(
        Score([62, 60, 64, 65, 67], 1)) == StateEncoding(60, 8)
    assert StateEncoding.for_score(Score([108, 21], 1)) == \
        StateEncoding.full_piano()


@given(scores())
def test_melodic_range_sizes(score):
    # the window is as narrow as the score allows: its lowest and highest
    # pitches sit at the two ends
    enc = StateEncoding.for_score(score)
    indices = [p - enc.min_pitch for p in score.pitches]
    assert min(indices) == 0 and max(indices) == enc.width - 1


# --- mirroring -------------------------------------------------------------

def test_mirror_reflection_example():
    m = mirror_for_left_hand(Score([60, 62, 64], 1), 62)
    assert m.pitches == (64, 62, 60)
    assert m.first_finger == 1


def test_mirror_fixed_point():
    # the pitch equal to the axis maps to itself
    m = mirror_for_left_hand(Score([60, 60], 3), 60)
    assert m.pitches == (60, 60)


def test_mirror_out_of_range():
    # reflecting 23 about A0 would land on 19, below the keyboard
    with pytest.raises(PitchRangeError):
        mirror_for_left_hand(Score([21, 23], 1), 21)


score_pitches = st.lists(st.integers(PITCH_MIN, PITCH_MAX), min_size=2, max_size=20)
fingers = st.integers(1, 5)


def _types(score):
    """What Score equality does not see: 60 == 60.0, and two lists compare equal too."""
    return type(score.pitches), tuple(map(type, score.pitches)), type(score.first_finger)


@given(score_pitches, fingers)
def test_serialize_parse_round_trip(pitches, ff):
    s = Score(pitches, ff)
    back = parse_score(serialize_score(s))
    assert back.pitches == s.pitches
    assert back.first_finger == s.first_finger
    assert _types(back) == _types(s) == (tuple, (int,) * len(s), int)


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
    s = Score(pitches, ff)
    try:
        once = mirror_for_left_hand(s, axis)
    except PitchRangeError:
        return  # reflection left the keyboard; nothing to check
    twice = mirror_for_left_hand(once, axis)
    assert twice.pitches == s.pitches
    assert twice.first_finger == s.first_finger


@given(st.lists(st.integers(50, 80), min_size=2, max_size=12), fingers)
def test_mirror_flips_interval_signs(pitches, ff):
    s = Score(pitches, ff)
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


def _outcome(parse, text):
    try:
        score = parse(text, "t")
    except ScoreError as exc:
        return type(exc), str(exc)
    assert _types(score) == (tuple, (int,) * len(score), int)
    return score


@settings(max_examples=500)
@given(st.one_of(score_texts(), near_canonical_texts()))
@example("first_finger=1\n60\n20\n")
@example("first_finger=1\n109\n60\n")
@example("first_finger=6\n60\n62\n")
@example("first_finger=1\n60\n")   # the size error from the one-pass read
@example("first_finger=2\nC4\nF#4, 0.5\n")   # pitch names: the line loop
def test_one_pass_read_agrees_with_the_line_loop(text):
    assert _outcome(parse_score, text) == _outcome(_parse_lines, text)


class _Key(IntEnum):
    MIDDLE_C = 60


# beside exact ints in range: ints off the keyboard, bools, whole and fractional
# floats, nan, numpy ints, an IntEnum member and complex numbers on the piano
# (numpy complex off it is left out: int() on one warns ComplexWarning)
_PITCH_LIKE = st.one_of(
    st.integers(-300, 300), st.sampled_from([PITCH_MIN - 1, PITCH_MAX + 1, True, False]),
    st.integers(PITCH_MIN, PITCH_MAX).map(float), st.floats(0, 200), st.just(float("nan")),
    st.integers(0, 200).map(np.int64), st.just(_Key.MIDDLE_C),
    st.integers(PITCH_MIN, PITCH_MAX).map(complex))
_KEYS = range(PITCH_MIN, PITCH_MAX + 1)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(PITCH_MIN, PITCH_MAX), _PITCH_LIKE), max_size=8),
       st.booleans())
@example([60 + 0j, 200], False)   # 60+0j reads as 60, so the error names 200
def test_bulk_pitch_check_agrees_with_piano_pitch(pitches, as_iterator):
    given_pitches = iter(pitches) if as_iterator else pitches
    for p in pitches:   # a value equal to a key reads as that key's int
        if p in _KEYS:
            assert (type(_piano_pitch(p)), _piano_pitch(p)) == (int, p)
    try:
        expected = tuple(map(_piano_pitch, pitches))
    except ScoreError as exc:
        with pytest.raises(ScoreError) as err:
            Score(given_pitches, 1)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    if len(expected) < 2:
        with pytest.raises(ScoreSizeError):
            Score(given_pitches, 1)
        return
    pitches = Score(given_pitches, 1).pitches
    assert pitches == expected and {type(p) for p in pitches} == {int}


# --- the input grammar -----------------------------------------------------

# the ASCII grammar, written out here independently of score.py
_INTEGER_REF = re.compile(r"[+-]?[0-9]+")
_NUMBER_REF = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?"
                         r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
                         r"|[iI][nN][fF](?:[iI][nN][iI][tT][yY])?|[nN][aA][nN])")
_PITCH_REF = re.compile(r"([A-Ga-g])([#b]*)(-?[0-9]+)")
# Python's int() and float() take the non-ASCII and underscored ones
_CRAFTED_TOKENS = [
    "6_0", "٦٢", "２", "６０", "+1", "-0", "007", "1e999", ".5", "5.", ".", "nan", "-NaN", "Inf",
    "-infinity", "ınf", "1e-3", "1E+3", "1e", "e1", "1.5.2", "0x10", " 1", "1 ", "+", "-", "",
    "C4", "c4", "Bb3", "bb3", "C-1", "F##3", "Cb-1", "C+4", "C٤", "C 4", "C４", "H4", "C", "#4",
]
_TOKENS = st.one_of(st.text(), st.sampled_from(_CRAFTED_TOKENS),
                    st.text("0123456789+-._eEinfINFaA#bBCc ٦２", max_size=8))


def _named_pitch(token):
    letter, accidentals, octave = _PITCH_REF.fullmatch(token).groups()
    return (_LETTERS[letter.upper()] + accidentals.count("#") - accidentals.count("b")
            + 12 * (int(octave) + 1))


@given(_TOKENS)
def test_token_readers_accept_exactly_the_ascii_grammar(token):
    for reader, reference, value in ((integer, _INTEGER_REF, int),
                                     (number, _NUMBER_REF, float),
                                     (pitch_from_name, _PITCH_REF, _named_pitch)):
        if reference.fullmatch(token):
            assert repr(reader(token)) == repr(value(token)), (reader, token)
        else:
            with pytest.raises(ValueError):
                reader(token)


def test_readme_score_example_and_pitch_names_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Score files", 1)[1].split("\n### ", 1)[0]
    example = parse_score(section.split("```", 2)[1])
    assert (example.pitches, example.first_finger) == ((60, 62, 64), 1)
    cited = set(re.findall(r"`([A-Ga-g][#b]*-?[0-9]+)`", section))
    assert cited == {"C4", "C#4", "Db4", "F##3"}
    assert {name: pitch_from_name(name) for name in cited} == {
        "C4": 60, "C#4": 61, "Db4": 61, "F##3": 55}
