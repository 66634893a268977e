"""Monophonic scores and the plain-text score file format.

A score file is UTF-8 text.  The first meaningful line must be a
``first_finger=<1-5>`` header; every later line holds one note, written
either as a MIDI number (21..108) or as a scientific pitch name with
C4 = 60 (``C4``, ``F#2``, ``Bb5``).  A comma-separated duration token may
follow the pitch; it must be a finite number >= 0 and is otherwise
ignored.  ``#`` starts a comment at the start of a line or after
whitespace (elsewhere it is a sharp, as in ``C#4``), and blank lines are
skipped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

PITCH_MIN = 21   # A0
PITCH_MAX = 108  # C8
FINGERS = (1, 2, 3, 4, 5)


class ScoreError(ValueError):
    """Base class for invalid scores and score files."""


class HeaderError(ScoreError):
    """Missing or malformed ``first_finger`` header."""


class ScoreParseError(ScoreError):
    """Malformed note line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PitchRangeError(ScoreError):
    """Pitch outside the piano range [21, 108]."""


class ScoreSizeError(ScoreError):
    """A score length constraint was violated."""


_COMMENT = re.compile(r"(?:^|\s)#")   # a sharp follows its letter, a comment does not

_LETTER_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


def pitch_from_name(name: str) -> int:
    """MIDI number for a scientific pitch name (C4 = 60).

    Accepts ``#``/``b`` accidentals (stackable) and any integer octave;
    raises ScoreError for anything else.  Range is not checked here.
    """
    text = name.strip()
    if not text:
        raise ScoreError("empty pitch name")
    letter = text[0].upper()
    if letter not in _LETTER_SEMITONE:
        raise ScoreError(f"unknown pitch letter {text[0]!r}")
    semitone = _LETTER_SEMITONE[letter]
    rest = text[1:]
    while rest[:1] in ("#", "b"):
        semitone += 1 if rest[0] == "#" else -1
        rest = rest[1:]
    try:
        octave = int(rest)
    except ValueError:
        raise ScoreError(f"bad octave in pitch name {name!r}") from None
    return semitone + 12 * (octave + 1)


def _piano_pitch(p) -> int:
    """``p`` as a MIDI number on the piano, or the error that says why not."""
    try:
        pitch = int(p)
        whole = pitch == p
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ScoreError(f"pitch {p!r} is not a whole number")
    if not PITCH_MIN <= pitch <= PITCH_MAX:
        raise PitchRangeError(f"pitch {pitch} outside piano range [{PITCH_MIN}, {PITCH_MAX}]")
    return pitch


@dataclass(frozen=True)
class Score:
    """A monophonic pitch sequence plus the finger that plays its first note."""

    pitches: tuple[int, ...]
    first_finger: int
    name: str = "score"

    def __post_init__(self):
        object.__setattr__(self, "pitches", tuple(map(_piano_pitch, self.pitches)))
        if len(self.pitches) < 2:
            raise ScoreSizeError(f"score needs at least 2 notes, got {len(self.pitches)}")
        if self.first_finger not in FINGERS:   # "1", 1.5 and nan are not; 1.0 and True are
            raise HeaderError(f"first_finger must be in 1..5, got {self.first_finger!r}")
        object.__setattr__(self, "first_finger", int(self.first_finger))

    @classmethod
    def from_pitches(cls, pitches, first_finger: int, name: str = "score") -> "Score":
        return cls(pitches, first_finger, name)

    def __len__(self) -> int:
        return len(self.pitches)


def read_text(path, what: str, error: type[ValueError] = ScoreError) -> str:
    """The contents of a UTF-8 text file, for every input file of the CLI.

    A file that cannot be opened or is not valid UTF-8 raises ``error``
    with a message naming ``what`` and the path.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def parse_score(text: str, name: str = "score") -> Score:
    """Parse the score file format described in the module docstring."""
    header_finger = None
    pitches: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT.split(raw, 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if header_finger is None:
            key, sep, value = line.partition("=")
            if not sep or key.strip() != "first_finger":
                raise HeaderError(
                    f"line {line_no}: expected a first_finger=<1-5> header, got {line!r}"
                )
            try:
                header_finger = int(value.strip())
            except ValueError:
                raise HeaderError(
                    f"line {line_no}: first_finger is not an integer: {value.strip()!r}"
                ) from None
            if header_finger not in FINGERS:
                raise HeaderError(
                    f"line {line_no}: first_finger must be in 1..5, got {header_finger}"
                )
            continue
        token, _, duration = line.partition(",")
        token = token.strip()
        duration = duration.strip()
        if duration:
            try:
                length = float(duration)
            except ValueError:
                raise ScoreParseError(line_no, f"bad duration token {duration!r}") from None
            if not (math.isfinite(length) and length >= 0):
                raise ScoreParseError(
                    line_no, f"duration must be finite and >= 0, got {duration!r}")
        try:
            pitch = int(token)
        except ValueError:
            try:
                pitch = pitch_from_name(token)
            except ValueError as exc:
                raise ScoreParseError(line_no, f"bad note token {token!r} ({exc})") from None
        if not PITCH_MIN <= pitch <= PITCH_MAX:
            raise PitchRangeError(
                f"line {line_no}: pitch {pitch} outside piano range [{PITCH_MIN}, {PITCH_MAX}]"
            )
        pitches.append(pitch)
    if header_finger is None:
        raise HeaderError("missing first_finger=<1-5> header")
    return Score(pitches, header_finger, name)


def serialize_score(score: Score) -> str:
    """Canonical text form: header line, then one MIDI number per line."""
    lines = [f"first_finger={score.first_finger}"]
    lines.extend(str(p) for p in score.pitches)
    return "\n".join(lines) + "\n"


def mirror_for_left_hand(score: Score, axis_pitch: int) -> Score:
    """Reflect every pitch about ``axis_pitch`` (p -> 2*axis - p).

    Interval sizes are preserved with directions flipped, which maps a
    right-hand exercise onto the symmetric left-hand one.  Order, name and
    first_finger are kept.
    """
    mirrored = []
    for p in score.pitches:
        q = 2 * axis_pitch - p
        if not PITCH_MIN <= q <= PITCH_MAX:
            raise PitchRangeError(
                f"mirrored pitch {q} (from {p} about axis {axis_pitch}) "
                f"outside piano range [{PITCH_MIN}, {PITCH_MAX}]"
            )
        mirrored.append(q)
    return Score.from_pitches(mirrored, score.first_finger, score.name)
