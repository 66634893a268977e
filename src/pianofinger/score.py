"""Monophonic scores, the score file format, and the input grammar that
every input file and numeric flag of the CLI shares.

Input files are UTF-8, a leading byte-order mark dropped, and are read
through ``lines``: lines end at ``\\n``, ``\\r\\n`` or ``\\r``, ``#`` starts a
comment at the start of a line or after whitespace (elsewhere it is a
sharp, as in ``C#4``), and blank lines are skipped.  Numbers are ASCII
tokens: ``integer`` takes ``[+-]?[0-9]+``, ``number`` Python's float
syntax without ``_`` (``1e-3``, ``.5``, ``inf``).

A score file opens with a ``first_finger=<1-5>`` header; every later line
holds one note, a MIDI number (21..108) or a scientific pitch name
``[A-Ga-g][#b]*-?[0-9]+`` with C4 = 60 (``C4``, ``F#2``, ``Bb5``).  A
comma-separated duration may follow the pitch; it must be a finite
number >= 0 and is otherwise ignored.

The form ``serialize_score`` writes (and ``mirror`` prints), the header
and then one MIDI number per line, is read in one pass.  Any other form
goes through the line loop, with the same values and errors.  Either
reader checks each pitch once, as it reads it, and hands ``Score`` the
checked tuple; a ``Score(...)`` built directly checks every pitch itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
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
_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                     r"|inf(?:inity)?|nan)", re.ASCII | re.IGNORECASE)
_PITCH_NAME = re.compile(r"([A-Ga-g])([#b]*)(-?[0-9]+)")
_HEADER = re.compile(r"first_finger\s*=\s*([1-5])")

_LETTER_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


def lines(text: str):
    """``(line_no, content)`` for each line (numbered from 1) that keeps
    content once its ``#`` comment and surrounding blanks are stripped.
    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``, not at the other
    separators of ``str.splitlines`` (``\\f``, ``\\x1c``, ...)."""
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(rows, start=1):
        line = (_COMMENT.split(raw, 1)[0] if "#" in raw else raw).strip()
        if line:
            yield line_no, line


def integer(token: str) -> int:
    """``token`` as an int if it is ``[+-]?[0-9]+``; ValueError otherwise
    (``int`` alone also takes ``1_0``, ``٦٠`` and ``６０``)."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def number(token: str) -> float:
    """``token`` as a float if it is in Python's float syntax, ASCII and
    without ``_`` (``inf`` and ``nan`` included); ValueError otherwise."""
    if _NUMBER.fullmatch(token) is None:
        raise ValueError(f"not a number: {token!r}")
    return float(token)


def pitch_from_name(name: str) -> int:
    """MIDI number for a scientific pitch name (C4 = 60).

    Accepts ``[A-Ga-g][#b]*-?[0-9]+``: stackable ``#``/``b`` accidentals
    and any integer octave; raises ScoreError for anything else.  Range
    is not checked here.
    """
    match = _PITCH_NAME.fullmatch(name)
    if match is None:
        raise ScoreError(f"not a pitch name: {name!r}")
    letter, accidentals, octave = match.groups()
    semitone = _LETTER_SEMITONE[letter.upper()] + accidentals.count("#") - accidentals.count("b")
    return semitone + 12 * (int(octave) + 1)


_PIANO = {p: p for p in range(PITCH_MIN, PITCH_MAX + 1)}   # each key to its int


def _piano_pitch(p) -> int:
    """``p`` as a MIDI number on the piano, or the error that says why not.
    A value equal to a key (``60.0``, ``60+0j``, ``np.int64(60)``) reads
    as that key's int."""
    try:
        pitch = _PIANO[p] if p in _PIANO else int(p)
        whole = pitch == p
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ScoreError(f"pitch {p!r} is not a whole number")
    if not PITCH_MIN <= pitch <= PITCH_MAX:
        raise PitchRangeError(f"pitch {pitch} outside piano range [{PITCH_MIN}, {PITCH_MAX}]")
    return pitch


def as_finger(value, what: str, error: type[ValueError]) -> int:
    """``value`` as a finger, the one finger rule of the package: a value equal
    to a finger (``2.0``, ``True``, ``1+0j``, ``np.array([2])``) reads as that
    int; anything else (``2.5``, ``"2"``, ``None``) raises ``error`` naming ``what``."""
    try:
        return FINGERS[FINGERS.index(value)]
    except (ValueError, TypeError):   # equal to none, or no answer to ==
        raise error(f"{what} must be a finger in 1..5, got {value!r}") from None


def _check_size(pitches: tuple) -> None:
    if len(pitches) < 2:
        raise ScoreSizeError(f"score needs at least 2 notes, got {len(pitches)}")


@dataclass(frozen=True)
class Score:
    """A monophonic pitch sequence plus the finger that plays its first note."""

    pitches: tuple[int, ...]
    first_finger: int
    name: str = "score"

    def __post_init__(self):
        pitches = tuple(map(_piano_pitch, self.pitches))
        _check_size(pitches)
        finger = as_finger(self.first_finger, "first_finger", HeaderError)
        self.__dict__.update(pitches=pitches, first_finger=finger)

    @classmethod
    def _parsed(cls, pitches: tuple[int, ...], first_finger: int, name: str) -> "Score":
        """A score of pitches a reader has already checked (exact ints in
        [21, 108], in a tuple) and a finger in 1..5: only the size is checked."""
        _check_size(pitches)
        score = object.__new__(cls)
        score.__dict__.update(pitches=pitches, first_finger=first_finger, name=name)
        return score

    def __len__(self) -> int:
        return len(self.pitches)


def read_text(path, what: str, error: type[ValueError] = ScoreError) -> str:
    """The contents of a UTF-8 text file, for every input file of the CLI.

    A leading byte-order mark is dropped.  A file that cannot be opened
    or is not valid UTF-8 raises ``error`` with a message naming ``what``
    and the path.
    """
    try:
        return (path if isinstance(path, Path) else Path(path)).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


_CANONICAL_HEADER = {f"first_finger={f}": f for f in FINGERS}
_CANONICAL_PITCH = {str(p): p for p in range(PITCH_MIN, PITCH_MAX + 1)}


def parse_score(text: str, name: str = "score") -> Score:
    """Parse the score file format described in the module docstring.

    Text in the form ``serialize_score`` writes is read in one pass: one
    split at ``\\n`` and one table lookup per line.  Any other text goes
    through ``_parse_lines``, which gives the same values and every error.
    """
    rows = text.split("\n")
    if not rows[-1]:
        rows.pop()
    try:
        first_finger = _CANONICAL_HEADER[rows[0]]
        pitches = tuple(map(_CANONICAL_PITCH.__getitem__, islice(rows, 1, None)))
    except (IndexError, KeyError):
        del rows   # the line loop splits the text again; hold one split at a time
        return _parse_lines(text, name)
    return Score._parsed(pitches, first_finger, name)


def _parse_lines(text: str, name: str) -> Score:
    """The score file read line by line through ``lines``: pitch names,
    durations, comments and blank lines, with each error's line number."""
    header_finger = None
    pitches: list[int] = []
    for line_no, line in lines(text):
        if header_finger is None:
            header = _HEADER.fullmatch(line)
            if header is None:
                raise HeaderError(f"line {line_no}: expected a first_finger=<1-5> header, "
                                  f"got {line!r}")
            header_finger = int(header[1])
            continue
        token, _, duration = line.partition(",")
        token = token.strip()
        duration = duration.strip()
        if duration:
            try:
                length = number(duration)
            except ValueError:
                raise ScoreParseError(line_no, f"bad duration token {duration!r}") from None
            if not (math.isfinite(length) and length >= 0):
                raise ScoreParseError(
                    line_no, f"duration must be finite and >= 0, got {duration!r}")
        try:   # a plain MIDI number is checked inline: most lines hold one
            pitch = (int(token) if token.isascii() and token.isdigit()
                     else pitch_from_name(token) if token[:1].isalpha() else integer(token))
        except ValueError:
            raise ScoreParseError(line_no, f"bad note token {token!r}, expected a MIDI number "
                                           "or a pitch name") from None
        if not PITCH_MIN <= pitch <= PITCH_MAX:
            raise PitchRangeError(f"line {line_no}: pitch {pitch} outside piano range "
                                  f"[{PITCH_MIN}, {PITCH_MAX}]")
        pitches.append(pitch)
    if header_finger is None:
        raise HeaderError("missing first_finger=<1-5> header")
    return Score._parsed(tuple(pitches), header_finger, name)


def serialize_score(score: Score) -> str:
    """Canonical text form: header line, then one MIDI number per line."""
    return f"first_finger={score.first_finger}\n" + "".join(f"{p}\n" for p in score.pitches)


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
    return Score(mirrored, score.first_finger, score.name)
