import copy
import dataclasses
import math
import pickle
import re
import reprlib
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from numbers import Real
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pianofinger import reward
from pianofinger.experiments import build_experiment
from pianofinger.reward import (
    NATURAL_OFFSET,
    RewardModel,
    _compile,
    anchor,
    block_index,
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
    score = Score([60, 62, 64, 60, 67, 55], 1)
    model = RewardModel(anchor_tolerance=2, r_stay=1, r_move=-1, r_infeasible=-10)
    assert all(type(getattr(model, f.name)) is float for f in dataclasses.fields(model))
    assert model == MODEL
    assert _table(score, model).tobytes() == _table(score, MODEL).tobytes()
    assert (_table(score, RewardModel(r_stay=1)).tobytes()
            == _table(score, RewardModel(r_stay=1.0)).tobytes())


# --- construction -------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _PerFieldModel:
    """RewardModel's fields behind a generated ``__init__`` and a per-field
    check: the reference for the hand-written constructor and its errors."""

    anchor_tolerance: float = 2.0
    r_stay: float = 1.0
    r_move: float = -1.0
    r_infeasible: float = -10.0

    def __post_init__(self):
        for name in ("anchor_tolerance", "r_stay", "r_move", "r_infeasible"):
            value = getattr(self, name)
            if type(value) is float:
                continue
            try:
                if not isinstance(value, Real):
                    raise TypeError
                object.__setattr__(self, name, float(value))
            except (TypeError, OverflowError):
                raise ValueError(f"{name} must be a real number within float64 range, "
                                 f"got {reprlib.repr(value)}") from None
        for name in ("r_stay", "r_move", "r_infeasible"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.anchor_tolerance >= 0:
            raise ValueError(f"anchor_tolerance must be >= 0, got {self.anchor_tolerance}")
        if not self.r_infeasible < self.r_move < self.r_stay:
            raise ValueError(
                "reward ordering violated: need r_infeasible < r_move < r_stay, got "
                f"{self.r_infeasible}, {self.r_move}, {self.r_stay}"
            )


def _built(cls, values):
    """(the four fields' float64 bytes, None) or (None, the ValueError's text)."""
    try:
        model = cls(*values)
    except ValueError as exc:
        return None, str(exc)
    fields = [getattr(model, f.name) for f in dataclasses.fields(cls)]
    assert all(type(v) is float for v in fields)
    return struct.pack("4d", *fields), None


_ODD_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 10**400, -(10**400), Fraction(10**400, 3),
    np.float64("nan"), np.float64("inf"), True, False, "1", None, b"1", 1j, Decimal("1.5"), [2.0],
])


def _as_any_real(draw, value: Fraction):
    """``value`` as a float, an np.float64, a Fraction or, where exact, an int or a bool."""
    forms = [float, np.float64, Fraction]
    if value.denominator == 1:
        forms.append(int)
        if value in (0, 1):
            forms.append(bool)
    return draw(st.sampled_from(forms))(value)


@st.composite
def _field_values(draw):
    """Four constructor arguments: a valid model in mixed number types,
    or anything at all, ints too large for a float and non-numbers too."""
    if draw(st.booleans()):
        ratios = st.fractions(-50, 50, max_denominator=64)
        low, mid, high = sorted(draw(st.lists(ratios, min_size=3, max_size=3, unique=True)))
        tolerance = draw(st.fractions(0, 90, max_denominator=8))
        return [_as_any_real(draw, v) for v in (tolerance, high, mid, low)]
    field = st.one_of(st.floats(), st.integers(-10**20, 10**20), st.booleans(), st.fractions(),
                      st.floats(allow_nan=False).map(np.float64), _ODD_VALUES)
    return draw(st.lists(field, min_size=4, max_size=4))


@given(_field_values())
@example([2.0, 1.0, -1.0, -10.0])
@example([2, 1, -1, -10])
@example([2.0, 1.0, -0.0, -10.0])
@example([np.float64(2.0), 1.0, -1.0, -10.0])
@example([math.inf, 1.0, -1.0, -10.0])
@example([math.nan, 1.0, -1.0, -10.0])
@example([2.0, math.inf, -1.0, -math.inf])
@example([2.0, 1.0, 1.0, -10.0])
@example([2.0, 10**400, -1.0, -10.0])
def test_the_fast_and_checked_constructors_agree(values):
    checked = []
    slow = reward._checked
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reward, "_checked", lambda *args: checked.append(args) or slow(*args))
        expected = _built(_PerFieldModel, values)
        assert _built(RewardModel, values) == expected
        model = RewardModel(*values) if expected[1] is None else None
        fast = RewardModel(*struct.unpack("4d", expected[0])) if model else None
    # inputs that need no conversion or error take the fast path, all others the checks
    exact = all(type(v) is float for v in values)
    assert bool(checked) == (not exact or expected[1] is not None)
    if expected[1] is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(expected[1])}$"):
            slow(*values)
        return
    assert len(checked) == (0 if exact else 2)   # the floats took the fast path
    assert slow(*values) == struct.unpack("4d", expected[0])
    assert model._key == fast._key == expected[0]
    reference = _PerFieldModel(*values)
    assert repr(model) == repr(fast) == repr(reference).replace("_PerFieldModel", "RewardModel")
    assert model == fast and hash(model) == hash(fast) == hash(reference)
    for twin in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model)),
                 dataclasses.replace(model), dataclasses.replace(fast, r_move=model.r_move)):
        assert type(twin) is RewardModel and twin == fast and twin._key == fast._key
    assert (dataclasses.replace(model, r_stay=fast.r_stay + 100.0)
            == RewardModel(fast.anchor_tolerance, fast.r_stay + 100.0, fast.r_move, fast.r_infeasible))


def test_the_config_keys_are_the_four_fields():
    fields = [(f.name, f.default) for f in dataclasses.fields(RewardModel)]
    assert fields == [("anchor_tolerance", 2.0), ("r_stay", 1.0), ("r_move", -1.0),
                      ("r_infeasible", -10.0)]
    assert RewardModel(3.0, 2.0, 0.5, -4.0) == RewardModel(
        anchor_tolerance=3.0, r_stay=2.0, r_move=0.5, r_infeasible=-4.0)


def test_a_signed_zero_compiles_its_own_table():
    plus, minus = RewardModel(r_move=0.0), RewardModel(r_move=-0.0)
    assert plus == minus and plus._key != minus._key
    up = 1   # a new pitch with the same finger moves the hand
    assert math.copysign(1.0, _compile(plus._key).blocks[up][0][0]) == 1.0
    assert math.copysign(1.0, _compile(minus._key).blocks[up][0][0]) == -1.0


class _Notes:
    """Pitches of any length ``len`` can report, holding two notes to read."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        return iter((60, 62))


_FLOAT_MAX = sys.float_info.max


# magnitudes of any size, and ones whose limit is a length ``len`` can report
@given(st.one_of(st.floats(1e-300, _FLOAT_MAX / 8), st.floats(_FLOAT_MAX / 2**66, _FLOAT_MAX / 8)),
       st.booleans(), st.sampled_from([-1, 0, 1]))
@example(_FLOAT_MAX / 12, True, 0)   # 3 transitions: exactly a quarter of the largest float
@example(_FLOAT_MAX / 12, True, 1)
@example(_FLOAT_MAX / 8, False, 0)
@example(1.0, True, 0)
def test_the_size_limit_is_the_float_bound_at_every_length(largest, stay_is_largest, offset):
    if stay_is_largest:
        model = RewardModel(r_stay=largest, r_move=0.0, r_infeasible=-largest / 2)
    else:
        model = RewardModel(r_stay=largest / 2, r_move=0.0, r_infeasible=-largest)
    notes = _compile(model._key).limit + offset
    if not 2 <= notes <= sys.maxsize:
        return
    score = SimpleNamespace(pitches=_Notes(notes))
    if largest > _FLOAT_MAX / (4 * (notes - 1)):   # the bound as a float expression
        message = f"rewards up to {largest:g} in size over {notes} notes can overflow float64 totals"
        with pytest.raises(ScoreSizeError, match=f"^{re.escape(message)}$"):
            block_index(score, model)
    else:
        assert block_index(score, model) == [2]


_NO_NUMPY = """
import struct, sys, types
sys.modules["numpy"] = None
package = types.ModuleType("pianofinger")
package.__path__ = [sys.argv[1]]
sys.modules["pianofinger"] = package
from pianofinger.reward import RewardModel, reward_rows
from pianofinger.score import Score
model = RewardModel(1.5, r_stay=0.3, r_move=-0.7, r_infeasible=-9.1)
score = Score([int(p) for p in sys.argv[2].split()], 1)
p = score.pitches
rows = reward_rows(score, model)
for t in range(len(p) - 1):
    for f in range(1, 6):
        for g in range(1, 6):
            cell, rule = rows[t][f - 1][g - 1], model.reward((f, p[t], p[t + 1]), g)
            assert struct.pack("d", cell) == struct.pack("d", rule), (t, f, g)
print(len(p) - 1)
"""


def test_the_reward_tables_need_no_numpy():
    # the package's __init__ imports the learner, so the two modules load bare
    ex4 = build_experiment("EX4").score
    assert ex4.first_finger == 1
    run = subprocess.run([sys.executable, "-c", _NO_NUMPY, str(Path(reward.__file__).parent),
                          " ".join(map(str, ex4.pitches))], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"{len(ex4) - 1}\n"


def test_reward_table_rejects_rewards_whose_path_totals_overflow():
    score = Score([60, 62, 64, 65], 1)   # 3 transitions
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


_STEPS = Score([60, 62, 62, 67, 55, 60], 1)


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
    score = Score(pitches, 1)
    # blocks past 7 + tolerance semitones repeat the edge one: tolerances on
    # either side of an integer, up to past the widest interval
    models = [MODEL] + [RewardModel(tolerance, r_stay=0.75, r_move=-0.3, r_infeasible=-2.5)
                        for tolerance in (0.0, 0.5, 1.0, 2.0, 2.5, 7.0, 30.0, 78.5, 79.0, 80.0,
                                          86.5, 87.0, 90.0, math.inf)]
    for model in models:
        expected = _reward_loop(score, model).tobytes()
        assert _table(score, model).tobytes() == expected
        first_block = expected[:25 * 8]   # a step up by one semitone
        assert _table(Score([60, 61], 1), model).tobytes() == first_block

