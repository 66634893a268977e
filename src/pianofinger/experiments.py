"""The five benchmark melodies, and the history and fingering files.

A run is one ``ExperimentSpec``: a score, its state encoding and its
``TrainConfig``.  ``_EXPERIMENTS`` holds the five bundled specs, keyed by
score name, each with its baseline config; the CLI makes a spec for a
score file too, and layers a config file and flags over either.

EX1  repeated middle C, one finger should hold          (full-keyboard encoding)
EX2  C-major scale up and back, the classic 1-5 arch    (melodic-range encoding)
EX3  the opening phrase of "Ode to Joy"                 (melodic-range encoding)
EX4  full octave scale up and down, forces relocations  (melodic-range encoding)
EX5  a turn figure feeding into the octave climb with a
     trailing echo, mixing stays and forced relocations (melodic-range encoding)
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .agent import TrainConfig
from .env import StateEncoding
from .oracle import FingeringError, _validate_fingering
from .score import Score, as_finger, integer, lines, read_text

# Baseline training overrides for the long in-position melodies.  EX3 and
# EX5 judge the learning curve itself (the smoothed training reward must
# approach the oracle), which needs a calmer tail than the snappy global
# defaults give: a gentler step size, a slightly faster target refresh,
# and exploration annealed all the way to zero so the late-episode reward
# reflects the learned policy rather than exploration noise.
_CURVE = {"learning_rate": 0.06, "target_sync": 75, "epsilon_end": 0.0}


@dataclass(frozen=True)
class ExperimentSpec:
    """One run: the score, its state encoding ("88" or "range") and its
    training configuration."""
    score: Score
    encoding: str
    config: TrainConfig


_EXPERIMENTS = {spec.score.name: spec for spec in [
    ExperimentSpec(Score.from_pitches([60] * 8, 3, name="EX1"), "88",
                   TrainConfig(episodes=1000)),
    ExperimentSpec(Score.from_pitches([60, 62, 64, 65, 67, 67, 65, 64, 62, 60], 1, name="EX2"),
                   "range", TrainConfig(episodes=100)),
    ExperimentSpec(Score.from_pitches([64, 64, 65, 67, 67, 65, 64, 62, 60, 60, 62, 64, 64, 62,
                                       62], 3, name="EX3"),
                   "range", TrainConfig(episodes=200, **_CURVE)),
    ExperimentSpec(Score.from_pitches([60, 62, 64, 65, 67, 69, 71, 72, 72, 71, 69, 67, 65, 64,
                                       62, 60], 1, name="EX4"),
                   "range", TrainConfig(episodes=5000)),
    ExperimentSpec(Score.from_pitches([60, 62, 64, 65, 64, 62, 60, 62, 64, 65, 67, 69, 71, 72,
                                       71, 72, 72, 71, 69, 67, 65, 64, 62, 60], 1, name="EX5"),
                   "range", TrainConfig(episodes=500, **_CURVE)),
]}
EXPERIMENT_IDS = tuple(_EXPERIMENTS)
ENCODINGS = ("88", "range")


def build_experiment(exp_id: str) -> ExperimentSpec:
    """The bundled experiment's score, encoding and baseline training config."""
    if exp_id not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {exp_id!r}, expected one of {EXPERIMENT_IDS}")
    return _EXPERIMENTS[exp_id]


def default_train_config(exp_id: str, seed: int = 0) -> TrainConfig:
    """The bundled experiment's baseline training configuration."""
    return dataclasses.replace(build_experiment(exp_id).config, seed=seed)


def encoding_for(score: Score, mode: str) -> StateEncoding:
    if mode == "88":
        return StateEncoding.full_piano()
    if mode == "range":
        return StateEncoding.for_score(score)
    raise ValueError(f"unknown encoding mode {mode!r}, expected one of {ENCODINGS}")


def export_history(records, path) -> None:
    """Write the per-episode log as CSV: episode,total_reward,epsilon,mean_loss."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "total_reward", "epsilon", "mean_loss"])
        for rec in records:
            writer.writerow([
                rec.episode,
                f"{rec.total_reward:.6f}",
                f"{rec.epsilon:.6f}",
                f"{rec.mean_loss:.6f}",
            ])


def export_fingering(score: Score, fingering, path) -> None:
    """Write '<pitch> <finger>' per note of a fingering ``evaluate_fingering``
    accepts, each entry as the finger it equals (``2.0`` as 2, ``True`` as 1)."""
    rows = [f"{p} {i + 1}" for p, i in zip(score.pitches, _validate_fingering(score, fingering))]
    Path(path).write_text("\n".join(rows) + "\n")


def read_fingering(path) -> list[tuple[int, int]]:
    """Read a '<pitch> <finger>' file back as (pitch, finger) pairs."""
    pairs: list[tuple[int, int]] = []
    for line_no, line in lines(read_text(path, "fingering file", FingeringError)):
        parts = line.split()
        if len(parts) != 2:
            raise FingeringError(f"line {line_no}: expected '<pitch> <finger>', got {line!r}")
        try:
            pitch, finger = integer(parts[0]), integer(parts[1])
        except ValueError:
            raise FingeringError(f"line {line_no}: expected two integers, got {line!r}") from None
        pairs.append((pitch, as_finger(finger, f"line {line_no}: field 2", FingeringError)))
    return pairs
