"""The five benchmark melodies and helpers to run/export experiments.

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
from typing import Optional

from .agent import EpisodeRecord, QNetwork, TrainConfig, greedy_rollout, train
from .env import FingeringEnv, StateEncoding
from .oracle import FingeringError, dp_optimal
from .reward import RewardModel
from .score import FINGERS, Score, read_text

# Baseline training overrides for the long in-position melodies.  EX3 and
# EX5 judge the learning curve itself (the smoothed training reward must
# approach the oracle), which needs a calmer tail than the snappy global
# defaults give: a gentler step size, a slightly faster target refresh,
# and exploration annealed all the way to zero so the late-episode reward
# reflects the learned policy rather than exploration noise.
_CURVE = {"learning_rate": 0.06, "target_sync": 75, "epsilon_end": 0.0}

# id: (pitches, first finger, encoding, baseline training config)
_EXPERIMENTS = {
    "EX1": ([60] * 8, 3, "88", TrainConfig(episodes=1000)),
    "EX2": ([60, 62, 64, 65, 67, 67, 65, 64, 62, 60], 1, "range",
            TrainConfig(episodes=100)),
    "EX3": ([64, 64, 65, 67, 67, 65, 64, 62, 60, 60, 62, 64, 64, 62, 62], 3, "range",
            TrainConfig(episodes=200, **_CURVE)),
    "EX4": ([60, 62, 64, 65, 67, 69, 71, 72, 72, 71, 69, 67, 65, 64, 62, 60], 1, "range",
            TrainConfig(episodes=5000)),
    "EX5": ([60, 62, 64, 65, 64, 62, 60, 62, 64, 65, 67, 69, 71, 72,
             71, 72, 72, 71, 69, 67, 65, 64, 62, 60], 1, "range",
            TrainConfig(episodes=500, **_CURVE)),
}
EXPERIMENT_IDS = tuple(_EXPERIMENTS)
ENCODINGS = ("88", "range")


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    score: Score
    episodes: int
    encoding: str   # "88" or "range"


def _entry(exp_id: str):
    if exp_id not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {exp_id!r}, expected one of {EXPERIMENT_IDS}")
    return _EXPERIMENTS[exp_id]


def default_train_config(exp_id: str, seed: int = 0) -> TrainConfig:
    """The bundled experiment's baseline training configuration."""
    return dataclasses.replace(_entry(exp_id)[3], seed=seed)


def build_experiment(exp_id: str) -> ExperimentSpec:
    pitches, first_finger, encoding, _ = _entry(exp_id)
    return ExperimentSpec(
        id=exp_id,
        score=Score.from_pitches(pitches, first_finger, name=exp_id),
        episodes=default_train_config(exp_id).episodes,
        encoding=encoding,
    )


def encoding_for(score: Score, mode: str) -> StateEncoding:
    if mode == "88":
        return StateEncoding.full_piano()
    if mode == "range":
        return StateEncoding.for_score(score)
    raise ValueError(f"unknown encoding mode {mode!r}, expected one of {ENCODINGS}")


@dataclass(frozen=True)
class RunResult:
    records: list[EpisodeRecord]
    fingering: list[int]
    total_reward: float
    oracle_fingering: list[int]
    oracle_total: float
    gap: float
    rollout_totals: list[float]   # empty unless track_rollouts was set
    net: QNetwork


def run(spec: ExperimentSpec, train_config: Optional[TrainConfig] = None,
        reward_model: Optional[RewardModel] = None,
        track_rollouts: bool = False) -> RunResult:
    """Train on one melody and compare the greedy rollout against the exact
    optimum.

    Without ``train_config`` a bundled experiment trains at its baseline
    (``default_train_config``) and any other spec at the global defaults
    for ``spec.episodes`` episodes.
    """
    model = reward_model if reward_model is not None else RewardModel()
    env = FingeringEnv(spec.score, reward_model=model,
                       encoding=encoding_for(spec.score, spec.encoding))
    config = train_config
    if config is None:
        config = (default_train_config(spec.id) if spec.id in _EXPERIMENTS
                  else TrainConfig(episodes=spec.episodes))
    rollout_totals: list[float] = []
    hook = None
    if track_rollouts:
        def hook(_episode: int, net: QNetwork) -> None:
            rollout_totals.append(greedy_rollout(net, env)[1])
    net, records = train(env, config, episode_hook=hook)
    fingering, total = greedy_rollout(net, env)
    oracle_fingering, oracle_total = dp_optimal(spec.score, model)
    return RunResult(
        records=records,
        fingering=fingering,
        total_reward=total,
        oracle_fingering=oracle_fingering,
        oracle_total=oracle_total,
        gap=oracle_total - total,
        rollout_totals=rollout_totals,
        net=net,
    )


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
    """Write '<pitch> <finger>' per note."""
    if len(fingering) != len(score):
        raise FingeringError(
            f"fingering length {len(fingering)} != score length {len(score)}"
        )
    path = Path(path)
    lines = [f"{p} {f}" for p, f in zip(score.pitches, fingering)]
    path.write_text("\n".join(lines) + "\n")


def read_fingering(path) -> list[tuple[int, int]]:
    """Read a '<pitch> <finger>' file back as (pitch, finger) pairs."""
    pairs: list[tuple[int, int]] = []
    text = read_text(path, "fingering file", FingeringError)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FingeringError(
                f"line {line_no}: expected '<pitch> <finger>', got {raw!r}"
            )
        try:
            pitch, finger = int(parts[0]), int(parts[1])
        except ValueError:
            raise FingeringError(
                f"line {line_no}: expected two integers, got {raw!r}"
            ) from None
        if finger not in FINGERS:
            raise FingeringError(f"line {line_no}: finger {finger} out of range 1-5")
        pairs.append((pitch, finger))
    return pairs
