"""Command-line front end: solve / train / eval / mirror.

Exit codes: 0 success, 1 usage error, 2 input or parse error, 3 training
numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .agent import TrainConfig, TrainingError
from .env import EncodingError
from .experiments import (
    ENCODINGS,
    EXPERIMENT_IDS,
    ExperimentSpec,
    build_experiment,
    default_train_config,
    export_fingering,
    export_history,
    read_fingering,
    run,
)
from .oracle import FingeringError, count_position_changes, dp_optimal, fingering_total_reward
from .reward import RewardModel, reward_table
from .score import Score, ScoreError, mirror_for_left_hand, parse_score, read_text, serialize_score

DEFAULT_EPISODES = 500
DEFAULT_ENCODING = "range"

_TRAIN_FIELDS = dataclasses.fields(TrainConfig)
_REWARD_FIELDS = dataclasses.fields(RewardModel)
# config key -> value parser for every TrainConfig and RewardModel field
# (the one other key, `encoding`, is checked against ENCODINGS)
_CONFIG_KEYS = {f.name: {"int": int, "float": float}[f.type]
                for f in _TRAIN_FIELDS + _REWARD_FIELDS}


class ConfigError(ValueError):
    """Raised for malformed config files or invalid option values."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def read_config_file(path) -> dict:
    """Parse a key=value config file with # comments."""
    values: dict = {}
    text = read_text(path, "config file", ConfigError)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "encoding":
            if value not in ENCODINGS:
                raise ConfigError(
                    f"config line {line_no}: encoding must be '88' or 'range', got {value!r}"
                )
            values[key] = value
        elif key in _CONFIG_KEYS:
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ConfigError(
                    f"config line {line_no}: bad value for {key}: {value!r}"
                ) from None
        else:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
    return values


def _split_config(values: dict):
    """Split file values into (TrainConfig kwargs, RewardModel kwargs, encoding)."""
    train_kwargs = {f.name: values[f.name] for f in _TRAIN_FIELDS if f.name in values}
    reward_kwargs = {f.name: values[f.name] for f in _REWARD_FIELDS if f.name in values}
    return train_kwargs, reward_kwargs, values.get("encoding")


def _read_score(path) -> Score:
    path = Path(path)
    return parse_score(read_text(path, "score file"), name=path.stem)


def _load_spec(args) -> ExperimentSpec:
    """Bundled experiment N, or the score file at the CLI's defaults."""
    if args.ex is not None:
        return build_experiment(f"EX{args.ex}")
    if args.score is None:
        raise ConfigError("a score file or --ex N is required")
    score = _read_score(args.score)
    return ExperimentSpec(id=score.name, score=score, episodes=DEFAULT_EPISODES,
                          encoding=DEFAULT_ENCODING)


def _position_changes(score: Score, fingering, model: RewardModel, table=None) -> str:
    """The fingering's position-change count, or 'n/a' if a transition is infeasible."""
    try:
        return str(count_position_changes(score, fingering, model, table=table))
    except FingeringError:
        return "n/a"


@functools.lru_cache(maxsize=1)   # parsing keeps no state in the parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="pianofinger",
                     description="Learn right-hand piano fingerings for "
                                 "monophonic scores.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_score_arg(p):
        source = p.add_mutually_exclusive_group()   # giving both is a usage error
        source.add_argument("score", nargs="?", default=None, help="path to a score file")
        source.add_argument("--ex", type=int, choices=range(1, len(EXPERIMENT_IDS) + 1),
                            metavar="N", help="use bundled experiment N instead of a file")

    p_solve = sub.add_parser("solve", help="exact optimal fingering via dynamic programming")
    add_score_arg(p_solve)
    p_solve.add_argument("--config", help="key=value config file")

    p_train = sub.add_parser("train", help="train the Q-network on a score")
    add_score_arg(p_train)
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--seeds", type=int, default=1, metavar="K",
                         help="run K seeds (seed, seed+1, ...)")
    p_train.add_argument("--encoding", choices=ENCODINGS,
                         help="state encoding: full keyboard or melodic range")
    p_train.add_argument("--out-dir", help="write history CSVs and fingering files here")
    for f in _TRAIN_FIELDS:
        p_train.add_argument("--" + f.name.replace("_", "-"), type=_CONFIG_KEYS[f.name],
                             help=f"TrainConfig.{f.name}")

    p_eval = sub.add_parser("eval", help="score a fingering file against a score")
    p_eval.add_argument("score", help="path to a score file")
    p_eval.add_argument("fingering", help="path to a '<pitch> <finger>' file")

    p_mirror = sub.add_parser("mirror", help="reflect a score for left-hand use")
    p_mirror.add_argument("score", help="path to a score file")
    p_mirror.add_argument("--axis", type=int, required=True,
                          help="pitch to reflect around")

    return parser


def _cmd_solve(args) -> int:
    score = _load_spec(args).score
    reward_kwargs = {}
    if args.config:
        _, reward_kwargs, _ = _split_config(read_config_file(args.config))
    try:
        model = RewardModel(**reward_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fingering, total = dp_optimal(score, model)
    changes = count_position_changes(score, fingering, model)
    print(f"score: {score.name} ({len(score)} notes)")
    print("fingering: " + " ".join(map(str, fingering)))
    print(f"total_reward: {total:.6f}")
    print(f"position_changes: {changes}")
    return 0


def _cmd_train(args) -> int:
    spec = _load_spec(args)
    file_values = read_config_file(args.config) if args.config else {}
    train_kwargs, reward_kwargs, file_encoding = _split_config(file_values)

    # defaults <- experiment baseline <- config file <- explicit flags
    if args.ex is None:
        base = {"episodes": spec.episodes}
    else:
        base = dataclasses.asdict(default_train_config(spec.id))
    base.update(train_kwargs)
    base.update((f.name, getattr(args, f.name)) for f in _TRAIN_FIELDS
                if getattr(args, f.name) is not None)
    spec = dataclasses.replace(spec, encoding=args.encoding or file_encoding or spec.encoding)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    try:
        model = RewardModel(**reward_kwargs)
        base_config = TrainConfig(**base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    score = spec.score
    oracle_fingering, oracle_total = dp_optimal(score, model)
    out_dir = None
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_fingering(score, oracle_fingering, out_dir / "oracle_fingering.txt")

    print(f"score: {score.name} ({len(score)} notes), encoding={spec.encoding}, "
          f"episodes={base_config.episodes}")
    print(f"oracle: " + " ".join(map(str, oracle_fingering))
          + f"  total {oracle_total:.6f}")
    for seed in range(base_config.seed, base_config.seed + args.seeds):
        result = run(spec, dataclasses.replace(base_config, seed=seed), model)
        print(f"seed {seed}: rollout " + " ".join(map(str, result.fingering))
              + f"  total {result.total_reward:.6f}  gap {result.gap:.6f}"
              + f"  changes {_position_changes(score, result.fingering, model)}")
        if out_dir is not None:
            export_history(result.records, out_dir / f"history_seed{seed}.csv")
            export_fingering(score, result.fingering, out_dir / f"fingering_seed{seed}.txt")
    return 0


def _cmd_eval(args) -> int:
    score = _read_score(args.score)
    pairs = read_fingering(args.fingering)
    if [p for p, _ in pairs] != list(score.pitches):
        raise FingeringError(
            "fingering file pitches do not match the score"
        )
    fingering = [f for _, f in pairs]
    model = RewardModel()
    table = reward_table(score, model)
    total = fingering_total_reward(score, fingering, model, table=table)
    changes = _position_changes(score, fingering, model, table)
    print(f"total_reward: {total:.6f}")
    print(f"feasible: {'false' if changes == 'n/a' else 'true'}")
    print(f"position_changes: {changes}")
    return 0


def _cmd_mirror(args) -> int:
    mirrored = mirror_for_left_hand(_read_score(args.score), args.axis)
    sys.stdout.write(serialize_score(mirrored))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "mirror": _cmd_mirror,
    }
    try:
        return handlers[args.command](args)
    except (ScoreError, ConfigError, FingeringError, EncodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
