"""Command-line front end: solve / train / eval / mirror.

Exit codes: 0 success, 1 usage error, 2 input or parse error, 3 training
numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

from .agent import TrainConfig, TrainingError
from .env import EncodingError, FingeringEnv
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    build_experiment,
    default_train_config,
    encoding_for,
    export_fingering,
    export_history,
    read_fingering,
)
from .oracle import (
    FingeringError,
    count_position_changes,
    dp_optimal,
    fingering_rewards,
    fingering_total_reward,
)
from .reward import RewardModel
from .score import Score, ScoreError, mirror_for_left_hand, parse_score, serialize_score

DEFAULT_EPISODES = 500
DEFAULT_ENCODING = "range"

_CONFIG_INT_KEYS = ("episodes", "replay_capacity", "batch_size", "target_sync", "seed")
_CONFIG_FLOAT_KEYS = (
    "gamma", "epsilon_start", "epsilon_end", "epsilon_decay_fraction",
    "learning_rate", "r_stay", "r_move", "r_infeasible", "anchor_tolerance",
)
_CONFIG_STR_KEYS = ("encoding",)


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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _CONFIG_INT_KEYS:
                values[key] = int(value)
            elif key in _CONFIG_FLOAT_KEYS:
                values[key] = float(value)
            elif key in _CONFIG_STR_KEYS:
                if value not in ("88", "range"):
                    raise ConfigError(
                        f"config line {line_no}: encoding must be '88' or 'range', got {value!r}"
                    )
                values[key] = value
            else:
                raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(
                f"config line {line_no}: bad value for {key}: {value!r}"
            ) from None
    return values


def _split_config(values: dict):
    """Split file values into (TrainConfig kwargs, RewardModel kwargs, encoding)."""
    train_kwargs = {k: v for k, v in values.items()
                    if k in {f.name for f in dataclasses.fields(TrainConfig)}}
    reward_kwargs = {k: v for k, v in values.items()
                     if k in ("r_stay", "r_move", "r_infeasible", "anchor_tolerance")}
    return train_kwargs, reward_kwargs, values.get("encoding")


def _load_score(args) -> tuple[Score, Optional[ExperimentSpec]]:
    """Resolve the score argument (file path or --ex N)."""
    if getattr(args, "ex", None) is not None:
        spec = build_experiment(f"EX{args.ex}")
        return spec.score, spec
    if args.score is None:
        raise ConfigError("a score file or --ex N is required")
    path = Path(args.score)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScoreError(f"cannot read score file {path}: {exc}") from exc
    return parse_score(text, name=path.stem), None


def _build_parser() -> _Parser:
    parser = _Parser(prog="pianofinger",
                     description="Learn right-hand piano fingerings for "
                                 "monophonic scores.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_score_arg(p, optional=True):
        p.add_argument("score", nargs="?" if optional else None, default=None,
                       help="path to a score file")
        p.add_argument("--ex", type=int, choices=range(1, len(EXPERIMENT_IDS) + 1),
                       metavar="N", help="use bundled experiment N instead of a file")

    p_solve = sub.add_parser("solve", help="exact optimal fingering via dynamic programming")
    add_score_arg(p_solve)
    p_solve.add_argument("--config", help="key=value config file")

    p_train = sub.add_parser("train", help="train the Q-network on a score")
    add_score_arg(p_train)
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--episodes", type=int, help="training episodes")
    p_train.add_argument("--seed", type=int, help="base RNG seed")
    p_train.add_argument("--seeds", type=int, default=1, metavar="K",
                         help="run K seeds (seed, seed+1, ...)")
    p_train.add_argument("--encoding", choices=("88", "range"),
                         help="state encoding: full keyboard or melodic range")
    p_train.add_argument("--out-dir", help="write history CSVs and fingering files here")
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--epsilon-start", type=float, dest="epsilon_start")
    p_train.add_argument("--epsilon-end", type=float, dest="epsilon_end")
    p_train.add_argument("--epsilon-decay-fraction", type=float,
                         dest="epsilon_decay_fraction")
    p_train.add_argument("--replay-capacity", type=int, dest="replay_capacity")
    p_train.add_argument("--batch-size", type=int, dest="batch_size")
    p_train.add_argument("--target-sync", type=int, dest="target_sync")
    p_train.add_argument("--learning-rate", type=float, dest="learning_rate")

    p_eval = sub.add_parser("eval", help="score a fingering file against a score")
    p_eval.add_argument("score", help="path to a score file")
    p_eval.add_argument("fingering", help="path to a '<pitch> <finger>' file")

    p_mirror = sub.add_parser("mirror", help="reflect a score for left-hand use")
    p_mirror.add_argument("score", help="path to a score file")
    p_mirror.add_argument("--axis", type=int, required=True,
                          help="pitch to reflect around")

    return parser


def _cmd_solve(args) -> int:
    score, _ = _load_score(args)
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
    print("fingering: " + " ".join(str(f) for f in fingering))
    print(f"total_reward: {total:.6f}")
    print(f"position_changes: {changes}")
    return 0


def _cmd_train(args) -> int:
    score, spec = _load_score(args)
    file_values = read_config_file(args.config) if args.config else {}
    train_kwargs, reward_kwargs, file_encoding = _split_config(file_values)

    # defaults <- experiment baseline <- config file <- explicit flags
    if spec is None:
        base = {"episodes": DEFAULT_EPISODES}
        encoding_mode = DEFAULT_ENCODING
    else:
        base = {f.name: getattr(default_train_config(spec.id), f.name)
                for f in dataclasses.fields(TrainConfig)}
        encoding_mode = spec.encoding
    base.update(train_kwargs)
    if file_encoding is not None:
        encoding_mode = file_encoding
    if args.episodes is not None:
        base["episodes"] = args.episodes
    if args.encoding is not None:
        encoding_mode = args.encoding
    for name in ("gamma", "epsilon_start", "epsilon_end", "epsilon_decay_fraction",
                 "replay_capacity", "batch_size", "target_sync", "learning_rate",
                 "seed"):
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value

    try:
        model = RewardModel(**reward_kwargs)
        base_config = TrainConfig(**base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    from .agent import greedy_rollout, train as train_loop

    encoding = encoding_for(score, encoding_mode)
    env = FingeringEnv(score, reward_model=model, encoding=encoding)
    oracle_fingering, oracle_total = dp_optimal(score, model)

    out_dir = None
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_fingering(score, oracle_fingering, out_dir / "oracle_fingering.txt")

    print(f"score: {score.name} ({len(score)} notes), encoding={encoding_mode}, "
          f"episodes={base_config.episodes}")
    print(f"oracle: " + " ".join(str(f) for f in oracle_fingering)
          + f"  total {oracle_total:.6f}")
    for k in range(args.seeds):
        seed = base_config.seed + k
        config = dataclasses.replace(base_config, seed=seed)
        net, records = train_loop(env, config)
        fingering, total = greedy_rollout(net, env)
        gap = oracle_total - total
        print(f"seed {seed}: rollout " + " ".join(str(f) for f in fingering)
              + f"  total {total:.6f}  gap {gap:.6f}")
        if out_dir is not None:
            export_history(records, out_dir / f"history_seed{seed}.csv")
            export_fingering(score, fingering, out_dir / f"fingering_seed{seed}.txt")
    return 0


def _cmd_eval(args) -> int:
    path = Path(args.score)
    try:
        score = parse_score(path.read_text(), name=path.stem)
    except OSError as exc:
        raise ScoreError(f"cannot read score file {path}: {exc}") from exc
    pairs = read_fingering(args.fingering)
    if [p for p, _ in pairs] != list(score.pitches):
        raise FingeringError(
            "fingering file pitches do not match the score"
        )
    fingering = [f for _, f in pairs]
    total = fingering_total_reward(score, fingering)
    # the reward ordering is strict: r_infeasible marks exactly the crossings
    feasible = not (fingering_rewards(score, fingering) == RewardModel().r_infeasible).any()
    print(f"total_reward: {total:.6f}")
    print(f"feasible: {'true' if feasible else 'false'}")
    if feasible:
        print(f"position_changes: {count_position_changes(score, fingering)}")
    else:
        print("position_changes: n/a")
    return 0


def _cmd_mirror(args) -> int:
    path = Path(args.score)
    try:
        score = parse_score(path.read_text(), name=path.stem)
    except OSError as exc:
        raise ScoreError(f"cannot read score file {path}: {exc}") from exc
    mirrored = mirror_for_left_hand(score, args.axis)
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
