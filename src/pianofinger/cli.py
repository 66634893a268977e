"""Command-line front end: solve / train / eval / mirror.

Exit codes: 0 success, 1 usage error, 2 input or parse error, 3 training
numeric failure, 141 (128 + SIGPIPE) stdout's reader went away.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .agent import TrainConfig, TrainingError, greedy_rollout, train
from .env import FingeringEnv
from .experiments import (
    ENCODINGS,
    EXPERIMENT_IDS,
    ExperimentSpec,
    build_experiment,
    encoding_for,
    export_fingering,
    export_history,
    read_fingering,
)
from .oracle import FingeringError, dp_optimal, evaluate_fingering, solve
from .reward import RewardModel
from .score import (Score, ScoreError, integer, lines, mirror_for_left_hand, number, parse_score,
                    read_text, serialize_score)

# a score file trains at these settings unless a config file or flag says otherwise
_FILE_CONFIG = TrainConfig(episodes=500)

_TRAIN_FIELDS = dataclasses.fields(TrainConfig)
_REWARD_FIELDS = dataclasses.fields(RewardModel)
# config key -> value reader for every TrainConfig and RewardModel field
# (the one other key, `encoding`, is checked against ENCODINGS)
_CONFIG_KEYS = {f.name: {"int": integer, "float": number}[f.type]
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
    for line_no, line in lines(read_text(path, "config file", ConfigError)):
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key=value, got {line!r}")
        key, value = map(str.strip, line.split("=", 1))
        if key == "encoding":
            if value not in ENCODINGS:
                raise ConfigError(f"config line {line_no}: encoding must be "
                                  f"{' or '.join(map(repr, ENCODINGS))}, got {value!r}")
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


def _read_score(path) -> Score:
    path = Path(path)
    return parse_score(read_text(path, "score file"), name=path.stem)


def _configure(args) -> tuple[ExperimentSpec, RewardModel]:
    """The run and its reward model: bundled experiment N or the score file,
    then the config file over it, then the flags over that."""
    if args.ex is not None:
        spec = build_experiment(f"EX{args.ex}")
    elif args.score is None:
        raise ConfigError("a score file or --ex N is required")
    else:
        spec = ExperimentSpec(_read_score(args.score), "range", _FILE_CONFIG)
    values = read_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if value is not None and (key in _CONFIG_KEYS or key == "encoding"))
    reward_kwargs = {f.name: values.pop(f.name) for f in _REWARD_FIELDS if f.name in values}
    try:
        model = RewardModel(**reward_kwargs)
        if values:   # a TrainConfig checks every field: rebuild it only when overridden
            encoding = values.pop("encoding", spec.encoding)
            spec = ExperimentSpec(spec.score, encoding, dataclasses.replace(spec.config, **values))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec, model


def _fingering_text(fingering) -> str:
    """``" ".join(map(str, fingering))``: the fingers in the even bytes of a zeroed buffer."""
    text = bytearray(2 * len(fingering) - 1)
    text[::2] = fingering
    return text.translate(bytes.maketrans(b"\0\1\2\3\4\5", b" 12345")).decode()


@functools.lru_cache(maxsize=1)   # parsing keeps no state in the parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="pianofinger",
                     description="Learn right-hand piano fingerings for "
                                 "monophonic scores.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_score_arg(p):
        source = p.add_mutually_exclusive_group()   # giving both is a usage error
        source.add_argument("score", nargs="?", default=None, help="path to a score file")
        source.add_argument("--ex", type=integer, choices=range(1, len(EXPERIMENT_IDS) + 1),
                            metavar="N", help="use bundled experiment N instead of a file")

    p_solve = sub.add_parser("solve", help="exact optimal fingering via dynamic programming")
    add_score_arg(p_solve)
    p_solve.add_argument("--config", help="key=value config file")

    p_train = sub.add_parser("train", help="train the Q-network on a score")
    add_score_arg(p_train)
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--seeds", type=integer, default=1, metavar="K",
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
    p_mirror.add_argument("--axis", type=integer, required=True,
                          help="pitch to reflect around")

    return parser


def _cmd_solve(args) -> int:
    spec, model = _configure(args)
    score = spec.score
    fingering, total, changes = solve(score, model)
    sys.stdout.write(f"score: {score.name} ({len(score)} notes)\n"
                     f"fingering: {_fingering_text(fingering)}\n"
                     f"total_reward: {total:.6f}\n"
                     f"position_changes: {'n/a' if changes is None else changes}\n")
    return 0


def _cmd_train(args) -> int:
    spec, model = _configure(args)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    score, config = spec.score, spec.config
    oracle_fingering, oracle_total = dp_optimal(score, model)
    env = FingeringEnv(score, model, encoding_for(score, spec.encoding))
    out_dir = None
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_fingering(score, oracle_fingering, out_dir / "oracle_fingering.txt")

    print(f"score: {score.name} ({len(score)} notes), encoding={spec.encoding}, "
          f"episodes={config.episodes}")
    print(f"oracle: " + _fingering_text(oracle_fingering)
          + f"  total {oracle_total:.6f}")
    for seed in range(config.seed, config.seed + args.seeds):
        stage = ""
        try:
            net, records = train(env, dataclasses.replace(config, seed=seed))
            stage = "greedy rollout after training: "
            fingering, total = greedy_rollout(net, env)
        except TrainingError as exc:
            print(f"training error: seed {seed}: {stage}{exc}", file=sys.stderr)
            return 3
        changes = evaluate_fingering(score, fingering, model)[1]
        print(f"seed {seed}: rollout " + _fingering_text(fingering)
              + f"  total {total:.6f}  gap {oracle_total - total:.6f}"
              + f"  changes {'n/a' if changes is None else changes}")
        if out_dir is not None:
            export_history(records, out_dir / f"history_seed{seed}.csv")
            export_fingering(score, fingering, out_dir / f"fingering_seed{seed}.txt")
    return 0


def _cmd_eval(args) -> int:
    score = _read_score(args.score)
    pairs = read_fingering(args.fingering)
    if len(pairs) != len(score):
        raise FingeringError(f"fingering file pitches do not match the score: "
                             f"{len(pairs)} notes in the file, {len(score)} in the score")
    for i, ((pitch, _), expected) in enumerate(zip(pairs, score.pitches), start=1):
        if pitch != expected:
            raise FingeringError(f"fingering file pitches do not match the score: note {i} "
                                 f"is {pitch} in the file, {expected} in the score")
    fingering = [f for _, f in pairs]
    total, changes = evaluate_fingering(score, fingering)
    print(f"total_reward: {total:.6f}")
    print(f"feasible: {'false' if changes is None else 'true'}")
    print(f"position_changes: {'n/a' if changes is None else changes}")
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
        code = handlers[args.command](args)
        sys.stdout.flush()   # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the interpreter's last flush stays
        # silent, and exit as a process stopped by SIGPIPE does
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 141
    except (ScoreError, ConfigError, FingeringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
