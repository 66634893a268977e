import argparse
import contextlib
import dataclasses
import io
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pianofinger
from pianofinger import cli, oracle, reward
from pianofinger.agent import TrainConfig
from pianofinger.cli import _CONFIG_KEYS, _build_parser, main, read_config_file, ConfigError
from pianofinger.env import FingeringEnv

from strategies import score_texts


def _write_score(tmp_path, text, name="score.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY_SCORE = "# three-note study\nfirst_finger=1\nC4\n62, 0.5\nE4\n"


# --- solve -------------------------------------------------------------------

def test_solve_bundled_scale(capsys):
    assert main(["solve", "--ex", "2"]) == 0
    out = capsys.readouterr().out
    assert "fingering: 1 2 3 4 5 5 4 3 2 1" in out
    assert "total_reward: 9.000000" in out
    assert "position_changes: 0" in out


def test_solve_reports_relocations(capsys):
    assert main(["solve", "--ex", "4"]) == 0
    assert "position_changes: 2" in capsys.readouterr().out


@pytest.mark.parametrize("ex,changes", [("1", 0), ("3", 0)])
def test_solve_in_position_melodies(capsys, ex, changes):
    assert main(["solve", "--ex", ex]) == 0
    assert f"position_changes: {changes}" in capsys.readouterr().out


def test_solve_score_file(tmp_path, capsys):
    path = _write_score(tmp_path, TINY_SCORE)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "(3 notes)" in out
    assert "fingering: 1 2 3" in out
    assert "total_reward: 2.000000" in out


def test_solve_gathers_the_blocks_once_and_scores_no_fingering(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for owner, name in [(reward, "block_index"), (oracle, "block_index"), (reward, "reward_rows"),
                        (oracle, "reward_rows"), (oracle, "_rewards_along")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    walk = [60 + (t * 7) % 12 for t in range(300)]
    assert main(["solve", _write_score(tmp_path, "first_finger=1\n" + "\n".join(map(str, walk)))]) == 0
    assert "position_changes: " in capsys.readouterr().out
    assert calls == ["block_index"]


@st.composite
def _fingerings(draw):
    length = draw(st.integers(2, 3000))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(1, 6, length).tolist()


@given(_fingerings())
@example([1, 2])
@example([5] * 3000)
@settings(max_examples=50, deadline=None)
def test_fingering_text_is_the_fingers_joined_by_spaces(fingering):
    assert cli._fingering_text(fingering) == " ".join(map(str, fingering))


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_unparseable_score_exits_2(tmp_path, capsys):
    path = _write_score(tmp_path, "first_finger=1\nH4\nC4\n")
    assert main(["solve", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "train"])
@pytest.mark.parametrize("order", ["file first", "--ex first"])
def test_a_score_file_and_ex_together_are_a_usage_error(tmp_path, capsys, command, order):
    path = _write_score(tmp_path, TINY_SCORE)
    argv = [command, path, "--ex", "2"] if order == "file first" else [command, "--ex", "2", path]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = captured.err.splitlines()[-1]
    assert "--ex" in message and "score" in message and "not allowed with" in message


def test_solve_needs_a_score(capsys):
    assert main(["solve"]) == 2
    assert "required" in capsys.readouterr().err


# --- train -------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    out_dir = tmp_path / "run"
    assert main(["train", score, "--episodes", "5", "--seed", "3",
                 "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "episodes=5" in out
    assert "oracle: 1 2 3  total 2.000000" in out
    assert "seed 3: rollout" in out
    assert out.splitlines()[-1].split("  ")[-1].startswith("changes ")
    assert (out_dir / "oracle_fingering.txt").read_text() == "60 1\n62 2\n64 3\n"
    history = (out_dir / "history_seed3.csv").read_text().splitlines()
    assert history[0] == "episode,total_reward,epsilon,mean_loss"
    assert len(history) == 6
    assert history[1].startswith("0,")
    assert (out_dir / "fingering_seed3.txt").exists()


def test_train_multiple_seeds(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    out_dir = tmp_path / "run"
    assert main(["train", score, "--episodes", "3", "--seed", "1",
                 "--seeds", "2", "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "seed 1:" in out and "seed 2:" in out
    assert (out_dir / "history_seed1.csv").exists()
    assert (out_dir / "history_seed2.csv").exists()


def test_train_gap_is_the_oracle_total_less_the_rollout_total(tmp_path, capsys):
    assert main(["train", "--ex", "2", "--episodes", "8", "--out-dir", str(tmp_path)]) == 0
    oracle, seed = capsys.readouterr().out.splitlines()[1:]
    assert oracle == "oracle: 1 2 3 4 5 5 4 3 2 1  total 9.000000"
    fields = seed.split("  ")
    assert len(fields[0].split()) == 3 + 10   # "seed 0: rollout" and a finger per note
    total, gap = (float(field.split()[1]) for field in fields[1:3])
    assert gap == 9.0 - total >= 0.0
    assert len((tmp_path / "history_seed0.csv").read_text().splitlines()) == 1 + 8


def test_train_runs_a_score_file_for_the_default_episodes(tmp_path, capsys):
    assert main(["train", _write_score(tmp_path, TINY_SCORE)]) == 0
    out = capsys.readouterr().out
    assert "episodes=500" in out
    assert "oracle: 1 2 3  total 2.000000" in out


def test_train_solves_the_dp_and_builds_the_env_once_for_all_seeds(monkeypatch, capsys):
    dp_calls, env_builds = [], []
    solve = oracle.dp_optimal
    monkeypatch.setattr(cli, "dp_optimal", lambda *args: dp_calls.append(1) or solve(*args))
    build = FingeringEnv.__init__
    monkeypatch.setattr(FingeringEnv, "__init__",
                        lambda self, *args, **kwargs: env_builds.append(1)
                        or build(self, *args, **kwargs))
    assert main(["train", "--ex", "2", "--episodes", "2", "--seeds", "3"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[-3:]] == [
        "seed 0", "seed 1", "seed 2"]
    assert (len(dp_calls), len(env_builds)) == (1, 1)


def test_train_reruns_are_byte_identical(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["train", score, "--episodes", "6", "--seed", "5",
                     "--out-dir", str(d)]) == 0
    capsys.readouterr()
    for name in ("history_seed5.csv", "fingering_seed5.txt", "oracle_fingering.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_train_reports_na_changes_for_an_infeasible_rollout(tmp_path, capsys):
    # an untrained net's rollout crosses fingers on this scale
    score = _write_score(tmp_path, "first_finger=1\n60\n62\n64\n65\n67\n65\n64\n62\n60\n")
    assert main(["train", score, "--episodes", "0", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("  changes n/a")


@pytest.mark.parametrize("argv,config,value", [
    (["--seed", "-1"], None, "got -1"),
    ([], "seed=-1\n", "got -1"),
    (["--seeds", "0"], None, "--seeds must be >= 1, got 0"),
    (["--seeds", "-3"], None, "--seeds must be >= 1, got -3"),
])
def test_train_rejects_negative_seed_and_no_seeds(tmp_path, capsys, argv, config, value):
    score = _write_score(tmp_path, TINY_SCORE)
    if config is not None:
        (tmp_path / "seed.cfg").write_text(config)
        argv = argv + ["--config", str(tmp_path / "seed.cfg")]
    assert main(["train", score, "--episodes", "2"] + argv) == 2
    captured = capsys.readouterr()
    assert value in captured.err
    assert captured.out == ""


def test_train_bundled_experiment_defaults(capsys):
    # flags override the bundled episode budget; the bundled encoding holds
    assert main(["train", "--ex", "1", "--episodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "encoding=88" in out
    assert "episodes=2" in out
    assert "oracle: 3 3 3 3 3 3 3 3  total 7.000000" in out


def test_train_config_file_and_flag_precedence(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    config = tmp_path / "train.cfg"
    config.write_text(
        "# short run\n"
        "episodes = 4   # overridden by the flag below\n"
        "epsilon_end = 0.0\n"
        "learning_rate = 0.01\n"
    )
    out_dir = tmp_path / "run"
    assert main(["train", score, "--config", str(config), "--episodes", "6",
                 "--out-dir", str(out_dir)]) == 0
    assert "episodes=6" in capsys.readouterr().out
    rows = (out_dir / "history_seed0.csv").read_text().splitlines()
    assert len(rows) == 7
    # epsilon_end=0.0 from the file survives the merge: the schedule for
    # 6 episodes decays over 4.8, so the last row has fully annealed
    assert rows[-1].split(",")[2] == "0.000000"


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    config = tmp_path / "bad.cfg"
    config.write_text("episodes=3\nmomentum=0.9\n")
    assert main(["train", score, "--config", str(config)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_train_rejects_bad_config_value(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    config = tmp_path / "bad.cfg"
    config.write_text("episodes=lots\n")
    assert main(["train", score, "--config", str(config)]) == 2
    assert "bad value" in capsys.readouterr().err


def test_train_rejects_invalid_hyperparameters(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    assert main(["train", score, "--episodes", "3", "--gamma", "1.5"]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["learning_rate=nan", "learning_rate=inf",
                                  "anchor_tolerance=nan", "r_stay=nan"])
def test_train_rejects_non_finite_config_values(tmp_path, capsys, line):
    score = _write_score(tmp_path, TINY_SCORE)
    config = tmp_path / "nan.cfg"
    config.write_text(f"episodes=3\n{line}\n")
    assert main(["train", score, "--config", str(config)]) == 2
    assert line.split("=")[0] in capsys.readouterr().err


def test_train_rejects_nan_learning_rate_flag(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    assert main(["train", score, "--episodes", "3", "--learning-rate", "nan"]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_solve_rejects_nan_anchor_tolerance(tmp_path, capsys):
    config = tmp_path / "nan.cfg"
    config.write_text("anchor_tolerance=nan\n")
    assert main(["solve", "--ex", "2", "--config", str(config)]) == 2
    assert "anchor_tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["gamma=1.5", "episodes=-1"])
def test_solve_rejects_bad_training_values(tmp_path, capsys, line):
    # solve uses only the reward keys, but reads the file as train does
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    assert main(["solve", "--ex", "2", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert line.split("=")[0] in captured.err and captured.out == ""


_HUGE_REWARDS = "r_stay=1e308\nr_move=-1e308\nr_infeasible=-1.5e308\n"


@pytest.mark.parametrize("command", [["solve"], ["train", "--episodes", "3"]])
@pytest.mark.parametrize("rewards, message", [
    (_HUGE_REWARDS, "overflow float64"),
    ("r_stay=inf\nr_infeasible=-inf\n", "r_stay must be finite"),
])
def test_rewards_that_overflow_exit_2(tmp_path, capsys, command, rewards, message):
    config = tmp_path / "huge.cfg"
    config.write_text(rewards)
    assert main(command + ["--ex", "4", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_train_divergence_exits_3(tmp_path, capsys):
    score = _write_score(tmp_path, "first_finger=1\n" + "\n".join(
        ["60", "62", "64", "65", "67"] * 4) + "\n")
    code = main(["train", score, "--episodes", "200",
                 "--learning-rate", "50.0"])
    assert code == 3
    assert capsys.readouterr().err.startswith("training error:")


def _divergence_case(flags, context, error):
    # the case id names the flags and the error, without the context
    # that the message puts before it
    return pytest.param(flags, context, error, id=f"{flags}-{error}")


@pytest.mark.parametrize("flags, context, error", [
    _divergence_case(
        "--ex 4 --episodes 300 --seed 0", "seed 0: ",
        "non-finite loss or gradient (loss=inf) in episode 46, gradient step 668, layer 1"),
    # seed 4 trains to finite weights whose greedy rollout overflows
    _divergence_case(
        "--ex 1 --episodes 5 --seeds 2 --seed 3 --encoding 88 --learning-rate 1e3",
        "seed 4: greedy rollout after training: ", "non-finite Q-value inf for finger 1"),
])
def test_train_divergence_writes_one_line_to_stderr(flags, context, error):
    # the overflow that ends the run prints no numpy warning of its own
    run = subprocess.run([sys.executable, "-m", "pianofinger", "train", *flags.split()],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (3, f"training error: {context}{error}\n")


def test_train_out_of_memory_exits_2_naming_the_note_count(tmp_path):
    # a 50k-note walk over the keyboard needs a 362 MB input table, more than
    # the child's 384 MB address space holds beside the interpreter, numpy,
    # the score and its DP; the cap is set in the child only
    resource = pytest.importorskip("resource")
    notes, cap = 50_000, 384 << 20
    score = _write_score(tmp_path, "first_finger=1\n" + "".join(
        f"{21 + 7 * i % 88}\n" for i in range(notes)))
    run = subprocess.run(
        [sys.executable, "-m", "pianofinger", "train", score, "--episodes", "1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert run.returncode == 2
    assert run.stdout.splitlines()[1].startswith("oracle: ")
    assert run.stderr == f"error: seed 0: out of memory training on {notes} notes\n"


def test_solve_prints_n_a_when_the_optimum_crosses(tmp_path, capsys):
    # a mild crossing penalty makes a crossing worth one relocation fewer
    score = _write_score(tmp_path, "first_finger=5\n62\n65\n67\n64\n61\n60\n")
    config = tmp_path / "mild.cfg"
    config.write_text("r_infeasible=-1.5\n")
    assert main(["solve", score, "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "fingering: 5 2 4 3 2 1" in out
    assert "total_reward: 2.500000" in out
    assert "position_changes: n/a" in out


def test_train_batch_larger_than_replay_ring_exits_2(capsys):
    assert main(["train", "--ex", "2", "--batch-size", "50", "--replay-capacity", "20",
                 "--episodes", "30"]) == 2
    captured = capsys.readouterr()
    assert "batch_size 50 exceeds replay_capacity 20" in captured.err and captured.out == ""


def test_train_ring_larger_than_the_run_allocates_only_the_run(capsys):
    # 10**10 slots would take 75 GiB; the run pushes 270 transitions and
    # trains as it does with a ring that holds them all
    outs = []
    for capacity in ("10000000000", "10000"):
        assert main(["train", "--ex", "2", "--episodes", "30",
                     "--replay-capacity", capacity]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].err == ""


# --- eval ---------------------------------------------------------------------

def test_eval_good_fingering(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    fingering = tmp_path / "fingering.txt"
    fingering.write_text("60 1\n62 2\n64 3\n")
    assert main(["eval", score, str(fingering)]) == 0
    out = capsys.readouterr().out
    assert "total_reward: 2.000000" in out
    assert "feasible: true" in out
    assert "position_changes: 0" in out


def test_eval_config_scores_as_solve_config_does(tmp_path, capsys):
    # eval reads the reward keys as solve does: solve's fingering scores solve's total
    pitches = [60, 62, 64, 65, 67, 72]
    score = _write_score(tmp_path, "first_finger=1\n" + "\n".join(map(str, pitches)) + "\n")
    config = tmp_path / "reward.cfg"
    config.write_text("r_stay = 2.0\nr_move = -3.0\nepisodes = 9\n")
    assert main(["solve", score, "--config", str(config)]) == 0
    solved = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert solved["total_reward"] == "5.000000"
    fingering = tmp_path / "fingering.txt"
    fingering.write_text("".join(f"{p} {f}\n" for p, f in zip(pitches,
                                                             solved["fingering"].split())))
    assert main(["eval", score, str(fingering), "--config", str(config)]) == 0
    assert capsys.readouterr().out == (f"total_reward: {solved['total_reward']}\n"
                                       f"feasible: true\n"
                                       f"position_changes: {solved['position_changes']}\n")
    assert main(["eval", score, str(fingering)]) == 0   # the default model scores it lower
    assert capsys.readouterr().out.startswith("total_reward: 3.000000\n")
    config.write_text("gamma=1.5\n")   # checked as solve checks it
    assert main(["eval", score, str(fingering), "--config", str(config)]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["60 1\n62 2\n64 3\n", "60 1\n62 1\n64 1\n"])
def test_eval_reads_the_path_rewards_once(tmp_path, capsys, monkeypatch, text):
    gathers = []
    gather = oracle._rewards_along
    monkeypatch.setattr(oracle, "_rewards_along", lambda *args: gathers.append(1) or gather(*args))
    fingering = tmp_path / "fingering.txt"
    fingering.write_text(text)
    assert main(["eval", _write_score(tmp_path, TINY_SCORE), str(fingering)]) == 0
    assert len(gathers) == 1


def test_eval_infeasible_fingering(tmp_path, capsys):
    score = _write_score(tmp_path, "first_finger=2\n60\n59\n")
    fingering = tmp_path / "fingering.txt"
    fingering.write_text("60 2\n59 3\n")
    assert main(["eval", score, str(fingering)]) == 0
    out = capsys.readouterr().out
    assert "total_reward: -10.000000" in out
    assert "feasible: false" in out
    assert "position_changes: n/a" in out


def test_eval_pitch_mismatch_exits_2(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    fingering = tmp_path / "fingering.txt"
    for text in ("61 1\n62 2\n64 3\n", "60 1\n62 2\n"):   # a pitch differs; a note is missing
        fingering.write_text(text)
        assert main(["eval", score, str(fingering)]) == 2
        assert "do not match" in capsys.readouterr().err


@pytest.mark.parametrize("text,detail", [
    ("60 1\n62 2\n65 3\n", "note 3 is 65 in the file, 64 in the score"),
    ("60 1\n62 2\n", "2 notes in the file, 3 in the score"),
    ("60 1\n62 2\n64 3\n65 4\n", "4 notes in the file, 3 in the score"),
])
def test_eval_mismatch_names_the_note_or_the_counts(tmp_path, capsys, text, detail):
    fingering = tmp_path / "fingering.txt"
    fingering.write_text(text)
    assert main(["eval", _write_score(tmp_path, TINY_SCORE), str(fingering)]) == 2
    assert capsys.readouterr().err == (
        f"error: fingering file pitches do not match the score: {detail}\n")


def test_eval_bad_fingering_file_exits_2(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    fingering = tmp_path / "fingering.txt"
    fingering.write_text("60 1\n62 7\n64 3\n")
    assert main(["eval", score, str(fingering)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: field 2 must be a finger in 1..5, got 7\n")


@pytest.mark.parametrize("command", ["solve", "eval"])
@pytest.mark.parametrize("token", ["nan", "inf", "-3"])
def test_bad_duration_exits_2(tmp_path, capsys, command, token):
    score = _write_score(tmp_path, f"first_finger=1\n60\n62, {token}\n64\n")
    fingering = tmp_path / "fingering.txt"
    fingering.write_text("60 1\n62 2\n64 3\n")
    argv = [command, score] + ([str(fingering)] if command == "eval" else [])
    assert main(argv) == 2
    assert f"line 3: duration must be finite and >= 0, got '{token}'" in capsys.readouterr().err


def test_eval_long_score_in_linear_time(tmp_path, capsys):
    # a 20k-note walk fingered by the DP: eval must agree with solve, and
    # a rebuild of score.pitches per transition once made it quadratic
    rng = np.random.default_rng(0)
    pitches = np.clip(60 + np.cumsum(rng.integers(-5, 6, size=20_000)), 21, 108).tolist()
    score = _write_score(tmp_path, "first_finger=3\n" + "".join(f"{p}\n" for p in pitches))
    assert main(["solve", score]) == 0
    solved = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    fingering = tmp_path / "fingering.txt"
    fingering.write_text("".join(f"{p} {f}\n" for p, f in
                                 zip(pitches, solved["fingering"].split())))
    start = time.perf_counter()
    assert main(["eval", score, str(fingering)]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == (f"total_reward: {solved['total_reward']}\n"
                                       "feasible: true\n"
                                       f"position_changes: {solved['position_changes']}\n")
    assert elapsed < 5.0


@pytest.mark.parametrize("kind", ["score", "config", "fingering"])
def test_non_utf8_input_file_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"first_finger=1\n60\n\xff62\n")
    score = _write_score(tmp_path, TINY_SCORE)
    argv = {
        "score": ["solve", str(bad)],
        "config": ["solve", "--ex", "2", "--config", str(bad)],
        "fingering": ["eval", score, str(bad)],
    }[kind]
    assert main(argv) == 2
    assert f"error: cannot read {kind} file {bad}" in capsys.readouterr().err


def _reading(kind, path, score):
    """A command line that reads `path` as a file of `kind`, next to `score`."""
    return {"score": ["solve", str(path)],
            "config": ["solve", score, "--config", str(path)],
            "fingering": ["eval", score, str(path)]}[kind]


@pytest.mark.parametrize("kind,text,total", [
    ("score", TINY_SCORE, "2.000000"),
    ("config", "r_stay=2\n", "4.000000"),
    ("fingering", "60 1\n62 2\n64 3\n", "2.000000"),
])
def test_input_file_with_a_byte_order_mark_reads(tmp_path, capsys, kind, text, total):
    # some editors save UTF-8 with a leading byte-order mark
    path = tmp_path / "bom.txt"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert main(_reading(kind, path, _write_score(tmp_path, TINY_SCORE))) == 0
    captured = capsys.readouterr()
    assert f"total_reward: {total}\n" in captured.out and captured.err == ""


_OFF_GRAMMAR = [   # file, its text, the token the error must name
    ("score", "first_finger=1\n60\n6_0\n", "6_0"),
    ("score", "first_finger=1\n60\n٦٢\n", "٦٢"),
    ("score", "first_finger=1\n60\n６０\n", "６０"),
    ("score", "first_finger=1\n60\nC 4\n", "C 4"),
    ("score", "first_finger=1\n60\nC+4\n", "C+4"),
    ("score", "first_finger=1\n60\nC٤\n", "C٤"),
    ("score", "first_finger=١\n60\n62\n", "first_finger=١"),
    ("score", "first_finger=1\n60, 1_0\n62\n", "1_0"),
    ("config", "episodes=1_0\n", "1_0"),
    ("config", "learning_rate=٠.١\n", "٠.١"),
    ("fingering", "60 1\n62 ２\n64 3\n", "62 ２"),
]


@pytest.mark.parametrize("kind,text,token", _OFF_GRAMMAR)
def test_file_token_outside_the_grammar_exits_2(tmp_path, capsys, kind, text, token):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main(_reading(kind, path, _write_score(tmp_path, TINY_SCORE))) == 2
    captured = capsys.readouterr()
    assert repr(token) in captured.err and captured.out == ""


# str.splitlines would also end a line at the form feed and at \\x1c
@pytest.mark.parametrize("text,line,token", [("first_finger=1\n60\f62\n64\n", 2, "60\f62"),
                                             ("first_finger=1\n60\x1c\n62\nx\n", 4, "x")])
def test_score_lines_end_only_at_line_breaks(tmp_path, capsys, text, line, token):
    path = tmp_path / "score.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"line {line}: bad note token {token!r}" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["train", "--ex", "2", "--episodes", "1_0"],
                                  ["train", "--ex", "2", "--episodes", "５"],
                                  ["train", "--ex", "2", "--learning-rate", "٠.١"],
                                  ["train", "--ex", "2", "--seeds", "２"],
                                  ["solve", "--ex", "２"]])
def test_flag_token_outside_the_grammar_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    flag, token = argv[-2:]
    assert captured.err.splitlines()[-1].endswith(
        f"argument {flag}: invalid {'number' if flag == '--learning-rate' else 'integer'} "
        f"value: {token!r}")
    assert captured.out == ""


# --- mirror ---------------------------------------------------------------------

def test_mirror_writes_a_parseable_score(tmp_path, capsys):
    score = _write_score(tmp_path, "first_finger=2\n60\n62\n64\n")
    assert main(["mirror", score, "--axis", "60"]) == 0
    assert capsys.readouterr().out == "first_finger=2\n60\n58\n56\n"


def test_mirror_out_of_range_exits_2(tmp_path, capsys):
    score = _write_score(tmp_path, "first_finger=1\n21\n23\n")
    assert main(["mirror", score, "--axis", "21"]) == 2
    assert "error:" in capsys.readouterr().err


def test_mirror_requires_axis(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    with pytest.raises(SystemExit) as exc_info:
        main(["mirror", score])
    assert exc_info.value.code == 1


# --- usage / plumbing -------------------------------------------------------------

def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["transcribe"])
    assert exc_info.value.code == 1


def test_bad_ex_number_is_a_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["solve", "--ex", "9"])
    assert exc_info.value.code == 1


def test_read_config_file_types(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text(
        "episodes=10\ngamma=0.9\nencoding=88\nanchor_tolerance=3.0\nseed=4\n"
    )
    values = read_config_file(path)
    assert values == {"episodes": 10, "gamma": 0.9, "encoding": "88",
                      "anchor_tolerance": 3.0, "seed": 4}


def test_read_config_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("episodes 10\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_config_file(path)
    path.write_text("encoding=tiny\n")
    with pytest.raises(ConfigError, match="encoding"):
        read_config_file(path)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pianofinger", "solve", "--ex", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "total_reward: 7.000000" in proc.stdout
    assert "fingering: 3 3 3 3 3 3 3 3" in proc.stdout


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "pianofinger"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a real file's, for main to point at devnull."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_a_closed_stdout_exits_141_and_points_it_at_devnull(tmp_path, capsys):
    with open(tmp_path / "stdout", "w") as file:
        with contextlib.redirect_stdout(_ClosedPipe(file.fileno())):
            assert main(["train", "--ex", "2", "--episodes", "2", "--seeds", "3"]) == 141
        stat, devnull = os.fstat(file.fileno()), os.stat(os.devnull)
        assert (stat.st_dev, stat.st_ino) == (devnull.st_dev, devnull.st_ino)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_pipe_exits_141_with_nothing_on_stderr(unbuffered):
    # buffered, the pipe's close shows at main's flush; unbuffered, at the first print
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pianofinger", "train", "--ex", "2", "--episodes", "2",
             "--seeds", "3"],
            stdout=write, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


# --- the option surface ---------------------------------------------------------

def test_train_flags_are_the_train_config_fields():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices["train"]._actions for s in a.option_strings}
    fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig)}
    assert flags - {"-h", "--help"} == fields | {"--config", "--seeds", "--encoding",
                                                 "--out-dir", "--ex"}


def test_readme_config_keys_are_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert {key for cell in cells for key in re.findall(r"`(\w+)`", cell)} == {
        *_CONFIG_KEYS, "encoding"}


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("pianofinger ")]
    assert len(commands) >= 4
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_readme_library_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    solve_line = next(line for line in block.splitlines() if "print(dp_optimal(" in line)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == solve_line.split("#", 1)[1].strip()
    assert len(printed) == 2


def test_readme_root_exports_are_the_package_all():
    # the quickstart's import block, plus the names the sentence "The
    # package root exports these names and ..." adds, so a public name
    # removed or added cannot leave the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    imported = re.search(r"from pianofinger import \((.*?)\)", block, re.S).group(1)
    also = re.search(r"The package root exports these names and (.*?);", section, re.S).group(1)
    named = {*re.findall(r"\w+", imported), *re.findall(r"`(\w+)`", also)}
    assert named == set(pianofinger.__all__)


_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "88", "range", "", "lots",
                     "0x10", "1_0", "= 3", "٠.١", "５", ".5", "1e-3"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
).map(str.encode) | st.binary(max_size=6)
_CONFIG_LINES = st.builds(
    lambda key, value: key.encode() + b"=" + value,
    st.sampled_from(sorted(_CONFIG_KEYS) + ["encoding", "momentum", "Seed", ""]),
    _VALUES,
)


@given(st.lists(_CONFIG_LINES, max_size=6))
def test_solve_with_fuzzed_config_exits_0_or_2(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    path.write_bytes(b"\n".join(lines))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["solve", "--ex", "2", "--config", str(path)]) in (0, 2)


_PITCHES = st.sampled_from(["60", "62", "64", "C4", "20", "109", "x", "60.5", "",
                            "6_0", "٦٢", "６０", "C+4", "C٤", "２"])
_FINGERING_LINES = st.builds(" ".join, st.lists(
    _PITCHES | st.sampled_from(["1", "2", "3", "5", "0", "6", "-1", "nan"]), max_size=3))
# small train values only: these files and flags never ask for a long run
_SMALL_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-1, 60).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "88", "range", "", "lots"]),
)
_SMALL_CONFIG_LINES = st.builds(
    "{}={}".format, st.sampled_from(sorted(_CONFIG_KEYS) + ["encoding", "momentum"]),
    _SMALL_VALUES)
_FILES = ("score", "scale", "fingering", "config", "missing")
_COMMANDS = {   # positional files and optional flags of each command
    "solve": (["score"], ["--ex", "--config"]),
    "train": (["score"], ["--ex", "--config", "--encoding", "--seed"]),
    "eval": (["score", "fingering"], []),
    "mirror": (["score"], ["--axis"]),
}
_FLAG_VALUES = {
    "--ex": ["1", "2", "4", "0", "x", "２"],
    "--axis": ["60", "64", "100", "-5", "x", "６０"],
    "--encoding": ["88", "range", "range", "x"],
    "--seed": ["0", "3", "0", "-1", "x", "1_0"],
}


@st.composite
def _argv(draw, paths):
    """A mostly well-formed command line over the fuzzed files, with one
    usage slip in some; a `train` line caps its run at 5 episodes and 2
    seeds."""
    command = draw(st.sampled_from(["train", "solve", "mirror", "eval"]))
    positional, optional = _COMMANDS[command]
    argv = [command] + [paths[draw(st.sampled_from(
        ["score", "scale", "scale", "missing"] if kind == "score" else [kind, kind, "missing"]))]
        for kind in positional]
    for flag in draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []:
        value = paths["config"] if flag == "--config" else draw(st.sampled_from(_FLAG_VALUES[flag]))
        argv += [flag, value]
    if command == "mirror" and "--axis" not in argv:
        argv += ["--axis", "62"]
    if command == "train":
        argv += ["--episodes", draw(st.sampled_from(["5", "5", "1", "0", "-1", "x", "1_0", "５"])),
                 "--seeds", draw(st.sampled_from(["1", "2", "1", "2", "0", "x"])),
                 # 1e6 diverges within 5 episodes on the bundled melodies and the scale
                 "--learning-rate", draw(st.sampled_from(["1e6", "0.2", "1e6", "nan", "-1"]))]
    slip = draw(st.sampled_from([None] * 6 + ["drop", "extra", "--bogus", "command"]))
    if slip == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif slip == "command":
        argv[0] = "transcribe"
    elif slip is not None:
        argv.append(slip)
    return argv


_SCALE = "first_finger=1\n60\n62\n64\n65\n67\n67\n65\n64\n62\n60\n"
_SCALE_FINGERINGS = ["\n".join(f"{p} {f}" for p, f in zip(_SCALE.split()[1:], fingers))
                     for fingers in ("1234554321", "1324554321")]   # the second crosses


@given(st.data(), score_texts(),
       st.lists(_FINGERING_LINES, max_size=4).map("\n".join)
       | st.sampled_from(_SCALE_FINGERINGS),
       st.lists(_SMALL_CONFIG_LINES, max_size=4).map("\n".join) | st.just("batch_size=1"))
@settings(max_examples=150, deadline=None, report_multiple_bugs=False)
def test_exit_codes_follow_the_contract_on_fuzzed_input(tmp_path_factory, data, score_text,
                                                        fingering_text, config_text):
    # 0 success, 1 usage error (raised by the parser), 2 input error,
    # 3 training failure, and 2 and 3 name the problem on stderr
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {kind: str(tmp / kind) for kind in _FILES}
    Path(paths["score"]).write_text(score_text, encoding="utf-8")
    Path(paths["scale"]).write_text(_SCALE)
    Path(paths["fingering"]).write_text(fingering_text)
    Path(paths["config"]).write_text(config_text)
    argv = data.draw(_argv(paths))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 1), argv
            return
    assert code in (0, 2, 3), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), argv
    if code == 3:
        assert err.getvalue().startswith("training error: "), argv
