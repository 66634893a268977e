import subprocess
import sys

import pytest

from pianofinger.cli import main, read_config_file, ConfigError


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


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_unparseable_score_exits_2(tmp_path, capsys):
    path = _write_score(tmp_path, "first_finger=1\nH4\nC4\n")
    assert main(["solve", path]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_train_reruns_are_byte_identical(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["train", score, "--episodes", "6", "--seed", "5",
                     "--out-dir", str(d)]) == 0
    capsys.readouterr()
    for name in ("history_seed5.csv", "fingering_seed5.txt", "oracle_fingering.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


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


def test_train_divergence_exits_3(tmp_path, capsys):
    import warnings

    score = _write_score(tmp_path, "first_finger=1\n" + "\n".join(
        ["60", "62", "64", "65", "67"] * 4) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["train", score, "--episodes", "200",
                     "--learning-rate", "50.0"])
    assert code == 3
    assert "training error:" in capsys.readouterr().err


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
    fingering.write_text("61 1\n62 2\n64 3\n")
    assert main(["eval", score, str(fingering)]) == 2
    assert "do not match" in capsys.readouterr().err


def test_eval_bad_fingering_file_exits_2(tmp_path, capsys):
    score = _write_score(tmp_path, TINY_SCORE)
    fingering = tmp_path / "fingering.txt"
    fingering.write_text("60 1\n62 7\n64 3\n")
    assert main(["eval", score, str(fingering)]) == 2
    assert "finger 7" in capsys.readouterr().err


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
