import pytest

from pianofinger.agent import EpisodeRecord, TrainConfig
from pianofinger.env import StateEncoding
from pianofinger.experiments import (
    EXPERIMENT_IDS,
    build_experiment,
    default_train_config,
    encoding_for,
    export_fingering,
    export_history,
    read_fingering,
)
from pianofinger.oracle import FingeringError, dp_optimal
from pianofinger.score import Score


# --- the bundled melodies ----------------------------------------------------

def test_experiment_ids():
    assert EXPERIMENT_IDS == ("EX1", "EX2", "EX3", "EX4", "EX5")
    with pytest.raises(ValueError):
        build_experiment("EX6")


def test_bundled_scores_are_frozen():
    expected = {
        "EX1": ([60] * 8, 3, 1000, "88"),
        "EX2": ([60, 62, 64, 65, 67, 67, 65, 64, 62, 60], 1, 100, "range"),
        "EX3": ([64, 64, 65, 67, 67, 65, 64, 62, 60, 60, 62, 64, 64, 62, 62],
                3, 200, "range"),
        "EX4": ([60, 62, 64, 65, 67, 69, 71, 72, 72, 71, 69, 67, 65, 64, 62, 60],
                1, 5000, "range"),
    }
    for exp_id, (pitches, first_finger, episodes, encoding) in expected.items():
        spec = build_experiment(exp_id)
        assert list(spec.score.pitches) == pitches
        assert spec.score.first_finger == first_finger
        assert spec.config.episodes == episodes
        assert spec.encoding == encoding


def test_long_melody_constraints():
    # the extended study piece: 24 diatonic notes spanning exactly one
    # octave above middle C, thumb start, trained for 500 episodes
    spec = build_experiment("EX5")
    pitches = spec.score.pitches
    assert len(pitches) == 24
    assert min(pitches) == 60 and max(pitches) == 72
    assert {p % 12 for p in pitches} <= {0, 2, 4, 5, 7, 9, 11}
    assert spec.score.first_finger == 1
    assert spec.config.episodes == 500
    assert spec.encoding == "range"
    # it genuinely exercises relocations: the optimum needs two
    fingering, total = dp_optimal(spec.score)
    assert total == 19.0


def test_each_spec_is_its_baseline_under_its_own_name():
    for exp_id in EXPERIMENT_IDS:
        spec = build_experiment(exp_id)
        assert spec.config == default_train_config(exp_id)
        assert spec.score.name == exp_id


def test_default_train_config_uses_global_defaults_where_possible():
    cfg = default_train_config("EX1")
    assert cfg == TrainConfig(episodes=1000, seed=0)
    assert default_train_config("EX2", seed=3) == TrainConfig(episodes=100, seed=3)


def test_default_train_config_overrides_for_the_curve_experiments():
    for exp_id in ("EX3", "EX5"):
        cfg = default_train_config(exp_id)
        assert cfg.learning_rate == 0.06
        assert cfg.target_sync == 75
        assert cfg.epsilon_end == 0.0
        assert cfg.gamma == 0.95          # everything else stays at defaults
        assert cfg.batch_size == 32
    with pytest.raises(ValueError):
        default_train_config("EX9")


def test_encoding_for_modes():
    score = Score.from_pitches([60, 67], 1)
    assert encoding_for(score, "88") == StateEncoding.full_piano()
    assert encoding_for(score, "range") == StateEncoding(60, 8)
    with pytest.raises(ValueError):
        encoding_for(score, "huge")


# --- export / import -------------------------------------------------------------

def test_history_csv_format(tmp_path):
    path = tmp_path / "history.csv"
    export_history([], path)
    # RFC-style CRLF rows straight from the csv module
    assert path.read_bytes() == b"episode,total_reward,epsilon,mean_loss\r\n"

    records = [
        EpisodeRecord(0, -30.0, 1.0, 0.0),
        EpisodeRecord(1, 2.5, 0.988125, 1.25),
        EpisodeRecord(2, 9.0, 0.97625, 0.4),
    ]
    export_history(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,total_reward,epsilon,mean_loss"
    assert lines[1] == "0,-30.000000,1.000000,0.000000"
    assert lines[2] == "1,2.500000,0.988125,1.250000"
    assert len(lines) == 4


def test_history_csv_round_trips(tmp_path):
    import csv

    path = tmp_path / "history.csv"
    records = [EpisodeRecord(i, float(i) - 0.5, 1.0 - i / 10, 0.125 * i)
               for i in range(6)]
    export_history(records, path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for rec, row in zip(records, rows):
        assert int(row["episode"]) == rec.episode
        assert float(row["total_reward"]) == pytest.approx(rec.total_reward)
        assert float(row["epsilon"]) == pytest.approx(rec.epsilon)
        assert float(row["mean_loss"]) == pytest.approx(rec.mean_loss)


def test_fingering_file_round_trip(tmp_path):
    path = tmp_path / "fingering.txt"
    score = Score.from_pitches([60, 62], 1)
    export_fingering(score, [1, 2], path)
    assert path.read_text() == "60 1\n62 2\n"
    assert read_fingering(path) == [(60, 1), (62, 2)]


def test_export_fingering_rejects_wrong_length(tmp_path):
    score = Score.from_pitches([60, 62, 64], 1)
    with pytest.raises(FingeringError):
        export_fingering(score, [1, 2], tmp_path / "x.txt")


def test_exported_oracle_fingering_reads_back(tmp_path):
    spec = build_experiment("EX2")
    fingering, _ = dp_optimal(spec.score)
    path = tmp_path / "oracle.txt"
    export_fingering(spec.score, fingering, path)
    pairs = read_fingering(path)
    assert [p for p, _ in pairs] == list(spec.score.pitches)
    assert [f for _, f in pairs] == [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]


def test_read_fingering_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "fingering.txt"
    path.write_text("# solved by hand\n\n60 1   # thumb\n62 2\n")
    assert read_fingering(path) == [(60, 1), (62, 2)]


@pytest.mark.parametrize("text,fragment", [
    ("60\n", "line 1"),
    ("60 1 9\n", "line 1"),
    ("60 one\n", "line 1"),
    ("60 1\n62 7\n", "line 2"),
])
def test_read_fingering_errors_carry_line_numbers(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FingeringError, match=fragment):
        read_fingering(path)
