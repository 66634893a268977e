"""Golden per-seed histories: training is pinned bit for bit.

Each bundled melody trains for a short budget at seed 0 under its
baseline config.  The sha256 of the EpisodeRecord stream (packed as
little-endian episode, total reward, epsilon, mean loss) and of the
final online parameter vector must match the values recorded here, so
any change to the training loop that moves a single bit of any seed's
history shows up as a failure.  A speedup has to keep these; a change
that means to alter histories has to say so and record new values.

Three more runs pin the edges of the table of delayed maxima that the
bootstrap targets read: EX2 with one-row SGD batches (each step's forward
and backward take numpy's one-row path), EX2 with a sync after every
gradient step (the table is refilled every step), and a seeded 200-note
random walk under the full-keyboard encoding (each fill is 995 states
wide, and more than one sync happens).

The tabular learner is pinned the same way: criterion 10's run on each
melody (seed 0, 2000 episodes, gamma 1, alpha 0.5) hashed over its
Q-values of every state, in state-id order, as little-endian float64.
The same 200-note walk, trained for 300 episodes, pins 199-step
episodes whose random draws run through many blocks of raw words.

The DP solver is pinned by the sha256 of ``pianofinger solve``'s stdout
on each melody and on a seeded 3000-note walk under non-dyadic rewards,
whose path sums round, and on EX3 written with pitch names, a duration
and a comment line.  ``eval`` is pinned on a feasible and an
infeasible fingering of EX2 and on the optimal fingering of a 3000-note
walk, and a two-seed ``train`` by its stdout and every file it writes.
"""

import contextlib
import dataclasses
import hashlib
import io
import struct

import numpy as np
import pytest

from pianofinger import cli
from pianofinger.agent import TrainConfig, TrainingError, train
from pianofinger.env import FingeringEnv
from pianofinger.experiments import (build_experiment, default_train_config, encoding_for,
                                     export_fingering)
from pianofinger.oracle import dp_optimal, tabular_q_train
from pianofinger.score import (FINGERS, PITCH_MAX, PITCH_MIN, Score, parse_score,
                               serialize_score)

GOLDEN = {
    "EX1": ("d2b5df5e3d52ba931d7841c370c02c08dbc1241367a181c82b834fdd36a7ac06",
            "34f749359bf9685d34912d6a9ad2d7ab3df5fbb1b0960e4abb956ad631fcc9af"),
    "EX2": ("b7570a2f15d7bd24f0da5611d76c2b38e0191c27355533b3abf3f9811d17903e",
            "6538810950d0ad332529ba7dae8c020e7779c95793a8a3d31ce84222f5472f3d"),
    "EX3": ("899001ed9f9fd0afaa9db34641e745674de33fa193efdc718c1044d44ea3b023",
            "cebeead47034d25e1dc71e3d6892039f16f1b229880a45169a2f9b35694e71cc"),
    "EX4": ("e7796785aeded5792071d291206f798d20d87d7134783b3969b443768e521ecd",
            "0f43bf06d43eebec18f4e93f38baff01fc8b02f6f66a3083710a7b9432e6f71b"),
    "EX5": ("ac9f51b1a10432970a7a365d11fd2606f89148310ebf2fc03d6d578aee7d3fb5",
            "d8cde1c9785a6ad474e4e25972a3e2509f1cb674e38bed73478785cf538f53a8"),
}
GOLDEN_EPISODES = 40

GOLDEN_EDGES = {
    "EX2-batch1": ("4261c7ab08aa0eb909562a3934eb4a5f381b08f363b1e34f1499bf7c50dffeec",
                   "6392561eae8ea2828e5c319899653671c1eb5e0e2f5a9e0e5f2ec775c9291c40"),
    "EX2-sync1": ("4a58839e2813853d18e10e8e6f5848a20aa52564397347103740dd1eeb8519ee",
                  "18aafc37f859c3702b05004ae08a86cbaba475141ce4fb89e9bc84899097d6ed"),
    "walk200-88": ("34c8b2fcbd5340ab352ad80412ec7ff17fe4d01fd6d8079391b698a6b05c2655",
                   "077e41076aa3164ef11a7f36f154e2ede31ee1d77593f2ea79cba1fb16bbabcd"),
}

GOLDEN_TABULAR = {
    "EX1": "346df3f535c5d43ee796ce7cf66df5318803090301f5593f1d2c6e3153a28992",
    "EX2": "f840a45425e4a5487796f2cf4fbfb33d021769d378b2b4806ee3478cd1c35228",
    "EX3": "d4146910997e5b0c749cf4eda4e5712ae4732261625f2a0f5cb14b895c6ba8d1",
    "EX4": "e9fcf68ed89f80f33e590f8705b29c2fcb48d2584eac731a0aca2ab8253e64d9",
    "EX5": "ac676b24bff301f1e4f2823fdafcc5af502b41203cdc654c9219583cd6678b6a",
    "walk200": "fffd6e5d57236f2c148676df51ee63a75fbd34c91d5b7b47e25b3732bb7585e7",
}

GOLDEN_SOLVE = {
    "EX1": "e4da5abd27c434f7dd7fce955a745e0b9d0f1b33b5833dbc27a483feed6423a8",
    "EX2": "d18cf329318a51762410dc19b4402d0d57e86b07b97c06a297a9d237b40542c8",
    "EX3": "3f493f015b04a1367a24d9370cc8aaf2e07ba5e2110ef89e13e20b42be4d43a9",
    "EX4": "81409e2f029231f36528fe23ad3a07db887f1186a0375abe86daa333f8af5b91",
    "EX5": "cf13fdd6dd64d9a01a8cd1fcc7fb2218da7831e9645871494378cf040f9e89c3",
    "walk3000": "cc83a56218e06cb75513df64b80ea3e8d8b0abaf94a9569b09f580d73089d813",
    "ex3-names": "113263aa3db1a3ca75215b3238d6d6e396005050683831559549491dceb506fc",
}
GOLDEN_EVAL = {
    "feasible": "bbf6539fa066dfa4c5440a9ccb93e72e2ab40b7ffd0c39fa222a065b16a769c8",
    "infeasible": "c18cf8192cd7d07e3596a141ae9407b58888ef3c9e67d83c8e3acb4ea60f59d0",
    "walk3000": "703b32e52fec48d50d88d257cd302b1529a743360015a5a8cc111358c2bfe719",
}

GOLDEN_TRAIN = {   # train --ex 2 --seeds 2 --episodes 20 --out-dir D
    "stdout": "544c84ea86a1ccbea7523f33a68ab5cb337b4dfd75599fc9d37a4c9c1d77e261",
    "fingering_seed0.txt": "b58bf9e099d17162283e5e15cae9e612d634040239c1554335ac8a6bb48e3d98",
    "fingering_seed1.txt": "2f9f9a97f2fd546626ebc5dbba5fe9d35bac3b7c56f4fc8a413f0782d072dd5f",
    "history_seed0.csv": "defb5c0ef346aad35e9d52c0d61587d5ec4b04f39b286a4081012be92058b101",
    "history_seed1.csv": "6c3b7297a9c1300eb1d88ba05bc1a3a937c5f12d46b0b20345391e2998325c9a",
    "oracle_fingering.txt": "a977a909f8d0d7273fb65ba791fedd5cd6c23ce5bbf09a24f002049d1f953f16",
}
NON_DYADIC = "anchor_tolerance = 1.5\nr_stay = 0.7\nr_move = -0.3\nr_infeasible = -9.1\n"
# EX3 in the form only the line loop reads; walk3000 is in the form read in one pass
EX3_NAMES = ("# EX3, the opening phrase of Ode to Joy, in pitch names\nfirst_finger=3\n"
             "E4\nE4\nF4\nG4\nG4\nF4\nE4\nD4\nC4\nC4\nD4\nE4\nE4, 1.5\nD4\nD4\n")


def _env_and_config(exp_id, episodes, seed=0):
    spec = build_experiment(exp_id)
    env = FingeringEnv(spec.score, encoding=encoding_for(spec.score, spec.encoding))
    return env, dataclasses.replace(default_train_config(exp_id, seed), episodes=episodes)


def history_digest(history) -> str:
    h = hashlib.sha256()
    for rec in history:
        h.update(struct.pack("<qddd", rec.episode, rec.total_reward,
                             rec.epsilon, rec.mean_loss))
    return h.hexdigest()


@pytest.mark.parametrize("exp_id", sorted(GOLDEN))
def test_golden_history_and_weights(exp_id):
    env, config = _env_and_config(exp_id, GOLDEN_EPISODES)
    net, history = train(env, config)
    assert len(history) == GOLDEN_EPISODES
    assert history_digest(history) == GOLDEN[exp_id][0]
    assert hashlib.sha256(net.theta.tobytes()).hexdigest() == GOLDEN[exp_id][1]


def _random_walk(n_notes, seed):
    """Steps of -5..+5 semitones from middle C, held inside the keyboard."""
    pitches = [60]
    for step in np.random.default_rng(seed).integers(-5, 6, size=n_notes - 1).tolist():
        pitches.append(min(PITCH_MAX, max(PITCH_MIN, pitches[-1] + step)))
    return Score.from_pitches(pitches, 1, name="walk")


def _edge_case(name):
    if name == "walk200-88":
        score = _random_walk(200, seed=0)
        return (FingeringEnv(score, encoding=encoding_for(score, "88")),
                TrainConfig(episodes=15, seed=0))
    # the step sizes keep these two EX2 runs from diverging
    overrides = {"EX2-batch1": {"batch_size": 1, "learning_rate": 0.02},
                 "EX2-sync1": {"target_sync": 1, "learning_rate": 0.05}}[name]
    env, config = _env_and_config("EX2", GOLDEN_EPISODES)
    return env, dataclasses.replace(config, **overrides)


@pytest.mark.parametrize("name", sorted(GOLDEN_EDGES))
def test_golden_target_cache_edges(name):
    env, config = _edge_case(name)
    net, history = train(env, config)
    assert len(history) == config.episodes
    assert history_digest(history) == GOLDEN_EDGES[name][0]
    assert hashlib.sha256(net.theta.tobytes()).hexdigest() == GOLDEN_EDGES[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN_TABULAR))
def test_golden_tabular_q_table(name):
    if name == "walk200":
        score, episodes = _random_walk(200, seed=0), 300
    else:
        score, episodes = build_experiment(name).score, 2000
    q = tabular_q_train(score, None, TrainConfig(episodes=episodes, gamma=1.0, seed=0),
                        alpha=0.5)
    h = hashlib.sha256()
    p = score.pitches
    for t in range(len(p) - 1):
        for f in FINGERS:
            h.update(q.values((f, p[t], p[t + 1])).astype("<f8").tobytes())
    assert h.hexdigest() == GOLDEN_TABULAR[name]


def test_golden_solve_output(tmp_path):
    # one process, one cached parser: a usage error after every solve
    # shows that no parse leaves anything behind for the next
    walk = tmp_path / "walk3000.txt"
    walk.write_text(serialize_score(_random_walk(3000, seed=1)))
    config = tmp_path / "non_dyadic.cfg"
    config.write_text(NON_DYADIC)
    calls = {f"EX{n}": ["solve", "--ex", str(n)] for n in range(1, 6)}
    calls["walk3000"] = ["solve", str(walk), "--config", str(config)]
    named = tmp_path / "ex3_names.txt"
    named.write_text(EX3_NAMES)
    assert parse_score(EX3_NAMES).pitches == build_experiment("EX3").score.pitches
    calls["ex3-names"] = ["solve", str(named)]
    digests = {}
    for name, argv in calls.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(argv) == 0
            with pytest.raises(SystemExit) as usage:
                cli.main(["solve", str(walk), "--ex", "2"])
        assert usage.value.code == 1 and "not allowed with" in err.getvalue()
        digests[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == GOLDEN_SOLVE


def _stdout_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_golden_eval_output(tmp_path):
    ex2 = build_experiment("EX2").score
    walk = _random_walk(3000, seed=1)
    fingerings = {"feasible": (ex2, [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]),
                  "infeasible": (ex2, [1, 2, 3, 4, 3, 5, 4, 3, 2, 1]),   # 3 -> 5 crosses down
                  "walk3000": (walk, dp_optimal(walk)[0])}
    digests = {}
    for name, (score, fingering) in fingerings.items():
        score_path, fingering_path = tmp_path / f"{name}.txt", tmp_path / f"{name}.fng"
        score_path.write_text(serialize_score(score))
        export_fingering(score, fingering, fingering_path)
        digests[name] = _stdout_digest(["eval", str(score_path), str(fingering_path)])
    assert digests == GOLDEN_EVAL


def test_golden_train_output(tmp_path):
    digests = {"stdout": _stdout_digest(["train", "--ex", "2", "--seeds", "2", "--episodes", "20",
                                         "--out-dir", str(tmp_path)])}
    digests.update((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                   for path in tmp_path.iterdir())
    assert digests == GOLDEN_TRAIN


def diverge_ex4_seed0():
    """EX4 at seed 0 with a 300-episode budget (so epsilon decays faster
    than at the baseline 5000) diverges partway through training.
    Returns (the TrainingError, every episode the hook saw)."""
    env, config = _env_and_config("EX4", 300)
    seen = []
    with pytest.raises(TrainingError) as info:
        train(env, config, episode_hook=lambda episode, net: seen.append(episode))
    return info.value, seen


def test_golden_divergence_ex4_seed0():
    # the error is raised inside episode 46: the hook saw episodes 0..45
    _, seen = diverge_ex4_seed0()
    assert seen == list(range(46))


def test_divergence_error_names_episode_step_and_layer():
    exc, _ = diverge_ex4_seed0()
    assert (exc.episode, exc.step, exc.layer) == (46, 668, 1)
    assert str(exc) == ("non-finite loss or gradient (loss=inf) "
                        "in episode 46, gradient step 668, layer 1")
