"""Golden per-seed histories: training is pinned bit for bit.

Each bundled melody trains for a short budget at seed 0 under its
baseline config.  The sha256 of the EpisodeRecord stream (packed as
little-endian episode, total reward, epsilon, mean loss) and of the
final online parameter vector must match the values recorded here, so
any change to the training loop that moves a single bit of any seed's
history shows up as a failure.  A speedup has to keep these; a change
that means to alter histories has to say so and record new values.

Three more runs pin the edges of the per-state target cache: EX2 with
one-row batches (every bootstrap takes numpy's vector path), EX2 with a
sync after every gradient step (the cache goes stale every step), and a
seeded 200-note random walk under the full-keyboard encoding (995
states, more than one sync window fills).

The tabular learner is pinned the same way: criterion 10's run on each
melody (seed 0, 2000 episodes, gamma 1, alpha 0.5) hashed over its
Q-values of every state, in state-id order, as little-endian float64.
The same 200-note walk, trained for 300 episodes, pins 199-step
episodes whose random draws run through many blocks of raw words.
"""

import dataclasses
import hashlib
import struct
import warnings

import numpy as np
import pytest

from pianofinger.agent import TrainConfig, TrainingError, train
from pianofinger.env import FingeringEnv
from pianofinger.experiments import build_experiment, default_train_config, encoding_for
from pianofinger.oracle import tabular_q_train
from pianofinger.score import FINGERS, PITCH_MAX, PITCH_MIN, Score

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
    "EX2-batch1": ("2686f5ec3b273ab892bba315603b66b533d5aced5591e7ac26641b80f61f8fba",
                   "ed7db56395ecf79a69c32fb322a35c85dc21fb799b3cc26dcbee8b97536ff3c1"),
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
    assert hashlib.sha256(net.get_flat_params().tobytes()).hexdigest() == GOLDEN[exp_id][1]


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
    assert hashlib.sha256(net.get_flat_params().tobytes()).hexdigest() == GOLDEN_EDGES[name][1]


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


def diverge_ex4_seed0():
    """EX4 at seed 0 with a 300-episode budget (so epsilon decays faster
    than at the baseline 5000) diverges partway through training.
    Returns (the TrainingError, every episode the hook saw)."""
    env, config = _env_and_config("EX4", 300)
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # overflow warnings precede the guard
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
