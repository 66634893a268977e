"""Golden per-seed histories: training is pinned bit for bit.

Each bundled melody trains for a short budget at seed 0 under its
baseline config.  The sha256 of the EpisodeRecord stream (packed as
little-endian episode, total reward, epsilon, mean loss) and of the
final online parameter vector must match the values recorded here, so
any change to the training loop that moves a single bit of any seed's
history shows up as a failure.  A speedup has to keep these; a change
that means to alter histories has to say so and record new values.

The tabular learner is pinned the same way: criterion 10's run on each
melody (seed 0, 2000 episodes, gamma 1, alpha 0.5) hashed over its
Q-values of every state, in state-id order, as little-endian float64.
"""

import dataclasses
import hashlib
import struct
import warnings

import pytest

from pianofinger.agent import TrainConfig, TrainingError, train
from pianofinger.env import FingeringEnv
from pianofinger.experiments import build_experiment, default_train_config, encoding_for
from pianofinger.oracle import tabular_q_train
from pianofinger.score import FINGERS

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

GOLDEN_TABULAR = {
    "EX1": "346df3f535c5d43ee796ce7cf66df5318803090301f5593f1d2c6e3153a28992",
    "EX2": "f840a45425e4a5487796f2cf4fbfb33d021769d378b2b4806ee3478cd1c35228",
    "EX3": "d4146910997e5b0c749cf4eda4e5712ae4732261625f2a0f5cb14b895c6ba8d1",
    "EX4": "e9fcf68ed89f80f33e590f8705b29c2fcb48d2584eac731a0aca2ab8253e64d9",
    "EX5": "ac676b24bff301f1e4f2823fdafcc5af502b41203cdc654c9219583cd6678b6a",
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


@pytest.mark.parametrize("exp_id", sorted(GOLDEN_TABULAR))
def test_golden_tabular_q_table(exp_id):
    score = build_experiment(exp_id).score
    q = tabular_q_train(score, None, TrainConfig(episodes=2000, gamma=1.0, seed=0), alpha=0.5)
    h = hashlib.sha256()
    p = score.pitches
    for t in range(len(p) - 1):
        for f in FINGERS:
            h.update(q.values((f, p[t], p[t + 1])).astype("<f8").tobytes())
    assert h.hexdigest() == GOLDEN_TABULAR[exp_id]


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
