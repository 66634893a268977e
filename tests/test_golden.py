"""Golden per-seed histories: training is pinned bit for bit.

Each bundled melody trains for a short budget at seed 0 under its
baseline config.  The sha256 of the EpisodeRecord stream (packed as
little-endian episode, total reward, epsilon, mean loss) and of the
final online parameter vector must match the values recorded here, so
any change to the training loop that moves a single bit of any seed's
history shows up as a failure.  A speedup has to keep these; a change
that means to alter histories has to say so and record new values.
"""

import dataclasses
import hashlib
import struct
import warnings

import pytest

from pianofinger.agent import TrainingError, train
from pianofinger.env import FingeringEnv
from pianofinger.experiments import build_experiment, default_train_config, encoding_for

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
