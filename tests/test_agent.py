import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from pianofinger.agent import (
    Batch,
    EpisodeRecord,
    QNetwork,
    ReplayBuffer,
    TargetMaxima,
    TrainConfig,
    TrainingError,
    compute_targets,
    epsilon_at,
    gradient_check,
    greedy_rollout,
    select_action,
    train,
)
from pianofinger.env import FingeringEnv, StateEncoding
from pianofinger.experiments import ENCODINGS, encoding_for
from pianofinger.oracle import dp_optimal
from pianofinger.score import Score

from strategies import scores


def _zero_net(input_dim=4, hidden=(3,)):
    """A network whose every parameter (online and target) is zero."""
    net = QNetwork(input_dim, hidden=hidden, rng=np.random.default_rng(0))
    net.set_flat_params(np.zeros(net.get_flat_params().size))
    net.sync_target()
    return net


def _fixed_q_net(qvals, input_dim=4):
    """Zero net except the output bias, so forward(x) == qvals for all x."""
    net = _zero_net(input_dim=input_dim)
    net.biases[-1][:] = qvals
    return net


# --- network ---------------------------------------------------------------

def test_zero_net_outputs_zeros():
    net = _zero_net()
    assert np.array_equal(net.forward(np.ones(4)), np.zeros(5))
    assert np.array_equal(net.forward(np.ones((7, 4))), np.zeros((7, 5)))


def test_target_starts_as_copy_of_online():
    net = QNetwork(6, hidden=(8, 8), rng=np.random.default_rng(3))
    for w, tw in zip(net.weights, net.target_weights):
        assert np.array_equal(w, tw)
        assert w is not tw
    for b, tb in zip(net.biases, net.target_biases):
        assert np.array_equal(b, tb)
        assert b is not tb


def test_init_bounds_follow_fan_in():
    net = QNetwork(16, hidden=(32, 8), rng=np.random.default_rng(11))
    fan_ins = [16, 32, 8]
    for w, b, fan_in in zip(net.weights, net.biases, fan_ins):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(w) <= bound)
        assert np.all(np.abs(b) <= bound)
    # distinct seeds give distinct draws
    other = QNetwork(16, hidden=(32, 8), rng=np.random.default_rng(12))
    assert not np.array_equal(net.weights[0], other.weights[0])


def test_forward_shapes_and_width_check():
    net = QNetwork(4, hidden=(3,), rng=np.random.default_rng(0))
    assert net.forward(np.ones(4)).shape == (5,)
    assert net.forward(np.ones((2, 4))).shape == (2, 5)
    with pytest.raises(ValueError):
        net.forward(np.ones(5))


def test_sync_target_copies_current_online_weights():
    net = QNetwork(4, hidden=(3,), rng=np.random.default_rng(0))
    net.weights[0][0, 0] += 1.0
    assert not np.array_equal(net.weights[0], net.target_weights[0])
    assert net.target_version == 0
    net.sync_target()
    assert np.array_equal(net.weights[0], net.target_weights[0])
    assert net.target_version == 1   # what stamps the cached target maxima


def test_train_step_at_fixpoint_is_a_noop():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    states = rng.uniform(size=(8, 4))
    actions = rng.integers(1, 6, size=8)
    q = net.forward(states)
    targets = q[np.arange(8), actions - 1]   # already perfect
    before = net.get_flat_params().copy()
    loss = net.train_step(states, list(actions), targets, learning_rate=0.5)
    assert loss == 0.0
    assert np.array_equal(net.get_flat_params(), before)


def test_zero_learning_rate_changes_nothing():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    states = np.eye(4)
    before = net.get_flat_params().copy()
    loss = net.train_step(states, [1, 2, 3, 4], np.array([5.0, -5.0, 5.0, -5.0]), 0.0)
    assert loss > 0.0
    assert np.array_equal(net.get_flat_params(), before)


def test_train_step_reduces_loss():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(4))
    states = np.eye(4)
    actions = [1, 2, 3, 4]
    targets = np.array([1.0, -1.0, 0.5, 0.0])
    # a zero step returns the loss and leaves the parameters as they are
    before = net.train_step(states, actions, targets, learning_rate=0.0)
    net.train_step(states, actions, targets, learning_rate=0.05)
    assert net.train_step(states, actions, targets, learning_rate=0.0) < before


def test_train_step_leaves_target_weights_alone():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    frozen = [w.copy() for w in net.target_weights]
    net.train_step(np.eye(4), [1, 2, 3, 4], np.array([1.0, 1.0, 1.0, 1.0]), 0.1)
    for w, f in zip(net.target_weights, frozen):
        assert np.array_equal(w, f)


def test_non_finite_targets_raise_training_error():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    with pytest.raises(TrainingError):
        net.train_step(np.eye(4), [1, 2, 3, 4], np.array([1.0, np.nan, 0.0, 0.0]), 0.1)


def test_training_error_names_the_first_non_finite_layer():
    # input 1e-3 drives a hidden unit to 100 through a 1e5 weight; a target
    # of -1e307 then overflows the loss and the output-layer gradient
    # (100 * 2e307) while the hidden layer's gradient stays finite
    net = _zero_net(input_dim=2, hidden=(3,))
    net.weights[0][0, :] = 1e5
    net.weights[1][:] = 1e-3
    with np.errstate(over="ignore"), pytest.raises(TrainingError) as info:
        net.train_step(np.array([[1e-3, 0.0]]), [1], np.array([-1e307]), 0.1)
    assert info.value.layer == 2
    assert "layer 2" in str(info.value)
    assert np.isfinite(net.grad_weights[0]).all() and np.isfinite(net.grad_biases[0]).all()
    assert not np.isfinite(net.grad_weights[1]).all()


def test_non_finite_loss_with_finite_gradients_names_no_layer():
    net = _zero_net(input_dim=2, hidden=(3,))
    before = net.get_flat_params()
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match=r"loss=inf") as info:
        net.train_step(np.array([[1.0, 0.0]]), [1], np.array([1e200]), 0.1)
    assert info.value.layer is None
    assert np.isfinite(net.grad).all()
    assert np.array_equal(net.get_flat_params(), before)   # no step was taken


def test_flat_buffers_back_the_layer_views():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    assert net.theta.size == 4 * 6 + 6 * 5 + 6 + 5
    for views, buffer in ((net.weights + net.biases, net.theta),
                          (net.target_weights + net.target_biases, net.target_theta),
                          (net.grad_weights + net.grad_biases, net.grad)):
        assert all(np.shares_memory(v, buffer) for v in views)
    assert np.array_equal(net.get_flat_params(), np.concatenate(
        [p.ravel() for p in (*net.weights, *net.biases)]))
    theta = np.arange(net.theta.size, dtype=float)
    net.set_flat_params(theta)
    assert net.weights[0][0, 1] == 1.0 and net.biases[-1][-1] == theta[-1]
    assert not np.shares_memory(net.get_flat_params(), net.theta)


def test_gradient_check_small_net():
    net = QNetwork(7, hidden=(9, 8), rng=np.random.default_rng(42))
    rng = np.random.default_rng(43)
    states = rng.uniform(-1.0, 1.0, size=(6, 7))
    actions = rng.integers(1, 6, size=6)
    q = net.forward(states)
    targets = q[np.arange(6), actions - 1] + rng.normal(size=6)
    max_rel, checked, skipped = gradient_check(net, states, list(actions), targets)
    assert checked > 0
    assert skipped < checked          # the kink filter should be the exception
    assert max_rel < 1e-5


# --- action selection ------------------------------------------------------

def test_greedy_action_is_argmax_plus_one():
    net = _fixed_q_net([0.1, 0.9, 0.2, 0.2, 0.2])
    assert select_action(net, np.zeros(4), 0.0) == 2


def test_greedy_tie_breaks_to_lowest_finger():
    net = _fixed_q_net([0.5, 0.5, 0.0, 0.0, 0.0])
    assert select_action(net, np.zeros(4), 0.0) == 1


def test_exploration_requires_rng():
    net = _fixed_q_net([0.0] * 5)
    with pytest.raises(ValueError):
        select_action(net, np.zeros(4), 0.5)


def test_greedy_consumes_no_rng():
    net = _fixed_q_net([0.0] * 5)
    rng = np.random.default_rng(5)
    probe = np.random.default_rng(5)
    for _ in range(10):
        select_action(net, np.zeros(4), 0.0, rng)
    assert rng.random() == probe.random()


def test_full_exploration_is_uniform_and_skips_the_net():
    class Boom:
        def forward(self, *args, **kwargs):
            raise AssertionError("exploration must not evaluate the network")

    rng = np.random.default_rng(123)
    draws = [select_action(Boom(), np.zeros(4), 1.0, rng) for _ in range(4000)]
    counts = np.bincount(draws, minlength=6)[1:]
    assert counts.sum() == 4000
    assert all(c > 0 for c in counts)
    assert scipy.stats.chisquare(counts).pvalue > 0.01


def test_non_finite_greedy_q_raises_training_error():
    # argmax picks the first NaN, so a NaN head must not pass as finger 1
    net = _fixed_q_net([0.0] * 5)
    net.weights[-1][:] = np.nan
    with pytest.raises(TrainingError, match="non-finite Q-value"):
        select_action(net, np.ones(4), 0.0)
    with pytest.raises(TrainingError):
        select_action(_fixed_q_net([0.0, np.inf, 0.0, 0.0, 0.0]), np.zeros(4), 0.0)
    # a non-finite value that is not picked is no error
    assert select_action(_fixed_q_net([0.0, -np.inf, 1.0, 0.0, 0.0]), np.zeros(4), 0.0) == 3


@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=50)
def test_selected_action_is_always_a_finger(epsilon, seed):
    net = _fixed_q_net([0.3, -0.2, 0.1, 0.0, 0.9])
    a = select_action(net, np.zeros(4), epsilon, np.random.default_rng(seed))
    assert a in (1, 2, 3, 4, 5)


# --- bootstrap targets -----------------------------------------------------

def _batch(rewards, next_states, actions=None):
    """Replayed transitions from state 0; next id -1 marks a terminal step."""
    k = len(rewards)
    return Batch(np.zeros(k, dtype=np.intp),
                 np.asarray(actions if actions is not None else [1] * k, dtype=np.intp),
                 np.asarray(rewards, dtype=float),
                 np.asarray(next_states, dtype=np.intp))


def test_terminal_target_is_the_reward():
    env = _small_env()
    net = _fixed_q_net([100.0] * 5, input_dim=env.input_dim)
    net.sync_target()                  # must be ignored for terminal transitions
    batch = _batch([-10.0, 1.0], [-1, -1], actions=[1, 2])
    assert np.array_equal(compute_targets(batch, net, 0.95, env), [-10.0, 1.0])


def test_bootstrap_uses_target_network_only():
    env = _small_env()
    net = _zero_net(input_dim=env.input_dim)
    net.biases[-1][:] = [2.0, 0.0, 0.0, 0.0, 0.0]
    net.sync_target()                  # target says max Q = 2
    net.biases[-1][:] = 0.0            # online says max Q = 0
    batch = _batch([-1.0], [5], actions=[3])
    y = compute_targets(batch, net, 0.95, env)
    assert y.shape == (1,)
    assert y[0] == pytest.approx(-1.0 + 0.95 * 2.0)


def test_gamma_zero_targets_are_rewards():
    env = _small_env()
    net = _fixed_q_net([7.0] * 5, input_dim=env.input_dim)
    net.sync_target()
    batch = _batch([1.0, -1.0], [5, 6], actions=[1, 2])
    assert np.array_equal(compute_targets(batch, net, 0.0, env), [1.0, -1.0])


def test_mixed_batch_targets():
    env = _small_env()
    net = _zero_net(input_dim=env.input_dim)
    net.biases[-1][:] = [0.0, 3.0, 0.0, 0.0, 0.0]
    net.sync_target()
    net.biases[-1][:] = 0.0
    batch = _batch([1.0, -10.0, -1.0], [5, -1, 9], actions=[1, 1, 5])
    y = compute_targets(batch, net, 0.5, env)
    assert y == pytest.approx([1.0 + 0.5 * 3.0, -10.0, -1.0 + 0.5 * 3.0])


def test_targets_read_the_successor_features():
    # the bootstrap term is the target net's max Q at the successor's
    # features, one row per live transition
    env = _small_env()
    net = QNetwork(env.input_dim, hidden=(6,), rng=np.random.default_rng(2))
    batch = _batch([0.5, 0.25, -1.0], [7, -1, 13], actions=[2, 4, 1])
    y = compute_targets(batch, net, 0.9, env)
    expected = [0.5 + 0.9 * net.forward(env.features(7), target=True).max(),
                0.25,
                -1.0 + 0.9 * net.forward(env.features(13), target=True).max()]
    assert y == pytest.approx(expected, rel=1e-12)


# --- replay buffer ---------------------------------------------------------

def _push_tagged(buf, tag, done=False):
    buf.push(tag, 1, float(tag), -1 if done else tag + 1)


def test_buffer_overwrites_oldest_first():
    buf = ReplayBuffer(5)
    for tag in range(8):
        _push_tagged(buf, tag)
    assert len(buf) == 5
    items = buf.items()
    assert items.rewards.tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]
    assert items.states.tolist() == [3, 4, 5, 6, 7]
    assert items.next_states.tolist() == [4, 5, 6, 7, 8]


def test_buffer_items_before_wraparound():
    buf = ReplayBuffer(5)
    for tag in range(3):
        _push_tagged(buf, tag, done=tag == 2)
    items = buf.items()
    assert items.rewards.tolist() == [0.0, 1.0, 2.0]
    assert items.next_states.tolist() == [1, 2, -1]


def test_buffer_sample_with_replacement():
    buf = ReplayBuffer(4)
    _push_tagged(buf, 9)
    out = buf.sample(10, np.random.default_rng(0))     # k > len is fine
    assert len(out.rewards) == 10
    assert all(r == 9.0 for r in out.rewards)
    assert all(len(column) == 10 for column in out)


def test_buffer_sample_draws_only_stored_items():
    buf = ReplayBuffer(16)
    for tag in range(6):
        _push_tagged(buf, tag)
    out = buf.sample(200, np.random.default_rng(1))
    assert set(out.rewards.tolist()) <= {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}
    # the columns of one draw stay together
    assert np.array_equal(out.states.astype(float), out.rewards)
    assert np.array_equal(out.next_states, out.states + 1)


def test_buffer_sample_indexes_ring_slots_with_one_draw():
    # sample draws rng.integers(0, len, size=k) once and returns those ring
    # slots; slot i holds the i-th push until the ring wraps
    buf = ReplayBuffer(4)
    for tag in range(6):                 # slots now hold 4, 5, 2, 3
        _push_tagged(buf, tag)
    out = buf.sample(9, np.random.default_rng(3))
    idx = np.random.default_rng(3).integers(0, 4, size=9)
    assert out.rewards.tolist() == [[4.0, 5.0, 2.0, 3.0][i] for i in idx]


def test_empty_buffer_sample_raises():
    with pytest.raises(ValueError):
        ReplayBuffer(3).sample(1, np.random.default_rng(0))


def test_buffer_capacity_validated():
    with pytest.raises(ValueError):
        ReplayBuffer(0)


# --- epsilon schedule ------------------------------------------------------

def test_epsilon_schedule_shape():
    cfg = TrainConfig(episodes=100)
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 40) == pytest.approx(1.0 + 0.5 * (0.05 - 1.0))
    assert epsilon_at(cfg, 80) == pytest.approx(0.05)
    assert epsilon_at(cfg, 99) == pytest.approx(0.05)


def test_epsilon_zero_decay_fraction_is_flat_at_end():
    cfg = TrainConfig(episodes=50, epsilon_decay_fraction=0.0, epsilon_end=0.2)
    assert epsilon_at(cfg, 0) == 0.2
    assert epsilon_at(cfg, 49) == 0.2


@given(st.integers(1, 500), st.integers(0, 499))
@settings(max_examples=60)
def test_epsilon_stays_between_endpoints(episodes, episode):
    cfg = TrainConfig(episodes=episodes)
    eps = epsilon_at(cfg, min(episode, episodes - 1))
    assert cfg.epsilon_end <= eps <= cfg.epsilon_start


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(episodes=-1)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, epsilon_start=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, target_sync=0)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, learning_rate=-0.01)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(episodes=10, learning_rate=bad)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, replay_capacity=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(episodes=10, seed=-1)


# --- training loop ---------------------------------------------------------

def _reference_targets(batch, net, gamma, env):
    """The per-batch forward of every live successor, uncached."""
    y = batch.rewards.copy()
    live = batch.next_states >= 0
    if live.any():
        y[live] += gamma * net.forward(env.features(batch.next_states[live]),
                                       target=True).max(axis=1)
    return y


@given(scores(max_notes=30), st.sampled_from(ENCODINGS), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       st.lists(st.one_of(st.sampled_from(["sync", "step"]),
                          # (rows, live rows, successors not seen before)
                          st.integers(1, 32).flatmap(lambda k: st.tuples(
                              st.just(k), st.one_of(st.just(1), st.just(k), st.integers(0, k)),
                              st.sampled_from([0, 1, 2, k])))),
                min_size=4, max_size=16))
@settings(max_examples=100, deadline=None)
def test_cached_targets_equal_the_per_batch_forward_bit_for_bit(score, encoding, seed,
                                                                gamma, ops):
    # syncs, online steps and batches in any order; live counts 0..32,
    # one live row, and batches whose only stale successor is one row
    env = FingeringEnv(score, encoding=encoding_for(score, encoding))
    rng = np.random.default_rng(seed)
    net = QNetwork(env.input_dim, rng=rng)
    cache = TargetMaxima(len(env.columns))
    n_states = len(env.columns)
    seen = np.empty(0, dtype=np.intp)
    for op in ops:
        if op == "sync":
            net.sync_target()
        elif op == "step":   # moves the online set only
            net.theta += rng.normal(scale=0.05, size=net.theta.size)
        else:
            k, m, new = op
            unseen = np.setdiff1d(np.arange(n_states), seen)
            new = m if not len(seen) else min(new, m) if len(unseen) else 0
            ids = np.concatenate([rng.choice(seen, m - new), rng.choice(unseen, new)])
            next_states = np.full(k, -1, dtype=np.intp)
            next_states[rng.permutation(k)[:m]] = ids
            # rewards small beside the Q-values, so a last-bit change survives the sum
            batch = Batch(rng.integers(0, n_states, k), rng.integers(1, 6, k),
                          rng.normal(scale=1e-3, size=k), next_states)
            expected = _reference_targets(batch, net, gamma, env)
            assert np.array_equal(compute_targets(batch, net, gamma, env, cache), expected)
            assert np.array_equal(compute_targets(batch, net, gamma, env), expected)
            if m >= 2:
                assert (cache.version[ids] == net.target_version).all()
            seen = np.union1d(seen, ids)


def test_targets_read_fresh_entries_and_refill_after_a_sync():
    env = _small_env()
    net = QNetwork(env.input_dim, rng=np.random.default_rng(5))
    cache = TargetMaxima(len(env.columns))
    batch = _batch([0.0, 0.0, 0.0], [5, 6, 7])
    compute_targets(batch, net, 0.9, env, cache)
    cache.values[[5, 6, 7]] = [1.0, 2.0, 3.0]   # fresh entries are read, not recomputed
    assert np.array_equal(compute_targets(batch, net, 1.0, env, cache), [1.0, 2.0, 3.0])
    net.sync_target()                            # a sync makes every entry stale
    assert np.array_equal(compute_targets(batch, net, 0.9, env, cache),
                          _reference_targets(batch, net, 0.9, env))


def _small_env():
    return FingeringEnv(
        Score.from_pitches([60, 62, 64, 65, 67], 1),
        encoding=StateEncoding.for_score(Score.from_pitches([60, 62, 64, 65, 67], 1)),
    )


def test_zero_episode_training_returns_empty_history():
    net, history = train(_small_env(), TrainConfig(episodes=0))
    assert history == []
    assert isinstance(net, QNetwork)


def test_training_is_deterministic_per_seed():
    cfg = TrainConfig(episodes=15, seed=7, batch_size=8, replay_capacity=64,
                      learning_rate=0.05)
    net_a, hist_a = train(_small_env(), cfg)
    net_b, hist_b = train(_small_env(), cfg)
    assert np.array_equal(net_a.get_flat_params(), net_b.get_flat_params())
    assert hist_a == hist_b
    net_c, _ = train(_small_env(), TrainConfig(
        episodes=15, seed=8, batch_size=8, replay_capacity=64, learning_rate=0.05))
    assert not np.array_equal(net_a.get_flat_params(), net_c.get_flat_params())


def test_history_records_schedule_and_losses():
    cfg = TrainConfig(episodes=10, seed=0, batch_size=6, replay_capacity=64,
                      learning_rate=0.05)
    _, history = train(_small_env(), cfg)
    assert [r.episode for r in history] == list(range(10))
    for r in history:
        assert isinstance(r, EpisodeRecord)
        assert r.epsilon == pytest.approx(epsilon_at(cfg, r.episode))


def test_updates_wait_for_one_full_batch():
    # 5-note score = 4 transitions per episode; batch 5 means episode 0
    # finishes before the buffer can fill, so its mean loss must be 0.
    cfg = TrainConfig(episodes=3, seed=0, batch_size=5, replay_capacity=64,
                      learning_rate=0.05)
    _, history = train(_small_env(), cfg)
    assert history[0].mean_loss == 0.0
    assert history[1].mean_loss > 0.0


def test_episode_hook_runs_once_per_episode():
    seen = []
    train(_small_env(), TrainConfig(episodes=6, seed=1),
          episode_hook=lambda ep, net: seen.append((ep, isinstance(net, QNetwork))))
    assert seen == [(ep, True) for ep in range(6)]


def test_truthy_hook_stops_training_after_that_episode():
    cfg = TrainConfig(episodes=12, seed=3, batch_size=6, replay_capacity=64,
                      learning_rate=0.05)
    full_net, full = train(_small_env(), cfg)
    for k in (0, 5, 11):
        seen = []

        def hook(episode, net):
            seen.append(episode)
            return episode == k

        net, history = train(_small_env(), cfg, episode_hook=hook)
        assert seen == list(range(k + 1))
        assert history == full[:k + 1]
    assert np.array_equal(net.get_flat_params(), full_net.get_flat_params())


def test_divergent_learning_rate_raises_training_error():
    cfg = TrainConfig(episodes=100, seed=0, learning_rate=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # overflow warnings precede the guard
        with pytest.raises(TrainingError):
            train(_small_env(), cfg)


# --- greedy rollout --------------------------------------------------------

def test_zero_net_rollout_picks_finger_one():
    score = Score.from_pitches([60, 62], 1)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    net = _zero_net(input_dim=env.input_dim)
    fingering, total = greedy_rollout(net, env)
    assert fingering == [1, 1]
    assert total == -1.0     # same finger forced onto a new pitch


def test_rollout_is_deterministic():
    score = Score.from_pitches([60, 64, 62, 65, 60], 2)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    net = QNetwork(env.input_dim, rng=np.random.default_rng(9))
    assert greedy_rollout(net, env) == greedy_rollout(net, env)


def test_rollout_never_beats_the_exact_optimum():
    score = Score.from_pitches([60, 62, 64, 65, 67, 65, 64, 62], 1)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    _, best = dp_optimal(score)
    for seed in range(10):
        net = QNetwork(env.input_dim, rng=np.random.default_rng(seed))
        fingering, total = greedy_rollout(net, env)
        assert len(fingering) == len(score)
        assert total <= best
