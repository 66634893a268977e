import dataclasses
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from pianofinger.agent import (
    Draws,
    EpisodeRecord,
    QNetwork,
    TrainConfig,
    TrainingError,
    epsilon_at,
    greedy_rollout,
    select_action,
    target_table,
    train,
)
from pianofinger.env import FingeringEnv, StateEncoding
from pianofinger.experiments import (ENCODINGS, EXPERIMENT_IDS, build_experiment,
                                     default_train_config, encoding_for)
from pianofinger.oracle import dp_optimal
from pianofinger.score import FINGERS, Score

from helpers import (dense_inputs, gradient_check, pcg64, reference_rollout, reference_train,
                     state_maxima)
from strategies import scores


def _zero_net(input_dim=4, hidden=(3,)):
    """A network whose every parameter is zero."""
    net = QNetwork(input_dim, hidden=hidden, rng=np.random.default_rng(0))
    net.theta[:] = 0.0
    return net


def _fixed_q_net(qvals, input_dim=4):
    """Zero net except the output bias, so forward(x) == qvals for all x."""
    net = _zero_net(input_dim=input_dim)
    net.biases[-1][:] = qvals
    return net


# --- network ---------------------------------------------------------------

def test_zero_net_outputs_zeros():
    net = _zero_net()
    assert np.array_equal(net.forward(np.ones((1, 4))), np.zeros((1, 5)))
    assert np.array_equal(net.forward(np.ones((7, 4))), np.zeros((7, 5)))


def test_target_starts_as_copy_of_online():
    # before any sync the table holds only the terminal 0.0; train fills
    # it from the initial weights before its first step
    env = _small_env()
    fresh = QNetwork(env.input_dim, rng=np.random.default_rng(3))
    assert np.array_equal(fresh.target_max, [0.0])
    net, _ = train(env, TrainConfig(episodes=0, seed=3))
    assert np.array_equal(net.theta, fresh.theta)
    assert np.array_equal(net.target_max,
                          np.append(state_maxima(fresh, env.score, env.encoding), 0.0))


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
    assert net.forward(np.ones((1, 4))).shape == (1, 5)
    assert net.forward(np.ones((2, 4))).shape == (2, 5)
    for bad in (np.ones((2, 5)), np.ones(4), np.ones((1, 1, 4)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"expected input of shape \(rows, 4\), got "
                                             + re.escape(str(np.shape(bad)))):
            net.forward(bad)


def test_forward_returns_a_new_array_each_call():
    env = _small_env()
    net = QNetwork(env.input_dim, hidden=(6,), rng=np.random.default_rng(0))
    first = net.forward(env.inputs[:2])
    kept = first.copy()
    net.forward(env.inputs[5:7])
    assert np.array_equal(first, kept)


@given(scores(), st.sampled_from(ENCODINGS),
       st.lists(st.integers(1, 40), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_hot_rows_are_the_dense_rows(score, encoding, row_counts, seed):
    # the network's input rows come from env.inputs: for any score and
    # encoding they are the dense reference rows, and any sequence of row
    # picks gives a new array each time, so an earlier pick's rows stay
    enc = encoding_for(score, encoding)
    env = FingeringEnv(score, encoding=enc)
    dense = dense_inputs(score, enc)
    assert np.array_equal(env.inputs, dense) and env.inputs.dtype == np.float64
    rng = np.random.default_rng(seed)
    earlier = []
    for rows in row_counts:
        ids = rng.integers(0, len(dense), size=rows)
        x = env.inputs[ids]
        assert x.shape == (rows, env.input_dim)
        earlier.append((x, dense[ids]))
        assert all(np.array_equal(x, want) for x, want in earlier)


def test_sync_target_copies_current_online_weights():
    # the table holds the maxima of the weights at the last sync, one per
    # state id, then the terminal 0.0
    env = _small_env()
    net = QNetwork(env.input_dim, hidden=(3,), rng=np.random.default_rng(0))
    net.sync_target(env.inputs)
    synced = net.target_max.copy()
    assert synced.shape == (len(env.inputs) + 1,) and synced[-1] == 0.0
    net.biases[-1][:] += 1.0
    assert np.array_equal(net.target_max, synced)
    net.sync_target(env.inputs)
    assert net.target_max == pytest.approx(synced + np.append(np.ones(len(env.inputs)), 0.0))
    assert np.array_equal(net.target_max,
                          np.append(state_maxima(net, env.score, env.encoding), 0.0))


def test_train_step_at_fixpoint_is_a_noop():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    states = rng.uniform(size=(8, 4))
    actions = rng.integers(0, 5, size=8)   # finger indices, finger - 1
    q = net.forward(states)
    targets = q[np.arange(8), actions]   # already perfect
    before = net.theta.copy()
    loss = net.train_step(states, list(actions), targets, learning_rate=0.5)
    assert loss == 0.0
    assert np.array_equal(net.theta, before)


def test_zero_learning_rate_changes_nothing():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    states = np.eye(4)
    before = net.theta.copy()
    loss = net.train_step(states, [0, 1, 2, 3], np.array([5.0, -5.0, 5.0, -5.0]), 0.0)
    assert loss > 0.0
    assert np.array_equal(net.theta, before)


def test_train_step_reduces_loss():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(4))
    states = np.eye(4)
    actions = [0, 1, 2, 3]
    targets = np.array([1.0, -1.0, 0.5, 0.0])
    # a zero step returns the loss and leaves the parameters as they are
    before = net.train_step(states, actions, targets, learning_rate=0.0)
    net.train_step(states, actions, targets, learning_rate=0.05)
    assert net.train_step(states, actions, targets, learning_rate=0.0) < before


def test_train_step_leaves_the_target_table_alone():
    env = _small_env()
    net = QNetwork(env.input_dim, hidden=(6,), rng=np.random.default_rng(1))
    net.sync_target(env.inputs)
    frozen = net.target_max.copy()
    theta = net.theta.copy()
    net.train_step(env.inputs[:4], [0, 1, 2, 3], np.ones(4), 0.1)
    assert not np.array_equal(net.theta, theta)
    assert np.array_equal(net.target_max, frozen)


def test_non_finite_targets_raise_training_error():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    with pytest.raises(TrainingError):
        net.train_step(np.eye(4), [0, 1, 2, 3], np.array([1.0, np.nan, 0.0, 0.0]), 0.1)


def test_training_error_names_the_first_non_finite_layer():
    # input 1e-3 drives a hidden unit to 100 through a 1e5 weight; a target
    # of -1e307 then overflows the loss and the output-layer gradient
    # (100 * 2e307) while the hidden layer's gradient stays finite
    net = _zero_net(input_dim=2, hidden=(3,))
    net.weights[0][0, :] = 1e5
    net.weights[1][:] = 1e-3
    with np.errstate(over="ignore"), pytest.raises(TrainingError) as info:
        net.train_step(np.array([[1e-3, 0.0]]), [0], np.array([-1e307]), 0.1)
    assert info.value.layer == 2
    assert "layer 2" in str(info.value)
    assert np.isfinite(net.grad_weights[0]).all() and np.isfinite(net.grad_biases[0]).all()
    assert not np.isfinite(net.grad_weights[1]).all()


def test_non_finite_loss_with_finite_gradients_names_no_layer():
    net = _zero_net(input_dim=2, hidden=(3,))
    before = net.theta.copy()
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match=r"loss=inf") as info:
        net.train_step(np.array([[1.0, 0.0]]), [0], np.array([1e200]), 0.1)
    assert info.value.layer is None
    assert np.isfinite(net.grad).all()
    assert np.array_equal(net.theta, before)   # no step was taken


def test_flat_buffers_back_the_layer_views():
    net = QNetwork(4, hidden=(6,), rng=np.random.default_rng(1))
    assert net.theta.size == 4 * 6 + 6 * 5 + 6 + 5
    for views, buffer in ((net.weights + net.biases, net.theta),
                          (net.grad_weights + net.grad_biases, net.grad)):
        assert all(np.shares_memory(v, buffer) for v in views)
    assert np.array_equal(net.theta, np.concatenate(
        [p.ravel() for p in (*net.weights, *net.biases)]))
    theta = np.arange(net.theta.size, dtype=float)
    net.theta[:] = theta
    assert net.weights[0][0, 1] == 1.0 and net.biases[-1][-1] == theta[-1]


def test_gradient_check_small_net():
    net = QNetwork(7, hidden=(9, 8), rng=np.random.default_rng(42))
    rng = np.random.default_rng(43)
    states = rng.uniform(-1.0, 1.0, size=(6, 7))
    actions = rng.integers(0, 5, size=6)
    q = net.forward(states)
    targets = q[np.arange(6), actions] + rng.normal(size=6)
    max_rel, checked, skipped = gradient_check(net, states, list(actions), targets)
    assert checked > 0
    assert skipped < checked          # the kink filter should be the exception
    assert max_rel < 1e-5


# --- action selection ------------------------------------------------------

def test_greedy_action_is_argmax_plus_one():
    net = _fixed_q_net([0.1, 0.9, 0.2, 0.2, 0.2])
    assert select_action(net, np.zeros((1, 4))) == 2


def test_greedy_tie_breaks_to_lowest_finger():
    net = _fixed_q_net([0.5, 0.5, 0.0, 0.0, 0.0])
    assert select_action(net, np.zeros((1, 4))) == 1


def test_greedy_consumes_no_rng():
    # at epsilon 0 an episode draws no uniform, and before the ring holds
    # a batch no slots: the next episode's draws are a fresh generator's
    draws = Draws(np.random.PCG64(5))
    assert draws.episode(0.0, 10, 0, 100, 32) == ([-1] * 10, [None] * 10)
    rng = np.random.default_rng(5)
    fresh = []
    for _ in range(3):
        assert rng.random() < 1.0
        fresh.append(int(rng.integers(1, 6)) - 1)
    assert draws.episode(1.0, 3, 10, 100, 32)[0] == fresh


def test_full_exploration_is_uniform_and_skips_the_net(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("exploration must not evaluate the network")

    picks, _ = Draws(np.random.PCG64(123)).episode(1.0, 4000, 0, 10, 10)
    counts = np.bincount(picks, minlength=5)
    assert counts.sum() == 4000 and all(c > 0 for c in counts)
    assert scipy.stats.chisquare(counts).pvalue > 0.01
    monkeypatch.setattr("pianofinger.agent.select_action", boom)
    train(_small_env(), TrainConfig(episodes=5, seed=0, epsilon_end=1.0))


def test_non_finite_greedy_q_raises_training_error():
    # argmax picks the first NaN, so a NaN head must not pass as finger 1
    net = _fixed_q_net([0.0] * 5)
    net.weights[-1][:] = np.nan
    with pytest.raises(TrainingError, match="non-finite Q-value"):
        select_action(net, np.ones((1, 4)))
    with pytest.raises(TrainingError):
        select_action(_fixed_q_net([0.0, np.inf, 0.0, 0.0, 0.0]), np.zeros((1, 4)))
    # a non-finite value that is not picked is no error
    assert select_action(_fixed_q_net([0.0, -np.inf, 1.0, 0.0, 0.0]), np.zeros((1, 4))) == 3


@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=50)
def test_selected_action_is_always_a_finger(epsilon, seed):
    # an explore pick or the greedy one, as train takes them
    net = _fixed_q_net([0.3, -0.2, 0.1, 0.0, 0.9])
    picks, _ = Draws(np.random.PCG64(seed)).episode(epsilon, 20, 0, 10, 32)
    for pick in picks:
        assert (pick + 1 if pick >= 0 else select_action(net, np.zeros((1, 4)))) in FINGERS
    if epsilon == 0.0:
        assert picks == [-1] * 20
    if epsilon == 1.0:
        assert -1 not in picks


# --- the draws, replayed from raw words --------------------------------------

def _generator_episodes(rng, episodes, size, capacity, batch):
    """``Draws.episode``'s picks and slot rows, episode after episode,
    drawn from ``rng`` one call at a time as the per-call loop draws."""
    out = []
    for eps, steps in episodes:
        picks, slots = [], []
        for s in range(steps):
            picks.append(int(rng.integers(1, 6)) - 1 if eps > 0.0 and rng.random() < eps else -1)
            n = min(size + s + 1, capacity)
            slots.append(rng.integers(0, n, size=batch).tolist() if n >= batch else None)
        out.append((picks, slots))
        size = min(size + steps, capacity)
    return out


_RINGS = st.one_of(
    # (capacity, batch, transitions held at the start)
    st.integers(1, 40).flatmap(lambda c: st.tuples(
        st.just(c), st.integers(1, c), st.integers(0, c))),
    st.integers(2**31, 2**32 - 1).flatmap(lambda c: st.tuples(   # about half the halves rejected
        st.just(c), st.integers(1, 6), st.integers(c - 30, c))),
)


# a zero word in the first episode's slots; in the second episode's, after
# a block trim and with a half waiting as it begins; in the first episode's
# with the handed-over half waiting; both halves of a word rejected; a half
# pending across a two-word block boundary
@example(seed=0, zero_at=3, x=1, block=4096, handed_half=False, ring=(40, 8, 40),
         episodes=[(0.0, 2)])
@example(seed=0, zero_at=13, x=1, block=2, handed_half=False, ring=(40, 8, 40),
         episodes=[(0.5, 2)] * 3)
@example(seed=0, zero_at=1, x=1, block=4096, handed_half=True, ring=(40, 8, 40),
         episodes=[(0.0, 1)] * 3)
@example(seed=0, zero_at=1, x=1, block=4096, handed_half=False, ring=(10, 1, 0),
         episodes=[(1.0, 2)])
@example(seed=0, zero_at=None, x=1, block=2, handed_half=True, ring=(9, 3, 0),
         episodes=[(1.0, 1)] * 8)
@given(st.integers(0, 2**32 - 1), st.none() | st.integers(0, 40), st.integers(0, 2**64 - 1),
       st.integers(1, 16), st.booleans(), _RINGS,
       st.lists(st.tuples(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                          st.integers(1, 12)), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_episode_draws_replay_the_numpy_generator(seed, zero_at, x, block, handed_half, ring,
                                                  episodes):
    # draw by draw: epsilon 0, between and 1; rings of one slot, of one
    # batch and of 2**31 slots or more; a half pending from a draw made
    # before the hand-over, across episodes and across block boundaries
    capacity, batch, size = ring
    rng = np.random.Generator(pcg64(seed, zero_at, x))
    if handed_half:
        rng.integers(1, 6)
    draws = Draws(rng.bit_generator, block=block)
    got = []
    for eps, steps in episodes:
        picks, slots = draws.episode(eps, steps, size, capacity, batch)
        got.append((picks, [None if row is None else row.tolist() for row in slots]))
        size = min(size + steps, capacity)
    ref = np.random.Generator(pcg64(seed, zero_at, x))
    if handed_half:
        ref.integers(1, 6)
    assert got == _generator_episodes(ref, episodes, ring[2], capacity, batch)


def test_an_episode_reads_only_the_words_it_can_draw():
    # no step of this episode fills a batch of 10**5, so it reads only its
    # picks' 30 words, within one block
    bits = np.random.PCG64(0)
    _, slots = Draws(bits).episode(1.0, 15, 0, 10**5, 10**5)
    assert slots == [None] * 15
    assert bits.state == np.random.PCG64(0).advance(4096).state


@pytest.mark.parametrize("exp_id, overrides, rejects", [
    pytest.param("EX1", {}, True, id="EX1-True"),
    pytest.param("EX3", {}, False, id="EX3-False"),
    pytest.param("EX4", {"episodes": 300, "replay_capacity": 64}, False, id="EX4-ring64"),
    pytest.param("EX1", {"replay_capacity": 40, "batch_size": 8}, False, id="EX1-ring40-batch8"),
    pytest.param("EX2", {"replay_capacity": 33, "batch_size": 1, "learning_rate": 0.02}, False,
                 id="EX2-ring33-batch1"),
])
def test_train_equals_the_per_call_loop_bit_for_bit(monkeypatch, exp_id, overrides, rejects):
    # seed 0 at the baseline config: EX1's run rejects a drawn half (in
    # episode 672), EX3's anneals epsilon to 0, where no uniform is drawn.
    # The other three wrap the ring, over and over.  The histories and
    # the weights are those of the loop that calls the generator for each
    # draw and keeps its own four-array ring
    redrawn = []
    replay = Draws._replay

    def counted(self, *args):
        redrawn.append(args)
        return replay(self, *args)

    monkeypatch.setattr(Draws, "_replay", counted)
    spec = build_experiment(exp_id)
    env = FingeringEnv(spec.score, encoding=encoding_for(spec.score, spec.encoding))
    config = dataclasses.replace(default_train_config(exp_id), **overrides)
    net, history = train(env, config)
    assert bool(redrawn) == rejects
    if overrides:   # the run wraps its ring
        assert len(history) * (len(spec.score) - 1) > config.replay_capacity
    ref_net, ref_history = reference_train(env, config)
    assert history == ref_history
    assert net.theta.tobytes() == ref_net.theta.tobytes()


# --- bootstrap targets -----------------------------------------------------

def _targets(net, env, gamma):
    """``env``'s target table under the net's last sync."""
    return target_table(net, np.array(env.rewards), np.array(env.next_ids), gamma)


def test_terminal_target_is_the_reward():
    # the last note's five states lead to next id -1 whatever the finger
    env = _small_env()
    net = _fixed_q_net([100.0] * 5, input_dim=env.input_dim)
    net.sync_target(env.inputs)  # must be ignored for terminal transitions
    assert np.array_equal(_targets(net, env, 0.95)[-5:], env.rewards[-5:])


def test_bootstrap_uses_target_network_only():
    env = _small_env()
    net = _zero_net(input_dim=env.input_dim)
    net.biases[-1][:] = [2.0, 0.0, 0.0, 0.0, 0.0]
    net.sync_target(env.inputs)  # target says max Q = 2
    net.biases[-1][:] = 0.0      # online says max Q = 0
    y = _targets(net, env, 0.95)
    assert y.shape == (len(env.inputs), 5)
    assert y[0, 2] == pytest.approx(env.rewards[0][2] + 0.95 * 2.0)


def test_gamma_zero_targets_are_rewards():
    env = _small_env()
    net = _fixed_q_net([7.0] * 5, input_dim=env.input_dim)
    net.sync_target(env.inputs)
    assert np.array_equal(_targets(net, env, 0.0), env.rewards)


def test_mixed_batch_targets():
    # live and terminal transitions side by side in one table
    env = _small_env()
    net = _zero_net(input_dim=env.input_dim)
    net.biases[-1][:] = [0.0, 3.0, 0.0, 0.0, 0.0]
    net.sync_target(env.inputs)
    net.biases[-1][:] = 0.0
    y = _targets(net, env, 0.5)
    rewards, live = np.array(env.rewards), np.array(env.next_ids) >= 0
    assert live.any() and not live.all()
    assert y[live] == pytest.approx(rewards[live] + 0.5 * 3.0)
    assert np.array_equal(y[~live], rewards[~live])


def test_targets_read_the_successor_features():
    # the bootstrap term is the target net's max Q at the successor's
    # features
    env = _small_env()
    net = QNetwork(env.input_dim, hidden=(6,), rng=np.random.default_rng(2))
    net.sync_target(env.inputs)
    y = _targets(net, env, 0.9)
    for s, (rewards, successors) in enumerate(zip(env.rewards, env.next_ids)):
        for a, (r, nxt) in enumerate(zip(rewards, successors)):
            expected = r if nxt < 0 else r + 0.9 * net.forward(env.inputs[[nxt]]).max()
            assert y[s, a] == pytest.approx(expected, rel=1e-12)


@given(scores(max_notes=30), st.sampled_from(ENCODINGS), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       st.lists(st.sampled_from(["sync", "step", "read"]), min_size=4, max_size=16))
@settings(max_examples=100, deadline=None)
def test_targets_equal_a_forward_of_the_last_synced_weights_bit_for_bit(
        score, encoding, seed, gamma, ops):
    # syncs, online steps and reads in any order.  ``synced`` is a copy of
    # the net made at the last sync: a live transition's target is its
    # reward plus gamma times its successor's max in one forward of every
    # state's row through that copy, a terminal one's its reward, bit for bit
    env = FingeringEnv(score, encoding=encoding_for(score, encoding))
    rng = np.random.default_rng(seed)
    net = QNetwork(env.input_dim, rng=rng)
    synced = QNetwork(env.input_dim, rng=np.random.default_rng(0))
    next_ids = np.array(env.next_ids)
    live = next_ids >= 0
    # rewards small beside the Q-values, so a last-bit change survives the sum
    rewards = rng.normal(scale=1e-3, size=next_ids.shape)
    for op in ["sync", *ops]:
        if op == "sync":
            net.sync_target(env.inputs)
            synced.theta[:] = net.theta
        elif op == "step":   # moves the online set only
            net.theta += rng.normal(scale=0.05, size=net.theta.size)
        else:
            maxima = synced.forward(env.inputs).max(axis=1)
            expected = rewards.copy()
            expected[live] += gamma * maxima[next_ids[live]]
            assert np.array_equal(target_table(net, rewards, next_ids, gamma), expected)


# --- replay ring -----------------------------------------------------------

def _check_replay(monkeypatch, config):
    """Train on the small env and check each gradient step's batch (input
    rows, fingers, targets) against a ring rebuilt from the transitions
    the env was asked for: slot j holds the latest transition p with
    p mod capacity == j.  Returns (transition ids in step order, each
    gradient step's slots)."""
    env = _small_env()
    rewards, next_ids = np.array(env.rewards), np.array(env.next_ids)
    inputs = dense_inputs(env.score, env.encoding)
    capacity = config.replay_capacity
    transitions, drawn, checked = [], [], []

    def transition(state, action):
        transitions.append(5 * state + action - 1)
        return FingeringEnv.transition(env, state, action)

    episode, train_step = Draws.episode, QNetwork.train_step

    def draw(self, *args):
        picks, slot_rows = episode(self, *args)
        drawn.extend(slots for slots in slot_rows if slots is not None)
        return picks, slot_rows

    def step(self, rows, actions, targets, learning_rate):
        n = len(transitions)
        k = np.array([transitions[j + capacity * ((n - 1 - j) // capacity)]
                      for j in drawn[len(checked)]])
        checked.append(np.array_equal(rows, inputs[k // 5])
                       and np.array_equal(actions, k % 5)
                       and np.array_equal(targets, target_table(
                           self, rewards, next_ids, config.gamma).take(k)))
        return train_step(self, rows, actions, targets, learning_rate)

    monkeypatch.setattr(env, "transition", transition)
    monkeypatch.setattr(Draws, "episode", draw)
    monkeypatch.setattr(QNetwork, "train_step", step)
    train(env, config)
    assert checked and all(checked)
    return transitions, drawn


def test_buffer_items_before_wraparound(monkeypatch):
    transitions, _ = _check_replay(monkeypatch, TrainConfig(
        episodes=5, seed=0, batch_size=4, replay_capacity=64, learning_rate=0.05))
    assert len(transitions) < 64


def test_buffer_overwrites_oldest_first(monkeypatch):
    transitions, _ = _check_replay(monkeypatch, TrainConfig(
        episodes=8, seed=1, batch_size=2, replay_capacity=5, learning_rate=0.05))
    assert len(transitions) > 2 * 5   # the ring wrapped more than once


def test_buffer_sample_with_replacement(monkeypatch):
    # a batch as large as the ring: a slot drawn twice gives its
    # transition twice
    _, drawn = _check_replay(monkeypatch, TrainConfig(
        episodes=4, seed=0, batch_size=4, replay_capacity=4, learning_rate=0.05))
    assert any(len(set(slots.tolist())) < len(slots) for slots in drawn)


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
    with pytest.raises(ValueError, match="^episodes must be >= 0, got -1$"):
        TrainConfig(episodes=-1)
    with pytest.raises(ValueError, match=r"^gamma must be in \[0, 1\], got 1.5$"):
        TrainConfig(episodes=10, gamma=1.5)
    for name in ("epsilon_start", "epsilon_end", "epsilon_decay_fraction"):
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got -0.1$"):
            TrainConfig(episodes=10, **{name: -0.1})
    with pytest.raises(ValueError, match="^batch_size must be >= 1, got 0$"):
        TrainConfig(episodes=10, batch_size=0)
    with pytest.raises(ValueError, match="^target_sync must be >= 1, got 0$"):
        TrainConfig(episodes=10, target_sync=0)
    with pytest.raises(ValueError, match="^learning_rate must be finite and >= 0, got -0.01$"):
        TrainConfig(episodes=10, learning_rate=-0.01)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(episodes=10, learning_rate=bad)
    with pytest.raises(ValueError, match="^replay_capacity must be >= 1, got 0$"):
        TrainConfig(episodes=10, replay_capacity=0)
    with pytest.raises(ValueError, match="batch_size 50 exceeds replay_capacity 20"):
        TrainConfig(episodes=10, batch_size=50, replay_capacity=20)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(episodes=10, seed=-1)
    # the five counts must be integers: a float count would fail only inside
    # train, or as target_sync sync at other steps than its value says
    counts = ("episodes", "replay_capacity", "batch_size", "target_sync", "seed")
    for name in counts:
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
                TrainConfig(**{"episodes": 10, name: bad})
        for good in (np.int64(3), True):
            config = TrainConfig(**{"episodes": 10, "batch_size": 1, name: good})
            assert getattr(config, name) == good
    # the four fractions and the learning rate must be real numbers: these
    # would fail a comparison or math.isfinite with a bare TypeError.  The
    # message shows each value's repr, so a string keeps its quotes
    fractions = ("gamma", "epsilon_start", "epsilon_end", "epsilon_decay_fraction")
    for name in fractions:
        for bad in ("0.5", None, [0.1], 1 + 0j):
            with pytest.raises(ValueError,
                               match=rf"^{name} must be in \[0, 1\], got {re.escape(repr(bad))}$"):
                TrainConfig(**{"episodes": 10, name: bad})
    with pytest.raises(ValueError, match=r"^gamma must be in \[0, 1\], got '0.5'$"):
        TrainConfig(episodes=3, gamma="0.5")
    for bad in ("0.1", None, 1 + 0j):
        with pytest.raises(ValueError, match="^learning_rate must be finite and >= 0, got "
                                             f"{re.escape(repr(bad))}$"):
            TrainConfig(episodes=10, learning_rate=bad)
    for good in (np.float64(0.5), np.int64(1), np.float32(0.25)):
        config = TrainConfig(episodes=10, learning_rate=good, **dict.fromkeys(fractions, good))
        assert config.gamma == config.learning_rate == good


# --- training loop ---------------------------------------------------------

@pytest.mark.parametrize("target_sync", [1, 3, 7, 10**9])
def test_train_syncs_before_the_first_step_and_every_target_sync_steps(monkeypatch,
                                                                        target_sync):
    # 1 + floor(gradient steps / target_sync) fills, the first before any
    # step: the count the benchmark's agent.sync_target span reports
    calls = []

    def counted(name):
        method = getattr(QNetwork, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)
        return wrapper

    for name in ("sync_target", "train_step"):
        monkeypatch.setattr(QNetwork, name, counted(name))
    train(_small_env(), TrainConfig(episodes=9, seed=0, batch_size=4, target_sync=target_sync,
                                    learning_rate=0.05))
    steps = calls.count("train_step")
    assert steps == 9 * 4 - 3   # one per transition once the ring holds a batch
    assert calls[0] == "sync_target"
    assert calls.count("sync_target") == 1 + steps // target_sync


def _small_env():
    return FingeringEnv(
        Score([60, 62, 64, 65, 67], 1),
        encoding=StateEncoding.for_score(Score([60, 62, 64, 65, 67], 1)),
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
    assert np.array_equal(net_a.theta, net_b.theta)
    assert hist_a == hist_b
    net_c, _ = train(_small_env(), TrainConfig(
        episodes=15, seed=8, batch_size=8, replay_capacity=64, learning_rate=0.05))
    assert not np.array_equal(net_a.theta, net_c.theta)


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
    assert np.array_equal(net.theta, full_net.theta)


def test_a_hook_can_track_greedy_rollouts():
    env = _small_env()
    totals = []
    net, _ = train(env, TrainConfig(episodes=5, seed=0),
                   episode_hook=lambda ep, net: totals.append(greedy_rollout(net, env)[1]))
    assert len(totals) == 5
    assert totals[-1] == greedy_rollout(net, env)[1]


def test_divergent_learning_rate_raises_training_error():
    # the run stops at the guard without a numpy warning
    cfg = TrainConfig(episodes=100, seed=0, learning_rate=50.0)
    with pytest.raises(TrainingError):
        train(_small_env(), cfg)


# --- greedy rollout --------------------------------------------------------

def test_zero_net_rollout_picks_finger_one():
    score = Score([60, 62], 1)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    net = _zero_net(input_dim=env.input_dim)
    fingering, total = greedy_rollout(net, env)
    assert fingering == [1, 1]
    assert total == -1.0     # same finger forced onto a new pitch


def test_rollout_is_deterministic():
    score = Score([60, 64, 62, 65, 60], 2)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    net = QNetwork(env.input_dim, rng=np.random.default_rng(9))
    assert greedy_rollout(net, env) == greedy_rollout(net, env)


def test_rollout_never_beats_the_exact_optimum():
    score = Score([60, 62, 64, 65, 67, 65, 64, 62], 1)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    _, best = dp_optimal(score)
    for seed in range(10):
        net = QNetwork(env.input_dim, rng=np.random.default_rng(seed))
        fingering, total = greedy_rollout(net, env)
        assert len(fingering) == len(score)
        assert total <= best


def test_a_rollout_is_one_forward_of_the_input_table(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a rollout must not act one row at a time")

    env = _small_env()
    net = QNetwork(env.input_dim, rng=np.random.default_rng(3))
    expected = greedy_rollout(net, env)
    seen = []
    forward = QNetwork.forward
    monkeypatch.setattr(QNetwork, "forward", lambda self, x: seen.append(x) or forward(self, x))
    monkeypatch.setattr("pianofinger.agent.select_action", boom)
    assert greedy_rollout(net, env) == expected
    assert len(seen) == 1 and seen[0] is env.inputs


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_rollout_equals_the_walk_that_acts_one_row_at_a_time(exp_id):
    """The rollout reads the table forward, the per-state walk one-row
    forwards, whose Q-values may differ in the last bits; the picks have
    not.  No counter-example is known: none on these nets, nor on 6300
    rollouts under both encodings (random nets of seeds 0-199 and nets
    trained 3, 10 and 30 episodes on seeds 0-9, after every episode)."""
    spec = build_experiment(exp_id)
    env = FingeringEnv(spec.score, encoding=encoding_for(spec.score, spec.encoding))
    for seed in range(20):
        net = QNetwork(env.input_dim, rng=np.random.default_rng(seed))
        assert greedy_rollout(net, env) == reference_rollout(net, env)
    checked = []

    def check(episode, net):
        assert greedy_rollout(net, env) == reference_rollout(net, env)
        checked.append(episode)

    for seed in range(3):
        train(env, dataclasses.replace(default_train_config(exp_id, seed), episodes=5),
              episode_hook=check)
    assert len(checked) == 15


def test_a_non_finite_q_value_raises_only_where_the_walk_goes():
    # a two-note score's walk visits state 0 (finger 1) alone
    score = Score([60, 62], 1)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))
    net = _zero_net(input_dim=env.input_dim)
    net.weights[1][:] = 1e308
    net.weights[0][1] = 1e308   # finger 2's column: state 1's Q-values overflow
    with np.errstate(over="ignore"):
        q = net.forward(env.inputs)
    assert np.isinf(q[1]).all() and not q[[0, 2, 3, 4]].any()
    assert greedy_rollout(net, env) == reference_rollout(net, env) == ([1, 1], -1.0)
    net.weights[0][0] = 1e308   # finger 1's column: the visited row's
    for rollout in (greedy_rollout, reference_rollout):
        with pytest.raises(TrainingError, match="^non-finite Q-value inf for finger 1$"):
            rollout(net, env)
