"""Reference code the tests check the package against: finite-difference
gradients, dense one-hot rows built from a state's (finger, pitch, next
pitch), each state's max Q-value computed from those rows, the greedy
walk with one ``select_action`` per visited state, PCG64 streams with a
zero word where a test wants one, and the replay training loop with its
own ring, drawing from the generator one call at a time."""

import numpy as np

from pianofinger.agent import EpisodeRecord, QNetwork, epsilon_at, select_action
from pianofinger.score import FINGERS


def gradient_check(net: QNetwork, states, actions, targets, delta: float = 1e-4):
    """Compare analytic gradients against central finite differences, for
    actions given as ``train_step`` takes them, finger indices 0-4.

    Coordinates whose +/-delta perturbation flips any hidden-unit
    activation sign are skipped: across a rectifier kink the two-sided
    quotient does not estimate the one-sided derivative.  The relative
    error denominator is floored at 1e-6 so dead units (zero gradient on
    both sides) do not divide by rounding noise.

    Returns (max relative error, coordinates checked, coordinates skipped).
    """
    X = np.asarray(states, dtype=float)
    a_idx = np.asarray(actions, dtype=int)
    y = np.asarray(targets, dtype=float)
    n = X.shape[0]
    net._backward(X, a_idx, y)
    analytic = net.grad.copy()
    theta = net.theta.copy()

    def picked_loss():
        hs, q = net._layers(X)
        err = q[np.arange(n), a_idx] - y
        return float(np.mean(err ** 2)), [h > 0.0 for h in hs[1:]]

    max_rel = 0.0
    checked = 0
    skipped = 0
    work = theta.copy()
    try:
        for i in range(theta.size):
            work[i] = theta[i] + delta
            net.theta[:] = work
            loss_p, masks_p = picked_loss()
            work[i] = theta[i] - delta
            net.theta[:] = work
            loss_m, masks_m = picked_loss()
            work[i] = theta[i]
            if any(not np.array_equal(mp, mm) for mp, mm in zip(masks_p, masks_m)):
                skipped += 1
                continue
            numeric = (loss_p - loss_m) / (2.0 * delta)
            rel = abs(numeric - analytic[i]) / max(abs(numeric), abs(analytic[i]), 1e-6)
            max_rel = max(max_rel, rel)
            checked += 1
    finally:
        net.theta[:] = theta
    return max_rel, checked, skipped


def state_keys(score):
    """(finger, pitch, next pitch) of every state id, in id order."""
    p = score.pitches
    return [(f, p[t], p[t + 1]) for t in range(len(p) - 1) for f in FINGERS]


def one_hot_row(key, enc):
    """The dense input row of one (finger, pitch, next pitch) key."""
    v = np.zeros(enc.dim)
    v[[key[0] - 1, 5 + key[1] - enc.min_pitch, 5 + enc.width + key[2] - enc.min_pitch]] = 1.0
    return v


def dense_inputs(score, enc):
    """The dense input rows of every state id of ``score``, in id order."""
    return np.stack([one_hot_row(key, enc) for key in state_keys(score)])


def state_maxima(net: QNetwork, score, enc):
    """max_a Q(s, a) of every state id of ``score``, in id order: one
    forward over the dense rows of all states."""
    return net.forward(dense_inputs(score, enc)).max(axis=1)


def reference_rollout(net: QNetwork, env):
    """``greedy_rollout`` as one ``select_action`` per visited state, each
    a one-row forward of that state's dense row."""
    inputs = dense_inputs(env.score, env.encoding)
    with np.errstate(over="ignore", invalid="ignore"):
        return env.walk(lambda s: select_action(net, inputs[s:s + 1]))


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64(seed, zero_at=None, x=1):
    """PCG64(seed), or its stream moved so that raw word ``zero_at``
    (counted from 0) is 0: PCG64 steps its 128-bit state s to
    s * mult + inc and outputs hi(s) ^ lo(s) rotated, which is 0 when the
    stepped state is x * (2**64 + 1)."""
    bits = np.random.PCG64(seed)
    if zero_at is not None:
        state = bits.state
        inc = state["state"]["inc"]
        s = x * (2**64 + 1)
        for _ in range(zero_at + 1):
            s = (s - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128
        state["state"]["state"] = s
        bits.state = state
    return bits


def reference_train(env, config):
    """``agent.train``'s loop with every draw a ``Generator`` call, input
    rows from ``dense_inputs`` rather than ``env.inputs`` and a FIFO ring
    of four arrays (state id, finger, reward, next id): a step explores if
    ``rng.random() < eps`` (drawn only when eps > 0) with
    ``rng.integers(1, 6)``, and once the ring holds a batch samples
    ``rng.integers(0, len(ring), size=batch_size)`` and regresses toward
    r + gamma * target_max[next].  Returns (net, history)."""
    rng = np.random.default_rng(config.seed)
    net = QNetwork(env.input_dim, rng=rng)
    capacity = config.replay_capacity
    ring_states, ring_actions, ring_next = (np.empty(capacity, dtype=np.intp) for _ in range(3))
    ring_rewards = np.empty(capacity)
    size = cursor = 0
    inputs = dense_inputs(env.score, env.encoding)
    net.sync_target(inputs)
    history = []
    grad_steps = 0
    for episode in range(config.episodes):
        eps = epsilon_at(config, episode)
        state = env.start_id
        total = 0.0
        losses = []
        while state >= 0:
            if eps > 0.0 and rng.random() < eps:
                action = int(rng.integers(1, 6))
            else:
                action = select_action(net, inputs[state:state + 1])
            reward, nxt = env.transition(state, action)
            ring_states[cursor], ring_actions[cursor] = state, action
            ring_rewards[cursor], ring_next[cursor] = reward, nxt
            cursor = (cursor + 1) % capacity
            size = min(size + 1, capacity)
            if size >= config.batch_size:
                slots = rng.integers(0, size, size=config.batch_size)
                targets = ring_rewards[slots] + config.gamma * net.target_max[ring_next[slots]]
                losses.append(net.train_step(inputs[ring_states[slots]],
                                             ring_actions[slots] - 1, targets,
                                             config.learning_rate))
                grad_steps += 1
                if grad_steps % config.target_sync == 0:
                    net.sync_target(inputs)
            total += reward
            state = nxt
        history.append(EpisodeRecord(episode, total, eps,
                                     float(np.mean(losses)) if losses else 0.0))
    return net, history
