"""Reference code the tests check the package against: finite-difference
gradients, the replay ring's contents in push order, dense one-hot rows
built from a state's (finger, pitch, next pitch), and each state's max
Q-value computed from those rows."""

import numpy as np

from pianofinger.agent import Batch, QNetwork
from pianofinger.score import FINGERS


def gradient_check(net: QNetwork, states, actions, targets, delta: float = 1e-4):
    """Compare analytic gradients against central finite differences.

    Coordinates whose +/-delta perturbation flips any hidden-unit
    activation sign are skipped: across a rectifier kink the two-sided
    quotient does not estimate the one-sided derivative.  The relative
    error denominator is floored at 1e-6 so dead units (zero gradient on
    both sides) do not divide by rounding noise.

    Returns (max relative error, coordinates checked, coordinates skipped).
    """
    X = np.asarray(states, dtype=float)
    a_idx = np.asarray(actions, dtype=int) - 1
    y = np.asarray(targets, dtype=float)
    n = X.shape[0]
    net._backward(X, np.asarray(actions), y)
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


def replay_items(buf) -> Batch:
    """A ``ReplayBuffer``'s current contents, oldest first."""
    order = np.arange(buf._size)
    if buf._size == buf.capacity:
        order = np.roll(order, -buf._cursor)
    return Batch(*(column[order] for column in buf._ring))


def state_keys(score):
    """(finger, pitch, next pitch) of every state id, in id order."""
    p = score.pitches
    return [(f, p[t], p[t + 1]) for t in range(len(p) - 1) for f in FINGERS]


def one_hot_row(key, enc):
    """The dense input row of one (finger, pitch, next pitch) key."""
    v = np.zeros(enc.dim)
    v[[key[0] - 1, 5 + enc.pitch_index(key[1]), 5 + enc.width + enc.pitch_index(key[2])]] = 1.0
    return v


def state_maxima(net: QNetwork, score, enc):
    """max_a Q(s, a) of every state id of ``score``, in id order: one
    forward over the dense rows of all states."""
    rows = np.stack([one_hot_row(key, enc) for key in state_keys(score)])
    return net.forward(rows).max(axis=1)
