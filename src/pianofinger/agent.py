"""Deep Q-learning with experience replay on the fingering process.

The value network is a small fully connected net written from scratch on
numpy: ReLU hidden layers, a linear 5-way head (one Q-value per finger),
plain SGD on the squared TD error of the chosen action.  Bootstrap
targets come from a delayed copy of the weights refreshed every
``target_sync`` gradient steps, and transitions are replayed uniformly
(with replacement) out of a fixed-capacity FIFO ring.

The hot loop runs on arrays, not objects.  ``train`` and
``greedy_rollout`` walk the integer state ids of ``FingeringEnv``,
whose per-score tables give each step's reward and successor and each
state's one-hot feature columns.  The replay ring is four preallocated
arrays (state id, action, reward, next state id; next id -1 marks a
terminal step), and the network keeps each parameter set and its
gradient in one flat float64 buffer, so an SGD step, its finiteness
check and a target sync are one array operation each.  A training
step writes its one-hot batch, activations and deltas into arrays the
network allocates once per batch size, with ``out=``.

The delayed network changes only at a sync, so ``train`` caches
max_a Q_target(s, a) per state id (``TargetMaxima``), each entry
stamped with the target version it was computed at; a step runs the
target forward only over the successors whose entry is stale.  That
keeps every history bit for bit: a fill is a gemm like the per-batch
forward it replaces, and a gemm row does not depend on how many rows
share the product (a lone stale row is padded to two to stay one).  A
batch with a single live row is the exception: numpy multiplies one row
along its vector path, which rounds differently from gemm rows, so that
row takes the direct one-row forward, as the per-batch code did, and
leaves the cache alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .env import FingeringEnv


class TrainingError(RuntimeError):
    """Raised when a loss, gradient or chosen Q-value stops being finite.

    ``layer`` is the first layer, counted from 1 at the input, whose
    gradient holds a non-finite entry (None if only the loss or a Q-value
    does).  ``train`` re-raises with the ``episode`` and the gradient
    ``step`` (counted from 1) under way, and the message names all three.
    """

    def __init__(self, problem: str, layer: Optional[int] = None,
                 episode: Optional[int] = None, step: Optional[int] = None):
        self.problem = problem
        self.layer = layer
        self.episode = episode
        self.step = step
        where = [f"{name} {value}" for name, value in
                 (("episode", episode), ("gradient step", step), ("layer", layer))
                 if value is not None]
        super().__init__(problem + (" in " + ", ".join(where) if where else ""))


class Batch(NamedTuple):
    """Replayed transitions as parallel arrays; next id -1 = terminal."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray


class ReplayBuffer:
    """Fixed-capacity FIFO ring sampled uniformly with replacement.

    Slot ``i`` of the four arrays holds the ``i``-th transition pushed
    until the ring is full; after that each push overwrites the oldest.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring = Batch(np.empty(capacity, dtype=np.intp), np.empty(capacity, dtype=np.intp),
                           np.empty(capacity), np.empty(capacity, dtype=np.intp))
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state: int, action: int, reward: float, next_state: int) -> None:
        i = self._cursor
        ring = self._ring
        ring.states[i] = state
        ring.actions[i] = action
        ring.rewards[i] = reward
        ring.next_states[i] = next_state
        self._cursor = (i + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def sample(self, k: int, rng: np.random.Generator) -> Batch:
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=k)
        ring = self._ring
        return Batch(ring.states[idx], ring.actions[idx], ring.rewards[idx],
                     ring.next_states[idx])

    def items(self) -> Batch:
        """Current contents, oldest first."""
        order = np.arange(self._size)
        if self._size == self.capacity:
            order = np.roll(order, -self._cursor)
        return Batch(*(column[order] for column in self._ring))


class _BatchBuffers(NamedTuple):
    """Arrays one training batch writes instead of allocating."""

    x: np.ndarray               # one-hot input
    outs: list[np.ndarray]      # each layer's output
    deltas: list[np.ndarray]    # each layer's output gradient
    active: list[np.ndarray]    # each hidden layer's ReLU mask
    rows: np.ndarray            # 0..rows-1


def _layer_views(buffer: np.ndarray, sizes: Sequence[int]):
    """(weights, biases) of a layer stack as views into one flat buffer
    holding every layer's weights, then every layer's biases."""
    shapes = [*zip(sizes[:-1], sizes[1:]), *((n,) for n in sizes[1:])]
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[start:start + size].reshape(shape))
        start += size
    n_layers = len(sizes) - 1
    return tuple(views[:n_layers]), tuple(views[n_layers:])


class QNetwork:
    """Fully connected Q-network holding online and target parameter sets.

    Each set lives in one flat float64 buffer (``theta``,
    ``target_theta``) laid out as every layer's weights, then every
    layer's biases; ``weights``/``biases`` and
    ``target_weights``/``target_biases`` are views into them, and
    ``grad_weights``/``grad_biases`` view the gradient buffer ``grad``
    that ``train_step`` fills.  Weights and biases start uniform in
    [-1/sqrt(fan_in), +1/sqrt(fan_in)] drawn from the given generator;
    the target set starts as an exact copy of the online set, and
    ``target_version`` counts the syncs since.
    """

    def __init__(self, input_dim: int, hidden: Sequence[int] = (64, 64),
                 n_actions: int = 5, rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng()
        sizes = [input_dim, *hidden, n_actions]
        self.input_dim = input_dim
        self.n_actions = n_actions
        n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
        self.theta = np.empty(n_params)
        self.weights, self.biases = _layer_views(self.theta, sizes)
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        self.target_theta = self.theta.copy()
        self.target_weights, self.target_biases = _layer_views(self.target_theta, sizes)
        self.grad = np.zeros(n_params)
        self.grad_weights, self.grad_biases = _layer_views(self.grad, sizes)
        self.target_version = 0
        self._sizes = sizes
        self._step = np.empty(n_params)      # learning_rate * grad
        self._finite = np.empty(n_params, dtype=bool)
        self._batch_buffers: Optional[_BatchBuffers] = None

    def _buffers(self, rows: int) -> _BatchBuffers:
        """The preallocated arrays of a ``rows``-row batch, made anew only
        when the batch size differs from the last one's."""
        buffers = self._batch_buffers
        if buffers is None or len(buffers.rows) != rows:
            sizes = self._sizes
            buffers = self._batch_buffers = _BatchBuffers(
                np.zeros((rows, sizes[0])),
                [np.empty((rows, k)) for k in sizes[1:]],
                [np.empty((rows, k)) for k in sizes[1:]],
                [np.empty((rows, k), dtype=bool) for k in sizes[1:-1]],
                np.arange(rows),
            )
        return buffers

    def _one_hot(self, columns: np.ndarray) -> np.ndarray:
        """Rows of 1.0 at each row's ``columns`` and 0.0 elsewhere, in the
        batch's input buffer: valid until the next call."""
        buffers = self._buffers(len(columns))
        x = buffers.x
        x.fill(0.0)
        x[buffers.rows[:, None], columns] = 1.0
        return x

    def sync_target(self) -> None:
        """Copy the online parameters into the target set."""
        np.copyto(self.target_theta, self.theta)
        self.target_version += 1

    def forward(self, features, target: bool = False) -> np.ndarray:
        """Q-values for one feature vector or a (batch, dim) array."""
        x = np.asarray(features, dtype=float)
        h = x.reshape(1, -1) if x.ndim == 1 else x
        if h.shape[1] != self.input_dim:
            raise ValueError(f"expected features of width {self.input_dim}, got {h.shape[1]}")
        _, q = self._layers(h, target)
        return q[0] if x.ndim == 1 else q

    def _layers(self, X: np.ndarray, target: bool = False, outs=None):
        """Each layer's input (X, then every hidden activation) and the
        Q-values, for a (batch, dim) array.  Each layer's output goes
        into its entry of ``outs`` if given, else into a new array."""
        ws = self.target_weights if target else self.weights
        bs = self.target_biases if target else self.biases
        hs = [X]
        for w, b, out in zip(ws, bs, outs or [None] * len(ws)):
            z = np.matmul(hs[-1], w, out=out)
            z += b
            if len(hs) < len(ws):   # every layer but the head is rectified
                np.maximum(z, 0.0, out=z)
            hs.append(z)
        return hs[:-1], hs[-1]

    def train_step(self, states, actions, targets, learning_rate: float) -> float:
        """One SGD step on the mean squared error of the chosen actions.

        The gradient flows only through each sample's chosen output;
        targets are constants.  Returns the pre-step loss.
        """
        loss = self._backward(states, actions, targets)
        if not (math.isfinite(loss) and np.isfinite(self.grad, out=self._finite).all()):
            bad = [k + 1 for k, (gw, gb) in enumerate(zip(self.grad_weights, self.grad_biases))
                   if not (np.isfinite(gw).all() and np.isfinite(gb).all())]
            raise TrainingError(f"non-finite loss or gradient (loss={loss!r})",
                                layer=bad[0] if bad else None)
        self.theta -= np.multiply(learning_rate, self.grad, out=self._step)
        return loss

    def _backward(self, states, actions, targets) -> float:
        """Loss of the online set; writes its gradient into ``grad``."""
        X = np.asarray(states, dtype=float)
        a_idx = np.asarray(actions, dtype=int) - 1
        y = np.asarray(targets, dtype=float)
        n = X.shape[0]
        buffers = self._buffers(n)
        hs, q = self._layers(X, outs=buffers.outs)
        rows = buffers.rows
        err = q[rows, a_idx] - y
        loss = float(np.add.reduce(err * err) / n)   # np.mean(err ** 2)'s bits, less overhead
        delta = buffers.deltas[-1]
        delta.fill(0.0)
        delta[rows, a_idx] = 2.0 * err / n
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(hs[layer].T, delta, out=self.grad_weights[layer])
            np.add.reduce(delta, axis=0, out=self.grad_biases[layer])
            if layer > 0:
                delta = np.matmul(delta, self.weights[layer].T, out=buffers.deltas[layer - 1])
                active = np.greater(hs[layer], 0.0, out=buffers.active[layer - 1])
                np.multiply(delta, active, out=delta)
        return loss

    def get_flat_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_flat_params(self, theta: np.ndarray) -> None:
        self.theta[:] = theta


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
    theta = net.get_flat_params()

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
            net.set_flat_params(work)
            loss_p, masks_p = picked_loss()
            work[i] = theta[i] - delta
            net.set_flat_params(work)
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
        net.set_flat_params(theta)
    return max_rel, checked, skipped


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for the replay training loop (and the schedules
    shared with the tabular cross-check).

    The default learning rate is sized for plain SGD on the mean squared
    TD error with unit-scale one-hot features: 0.2 with batch 32 is an
    effective per-sample step of ~0.0125.  Rates around 1e-3 (customary
    for adaptive optimizers) are two orders of magnitude too small to fit
    the bootstrap targets inside the desk-scale episode budgets used
    here.
    """

    episodes: int
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.8
    replay_capacity: int = 10_000
    batch_size: int = 32
    target_sync: int = 100
    learning_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {self.episodes}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        for nm in ("epsilon_start", "epsilon_end"):
            v = getattr(self, nm)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{nm} must be in [0, 1], got {v}")
        if not 0.0 <= self.epsilon_decay_fraction <= 1.0:
            raise ValueError(
                f"epsilon_decay_fraction must be in [0, 1], got {self.epsilon_decay_fraction}"
            )
        if self.replay_capacity < 1:
            raise ValueError(f"replay_capacity must be >= 1, got {self.replay_capacity}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.target_sync < 1:
            raise ValueError(f"target_sync must be >= 1, got {self.target_sync}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def epsilon_at(config: TrainConfig, episode: int) -> float:
    """Linear decay from epsilon_start to epsilon_end over the first
    ``epsilon_decay_fraction`` of the run, flat afterwards."""
    decay_span = config.epsilon_decay_fraction * config.episodes
    if decay_span <= 0:
        return config.epsilon_end
    t = min(1.0, episode / decay_span)
    return config.epsilon_start + t * (config.epsilon_end - config.epsilon_start)


def select_action(net: QNetwork, state_features, epsilon: float,
                  rng: Optional[np.random.Generator] = None) -> int:
    """Epsilon-greedy finger choice; greedy ties break to the lowest finger.

    Raises TrainingError if the greedy pick's Q-value is not finite (a
    NaN anywhere in the Q-vector is picked first)."""
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("exploration (epsilon > 0) needs an rng")
        if rng.random() < epsilon:
            return int(rng.integers(1, 6))
    q = net.forward(state_features)
    a = int(q.argmax())
    if not math.isfinite(q[a]):
        raise TrainingError(f"non-finite Q-value {float(q[a])!r} for finger {a + 1}")
    return a + 1


class TargetMaxima:
    """max_a Q_target(s, a) for each state id of one env under one
    network, each entry stamped with the ``target_version`` it was
    computed at (-1: never)."""

    def __init__(self, n_states: int):
        self.values = np.empty(n_states)
        self.version = np.full(n_states, -1)


def compute_targets(batch: Batch, net: QNetwork, gamma: float, env: FingeringEnv,
                    cache: Optional[TargetMaxima] = None) -> np.ndarray:
    """Bootstrap targets: r for terminal transitions, else
    r + gamma * max target-network Q of the successor.

    Successor maxima come from ``cache`` where it holds them for the
    current target version, and the stale ones are computed and stored;
    without a cache every successor is stale.  The targets equal the
    per-batch forward's bit for bit either way."""
    y = batch.rewards.copy()
    live = batch.next_states >= 0
    ids = batch.next_states[live]
    if len(ids) == 1:
        # numpy multiplies one row along its vector path, which rounds
        # differently from gemm rows: compute it directly, uncached
        y[live] += gamma * net.forward(env.features(ids), target=True).max(axis=1)
    elif len(ids):
        cache = cache if cache is not None else TargetMaxima(len(env.columns))
        todo = ids[cache.version[ids] != net.target_version]   # duplicates are harmless
        if len(todo):
            if len(todo) == 1:
                todo = todo.repeat(2)   # keep the fill on the gemm path
            cache.values[todo] = net.forward(env.features(todo), target=True).max(axis=1)
            cache.version[todo] = net.target_version
        y[live] += gamma * cache.values[ids]
    return y


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    total_reward: float
    epsilon: float
    mean_loss: float


def train(env: FingeringEnv, config: TrainConfig,
          episode_hook: Optional[Callable[[int, QNetwork], object]] = None):
    """Run the replay-based Q-learning loop; returns (net, history).

    Every environment step acts epsilon-greedily, stores its transition,
    and (once the ring holds one full batch) samples a minibatch,
    regresses the online net toward the bootstrap targets, and copies the
    online weights into the target set every ``target_sync`` gradient
    steps.  ``episode_hook(episode, net)`` runs after each episode and
    must not change the net; a truthy return ends training there, so a
    run stopped after episode k has the first k+1 records of the full
    run.  A TrainingError names the episode and the gradient step it
    happened in.
    """
    rng = np.random.default_rng(config.seed)
    net = QNetwork(env.input_dim, rng=rng)
    buffer = ReplayBuffer(config.replay_capacity)
    maxima = TargetMaxima(len(env.columns))
    columns = env.columns
    history: list[EpisodeRecord] = []
    grad_steps = 0
    for episode in range(config.episodes):
        eps = epsilon_at(config, episode)
        state = env.start_id
        total = 0.0
        losses: list[float] = []
        try:
            while state >= 0:
                action = select_action(net, env.features(state), eps, rng)
                reward, nxt = env.transition(state, action)
                buffer.push(state, action, reward, nxt)
                if len(buffer) >= config.batch_size:
                    batch = buffer.sample(config.batch_size, rng)
                    targets = compute_targets(batch, net, config.gamma, env, maxima)
                    losses.append(net.train_step(net._one_hot(columns[batch.states]),
                                                 batch.actions, targets,
                                                 config.learning_rate))
                    grad_steps += 1
                    if grad_steps % config.target_sync == 0:
                        net.sync_target()
                total += reward
                state = nxt
        except TrainingError as exc:
            raise TrainingError(exc.problem, exc.layer, episode, grad_steps + 1) from exc
        history.append(EpisodeRecord(
            episode, total, eps, float(np.mean(losses)) if losses else 0.0
        ))
        if episode_hook is not None and episode_hook(episode, net):
            break
    return net, history


def greedy_rollout(net: QNetwork, env: FingeringEnv):
    """Walk the score greedily (epsilon = 0, no RNG consumed).

    Returns (fingering including the score's given first finger, total
    reward).
    """
    fingering = [env.score.first_finger]
    total = 0.0
    state = env.start_id
    while state >= 0:
        action = select_action(net, env.features(state), 0.0)
        fingering.append(action)
        reward, state = env.transition(state, action)
        total += reward
    return fingering, total
