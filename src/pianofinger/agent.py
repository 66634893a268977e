"""Deep Q-learning with experience replay on the fingering process.

The value network is a small fully connected net written from scratch on
numpy: ReLU hidden layers, a linear 5-way head (one Q-value per finger),
plain SGD on the squared TD error of the chosen action.  Bootstrap
targets come from the network as it stood at the last sync, one every
``target_sync`` gradient steps, and transitions are replayed uniformly
(with replacement) out of a fixed-capacity FIFO ring.

The hot loop runs on arrays, not objects.  ``train`` steps the integer
state ids of ``FingeringEnv``, whose per-score tables give each step's
reward and successor and each state's one-hot input row, and
``greedy_rollout`` is one ``env.walk``.  The network takes one input form, a
(rows, input_dim) array.  ``train`` and ``greedy_rollout`` read the env's
input table ``env.inputs``, one row per state id: acting reads the view
``inputs[s:s+1]``, the SGD batch gathers ``inputs[states]`` and each sync
reads the whole table.  The rows are exact 0/1 floats, so they are the
bits a row built per call would hold.
The replay ring is one preallocated ``intp`` array of transition ids,
k = 5 * state + action - 1, the flat index into the env's tables, with
no more slots than the run has steps; a batch is ``k = ring[slots]``
and ``divmod(k, 5)`` its states and finger indices.  The network keeps
its parameters and their gradient in one flat float64 buffer each, so
an SGD step and its finiteness check are one array operation each.  A
training step writes its activations and deltas into arrays the network
allocates once per batch size, with ``out=``.

One generator, ``default_rng(seed)``, makes every draw.  ``QNetwork``
draws its initial weights with ``uniform``; then ``train`` hands the
bit generator to ``Draws``, which replays the rest from raw PCG64
words: per episode, each step's explore pick (a ``random()`` only when
epsilon > 0, then ``integers(1, 6)`` if it falls below epsilon) and,
once the ring holds a batch, its replay slots
(``integers(0, len(ring), size=batch_size)``).  An episode's draws
depend only on epsilon, the step count and the ring size at each step,
never on the net, so they are made before the episode runs, and every
history is the per-call generator's bit for bit.  The rare episode in
which a slot's 32-bit half is rejected is drawn again by those
``Generator`` calls, from the state at which it began.

The learner reads one thing from the delayed network: max_a Q_target(s', a)
of a successor state, which changes only at a sync.  A score of L notes
has exactly 5(L-1) states, so the net keeps that value as one table,
``target_max``: at each sync, and once before the first step,
``sync_target`` runs one forward over every state's input row and
stores each row's max, then a 0.0 that next id -1 (terminal) reads.
``train`` then refills the target table r + gamma * target_max[next] of
all 25(L-1) transitions (``target_table``), so a batch's targets are
one gather.  A sync costs 5(L-1) rows, never more than the
batch_size * target_sync successor rows one sync window samples (3200
at the defaults) while L <= 641.  For a very long score the input
table holds 5(L-1) * input_dim floats, about 21 MB at 3000 notes under
the 88-key encoding, for as long as its env lives.
"""

from __future__ import annotations

import math
import numbers
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


class _BatchBuffers(NamedTuple):
    """Arrays one training batch writes instead of allocating."""

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
    """Fully connected Q-network and its table of delayed maxima.

    The parameters live in one flat float64 buffer ``theta`` laid out as
    every layer's weights, then every layer's biases; ``weights`` and
    ``biases`` are views into it, and ``grad_weights``/``grad_biases``
    view the gradient buffer ``grad`` that ``train_step`` fills.  Weights
    and biases start uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] drawn
    from the given generator.

    ``target_max`` is the delayed network as the learner reads it:
    max_a Q(s, a) of each state id at the last ``sync_target``, then 0.0
    for next id -1 (terminal).  Until the first sync it holds only the
    0.0.
    """

    def __init__(self, input_dim: int, hidden: Sequence[int] = (64, 64), *,
                 rng: np.random.Generator):
        sizes = [input_dim, *hidden, 5]   # one Q-value per finger
        self.input_dim = input_dim
        n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
        self.theta = np.empty(n_params)
        self.weights, self.biases = _layer_views(self.theta, sizes)
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        self.grad = np.zeros(n_params)
        self.grad_weights, self.grad_biases = _layer_views(self.grad, sizes)
        self.target_max = np.zeros(1)
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
                [np.empty((rows, k)) for k in sizes[1:]],
                [np.empty((rows, k)) for k in sizes[1:]],
                [np.empty((rows, k), dtype=bool) for k in sizes[1:-1]],
                np.arange(rows),
            )
        return buffers

    def sync_target(self, inputs: np.ndarray) -> None:
        """Refill ``target_max`` from the online parameters: one forward
        over ``inputs`` (every state's input row, in state-id order, as
        ``env.inputs`` holds them), each row's max, then 0.0."""
        self.target_max = np.append(self.forward(inputs).max(axis=1), 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values, a new (rows, 5) array, for a (rows, input_dim) array
        of input rows."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected input of shape (rows, {self.input_dim}), got {x.shape}")
        return self._layers(x)[1]

    def _layers(self, X: np.ndarray, outs=None):
        """Each layer's input (X, then every hidden activation) and the
        Q-values, for a (batch, dim) array.  Each layer's output goes
        into its entry of ``outs`` if given, else into a new array."""
        ws, bs = self.weights, self.biases
        hs = [X]
        for w, b, out in zip(ws, bs, outs or [None] * len(ws)):
            z = np.matmul(hs[-1], w, out=out)
            z += b
            if len(hs) < len(ws):   # every layer but the head is rectified
                np.maximum(z, 0.0, out=z)
            hs.append(z)
        return hs[:-1], hs[-1]

    def train_step(self, states, actions, targets, learning_rate: float) -> float:
        """One SGD step on the mean squared error of the chosen actions,
        given as finger indices 0-4 (finger - 1).

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
        a_idx = np.asarray(actions, dtype=int)
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

    The five counts must be integers (numpy ints and bools pass, ``2.5``
    and ``3.0`` do not) and the four fractions real numbers in [0, 1].
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
        for name, least in (("episodes", 0), ("replay_capacity", 1), ("batch_size", 1),
                            ("target_sync", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name in ("gamma", "epsilon_start", "epsilon_end", "epsilon_decay_fraction"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.batch_size > self.replay_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds replay_capacity "
                             f"{self.replay_capacity}: no gradient step would run")
        rate = self.learning_rate
        if not (isinstance(rate, numbers.Real) and math.isfinite(rate) and rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {rate!r}")


def epsilon_at(config: TrainConfig, episode: int) -> float:
    """Linear decay from epsilon_start to epsilon_end over the first
    ``epsilon_decay_fraction`` of the run, flat afterwards."""
    decay_span = config.epsilon_decay_fraction * config.episodes
    if decay_span <= 0:
        return config.epsilon_end
    t = min(1.0, episode / decay_span)
    return config.epsilon_start + t * (config.epsilon_end - config.epsilon_start)


def select_action(net: QNetwork, state_row: np.ndarray) -> int:
    """Greedy finger for a (1, input_dim) input row; ties break to the
    lowest finger.

    Raises TrainingError if the pick's Q-value is not finite (a NaN
    anywhere in the Q-vector is picked first)."""
    q, = net.forward(state_row)
    a = int(q.argmax())
    if not math.isfinite(q[a]):
        raise TrainingError(f"non-finite Q-value {float(q[a])!r} for finger {a + 1}")
    return a + 1


def target_table(net: QNetwork, rewards: np.ndarray, next_ids: np.ndarray,
                 gamma: float) -> np.ndarray:
    """Every transition's bootstrap target r + gamma * max_a Q_target(s', a)
    for ``env.rewards`` and ``env.next_ids`` as arrays; entry [s, a - 1]
    answers state id s with finger a.  A terminal step (next id -1) reads
    ``target_max``'s 0.0, so its target is r."""
    return rewards + gamma * net.target_max[next_ids]


class Draws:
    """The draws ``Generator(bits)`` makes for the learners, replayed from
    blocks of raw PCG64 words.

    ``random()`` is ``(w >> 11) * 2**-53`` of one word ``w``.
    ``integers(0, n)``, for 1 < n < 2**32, is Lemire's multiply-shift
    ``(h * n) >> 32`` on the next 32-bit half ``h``: the low half of a
    fresh word, whose high half PCG64 keeps for the next such draw (its
    ``has_uint32`` buffer, read here at the hand-over), and a half with
    ``(h * n) mod 2**32 < 2**32 mod n`` is rejected for the one after
    it.  ``integers(0, 1)`` draws nothing.  The words at hand keep their
    halves, their uniforms and the ``integers(1, 6) - 1`` of each half
    (-1 if rejected), indexed like the halves; ``_pending`` is the word
    whose high half waits (-1 if none) and ``_base`` the count of raw
    words read before the first word at hand.

    The learners' draw schedules depend only on epsilon, the step count
    and the ring size at each step, never on what they learn, so each
    episode's draws are made before it runs.
    """

    def __init__(self, bits: np.random.PCG64, block: int = 4096):
        self._bits, self._block = bits, block
        self._start = bits.state
        self._halves = np.empty(0, dtype=np.uint32)   # low, high of each word
        self._uniform, self._picks = [], []
        self._base = self._next = 0
        self._pending = -1
        if self._start["has_uint32"]:   # a word whose high half is the buffered one
            self._append(np.array([self._start["uinteger"] << 32], dtype=np.uint64))
            self._base, self._next, self._pending = -1, 1, 0

    def _append(self, words: np.ndarray) -> None:
        halves = words.astype("<u8", copy=False).view("<u4")
        self._halves = np.concatenate((self._halves, halves))
        self._uniform += ((words >> 11) * 2.0**-53).tolist()
        finger = (halves.astype(np.uint64) * 5 >> 32).astype(np.int64)
        self._picks += np.where(halves == 0, -1, finger).tolist()

    def _reserve(self, words: int) -> None:
        """Make sure ``words`` unread words are at hand: if they are not,
        drop the words read and no longer pending and read the shortfall,
        at least one block, in one ``random_raw``."""
        if len(self._uniform) - self._next >= words:
            return
        keep = self._pending if self._pending >= 0 else self._next
        del self._uniform[:keep], self._picks[:2 * keep]
        self._halves = self._halves[2 * keep:]
        self._base += keep
        self._next -= keep
        if self._pending >= 0:
            self._pending -= keep
        shortfall = words - (len(self._uniform) - self._next)
        self._append(self._bits.random_raw(max(self._block, shortfall)))

    def explore(self, eps: float, steps: int) -> list:
        """The tabular learner's episode: each step's
        ``rng.integers(1, 6) - 1`` if ``rng.random() < eps``, else -1
        (greedy)."""
        self._reserve(2 * steps)   # a step reads at most two words
        uniform, pick_of = self._uniform, self._picks
        i, pending = self._next, self._pending
        picks = []
        for _ in range(steps):
            u = uniform[i]
            i += 1
            if u >= eps:
                picks.append(-1)
                continue
            while True:
                if pending < 0:
                    pick, pending = pick_of[2 * i], i
                    i += 1
                else:
                    pick, pending = pick_of[2 * pending + 1], -1
                if pick >= 0:
                    break
                # a rejected half may read past the two words a step: read a block more
                self._append(self._bits.random_raw(self._block))
            picks.append(pick)
        self._next, self._pending = i, pending
        return picks

    def episode(self, eps: float, steps: int, size: int, capacity: int, batch: int):
        """The replay learner's episode, from a ring holding ``size`` of
        ``capacity`` transitions: each step's explore pick (``explore``'s
        if ``eps > 0``, else -1) and its replay slots
        (``rng.integers(0, n, size=batch)`` once the ring holds n >=
        batch transitions, else None).

        It reserves only the words its steps can draw: two per step, plus
        ceil(batch / 2) per step whose ring holds a batch.  The slots of
        all steps are made in one multiply-shift; an episode in which it
        finds a rejected half is drawn again by ``_replay``."""
        # a rejected pick half also appends a block, so no step trims
        drawing = max(steps - max(batch - size - 1, 0), 0) if capacity >= batch else 0
        self._reserve(2 * steps + drawing * ((batch + 1) // 2))
        start = self._next, self._pending
        picks, rows = [], []   # rows: first half, base of the rest, n, 2**32 mod n
        for s in range(steps):
            picks += self.explore(eps, 1) if eps > 0.0 else (-1,)
            n = min(size + s + 1, capacity)
            if n < batch:
                continue
            if n == 1:
                rows.append((0, 0, 1, 0))
                continue
            i, pending = self._next, self._pending
            if pending < 0:
                rows.append((2 * i, 2 * i, n, 2**32 % n))
                fresh = batch
            else:
                rows.append((2 * pending + 1, 2 * i - 1, n, 2**32 % n))
                fresh, pending = batch - 1, -1
            i += fresh >> 1
            if fresh & 1:   # the last fresh half is word i's low; its high waits
                pending = i
                i += 1
            self._next, self._pending = i, pending
        if not rows:
            return picks, [None] * steps
        r = np.array(rows, dtype=np.uint64)
        idx = r[:, 1:2] + np.arange(batch, dtype=np.uint64)
        idx[:, 0] = r[:, 0]
        m = self._halves[idx] * r[:, 2:3]
        if (m & 0xFFFFFFFF < r[:, 3:]).any():
            return self._replay(*start, eps, steps, size, capacity, batch)
        return picks, [None] * (steps - len(rows)) + list((m >> 32).astype(np.intp))

    def _replay(self, i, pending, eps, steps, size, capacity, batch):
        """``episode`` drawn by ``Generator`` calls from the state it began
        at, word ``i`` unread and word ``pending``'s high half waiting;
        the draws then restart after it."""
        bits = self._bits
        bits.state = self._start
        bits.advance(self._base + i)
        state = bits.state
        if pending >= 0:
            state["has_uint32"], state["uinteger"] = 1, int(self._halves[2 * pending + 1])
        bits.state = state
        rng = np.random.Generator(bits)
        picks, slots = [], []
        for s in range(steps):
            picks.append(int(rng.integers(1, 6)) - 1 if eps > 0.0 and rng.random() < eps else -1)
            n = min(size + s + 1, capacity)
            slots.append(rng.integers(0, n, size=batch) if n >= batch else None)
        self.__init__(bits, self._block)
        return picks, slots


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    total_reward: float
    epsilon: float
    mean_loss: float


def train(env: FingeringEnv, config: TrainConfig,
          episode_hook: Optional[Callable[[int, QNetwork], object]] = None):
    """Run the replay-based Q-learning loop; returns (net, history).

    Every environment step acts epsilon-greedily, writes its transition
    id into the ring, and (once the ring holds one full batch) regresses
    the online net toward a sampled minibatch's targets.  ``target_max``
    and the target table are refilled before the first step and every
    ``target_sync`` gradient steps.  The steps run without numpy's
    overflow warnings: the finiteness checks raise a TrainingError, which
    names the episode and the gradient step.  ``episode_hook(episode,
    net)`` runs after each episode and must not change the net; a truthy
    return ends training there, so a run stopped after episode k has the
    first k+1 records of the full run.
    """
    rng = np.random.default_rng(config.seed)
    net = QNetwork(env.input_dim, rng=rng)
    draws = Draws(rng.bit_generator, block=1024)   # ~60 steps of words; 4096 costs ~0.3 MB
    capacity, gamma = config.replay_capacity, config.gamma
    steps = len(env.score) - 1
    # transition ids, FIFO, in no more slots than the run has steps
    ring, pushed = np.empty(min(capacity, config.episodes * steps), dtype=np.intp), 0
    rewards, next_ids = np.array(env.rewards), np.array(env.next_ids)
    inputs = env.inputs
    net.sync_target(inputs)
    targets = target_table(net, rewards, next_ids, gamma)
    history: list[EpisodeRecord] = []
    grad_steps = 0
    for episode in range(config.episodes):
        eps = epsilon_at(config, episode)
        picks, slot_rows = draws.episode(eps, steps, min(pushed, capacity), capacity,
                                         config.batch_size)
        state = env.start_id
        total = 0.0
        losses: list[float] = []
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for pick, slots in zip(picks, slot_rows):
                    action = pick + 1 if pick >= 0 else select_action(net, inputs[state:state + 1])
                    reward, nxt = env.transition(state, action)
                    ring[pushed % capacity] = 5 * state + action - 1
                    pushed += 1
                    if slots is not None:   # the ring holds a full batch
                        k = ring[slots]
                        s, a = np.divmod(k, 5)
                        losses.append(net.train_step(inputs.take(s, axis=0), a,
                                                     targets.take(k), config.learning_rate))
                        grad_steps += 1
                        if grad_steps % config.target_sync == 0:
                            net.sync_target(inputs)
                            targets = target_table(net, rewards, next_ids, gamma)
                    total += reward
                    state = nxt
        except TrainingError as exc:
            raise TrainingError(exc.problem, exc.layer, episode, grad_steps + 1) from exc
        history.append(EpisodeRecord(episode, total, eps,
                                     float(np.mean(losses)) if losses else 0.0))
        if episode_hook is not None and episode_hook(episode, net):
            break
    return net, history


def greedy_rollout(net: QNetwork, env: FingeringEnv):
    """The env's walk at epsilon = 0, consuming no RNG: (fingering
    including the score's given first finger, total reward)."""
    inputs = env.inputs
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite pick raises
        return env.walk(lambda s: select_action(net, inputs[s:s + 1]))
