"""Acceptance gate: ten end-to-end checks, one per shipped claim.

Each test computes its verdict, prints exactly one
``ACCEPTANCE <n> <name>: PASS|FAIL`` line straight to the terminal
(bypassing capture so the line survives into piped pytest output), and
then asserts.  Tolerances and budgets are pinned here, not imported:

  * exact-optimum claims are bit-exact (total reward equality);
  * "within N episodes" means a greedy-policy snapshot taken after some
    episode < N already satisfies the claim;
  * learning-curve claims compare the mean training reward of the first
    50 episodes against the final 50;
  * gradient agreement means max relative error < 1e-4 under central
    differences with step 1e-4;
  * per-seed wall-clock budgets are generous ceilings, measured with
    time.perf_counter.

The network runs here use the bundled per-melody baseline configs
(default_train_config), i.e. exactly what the CLI uses for --ex N.
"""

import statistics
import time

import numpy as np
import pytest

from pianofinger.agent import QNetwork, TrainConfig, greedy_rollout, target_table, train
from pianofinger.env import FingeringEnv, StateEncoding
from pianofinger.experiments import build_experiment, default_train_config, encoding_for
from pianofinger.oracle import (
    count_position_changes,
    dp_optimal,
    exhaustive_optimal,
    tabular_q_train,
)
from pianofinger.reward import RewardModel, anchor, is_feasible, is_position_change
from pianofinger.score import Score

from helpers import gradient_check, reference_train, state_maxima

SEEDS = (0, 1, 2, 3, 4)


def _report(capsys, number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}",
              flush=True)


def _env_for(exp_id):
    spec = build_experiment(exp_id)
    return spec, FingeringEnv(spec.score,
                              encoding=encoding_for(spec.score, spec.encoding))


def _first_hit(env, config, is_hit):
    """Earliest episode whose post-episode greedy snapshot satisfies is_hit,
    or None if no episode within the budget does.  Training stops at the
    hit: the episodes before it are the same either way."""
    hits = []

    def hook(episode, net):
        fingering, total = greedy_rollout(net, env)
        if is_hit(fingering, total):
            hits.append(episode)
            return True
        return False

    train(env, config, episode_hook=hook)
    return hits[0] if hits else None


def test_criterion_01_oracle_agreement(capsys):
    # dp_optimal and exhaustive_optimal agree (value and fingering) on
    # 1000 random scores of 2-10 notes over pitches [55, 79]; < 10 s.
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        score = Score(
            [int(p) for p in rng.integers(55, 80, size=n)],
            int(rng.integers(1, 6)),
        )
        if dp_optimal(score) != exhaustive_optimal(score):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(capsys, 1, "oracle_agreement", ok,
            f"{mismatches} mismatches in {elapsed:.1f}s")
    assert ok


def test_criterion_02_repeated_note_single_finger(capsys):
    # 1000-episode default runs on the repeated-note melody: at least 4
    # of 5 seeds reach the constant-finger rollout [3]*8 with total +7;
    # < 120 s per seed.
    spec, env = _env_for("EX1")
    hits = 0
    worst = 0.0
    for seed in SEEDS:
        start = time.perf_counter()
        hit = _first_hit(env, default_train_config("EX1", seed),
                         lambda f, t: f == [3] * 8 and t == 7.0)
        worst = max(worst, time.perf_counter() - start)
        hits += hit is not None
    ok = hits >= 4 and worst < 120.0
    _report(capsys, 2, "repeated_note_single_finger", ok,
            f"{hits}/5 seeds, max {worst:.1f}s/seed")
    assert ok


def test_criterion_03_scale_stays_and_arches(capsys):
    # 100-episode default runs on the up-down five-finger scale: at
    # least 4 of 5 seeds reach gap 0 with zero relocations; < 30 s/seed.
    spec, env = _env_for("EX2")
    score = spec.score
    assert dp_optimal(score)[1] == 9.0

    def is_hit(fingering, total):
        return total == 9.0 and count_position_changes(score, fingering) == 0

    hits = 0
    worst = 0.0
    for seed in SEEDS:
        start = time.perf_counter()
        hit = _first_hit(env, default_train_config("EX2", seed), is_hit)
        worst = max(worst, time.perf_counter() - start)
        hits += hit is not None
    ok = hits >= 4 and worst < 30.0
    _report(capsys, 3, "scale_stays_and_arches", ok,
            f"{hits}/5 seeds, max {worst:.1f}s/seed")
    assert ok


def test_criterion_04_two_relocations(capsys):
    # The full octave up-down scale: the exact optimum is +11 with
    # exactly two relocations, and at least 3 of 5 default 5000-episode
    # runs get within 2 of it; < 600 s per seed.
    spec, env = _env_for("EX4")
    oracle_fingering, oracle_total = dp_optimal(spec.score)
    oracle_ok = (oracle_total == 11.0
                 and count_position_changes(spec.score, oracle_fingering) == 2)

    hits = 0
    worst = 0.0
    for seed in SEEDS:
        start = time.perf_counter()
        hit = _first_hit(env, default_train_config("EX4", seed),
                         lambda f, t: oracle_total - t <= 2.0)
        worst = max(worst, time.perf_counter() - start)
        hits += hit is not None
    ok = oracle_ok and hits >= 3 and worst < 600.0
    _report(capsys, 4, "two_relocations", ok,
            f"oracle +{oracle_total:g}/2 changes, {hits}/5 seeds, "
            f"max {worst:.1f}s/seed")
    assert ok


def test_criterion_05_learning_curves_rise(capsys):
    # On the two long in-position melodies the training-reward series,
    # averaged over 50-episode windows, must not fall from the first
    # window to the last, and the last window must reach 70% of the
    # exact optimum — in at least 4 of 5 seeds per melody.  Each seed's
    # final greedy gap (oracle total less the rollout's) is printed too.
    details = []
    ok = True
    for exp_id in ("EX3", "EX5"):
        spec, env = _env_for(exp_id)
        _, oracle_total = dp_optimal(spec.score)
        floor = 0.7 * oracle_total
        good = 0
        gaps = []
        for seed in SEEDS:
            net, records = train(env, default_train_config(exp_id, seed))
            series = [r.total_reward for r in records]
            first = float(np.mean(series[:50]))
            last = float(np.mean(series[-50:]))
            good += last >= first and last >= floor
            gaps.append(oracle_total - greedy_rollout(net, env)[1])
        details.append(f"{exp_id} {good}/5, final greedy gaps {' '.join(f'{g:g}' for g in gaps)}")
        ok = ok and good >= 4
    _report(capsys, 5, "learning_curves_rise", ok, "; ".join(details))
    assert ok


def test_criterion_06_small_encoding_converges_no_slower(capsys):
    # Median episodes-to-gap-0 on the up-down scale, paired seeds,
    # 100-episode budget: melodic-range features <= full-keyboard
    # features (no hit counts as infinity).
    spec = build_experiment("EX2")
    score = spec.score
    medians, hits = {}, {}
    for label, encoding in (("range", StateEncoding.for_score(score)),
                            ("88", StateEncoding.full_piano())):
        env = FingeringEnv(score, encoding=encoding)
        firsts = []
        for seed in SEEDS:
            hit = _first_hit(env, TrainConfig(episodes=100, seed=seed),
                             lambda f, t: t == 9.0)
            firsts.append(float("inf") if hit is None else hit)
        medians[label] = statistics.median(firsts)
        hits[label] = sum(first < float("inf") for first in firsts)
    ok = medians["range"] <= medians["88"]
    _report(capsys, 6, "small_encoding_converges_no_slower", ok,
            f"median episodes-to-optimum: range {medians['range']:g} "
            f"({hits['range']}/5 hit), full keyboard {medians['88']:g} ({hits['88']}/5 hit)")
    assert ok


def test_criterion_07_gradient_check(capsys):
    # Analytic backprop vs central finite differences: max relative
    # error < 1e-4 over 100 random batches in < 10 s, and the same bound
    # on one production-shaped network.
    rng = np.random.default_rng(777)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        net = QNetwork(12, hidden=(16, 16), rng=rng)
        states = rng.uniform(-1.0, 1.0, size=(8, 12))
        actions = rng.integers(0, 5, size=8)
        targets = rng.normal(size=8)
        rel, checked, _ = gradient_check(net, states, list(actions), targets)
        assert checked > 0
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start

    prod_net = QNetwork(31, rng=np.random.default_rng(778))
    prod_states = (np.random.default_rng(779).uniform(size=(4, 31)) < 0.1).astype(float)
    prod_rel, prod_checked, _ = gradient_check(
        prod_net, prod_states, [0, 1, 2, 3], np.array([1.0, -1.0, 0.5, -10.0]))

    ok = worst < 1e-4 and elapsed < 10.0 and prod_rel < 1e-4 and prod_checked > 0
    _report(capsys, 7, "gradient_check", ok,
            f"max rel err {worst:.2e} over 100 batches in {elapsed:.1f}s, "
            f"production shape {prod_rel:.2e}")
    assert ok


def test_criterion_08_replay_and_target_mechanics(capsys):
    checks = {}
    score = Score([60, 62, 64, 65, 67], 1)
    env = FingeringEnv(score, encoding=StateEncoding.for_score(score))

    # FIFO eviction at capacity: a run whose ring wraps (24 transitions
    # through 6 slots) is the reference loop's, with its own ring, bit for bit
    wrapped = TrainConfig(episodes=6, seed=0, batch_size=4, replay_capacity=6,
                          learning_rate=0.05)
    (net_run, hist_run), (net_ref, hist_ref) = train(env, wrapped), reference_train(env, wrapped)
    checks["fifo"] = hist_run == hist_ref and net_run.theta.tobytes() == net_ref.theta.tobytes()

    # the target table reads the maxima stored at the last sync only:
    # moving the online set after a sync must not move y
    net = QNetwork(env.input_dim, hidden=(8,), rng=np.random.default_rng(0))
    net.sync_target(env.inputs)
    rewards, next_ids = np.array(env.rewards), np.array(env.next_ids)
    y_before = target_table(net, rewards, next_ids, 0.95)
    for w in net.weights:
        w += 1.0
    y_after = target_table(net, rewards, next_ids, 0.95)
    checks["targets_from_delayed_copy"] = np.array_equal(y_before, y_after)

    # the last note's transitions, terminal whatever the finger, hold exactly r
    checks["terminal_exact"] = (bool((next_ids[-5:] == -1).all())
                                and np.array_equal(y_after[-5:], rewards[-5:]))

    # a sync fills the table with the online net's per-state maxima
    # exactly, then the 0.0 that terminal steps read
    def maxima(net):
        return np.append(state_maxima(net, score, env.encoding), 0.0)

    net.sync_target(env.inputs)
    checks["sync_exact"] = np.array_equal(net.target_max, maxima(net))

    # sync cadence, seen from its endpoints: syncing after every
    # gradient step leaves the table at the final net's maxima when
    # training stops; never syncing leaves it where the first fill put
    # it, away from them
    net_every, _ = train(env, TrainConfig(
        episodes=6, seed=0, batch_size=4, target_sync=1, learning_rate=0.05))
    checks["sync_every_step"] = np.array_equal(net_every.target_max, maxima(net_every))
    net_never, _ = train(env, TrainConfig(
        episodes=6, seed=0, batch_size=4, target_sync=10**9, learning_rate=0.05))
    checks["sync_never"] = not np.array_equal(net_never.target_max, maxima(net_never))

    # a full training run is a pure function of its seed
    cfg = TrainConfig(episodes=12, seed=3, batch_size=8, learning_rate=0.05)
    net_a, hist_a = train(env, cfg)
    net_b, hist_b = train(env, cfg)
    checks["seeded_determinism"] = (
        np.array_equal(net_a.theta, net_b.theta)
        and hist_a == hist_b)

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(capsys, 8, "replay_and_target_mechanics", ok,
            "all 7 sub-checks" if ok else f"failed: {failed}")
    assert ok, failed


def test_criterion_09_reward_rule_table(capsys):
    model = RewardModel()
    examples_ok = (
        anchor(1, 60) == 60 and anchor(3, 64) == 60 and anchor(5, 67) == 60
        and is_feasible(2, 60, 3, 59) is False
        and is_feasible(1, 65, 3, 64) is True
        and is_feasible(4, 64, 4, 64) is True
        and is_position_change(1, 60, 5, 67) is False
        and is_position_change(3, 64, 1, 65) is True
        and is_position_change(2, 62, 2, 74) is True
        and model.reward((1, 60, 62), 2) == 1.0
        and model.reward((3, 64, 65), 1) == -1.0
        and model.reward((2, 60, 59), 3) == -10.0
    )

    # translation invariance over a 10-semitone sweep
    shifts_ok = True
    for cf in range(1, 6):
        for action in range(1, 6):
            for cn in range(58, 71):
                for nn in range(58, 71):
                    base = model.reward((cf, cn, nn), action)
                    for k in range(11):
                        if model.reward((cf, cn + k, nn + k), action) != base:
                            shifts_ok = False

    ok = examples_ok and shifts_ok
    _report(capsys, 9, "reward_rule_table", ok,
            "12 worked examples + 46475 shifted-state comparisons")
    assert ok


def test_criterion_10_tabular_cross_check(capsys):
    # Plain tabular Q-learning (gamma=1) reaches the exact optimum on
    # the three short-horizon melodies within 2000 episodes in at least
    # 4 of 5 seeds; < 10 s per seed.
    details = []
    ok = True
    worst = 0.0
    for exp_id in ("EX1", "EX2", "EX4"):
        score = build_experiment(exp_id).score
        _, best = dp_optimal(score)
        good = 0
        for seed in SEEDS:
            start = time.perf_counter()
            q = tabular_q_train(score, None,
                                TrainConfig(episodes=2000, gamma=1.0, seed=seed),
                                alpha=0.5)
            _, total = q.greedy_fingering(score)
            worst = max(worst, time.perf_counter() - start)
            good += total == best
        details.append(f"{exp_id} {good}/5")
        ok = ok and good >= 4
    ok = ok and worst < 10.0
    _report(capsys, 10, "tabular_cross_check", ok,
            ", ".join(details) + f", max {worst:.1f}s/seed")
    assert ok
