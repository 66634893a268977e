"""The three workloads: seeded inputs, one timed pass, checks on its outputs.

A pass is closed-loop with one client: each library call starts when the
previous one has returned.  Its size comes from ``scale`` (the run's
--seconds), never from how long the pass takes, so the counts it reports
(episodes_to_target, calls per span) compare across versions.  Checks
run after the clock stops and never change what was timed.

Every operation times its parts as laps, each under a class of laps
that do the same work: episode k of a melody's DQN run, one greedy probe,
a tabular run of a melody, a long solve of a given length, a block of
short scores.  The metrics add up, per lap, the fastest lap of its class
in the pass (``fast_laps``).  The box switches between full speed and
up to half of it every few to few hundred milliseconds, for minutes on
end, so a plain total reads the share of slow spells; the fastest of
several to thousands of like laps reads the program.

Call the library through its module attributes (``agent.train``, not a
name imported from it): the traced run rebinds those attributes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import statistics
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from pianofinger import agent, cli, experiments, oracle, reward
from pianofinger import env as pf_env
from pianofinger import score as pf_score

clock = time.perf_counter

WORKLOADS = ("dqn_train", "tabular_q", "dp_solve")

# dqn_train: episode budget per melody.  A budget covers the median
# first-hit episode of the default configs with room to spare (EX4 hits
# at a median of 45, 84 of 100 seeds by episode 70; EX1 at 5, 97 of 100
# by 20) and keeps one seed's two runs near 0.4 s, so a pass holds tens
# of seeds: first-hit times vary so much from seed to seed that their
# median needs them.
DQN_BUDGET = {"EX4": 70, "EX1": 20}
# Acceptance targets: criterion 4 (within 2 of the oracle) and
# criterion 2 (the optimum, which holds finger 3 throughout).
DQN_TARGET_GAP = {"EX4": 2.0, "EX1": 0.0}
DQN_SEEDS_PER_SECOND = 2.4      # one seed = one run per melody, ~0.4 s

# tabular_q: criterion 10's traffic on every bundled melody.
TABULAR_BUDGET = 2000
TABULAR_ALPHA = 0.5
TABULAR_SEEDS_PER_SECOND = 0.7   # one seed = EX1..EX5, ~1.1 s

# dp_solve: random-walk scores of 1k and 3k notes, plus short scores of
# 2-10 notes over criterion 1's pitch window [55, 79].  A set holds as
# many notes of each length.  Longer scores are left out: a solve of 10k
# notes or more takes 0.17 s or longer, too long a lap to find the box at
# full speed, and their fastest laps swung 30-60% from run to run.
LONG_SET = {1_000: 3, 3_000: 1}
LONG_SETS_PER_SECOND = 4         # one set ~0.1 s
LONG_STEP = 5                    # largest interval of the walk, semitones
SHORT_PITCHES = (55, 79)
SHORT_NOTES = (2, 10)
# Short scores are solved and timed in blocks that hold the same lengths,
# so that blocks are laps of one class: each length four times, ~5 ms.
SHORT_BLOCK_LENGTHS = tuple(range(SHORT_NOTES[0], SHORT_NOTES[1] + 1)) * 4
SHORT_BLOCKS_PER_SECOND = 20     # ~0.07 s of short scores per second
EXHAUSTIVE_CHECKS = 400          # short scores also checked by brute force


def _count(per_second: float, scale: float) -> int:
    return max(1, round(per_second * scale))


def _seeds(rng: np.random.Generator, k: int) -> tuple[int, ...]:
    return tuple(int(s) for s in rng.choice(2**31, size=k, replace=False))


def _fold(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Reflect a walk into [lo, hi]."""
    width = hi - lo
    y = np.mod(x - lo, 2 * width)
    return lo + np.where(y <= width, y, 2 * width - y)


def make_inputs(workload: str, seed: int, scale: float) -> dict:
    """Everything the library receives in a pass, derived from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "dqn_train":
        return {"seeds": _seeds(rng, _count(DQN_SEEDS_PER_SECOND, scale))}
    if workload == "tabular_q":
        return {"seeds": _seeds(rng, _count(TABULAR_SEEDS_PER_SECOND, scale))}
    if workload == "dp_solve":
        longs = []
        one_set = [n for n, k in LONG_SET.items() for _ in range(k)]
        for _ in range(_count(LONG_SETS_PER_SECOND, scale)):
            for length in rng.permutation(one_set).tolist():
                start = int(rng.integers(pf_score.PITCH_MIN, pf_score.PITCH_MAX + 1))
                steps = rng.integers(-LONG_STEP, LONG_STEP + 1, size=length - 1)
                walk = _fold(np.concatenate([[start], start + np.cumsum(steps)]),
                             pf_score.PITCH_MIN, pf_score.PITCH_MAX)
                longs.append(_score_text(walk.tolist(), int(rng.integers(1, 6))))
        blocks = _count(SHORT_BLOCKS_PER_SECOND, scale)
        lengths = np.concatenate([rng.permutation(SHORT_BLOCK_LENGTHS)
                                  for _ in range(blocks)])
        count = len(lengths)
        fingers = rng.integers(1, 6, size=count).tolist()
        pitches = rng.integers(SHORT_PITCHES[0], SHORT_PITCHES[1] + 1,
                               size=int(lengths.sum())).tolist()
        ends = np.cumsum(lengths).tolist()
        shorts = tuple(_score_text(pitches[end - n:end], f)
                       for end, n, f in zip(ends, lengths.tolist(), fingers))
        return {"long_texts": tuple(longs), "short_texts": shorts}
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _score_text(pitches, first_finger: int) -> str:
    """The text serialize_score writes, without building a Score first."""
    return f"first_finger={first_finger}\n" + "".join(map("{}\n".format, pitches))


def prepare(workload: str, inputs: dict, work_dir: Path) -> dict:
    """Set-up a user does once before the timed calls: score files on disk."""
    if workload != "dp_solve":
        return {}
    work_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, text in enumerate(inputs["long_texts"]):
        path = work_dir / f"long{i}.txt"
        path.write_text(text)
        files.append((path, _note_count(text)))
    return {"long_files": files}


def warm_up(workload: str, files: dict) -> None:
    """Touch every code path of the pass once, outside the clock."""
    if workload == "dqn_train":
        for melody in DQN_BUDGET:
            _dqn_run(melody, seed=0, budget=3)
    elif workload == "tabular_q":
        _tabular_run("EX4", seed=0, budget=10)
    else:
        _solve_file(files["long_files"][0][0])
        _solve_text(_score_text([60, 62, 64], 1))


# ---------------------------------------------------------------- records

@dataclass
class Record:
    """One operation of a pass: a training run or one score solved."""

    name: str
    seconds: float                  # wall time of the whole operation
    error: Optional[str] = None     # set when the operation failed
    data: dict = field(default_factory=dict)
    # (class, seconds) of each timed part, in order; a block of short
    # scores keeps its one lap on its first score
    laps: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class Pass:
    wall_s: float
    records: list[Record]


def pieces(workload: str, inputs: dict, files: dict) -> list:
    """The pass as independent pieces, each a callable returning its
    records: one seed's runs, or one long file with a chunk of short
    scores.  Long files alternate with the chunks so a slow spell of the
    machine lands on both halves of the dp_solve mix."""
    if workload == "dqn_train":
        return [functools.partial(_dqn_seed, s) for s in inputs["seeds"]]
    if workload == "tabular_q":
        return [functools.partial(_tabular_seed, s) for s in inputs["seeds"]]
    shorts = inputs["short_texts"]
    longs = files["long_files"]
    block = len(SHORT_BLOCK_LENGTHS)
    size = -(-len(shorts) // (len(longs) * block)) * block   # whole blocks per chunk
    return [functools.partial(_dp_piece, i, path, notes, shorts,
                              range(min(len(shorts), i * size),
                                    min(len(shorts), (i + 1) * size)))
            for i, (path, notes) in enumerate(longs)]


def run_pass(workload: str, inputs: dict, files: dict) -> Pass:
    start = clock()
    records = [r for piece in pieces(workload, inputs, files) for r in piece()]
    return Pass(clock() - start, records)


def _dqn_seed(seed: int) -> list[Record]:
    return [_dqn_run(m, seed, DQN_BUDGET[m]) for m in DQN_BUDGET]


def _tabular_seed(seed: int) -> list[Record]:
    return [_tabular_run(m, seed, TABULAR_BUDGET) for m in experiments.EXPERIMENT_IDS]


def _dqn_run(melody: str, seed: int, budget: int) -> Record:
    """`pianofinger train --ex N --seed S --episodes B` with _first_hit's hook."""
    stamps = [clock()]   # start, train start, each hook's entry and exit, train end
    spec = experiments.build_experiment(melody)
    walk = pf_env.FingeringEnv(spec.score,
                               encoding=experiments.encoding_for(spec.score, spec.encoding))
    oracle_fingering, oracle_total = oracle.dp_optimal(spec.score)
    config = dataclasses.replace(experiments.default_train_config(melody, seed),
                                 episodes=budget)
    gap = DQN_TARGET_GAP[melody]
    seen = {"episodes": 0, "hit": None}

    def hook(episode, net):
        stamps.append(clock())
        seen["episodes"] = episode + 1
        if seen["hit"] is None:
            _, total = agent.greedy_rollout(net, walk)
            if oracle_total - total <= gap:
                seen["hit"] = (episode + 1, clock() - stamps[1], total)
        stamps.append(clock())

    error = None
    history = None
    stamps.append(clock())
    try:
        net, history = agent.train(walk, config, episode_hook=hook)
    except agent.TrainingError as exc:
        error = f"TrainingError after {seen['episodes']} episodes: {exc}"
    stamps.append(clock())
    final = agent.greedy_rollout(net, walk) if error is None else None
    stamps.append(clock())
    hit = seen["hit"][0] if seen["hit"] else None
    # set-up, episode 0, hook 0, episode 1, hook 1, ..., the rest
    t = np.diff(stamps).tolist()
    laps = [(f"{melody}/setup", t[0])]
    for k in range(seen["episodes"]):
        probe = hit is None or k < hit   # the hook rolls out until the hit
        laps += [(f"{melody}/episode{k}", t[1 + 2 * k]),
                 (f"{melody}/probe" if probe else f"{melody}/hook", t[2 + 2 * k])]
    laps.append((f"{melody}/rest", sum(t[1 + 2 * seen["episodes"]:])))
    return Record(f"{melody}/seed={seed}", stamps[-1] - stamps[0], error, {
        "melody": melody, "seed": seed, "score": spec.score, "notes": len(spec.score),
        "budget": budget, "episodes": seen["episodes"],
        # laps from train start to the hit (or to the budget on a miss)
        "target_laps": slice(1, 1 + 2 * (hit or seen["episodes"])),
        "hit": seen["hit"], "final": final, "history": history,
        "oracle": (oracle_fingering, oracle_total),
    }, laps)


def _tabular_run(melody: str, seed: int, budget: int) -> Record:
    """Criterion 10: tabular Q (gamma 1) then its greedy verdict."""
    t0 = clock()
    score = experiments.build_experiment(melody).score
    oracle_fingering, oracle_total = oracle.dp_optimal(score)
    config = agent.TrainConfig(episodes=budget, gamma=1.0, seed=seed)
    t1 = clock()
    q = oracle.tabular_q_train(score, None, config, alpha=TABULAR_ALPHA)
    t2 = clock()
    fingering, total = q.greedy_fingering(score)
    t3 = clock()
    return Record(f"{melody}/seed={seed}", t3 - t0, None, {
        "melody": melody, "seed": seed, "score": score, "notes": len(score),
        "budget": budget, "episodes": budget, "q": q, "final": (fingering, total),
        "oracle": (oracle_fingering, oracle_total),
    }, [(f"{melody}/setup", t1 - t0), (f"{melody}/train", t2 - t1),
        (f"{melody}/verdict", t3 - t2)])


def _solve_file(path: Path):
    """`pianofinger solve FILE`: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", str(path)])
    return code, out.getvalue(), err.getvalue()


def _solve_text(text: str):
    """The calls `solve` makes, on score text held in memory."""
    score = pf_score.parse_score(text)
    model = reward.RewardModel()
    fingering, total = oracle.dp_optimal(score, model)
    return fingering, total, oracle.count_position_changes(score, fingering, model)


def _dp_piece(i: int, path: Path, notes: int, shorts, indices) -> list[Record]:
    t = clock()
    code, out, err = _solve_file(path)
    seconds = clock() - t
    records = [Record(f"long{i}", seconds, None if code == 0 else err.strip(),
                      {"kind": "long", "path": path, "notes": notes, "stdout": out},
                      [(f"long/{notes}", seconds)])]
    size = len(SHORT_BLOCK_LENGTHS)
    for block in range(indices.start, indices.stop, size):
        t = clock()
        solved = []
        for j in range(block, min(indices.stop, block + size)):
            try:
                solved.append((j, _solve_text(shorts[j]), None))
            except ValueError as exc:
                solved.append((j, None, f"{type(exc).__name__}: {exc}"))
        seconds = clock() - t
        for j, result, error in solved:
            records.append(Record(f"short{j}", seconds / len(solved), error,
                                  {"kind": "short", "chunk": i, "text": shorts[j],
                                   "result": result},
                                  [("short/block", seconds)] if j == block else []))
    return records


# ---------------------------------------------------------------- metrics

def fast_laps(run: Pass) -> dict[str, float]:
    """Lap class -> its fastest lap in the pass.

    The laps of one class do the same work, so their spread is the
    machine's: the fastest of them is the time of that work at the box's
    full speed.  Failed operations add no laps.
    """
    fastest: dict[str, float] = {}
    for r in run.records:
        if r.error is None:
            for name, seconds in r.laps:
                fastest[name] = min(seconds, fastest.get(name, seconds))
    return fastest


def metrics(workload: str, run: Pass) -> dict[str, float]:
    """End-to-end metrics of one pass, except setup_s and peak_rss_mb.

    Every time is a sum of laps, each read as the fastest lap of its
    class (``fast_laps``); failed operations are left out.
    """
    fast = fast_laps(run)
    ok = [r for r in run.records if r.error is None]

    def spent(r: Record, laps=slice(None), part: str = "") -> float:
        return sum(fast[name] for name, _ in r.laps[laps] if part in name)

    if workload in ("dqn_train", "tabular_q"):
        train_s = sum(spent(r, part="/episode" if workload == "dqn_train" else "/train")
                      for r in ok)
        steps = sum(r.data["episodes"] * (r.data["notes"] - 1) for r in ok)
        notes = sum(r.data["episodes"] * r.data["notes"] for r in ok)
        by_melody: dict[str, list] = {}
        for r in ok:
            by_melody.setdefault(r.data["melody"], []).append(r)
        if workload == "dqn_train":
            # first hits differ from seed to seed and a miss counts its whole
            # run, so a sum over runs spreads widely: take each melody's
            # median run instead
            to_target_s = sum(statistics.median(spent(r, r.data["target_laps"]) for r in runs)
                              for runs in by_melody.values())
            episodes = sum(statistics.median((r.data["hit"] or [r.data["budget"]])[0]
                                             for r in runs) for runs in by_melody.values())
        else:
            # every run reaches its verdict at the same budget
            to_target_s = sum(spent(r, slice(1, None)) for r in ok)
            episodes = sum(runs[0].data["budget"] for runs in by_melody.values())
        return {
            "steps_per_s": steps / train_s,
            "time_to_target_s": to_target_s,
            "episodes_to_target": float(episodes),
            "notes_per_s": notes / train_s,
            "scores_per_s": len(ok) / sum(spent(r) for r in ok),
        }
    longs = [r for r in ok if r.data["kind"] == "long"]
    shorts = [r for r in ok if r.data["kind"] == "short"]
    long_s = sum(spent(r) for r in longs)
    short_s = sum(spent(r) for r in shorts)
    transitions = (sum(r.data["notes"] - 1 for r in longs)
                   + sum(_note_count(r.data["text"]) - 1 for r in shorts))
    return {"steps_per_s": transitions / (long_s + short_s),
            "time_to_target_s": long_s,
            # backward induction reaches the exact target in one sweep
            "episodes_to_target": 1.0,
            "notes_per_s": sum(r.data["notes"] for r in longs) / long_s,
            "scores_per_s": len(shorts) / short_s}


def _note_count(text: str) -> int:
    return text.count("\n") - 1   # serialize_score: header line, one note per line


# ---------------------------------------------------------------- digests

def digests(workload: str, run: Pass) -> dict[str, str]:
    """sha256 per training run (its EpisodeRecord stream, or its Q-table
    over the score's whole state space) and per DP fingering."""
    out = {}
    for r in run.records:
        h = hashlib.sha256()
        if r.error is not None:
            h.update(r.error.encode())
        elif workload == "dqn_train":
            for rec in r.data["history"]:
                h.update(struct.pack("<qddd", rec.episode, rec.total_reward,
                                     rec.epsilon, rec.mean_loss))
        elif workload == "tabular_q":
            pitches = r.data["score"].pitches
            for t in range(len(pitches) - 1):
                for f in pf_score.FINGERS:
                    h.update(np.asarray(r.data["q"].values((f, pitches[t], pitches[t + 1])),
                                        dtype="<f8").tobytes())
        else:
            fingering, total = _dp_answer(r)
            h.update(bytes(fingering))
            h.update(struct.pack("<d", total))
        out[r.name] = h.hexdigest()
    return out


def _dp_answer(r: Record):
    if r.data["kind"] == "short":
        fingering, total, _ = r.data["result"]
        return fingering, total
    lines = dict(line.split(": ", 1) for line in r.data["stdout"].splitlines())
    return [int(f) for f in lines["fingering"].split()], float(lines["total_reward"])


# ---------------------------------------------------------------- checks

def check(workload: str, run: Pass) -> dict[str, list[str]]:
    """Check name -> names of the operations that broke it (empty = pass).
    Failed operations are counted by the caller, not here."""
    failures: dict[str, list[str]] = {}

    def expect(name, record, ok):
        failures.setdefault(name, [])
        if not ok:
            failures[name].append(record.name)

    ok = [r for r in run.records if r.error is None]
    if workload in ("dqn_train", "tabular_q"):
        for r in ok:
            oracle_fingering, oracle_total = r.data["oracle"]
            expect("oracle_rescored", r, oracle_total == oracle.fingering_total_reward(
                r.data["score"], oracle_fingering))
            expect("greedy_total_within_oracle", r, r.data["final"][1] <= oracle_total)
            if workload == "dqn_train" and r.data["hit"] is not None:
                expect("hit_total_within_oracle", r, r.data["hit"][2] <= oracle_total)
        return failures
    shorts = [r for r in ok if r.data["kind"] == "short"]
    stride = max(1, len(shorts) // EXHAUSTIVE_CHECKS)
    for r in ok:
        text = r.data["path"].read_text() if r.data["kind"] == "long" else r.data["text"]
        score = pf_score.parse_score(text)
        fingering, total = _dp_answer(r)
        expect("dp_rescored", r, oracle.fingering_total_reward(score, fingering) == total)
    for r in shorts[::stride]:
        score = pf_score.parse_score(r.data["text"])
        expect("short_matches_exhaustive", r,
               oracle.exhaustive_optimal(score) == tuple(_dp_answer(r)))
    return failures


# ---------------------------------------------------------------- spans

def span_targets():
    """(span name, owner, attribute) for every per-layer span."""
    return [
        ("agent.train", agent, "train"),
        ("agent.select_action", agent, "select_action"),
        ("agent.replay.push", getattr(agent, "ReplayBuffer", None), "push"),
        ("agent.replay.sample", getattr(agent, "ReplayBuffer", None), "sample"),
        ("agent.compute_targets", agent, "compute_targets"),
        ("agent.train_step", getattr(agent, "QNetwork", None), "train_step"),
        ("agent.sync_target", getattr(agent, "QNetwork", None), "sync_target"),
        ("agent.greedy_rollout", agent, "greedy_rollout"),
        ("env.step", pf_env.FingeringEnv, "step"),
        ("env.encode", pf_env.FingeringEnv, "encode"),
        ("reward.reward", reward.RewardModel, "reward"),
        ("oracle.tabular_q_train", oracle, "tabular_q_train"),
        ("oracle.tabq.values", getattr(oracle, "TabularQ", None), "values"),
        ("oracle.tabq.greedy_action", getattr(oracle, "TabularQ", None), "greedy_action"),
        ("score.parse_score", pf_score, "parse_score"),
        ("oracle.dp_optimal", oracle, "dp_optimal"),
        ("oracle.count_position_changes", oracle, "count_position_changes"),
    ]


def library_modules():
    """Every loaded module of the package: where traced names are rebound."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pianofinger" or name.startswith("pianofinger."))]
