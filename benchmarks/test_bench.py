"""Tests of the benchmark itself:  python3 -m pytest benchmarks"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pianofinger import cli, oracle, score  # noqa: E402


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.make_inputs(workload, 5, 2.0)
        assert first == workloads.make_inputs(workload, 5, 2.0)
        assert first != workloads.make_inputs(workload, 6, 2.0)


def test_score_texts_are_canonical():
    inputs = workloads.make_inputs("dp_solve", 5, 0.5)
    for text in inputs["long_texts"] + inputs["short_texts"][:200]:
        assert score.serialize_score(score.parse_score(text)) == text


def test_short_blocks_hold_the_same_lengths_and_are_never_split(tmp_path):
    inputs = workloads.make_inputs("dp_solve", 5, 30.0)
    shorts = inputs["short_texts"]
    size = len(workloads.SHORT_BLOCK_LENGTHS)
    assert len(shorts) % size == 0
    for start in range(0, len(shorts), size):
        lengths = sorted(workloads._note_count(t) for t in shorts[start:start + size])
        assert lengths == sorted(workloads.SHORT_BLOCK_LENGTHS)
    files = {"long_files": [(tmp_path / f"long{i}.txt", 1)
                            for i in range(len(inputs["long_texts"]))]}
    chunks = [piece.args[-1] for piece in workloads.pieces("dp_solve", inputs, files)]
    assert chunks[0].start == 0 and chunks[-1].stop == len(shorts)
    assert all(c.start % size == 0 and c.stop == n.start for c, n in zip(chunks, chunks[1:]))


def test_fast_laps_take_each_class_fastest_and_skip_failures():
    Record = workloads.Record
    run = workloads.Pass(0.0, [
        Record("a", 0.0, None, {}, [("x", 3.0), ("y", 1.0)]),
        Record("b", 0.0, None, {}, [("x", 2.0), ("x", 5.0)]),
        Record("c", 0.0, "failed", {}, [("x", 0.5), ("z", 1.0)]),
    ])
    assert workloads.fast_laps(run) == {"x": 2.0, "y": 1.0}


def test_self_time_is_span_time_minus_child_spans():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = tracer.wrap("leaf", advance)

    def middle():
        advance(1.0)
        leaf(2.0)
        advance(0.5)
        leaf(3.0)

    middle = tracer.wrap("middle", middle)

    def root():
        middle()
        advance(4.0)

    tracer.wrap("root", root)()
    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].total_s, stats["leaf"].self_s) == (2, 5.0, 5.0)
    assert (stats["middle"].total_s, stats["middle"].self_s) == (6.5, 6.5 - 5.0)
    assert (stats["root"].total_s, stats["root"].self_s) == (10.5, 10.5 - 6.5)


def test_spans_reach_imported_copies_and_are_removed_after():
    original = oracle.dp_optimal
    tracer = spans.Tracer()
    targets = [("oracle.dp_optimal", oracle, "dp_optimal"),
               ("gone", None, "anything"), ("gone.method", oracle.TabularQ, "no_such")]
    with spans.traced(tracer, targets, workloads.library_modules()):
        assert cli.dp_optimal is oracle.dp_optimal is not original
        workloads._solve_text("first_finger=1\n60\n62\n64\n")
    assert cli.dp_optimal is oracle.dp_optimal is original
    assert tracer.stats["oracle.dp_optimal"].calls == 1
    assert tracer.missing == ["gone", "gone.method"]


def test_metric_names_are_valid_and_benchmark_json_is_current():
    spec = run.spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_runs_print_every_metric_of_their_kind():
    spec = run.spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "tabular_q", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = _last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]


def test_fails_without_printing_a_result_when_the_library_is_absent():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    try:
        done = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "dp_solve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert "{" not in done.stdout
