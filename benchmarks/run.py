"""Run one benchmark workload, check its outputs and print its metrics.

    python3 benchmarks/run.py --workload dqn_train --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --write-spec     # regenerate BENCHMARK.json

Run it from a checkout: the library is imported from ``src/`` next to
this directory.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs each piece of a half-size pass twice, plain and with per-layer
spans, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; a fuller record
(machine facts, digests, checks) goes to ``benchmarks/out/``.
"""

import time

PROCESS_START = time.perf_counter()   # setup_s counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = {
    "dqn_train": "DQN training to the acceptance targets on EX4 (31 inputs) and EX1 "
                 "(181 inputs): the agent layer does ~95% of the work",
    "tabular_q": "criterion-10 tabular Q-learning on EX1-EX5: env.step, the reward and "
                 "the Q dict do the work, no network",
    "dp_solve": "pianofinger solve on 1k- and 3k-note random walks mixed with 2-10-note "
                "scores: oracle and reward only, long tables against per-call cost",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("episodes_to_target", "episodes", "lower", 0.25),
    ("notes_per_s", "1/s", "higher", 0.25),
    ("scores_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
SPAN_FIELDS = (("calls", "count"), ("self_s", "s"), ("share", "ratio"))
OVERHEAD = ("trace.overhead", "ratio")

SETUP_REPEATS = 5   # this process plus four set-up-only children
RUN_SECONDS = 30


def span_names() -> list[str]:
    import workloads
    return [name for name, _, _ in workloads.span_targets()]


def per_layer() -> list[tuple[str, str]]:
    return [(f"{span}.{field}", unit) for span in span_names()
            for field, unit in SPAN_FIELDS] + [OVERHEAD]


def spec() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in per_layer()],
    }


def machine_facts() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 prints its config instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _setup_children(args) -> list[float]:
    """Set-up times of fresh processes that import, make inputs and warm up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _measure(args, workloads, inputs, files, own_setup):
    """Untraced pass: every end-to-end metric."""
    setups = [own_setup] + _setup_children(args)
    run = workloads.run_pass(args.workload, inputs, files)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = workloads.metrics(args.workload, run)
    values.update(setup_s=statistics.median(setups), peak_rss_mb=rss_mb)
    units = {n: u for n, u, _, _ in END_TO_END}
    return [run], {n: (values[n], units[n]) for n, _, _, _ in END_TO_END}, {
        "setups_s": setups, "fast_laps_s": workloads.fast_laps(run)}


def _trace(args, workloads, inputs, files):
    """Each piece of the pass twice in a row, plain and with spans, the
    order alternating, so a slow spell of the machine hits both sides of
    the overhead ratio: per-layer metrics."""
    from spans import Tracer, traced
    tracer = Tracer()
    targets, modules = workloads.span_targets(), workloads.library_modules()
    plain, spanned, ratios = workloads.Pass(0.0, []), workloads.Pass(0.0, []), []
    for i, piece in enumerate(workloads.pieces(args.workload, inputs, files)):
        wall = {}
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            side = spanned if with_spans else plain
            with traced(tracer, targets, modules) if with_spans else contextlib.nullcontext():
                start = time.perf_counter()
                side.records.extend(piece())
                wall[with_spans] = time.perf_counter() - start
            side.wall_s += wall[with_spans]
        ratios.append(wall[True] / wall[False])
    out = {}
    for name in span_names():
        stats = tracer.stats[name]
        out[f"{name}.calls"] = (stats.calls, "count")
        out[f"{name}.self_s"] = (stats.self_s, "s")
        out[f"{name}.share"] = (stats.self_s / spanned.wall_s, "ratio")
    out[OVERHEAD[0]] = (statistics.median(ratios) - 1, OVERHEAD[1])
    return [plain, spanned], out, {"spans_missing": sorted(set(tracer.missing))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if not (SRC / "pianofinger" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'pianofinger'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import workloads
    scale = args.seconds / 2 if args.trace else args.seconds
    inputs = workloads.make_inputs(args.workload, args.seed, scale)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        files = workloads.prepare(args.workload, inputs, work_dir)
        workloads.warm_up(args.workload, files)
        own_setup = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            runs, values, extra = _trace(args, workloads, inputs, files)
        else:
            runs, values, extra = _measure(args, workloads, inputs, files, own_setup)
        checks = {}
        for run in runs:
            for name, broken in workloads.check(args.workload, run).items():
                checks.setdefault(name, []).extend(broken)
        digests = [workloads.digests(args.workload, run) for run in runs]
        if len(digests) == 2:
            checks["tracing_changes_no_output"] = [
                k for k in digests[0] if digests[0][k] != digests[1].get(k)]
        errors = [(r.name, r.error) for run in runs for r in run.records if r.error]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(run.records) for run in runs)
    result = {
        "correct": not any(checks.values()),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in values.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "result": result,
        "failed_ratio": len(errors) / attempted, "errors": errors,
        "checks": {n: {"broken": b} for n, b in checks.items()},
        "digests": digests[0], "pass_wall_s": [run.wall_s for run in runs], **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    for name, (value, unit) in values.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_ratio {record['failed_ratio']:.6g} ratio "
          f"({len(errors)} of {attempted} operations)")
    for name, message in errors:
        print(f"failed {name}: {message}")
    for name, broken in checks.items():
        print(f"check {name}: {'FAIL ' + ', '.join(broken[:10]) if broken else 'ok'}")
    combined = hashlib.sha256("".join(digests[0].values()).encode()).hexdigest()
    print(f"digest {combined} over {len(digests[0])} operations, "
          f"each listed in {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
