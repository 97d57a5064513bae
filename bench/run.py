#!/usr/bin/env python3
"""evfuse benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sensor_ingest --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 2

One run sets the workload up three times (``setup_s`` is the median) and
runs one untimed warm-up operation after the first set-up. After each set-up
it repeats the operation until another third of ``--seconds`` has been spent
repeating, and it reports the median over all repetitions. Every operation's
output is checked. An operation that raises or fails its check counts as
failed and is not timed; a failed check also makes the run incorrect.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
traces every repetition and reports the per-layer metrics instead (see
``tracing.py``). ``--workload all`` runs each workload in its own
process, one after another, and prints all their metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full run record
(versions, thread settings, seed, input sizes, every sample, failures and,
when traced, every span) is written to ``bench/out/``. The program is
imported from ``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = ROOT / ".bench_work"

# One worker thread everywhere: set before NumPy or SciPy is imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("fusion_scene", "sensor_ingest", "record_bursty")
SETUPS = 3  # set-ups per run; setup_s is their median
DEFAULT_SEED, HELD_OUT_SEED = 1, 20231103


class Accounting:
    """Operations attempted and failed, with the failure types."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}  # type -> {"count", "first": message and traceback}

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        entry = self.failures.setdefault(kind, {"count": 0, "first": detail})
        entry["count"] += 1
        print(f"operation failed: {kind}: {detail.strip().splitlines()[-1] if detail.strip() else ''}",
              file=sys.stderr)


def attempt(workload, inputs, rep_dir: Path, acct: Accounting, tracer=None, run_id: str = ""):
    """Run and check one operation. Returns its wall time, or None if it failed."""
    from workloads import CheckFailed
    import tracing

    acct.attempted += 1
    rep_dir.mkdir(parents=True)
    try:
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = workload.operation(inputs, rep_dir)
                wall = time.perf_counter() - t0
            else:
                with tracing.traced(tracer), tracer.run(run_id) as root:
                    result = workload.operation(inputs, rep_dir)
                wall = root.ms / 1e3
        except Exception as exc:  # a failed operation must not end the run
            acct.fail(getattr(exc, "kind", type(exc).__name__), traceback.format_exc())
            return None
        try:
            workload.check(inputs, result)
        except CheckFailed as exc:
            acct.fail("CheckFailed", str(exc))
            return None
        except Exception as exc:  # a result the check cannot read is a wrong result
            acct.fail(f"CheckFailed.{type(exc).__name__}", traceback.format_exc())
            return None
        return wall
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "pipeline_jobs": 1,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Set up, measure and check one workload. Returns (result line, run record)."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    acct = Accounting()
    tracer = tracing.Tracer() if trace else None
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup_s, walls, ok_runs = [], [], []
    rep, measured = 0, 0.0
    try:
        # The set-ups are spread through the run, so that the timed repetitions
        # sample all of it: on a shared host the machine's speed drifts over
        # tens of seconds, and one stretch of it can be fast or slow.
        for k in range(SETUPS):
            inputs = None  # free the previous inputs before building the next
            shutil.rmtree(work / "setup", ignore_errors=True)
            t0 = time.perf_counter()
            if tracer is None:
                inputs = workload.setup(work / "setup", seed)
            else:
                with tracing.traced(tracer), tracer.run(f"setup{k}", "bench.setup"):
                    inputs = workload.setup(work / "setup", seed)
            setup_s.append(time.perf_counter() - t0)
            if k == 0:
                attempt(workload, inputs, work / "warmup", acct)

            # Each set-up ends its repetitions once k+1 thirds of --seconds have
            # been spent repeating, so an overrun shortens the next stretch.
            chunk_start, first = time.perf_counter(), rep
            until = (k + 1) * seconds / SETUPS - measured
            while rep == first or time.perf_counter() - chunk_start < until:
                run_id = f"op{rep}"
                wall = attempt(workload, inputs, work / f"rep{rep}", acct, tracer, run_id)
                if wall is not None:
                    walls.append(wall)
                    ok_runs.append(run_id)
                rep += 1
            measured += time.perf_counter() - chunk_start
        sizes = workload.sizes(inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A wrong output makes the run incorrect. An operation that raised counts as
    # failed (and against ok_ratio), but the others are still measured.
    wrong = any(kind.startswith("CheckFailed") for kind in acct.failures)
    correct = not wrong and bool(walls)
    values = {}
    if correct and trace:
        values = tracing.layer_metrics(tracer, ok_runs, [f"setup{k}" for k in range(SETUPS)])
    elif correct:
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "frames_per_s": inputs.n_frames / wall,
            "throughput_mevps": inputs.n_input_events / wall / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (acct.attempted - acct.failed) / acct.attempted,
        }
    units = declared_units("per_layer" if trace else "end_to_end")
    if values and set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not both measured and declared")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if values}
    line = {"correct": correct, "attempted": acct.attempted, "failed": acct.failed, "metrics": metrics}
    record = {
        "workload": name,
        "why": workload.why,
        "seed_changes_inputs": workload.seeded,
        "sizes": sizes,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "setup_s": setup_s,
        "wall_s": {"samples": walls, "n": len(walls), "quartiles": quartiles(walls) if walls else None},
        "failed_ratio": acct.failed / acct.attempted,
        "failures": acct.failures,
        "result": line,
    }
    if tracer is not None:
        record["spans"] = tracer.to_json()
    return line, record


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def print_metrics(title: str, line: dict, record: dict) -> None:
    print(title)
    for name, m in line["metrics"].items():
        extra = ""
        if name == "wall_s":
            q = record["wall_s"]["quartiles"]
            extra = f"  (n={record['wall_s']['n']}, q1={q[0]:.4f}, q3={q[2]:.4f})"
        print(f"  {name:26s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"  {'failed_ratio':26s} {line['failed'] / max(line['attempted'], 1):14.6g} "
          f"({line['failed']} of {line['attempted']} operations)")


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    lines = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        try:
            lines[name] = json.loads(out[-1]) if out else None
        except json.JSONDecodeError:
            lines[name] = None
        if proc.returncode != 0 or lines[name] is None:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            lines[name] = lines[name] or {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    total = {
        "correct": all(l["correct"] for l in lines.values()),
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "metrics": {f"{w}.{k}": v for w, l in lines.items() for k, v in l["metrics"].items()},
    }
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=22, help="how long to repeat the timed operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "evfuse" / "__init__.py").is_file():
        print(f"error: evfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import evfuse

    if Path(evfuse.__file__).resolve().parent != (SRC / "evfuse").resolve():
        print(f"error: imported evfuse from {evfuse.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print_metrics(f"{args.workload} seed={args.seed} trace={args.trace} record={path.relative_to(ROOT)}",
                  line, record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
