"""Self-test of the benchmark, in seconds: every workload at reduced size with
every output check, each checker handed corrupted results, failure accounting,
the traced run, and the refusal to run without the program's sources.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evfuse import alignment  # noqa: E402
from evfuse.streams import EventStream  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SMALL = {
    "fusion_scene": lambda: workloads.FusionScene(duration_s=0.25),
    "sensor_ingest": lambda: workloads.SensorIngest(n_events=200_000),
    "record_bursty": lambda: workloads.RecordBursty(n_background=20_000, n_bursts=5),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def case(request, tmp_path_factory):
    workload = SMALL[request.param]()
    work = tmp_path_factory.mktemp(request.param)
    inputs = workload.setup(work / "setup", seed=7)
    (work / "rep").mkdir()
    return workload, inputs, workload.operation(inputs, work / "rep"), work


def test_reduced_workload_passes_every_check(case):
    workload, inputs, result, work = case
    workload.check(inputs, result)
    (work / "rep2").mkdir()
    workload.check(inputs, workload.operation(inputs, work / "rep2"))


def _with_events(stream: EventStream, events) -> EventStream:
    return EventStream(stream.header, events, stream.triggers)


def _fusion_corruptions(summary: bytes):
    doc = json.loads(summary)
    dropped = dict(doc, frames=doc["frames"][:-1])
    shifted = dict(doc, deviation_median_px=doc["deviation_median_px"] + 0.3)
    yield "a frame is missing", json.dumps(dropped, indent=2, sort_keys=True).encode()
    yield "the deviation is off", json.dumps(shifted, indent=2, sort_keys=True).encode()
    yield "the bytes differ from the first repetition", summary + b" "


def _ingest_corruptions(r):
    events = r.decoded.events.copy()
    events["x"][len(events) // 2] ^= 1
    yield "a decoded event differs", dataclasses.replace(r, decoded=_with_events(r.decoded, events))
    windows = [dataclasses.replace(w, t0=w.t0 + 1) for w in r.windows]
    yield "a window moved", dataclasses.replace(r, windows=windows)
    per_window = list(r.per_window)
    per_window[3] = per_window[3][:-1]
    yield "a window lost an event", dataclasses.replace(r, per_window=per_window)
    accumulated = [a.copy() for a in r.accumulated]
    accumulated[0][0, 0] += 1
    yield "an accumulated frame has an extra event", dataclasses.replace(r, accumulated=accumulated)
    bumped = np.nextafter(r.fixed8.mean_bps, np.inf)
    yield "fixed8 mean_Bps is one ulp off", dataclasses.replace(r, fixed8=dataclasses.replace(r.fixed8, mean_bps=bumped))
    bumped = np.nextafter(r.esf1.mean_bps, np.inf)
    yield "esf1 mean_Bps is one ulp off", dataclasses.replace(r, esf1=dataclasses.replace(r.esf1, mean_bps=bumped))


def _record_corruptions(r, inputs):
    yield "no period was thinned", dataclasses.replace(r, kept=inputs.stream.events)
    yield "a period lost an event it could keep", dataclasses.replace(r, kept=r.kept[1:])
    events = r.decoded.events.copy()
    events["t"][-1] += 1
    yield "a decoded event differs", dataclasses.replace(r, decoded=_with_events(r.decoded, events))
    bumped = np.nextafter(r.report.mean_bps, -np.inf)
    yield "esf1 mean_Bps is one ulp off", dataclasses.replace(r, report=dataclasses.replace(r.report, mean_bps=bumped))
    # Each of these keeps the right count in every period and decodes back to
    # itself, so only the check that ERC keeps input events in order sees it.
    i = len(r.kept) // 2
    same_t = np.flatnonzero((r.kept["t"][1:] == r.kept["t"][:-1]) & (r.kept["x"][1:] != r.kept["x"][:-1]))
    j = int(same_t[len(same_t) // 2])
    for what, kept in [("a kept event is not an input event", _edited(r.kept, i, x=r.kept["x"][i] ^ 1)),
                       ("a kept event is kept twice", _edited(r.kept, j + 1, **{f: r.kept[f][j] for f in "xyp"})),
                       ("two kept events are swapped", np.concatenate([r.kept[:j], r.kept[j + 1:j + 2],
                                                                       r.kept[j:j + 1], r.kept[j + 2:]]))]:
        yield what, dataclasses.replace(r, kept=kept, decoded=_with_events(r.decoded, kept))


def _edited(events, i, **fields):
    events = events.copy()
    for name, value in fields.items():
        events[name][i] = value
    return events


def test_checker_rejects_corrupted_results(case):
    workload, inputs, result, _ = case
    workload.check(inputs, result)  # for fusion_scene this records the reference bytes
    if workload.name == "fusion_scene":
        corruptions = _fusion_corruptions(result)
    elif workload.name == "sensor_ingest":
        corruptions = _ingest_corruptions(result)
    else:
        corruptions = _record_corruptions(result, inputs)
    for what, bad in corruptions:
        with pytest.raises(CheckFailed):
            workload.check(inputs, bad)
            pytest.fail(f"check accepted a result where {what}")


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    workload = SMALL["sensor_ingest"]()
    a, b, c = (workload.setup(tmp_path, seed) for seed in (7, 7, 8))
    assert a.blob == b.blob
    assert a.blob != c.blob


def test_record_bursty_crosses_two_rollovers(case):
    workload, inputs, _, _ = case
    if workload.name == "record_bursty":
        assert workload.sizes(inputs)["timestamp_rollovers"] == 2


class _Flaky:
    """Fails by raising, then by a wrong result, then succeeds."""

    def __init__(self):
        self.calls = 0

    def operation(self, inputs, rep_dir):
        self.calls += 1
        if self.calls == 1:
            raise ValueError("'list' argument must have no negative elements")
        return self.calls

    def check(self, inputs, result):
        if result == 2:
            raise CheckFailed("wrong")


def test_failures_are_counted_by_type_and_not_timed(tmp_path):
    acct = run.Accounting()
    flaky = _Flaky()
    walls = [run.attempt(flaky, None, tmp_path / f"rep{i}", acct) for i in range(3)]
    assert walls[0] is None and walls[1] is None and walls[2] > 0
    assert (acct.attempted, acct.failed) == (3, 2)
    assert {k: v["count"] for k, v in acct.failures.items()} == {"ValueError": 1, "CheckFailed": 1}


def test_cli_data_error_is_reported_under_its_type(tmp_path):
    with pytest.raises(workloads.CliFailed) as info:
        workloads.call_cli(["info", str(tmp_path / "missing.esf")])
    assert info.value.kind == "FileNotFoundError"


def test_traced_pipeline_reports_layers(tmp_path):
    workload = SMALL["fusion_scene"]()
    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.run("setup0", "bench.setup"):
        inputs = workload.setup(tmp_path / "setup", seed=1)
    (tmp_path / "rep").mkdir()
    with tracing.traced(tracer), tracer.run("op1"):
        workload.check(inputs, workload.operation(inputs, tmp_path / "rep"))
    assert not hasattr(alignment.zncc_score, "__wrapped__")  # the originals are back
    metrics = tracing.layer_metrics(tracer, ["op1"], ["setup0"])
    assert metrics["synth.gen_scene_ms"] > 0 and metrics["synth.warp_view_ms"] > 0
    assert metrics["alignment.zncc_calls"] == workload.n_frames * 33 * 33
    assert metrics["sync.windows"] == workload.n_frames
    assert metrics["alignment.frames_usable"] == 1.0
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["trace.overhead_ms"] > 0
    names = {s.name for s in tracer.spans}
    assert {"cli.cmd_pipeline", "codec.decode_esf", "rate.rate_report", "codec.encode_stats"} <= names


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sensor_ingest", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
