"""Spans around evfuse's public functions, recorded from outside the package.

:func:`traced` replaces the module attributes that hold the functions named in
:data:`TRACED` with wrappers, in every loaded ``evfuse`` module that refers to
them, and restores the originals on exit. Nothing under ``src/`` changes, and
a run that does not enter :func:`traced` pays nothing.

Each span has a name, start and end (``perf_counter_ns``), the id of the span
that was open when it started, the id of the run (one timed operation or one
setup), a few counts taken from the call's arguments and result, and the type
of the exception that ended it, if any. Spans stay in memory; the runner
writes them out when the run ends. :func:`layer_metrics` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

PACKAGE = "evfuse"
ROOT = "bench.op"  # the runner's span around one whole operation
CONTAINERS = ("cli.cmd_pipeline",)  # spans that only dispatch to layers, like ROOT


def _decode(a, r):
    return {"bytes": len(a["data"]), "events": len(r.events)}


def _encode(a, r):
    return {"events": len(a["stream"].events), "bytes": len(r)}


# Traced functions, by module, with the counts each span records.
TRACED = {
    "codec.read_esf": None,
    "codec.decode_esf": _decode,
    "codec.encode_esf": _encode,
    "codec.encode_stats": None,
    "sync.triggers_to_exposures": None,
    "sync.windows": lambda a, r: {"windows": len(r)},
    "sync.assign_events": None,
    "frames.accumulate": lambda a, r: {"events": len(a["events"])},
    "frames.render_gray": None,
    "frames.write_pgm": None,
    "frames.read_image": None,
    "rate.erc_filter": lambda a, r: {"in": len(a["events"]), "out": len(r)},
    "rate.rate_report": lambda a, r: {"encoding": a["encoding"]},
    "alignment.event_frame_deviation": None,
    "alignment.canny": None,
    "alignment.match_deviation": None,
    "alignment.zncc_score": None,
    "synth.gen_scene": None,
    "synth.warp_view": None,
    "cli.cmd_pipeline": None,
}


@dataclass
class Span:
    span_id: int
    parent: int | None
    run_id: str
    name: str
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._ids = itertools.count(1)

    def _start(self, name: str, run_id: str | None = None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(next(self._ids), parent.span_id if parent else None,
                    run_id if run_id is not None else parent.run_id, name, 0)
        self._open.append(span)
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _end(self, span: Span, error: BaseException | None = None) -> None:
        span.end_ns = time.perf_counter_ns()
        self._open.pop()
        if error is not None:
            span.error = type(error).__name__

    @contextmanager
    def run(self, run_id: str, name: str = ROOT):
        """A root span: one timed operation or one setup."""
        span = self._start(name, run_id)
        try:
            yield span
        except BaseException as exc:
            self._end(span, exc)
            raise
        self._end(span)

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            if not self._open:  # called outside any run: not part of a measurement
                return fn(*args, **kwargs)
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._end(span, exc)
                raise
            self._end(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced_call

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


@contextmanager
def traced(tracer: Tracer):
    """Route every reference to a :data:`TRACED` function through ``tracer``."""
    modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    replaced = []
    try:
        for qualname, counter in TRACED.items():
            module_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            wrapper = tracer.wrap(qualname, original, counter)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


# -- per-layer metrics ------------------------------------------------------------


def _op_metrics(spans: list, root: Span) -> dict:
    """Per-layer metrics of one traced operation."""
    by_id = {s.span_id: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def ms(name):
        return sum(s.ms for s in named(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def rate_mevps(name):  # events per ms / 1000 = MEv/s
        t = ms(name)
        return count(name, "events") / t / 1e3 if t else 0.0

    def report_ms(encoding):
        return sum(s.ms for s in named("rate.rate_report") if s.counts.get("encoding") == encoding)

    esf1_reports = {s.span_id for s in named("rate.rate_report") if s.counts.get("encoding") == "esf1"}
    decoded = count("codec.decode_esf", "events")
    erc_in = count("rate.erc_filter", "in")
    checks = named("alignment.event_frame_deviation")
    pipeline = named("cli.cmd_pipeline")
    top_level = [s for s in spans if s.name not in CONTAINERS and s.parent is not None
                 and (by_id[s.parent] is root or by_id[s.parent].name in CONTAINERS)]
    return {
        "codec.decode_ms": ms("codec.decode_esf"),
        "codec.decode_mevps": rate_mevps("codec.decode_esf"),
        "codec.encode_ms": ms("codec.encode_esf"),
        "codec.encode_stats_ms": sum(s.ms for s in named("codec.encode_stats") if s.parent in esf1_reports),
        "codec.bytes_per_event": count("codec.decode_esf", "bytes") / decoded if decoded else 0.0,
        "sync.pair_ms": ms("sync.triggers_to_exposures") + ms("sync.windows"),
        "sync.assign_ms": ms("sync.assign_events"),
        "sync.windows": count("sync.windows", "windows"),
        "frames.accumulate_ms": ms("frames.accumulate"),
        "frames.accumulate_mevps": rate_mevps("frames.accumulate"),
        "frames.render_ms": ms("frames.render_gray"),
        "frames.write_ms": ms("frames.write_pgm"),
        "rate.report_fixed8_ms": report_ms("fixed8"),
        "rate.report_esf1_ms": report_ms("esf1"),
        "rate.erc_ms": ms("rate.erc_filter"),
        "rate.erc_keep_ratio": count("rate.erc_filter", "out") / erc_in if erc_in else 0.0,
        "alignment.canny_ms": ms("alignment.canny"),
        "alignment.match_ms": ms("alignment.match_deviation"),
        "alignment.zncc_ms": ms("alignment.zncc_score"),
        "alignment.zncc_calls": len(named("alignment.zncc_score")),
        "alignment.frames_usable": sum(s.error is None for s in checks) / len(checks) if checks else 0.0,
        "cli.pipeline_self_ms": sum(s.ms - sum(c.ms for c in children.get(s.span_id, ())) for s in pipeline),
        "trace.coverage": sum(s.ms for s in top_level) / root.ms,
    }


def call_cost_ms() -> float:
    """What wrapping adds to one call, in ms: over seven batches of 20,000
    calls of a no-op, the median of traced minus bare time, per call.
    """
    def noop():
        return None

    calls = 20_000
    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    costs = []
    with tracer.run("call_cost"):
        for _ in range(7):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter_ns()
            costs.append((t2 - 2 * t1 + t0) / calls / 1e6)
            del tracer.spans[1:]
    return statistics.median(costs)


def layer_metrics(tracer: Tracer, op_runs: list, setup_runs: list) -> dict:
    """Median per-layer metrics over the traced runs named in ``op_runs``.

    ``setup_runs`` give the synth timings. ``trace.overhead_ms`` is the cost
    of one wrapped call (:func:`call_cost_ms`) times the spans one operation
    records: the wall-time difference between traced and untraced operations
    is smaller than the host's drift between them.
    """
    by_run: dict = {}
    for s in tracer.spans:
        by_run.setdefault(s.run_id, []).append(s)
    roots = {s.run_id: s for s in tracer.spans if s.parent is None}
    per_op = [_op_metrics(by_run[r], roots[r]) for r in op_runs]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    for name in ("synth.gen_scene", "synth.warp_view"):
        out[f"{name}_ms"] = statistics.median(sum(s.ms for s in by_run[r] if s.name == name) for r in setup_runs)
    spans_per_op = statistics.median(len(by_run[r]) - 1 for r in op_runs)  # the root is the runner's
    out["trace.overhead_ms"] = call_cost_ms() * spans_per_op
    return out
