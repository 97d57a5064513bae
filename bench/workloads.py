"""The benchmark's three workloads: seeded inputs, the timed operation, and
the output checks.

Each workload has the same four parts:

* ``setup(work_dir, seed)`` builds the inputs. It is timed as ``setup_s``.
* ``operation(inputs, rep_dir)`` is the timed call into evfuse.
* ``check(inputs, result)`` compares the result against oracles that are
  computed without calling the function being checked. It raises
  :class:`CheckFailed` on any mismatch.
* ``sizes(inputs)`` describes the inputs for the run record.

Each constructor takes the input size, so the self-test can run the same
code, with every check, on reduced inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evfuse import cli, codec, frames, rate, sync
from evfuse.streams import EventStream, StreamHeader, make_events, make_triggers

SENSOR_WIDTH, SENSOR_HEIGHT = 1280, 720  # EVK4-sized sensor
FRAME_PERIOD_US = 50_000  # 20 fps frame camera
EXPOSURE_US = 5_000
TIMESTAMP_EPOCH_US = 1 << 24  # ESF-1 timestamps roll over every 2^24 µs


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


class CliFailed(Exception):
    """``cli.main`` returned a non-zero status.

    ``kind`` is the exception class the CLI reported on stderr, so a data
    error is counted under its real type (for example ``ValueError``).
    """

    def __init__(self, argv: list, status, kind: str, message: str):
        self.kind = kind
        super().__init__(f"evfuse {argv[0]} exited {status}: {kind}: {message}")


def call_cli(argv: list) -> str:
    """Run ``cli.main(argv)`` in-process and return what it wrote to stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:  # usage errors leave argparse through SystemExit
        status = exc.code
    if status != 0:
        kind, message = "exit", err.getvalue().strip()
        for line in err.getvalue().splitlines():
            with contextlib.suppress(ValueError):
                record = json.loads(line)
                if isinstance(record, dict) and record.get("level") == "error":
                    kind, message = str(record.get("kind", kind)), str(record.get("msg", ""))
        raise CliFailed(argv, status, kind, message)
    return out.getvalue()


# -- input generation -----------------------------------------------------------


def readout_events(rng, keys: np.ndarray, width: int, height: int) -> np.ndarray:
    """Events from sort keys ``t * height + y``, in row-readout order.

    Sorting the keys orders events by time and, within one timestamp, by row,
    as a sensor reads them out. Column and polarity are drawn uniformly.
    """
    keys = np.sort(keys)
    n = keys.shape[0]
    return make_events(keys // height, rng.integers(0, width, n), keys % height, 2 * rng.integers(0, 2, n) - 1)


def trigger_pairs(rng, n: int) -> tuple:
    """``n`` (rising, falling) trigger pairs at 20 fps on channel 0.

    The phase of the first exposure is drawn from ``rng``; it is kept small
    enough that the last falling edge lands inside a stream of ``n`` frame
    periods. Returns the triggers and the exposure start times.
    """
    phase = int(rng.integers(1_000, FRAME_PERIOD_US - 2 * EXPOSURE_US + 1))
    starts = phase + FRAME_PERIOD_US * np.arange(n, dtype=np.int64)
    t = np.stack([starts, starts + EXPOSURE_US], axis=1).ravel()
    return make_triggers(t, np.tile([1, 0], n), np.zeros(2 * n)), starts


def centered_windows(starts: np.ndarray) -> list:
    """Oracle for sync method m3 on ``trigger_pairs`` exposures.

    Each window is one frame period centred on its exposure's midpoint,
    clamped at t = 0: ``[start + (E - P)/2, start + (E + P)/2)``.
    """
    lo, hi = (EXPOSURE_US - FRAME_PERIOD_US) // 2, (EXPOSURE_US + FRAME_PERIOD_US) // 2
    return [(max(0, int(s) + lo), max(0, int(s) + hi)) for s in starts]


# -- shared checks ----------------------------------------------------------------


def _same_records(what: str, got, want: np.ndarray) -> None:
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} items, expected {len(want)}")
    for name in want.dtype.names:
        if not np.array_equal(np.asarray(got[name]), want[name]):
            bad = int(np.argmax(np.asarray(got[name]) != want[name]))
            raise CheckFailed(f"{what}: field {name!r} differs first at item {bad}")


def _event_keys(events: np.ndarray) -> np.ndarray:
    """One int64 per sensor event that packs (t, y, x, p), so equal keys mean equal events."""
    t, y, x = (np.asarray(events[f]).astype(np.int64) for f in ("t", "y", "x"))
    return ((t * SENSOR_HEIGHT + y) * SENSOR_WIDTH + x) * 2 + (np.asarray(events["p"]) > 0)


def _check_subsequence(what: str, got, sorted_in: tuple) -> None:
    """Check that ``got`` is made of input events, each used once, in input order.

    ``sorted_in`` is the stable argsort of the input events' keys and the
    sorted keys. Each result event is matched to an input position of the
    same key: the only one if the key is unique, else the earliest one after
    the previous event's match. The matches must rise.
    """
    order, sorted_keys = sorted_in
    keys = _event_keys(got)
    lo = np.searchsorted(sorted_keys, keys, "left")
    hi = np.searchsorted(sorted_keys, keys, "right")
    missing = np.flatnonzero(lo == hi)
    if missing.shape[0]:
        raise CheckFailed(f"{what}: item {int(missing[0])} is not an input event")
    matched = order[lo]
    for j in np.flatnonzero(hi - lo > 1):  # keys the input holds more than once
        candidates = np.sort(order[lo[j]:hi[j]])
        after = matched[j - 1] if j else -1
        k = int(np.searchsorted(candidates, after, "right"))
        matched[j] = candidates[k] if k < candidates.shape[0] else -1
    bad = np.flatnonzero(np.diff(matched) <= 0)
    if bad.shape[0]:
        raise CheckFailed(f"{what}: item {int(bad[0]) + 1} repeats an input event or breaks input order")


def _check_mean_bps(what: str, got: float, n_bytes: int, t: np.ndarray) -> None:
    duration = max(int(t[-1]) - int(t[0]), 1)
    want = n_bytes * 1_000_000 / duration
    if got != want:
        raise CheckFailed(f"{what} mean_Bps {got!r}, expected {n_bytes} B / {duration} µs = {want!r}")


# -- fusion_scene -----------------------------------------------------------------


@dataclass
class FusionInputs:
    events: Path
    frames_dir: Path
    n_input_events: int
    n_frames: int


class FusionScene:
    """The README's synthetic scene, run through ``evfuse pipeline``."""

    name = "fusion_scene"
    why = ("End-to-end pipeline on the README scene; alignment is about 90% of its time, "
           "stream layers under 25 ms. An alignment change shows here; a stream-layer change should not.")
    seeded = False  # the scene generator is deterministic; the seed does not change the inputs

    width, height, fps = 240, 180, 20
    translate = (5, 0)  # planted offset of the second view, px
    tolerance_px = 0.25

    def __init__(self, duration_s: float = 1.0):
        self.duration_s = duration_s
        self.n_frames = int(self.fps * duration_s)
        self._reference = None  # summary.json bytes of the first checked repetition

    def setup(self, work_dir: Path, seed: int) -> FusionInputs:
        a, b = work_dir / "a", work_dir / "b"
        out = call_cli([
            "synth", "-d", str(a), "--width", str(self.width), "--height", str(self.height),
            "--pattern", "disk", "--duration-s", str(self.duration_s), "--fps", str(self.fps),
            "--translate", "{},{}".format(*self.translate), "--warped-dir", str(b),
        ])
        scene = json.loads(out)["scene"]
        return FusionInputs(a / "events.esf", b / "frames", int(scene["n_events"]), self.n_frames)

    def operation(self, inputs: FusionInputs, rep_dir: Path) -> bytes:
        out = rep_dir / "out"
        call_cli([
            "pipeline", "--events", str(inputs.events), "--frames-dir", str(inputs.frames_dir),
            "-d", str(out), "--no-meta", "--jobs", "1",
        ])
        return (out / "summary.json").read_bytes()

    def check(self, inputs: FusionInputs, summary: bytes) -> None:
        doc = json.loads(summary)
        if len(doc.get("frames", ())) != inputs.n_frames:
            raise CheckFailed(f"{len(doc.get('frames', ()))} frames in summary.json, expected {inputs.n_frames}")
        planted = math.hypot(*self.translate)
        median = doc.get("deviation_median_px")
        if median is None or abs(median - planted) > self.tolerance_px:
            raise CheckFailed(f"deviation_median_px {median}, expected {planted} ± {self.tolerance_px}")
        if self._reference is None:
            self._reference = summary
        elif summary != self._reference:
            raise CheckFailed("summary.json bytes differ from the first repetition")

    def sizes(self, inputs: FusionInputs) -> dict:
        return {"width": self.width, "height": self.height, "pattern": "disk", "duration_s": self.duration_s,
                "fps": self.fps, "translate_px": list(self.translate), "events": inputs.n_input_events,
                "frames": inputs.n_frames}


# -- sensor_ingest ------------------------------------------------------------------


@dataclass
class StreamInputs:
    stream: EventStream
    t: np.ndarray  # contiguous copy of the event timestamps
    exposure_starts: np.ndarray
    blob: bytes = b""
    n_input_events: int = 0
    n_frames: int = 0
    oracle: dict = field(default_factory=dict, repr=False)  # oracle data, built at the first check


@dataclass
class IngestResult:
    decoded: EventStream
    windows: list
    per_window: list
    accumulated: list
    fixed8: rate.RateReport
    esf1: rate.RateReport


class SensorIngest:
    """An EVK4-sized stream taken from ESF-1 bytes through every stream layer."""

    name = "sensor_ingest"
    why = ("Sensor-scale stream (1280x720, 5 M uniform events, 20 fps triggers) through decode, sync, "
           "accumulate and rate; no alignment. Column-wise and encode_stats changes show here.")
    seeded = True

    duration_us, n_exposures = 1_000_000, 20

    def __init__(self, n_events: int = 5_000_000):
        self.n_events = n_events

    def setup(self, work_dir: Path, seed: int) -> StreamInputs:
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, self.duration_us * SENSOR_HEIGHT, self.n_events, dtype=np.int64)
        events = readout_events(rng, keys, SENSOR_WIDTH, SENSOR_HEIGHT)
        triggers, starts = trigger_pairs(rng, self.n_exposures)
        stream = EventStream(StreamHeader(SENSOR_WIDTH, SENSOR_HEIGHT), events, triggers)
        return StreamInputs(stream, np.ascontiguousarray(events["t"]), starts, codec.encode_esf(stream),
                            self.n_events, self.n_exposures)

    def operation(self, inputs: StreamInputs, rep_dir: Path) -> IngestResult:
        stream = codec.decode_esf(inputs.blob)
        width, height = stream.header.width, stream.header.height
        pairing = sync.triggers_to_exposures(stream.triggers)
        wins = sync.windows(pairing.exposures, sync.SyncMethod.CENTERED)
        per_window = sync.assign_events(stream.events, wins)
        accumulated = []
        for sub in per_window:
            counts = frames.accumulate(sub, width, height, "count")
            frames.render_gray(counts, "count")
            accumulated.append(counts)
        fixed8 = rate.rate_report(stream, encoding="fixed8")
        esf1 = rate.rate_report(stream, encoding="esf1")
        return IngestResult(stream, wins, per_window, accumulated, fixed8, esf1)

    def check(self, inputs: StreamInputs, result: IngestResult) -> None:
        _same_records("decoded events", result.decoded.events, inputs.stream.events)
        _same_records("decoded triggers", result.decoded.triggers, inputs.stream.triggers)
        want_windows = centered_windows(inputs.exposure_starts)
        got_windows = [(w.t0, w.t1) for w in result.windows]
        if got_windows != want_windows:
            raise CheckFailed(f"windows {got_windows[:2]}..., expected {want_windows[:2]}...")
        t = inputs.t
        for (t0, t1), sub, counts in zip(want_windows, result.per_window, result.accumulated):
            want = int(np.count_nonzero((t >= t0) & (t < t1)))
            if len(sub) != want:
                raise CheckFailed(f"window [{t0}, {t1}) holds {len(sub)} events, brute force counts {want}")
            if int(counts.sum()) != want:
                raise CheckFailed(f"window [{t0}, {t1}) accumulates {int(counts.sum())} events, expected {want}")
        _check_mean_bps("fixed8", result.fixed8.mean_bps, 8 * len(t), t)
        _check_mean_bps("esf1", result.esf1.mean_bps, len(inputs.blob), t)

    def sizes(self, inputs: StreamInputs) -> dict:
        return {"width": SENSOR_WIDTH, "height": SENSOR_HEIGHT, "events": inputs.n_input_events,
                "duration_us": self.duration_us, "exposures": self.n_exposures, "esf1_bytes": len(inputs.blob)}


# -- record_bursty ------------------------------------------------------------------


@dataclass
class RecordResult:
    kept: np.ndarray
    blob: bytes
    report: rate.RateReport
    decoded: EventStream


class RecordBursty:
    """The write direction: rate-controlled thinning, encode, report, read back."""

    name = "record_bursty"
    why = ("Write path (ERC thinning, encode, esf1 report, decode) on sparse events plus 20 MEv/s bursts "
           "over 40 s with two timestamp rollovers; catches encode, rollover or burst regressions.")
    seeded = True

    burst_events, burst_us = 20_000, 1_000  # 20 MEv/s peaks
    duration_us, n_exposures = 40_000_000, 800  # crosses the 2^24 µs rollover twice
    erc = rate.ErcConfig(cap_evps=10_000_000, period_us=1_000)

    def __init__(self, n_background: int = 1_000_000, n_bursts: int = 200):
        self.n_background, self.n_bursts = n_background, n_bursts

    def setup(self, work_dir: Path, seed: int) -> StreamInputs:
        rng = np.random.default_rng(seed)
        h = SENSOR_HEIGHT
        background = rng.integers(0, self.duration_us * h, self.n_background, dtype=np.int64)
        starts = rng.integers(0, self.duration_us - self.burst_us, self.n_bursts, dtype=np.int64)
        bursts = starts[:, None] * h + rng.integers(0, self.burst_us * h, (self.n_bursts, self.burst_events))
        events = readout_events(rng, np.concatenate([background, bursts.ravel()]), SENSOR_WIDTH, h)
        triggers, exposure_starts = trigger_pairs(rng, self.n_exposures)
        stream = EventStream(StreamHeader(SENSOR_WIDTH, h), events, triggers)
        return StreamInputs(stream, np.ascontiguousarray(events["t"]), exposure_starts,
                            n_input_events=len(events), n_frames=self.n_exposures)

    def operation(self, inputs: StreamInputs, rep_dir: Path) -> RecordResult:
        stream = inputs.stream
        kept = rate.erc_filter(stream.events, self.erc)
        thinned = EventStream(stream.header, kept, stream.triggers)
        blob = codec.encode_esf(thinned)
        report = rate.rate_report(thinned, encoding="esf1")
        return RecordResult(kept, blob, report, codec.decode_esf(blob))

    def check(self, inputs: StreamInputs, result: RecordResult) -> None:
        period = np.uint64(self.erc.period_us)
        budget = self.erc.budget
        n_in = np.bincount((inputs.t // period).astype(np.int64))
        kept_t = np.ascontiguousarray(result.kept["t"])
        n_out = np.bincount((kept_t // period).astype(np.int64), minlength=n_in.shape[0])
        if n_out.shape[0] > n_in.shape[0] or (n_out > budget).any():
            raise CheckFailed(f"an ERC period keeps more than its budget of {budget} events")
        short = np.flatnonzero(n_out != np.minimum(n_in, budget))
        if short.shape[0]:
            p = int(short[0])
            raise CheckFailed(f"ERC period {p} keeps {n_out[p]} of {n_in[p]} events, budget {budget}")
        if "sorted_keys" not in inputs.oracle:
            keys_in = _event_keys(inputs.stream.events)
            order = np.argsort(keys_in, kind="stable")
            inputs.oracle["sorted_keys"] = (order, keys_in[order])
        _check_subsequence("ERC output", np.asarray(result.kept), inputs.oracle["sorted_keys"])
        _same_records("decoded events", result.decoded.events, np.asarray(result.kept))
        _same_records("decoded triggers", result.decoded.triggers, inputs.stream.triggers)
        _check_mean_bps("esf1", result.report.mean_bps, len(result.blob), kept_t)

    def sizes(self, inputs: StreamInputs) -> dict:
        return {"width": SENSOR_WIDTH, "height": SENSOR_HEIGHT, "events": inputs.n_input_events,
                "background_events": self.n_background, "bursts": self.n_bursts,
                "burst_events": self.burst_events, "burst_us": self.burst_us, "duration_us": self.duration_us,
                "timestamp_rollovers": int(inputs.t[-1]) // TIMESTAMP_EPOCH_US, "exposures": self.n_exposures,
                "erc_cap_evps": self.erc.cap_evps, "erc_period_us": self.erc.period_us}


WORKLOADS = {w.name: w for w in (FusionScene, SensorIngest, RecordBursty)}
