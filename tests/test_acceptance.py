"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (with its runtime
against the stated limit) on the real stdout so the verdicts survive pytest
capture. Expected values are frozen here; nothing is recomputed from the
implementation under test. Criterion 9 (throughput) is reported but never
gates the release.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from evfuse import cli
from evfuse.codec import decode_esf, encode_esf, encode_stats
from evfuse.frames import accumulate
from evfuse.geometry import estimate_homography, estimate_homography_ransac, reprojection_stats, save_homography
from evfuse.labels import iou, read_labels_json
from evfuse.alignment import gaussian_blur, match_deviation
from evfuse.optics import object_extent_px, pixel_pitch
from evfuse.rate import ErcConfig, erc_filter, rate_report
from evfuse.streams import EventStream, StreamError, StreamHeader, make_events, make_triggers
from evfuse.sync import ExposureInterval, SyncMethod, assign_events, windows


def _announce(line: str, cap) -> None:
    """Print one verdict line onto the real stdout, past pytest's capture."""
    if cap is None:
        print(line, flush=True)
    else:
        with cap.disabled():
            print(line, flush=True)


@contextmanager
def criterion(n: int, label: str, limit_s: float, cap=None):
    """Time a criterion body and print exactly one verdict line for it."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"\n[FAIL] criterion {n}: {label}", cap)
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= limit_s:
        _announce(f"\n[FAIL] criterion {n}: {label} — took {elapsed:.2f}s, limit {limit_s:g}s", cap)
        raise AssertionError(f"criterion {n} exceeded its time limit: {elapsed:.2f}s >= {limit_s:g}s")
    _announce(f"\n[PASS] criterion {n}: {label} ({elapsed:.2f}s < {limit_s:g}s)", cap)


def _run_cli(argv) -> int:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    return code


# -- criterion 1: optics resolvability table ---------------------------------

DVS_PITCH = 4.86

# (object m, distance m, focal mm, published theory px)
EXTENT_TABLE = [
    (0.30, 100, 8, 5), (0.30, 100, 35, 22), (0.30, 100, 100, 61),
    (0.30, 300, 8, 1.6), (0.30, 300, 35, 7), (0.30, 300, 100, 20),
    (0.30, 350, 8, 1.4), (0.30, 350, 35, 6), (0.30, 350, 100, 18),
    (0.02, 10, 8, 3), (0.02, 10, 35, 14), (0.02, 10, 100, 41),
    (0.02, 30, 8, 1), (0.02, 30, 35, 5), (0.02, 30, 100, 14),
    (0.02, 100, 8, 0.3), (0.02, 100, 35, 1.4), (0.02, 100, 100, 4),
    (0.02, 400, 8, 0.08), (0.02, 400, 35, 0.35), (0.02, 400, 100, 1),
]


def test_criterion_1_optics_table(capfd):
    with criterion(1, "optics: every published extent within 1 px, pitch 4.86 um", 1.0, capfd):
        assert round(pixel_pitch(7.14, 1280, 720), 2) == DVS_PITCH
        for obj_m, dist_m, focal_mm, published in EXTENT_TABLE:
            got = object_extent_px(obj_m, dist_m, focal_mm, DVS_PITCH)
            assert abs(got - published) <= 1.0, (obj_m, dist_m, focal_mm, got, published)


# -- criterion 2: codec round trip + fuzz ------------------------------------


def _random_stream(rng: np.random.Generator, n_events: int, n_triggers: int) -> EventStream:
    t = np.sort(rng.integers(0, 2_000_000, size=n_events).astype(np.uint64))
    events = make_events(
        t,
        rng.integers(0, 640, size=n_events),
        rng.integers(0, 480, size=n_events),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n_events),
    )
    tt = np.sort(rng.integers(0, 2_000_000, size=n_triggers).astype(np.uint64))
    triggers = make_triggers(tt, rng.integers(0, 2, size=n_triggers), rng.integers(0, 16, size=n_triggers))
    return EventStream(StreamHeader(640, 480), events, triggers)


def test_criterion_2_codec_round_trip_and_fuzz(capfd):
    with criterion(2, "codec: 1e6-event round trip item-exact; fuzz always a typed error with offset", 10.0, capfd):
        rng = np.random.default_rng(2024)
        stream = _random_stream(rng, 1_000_000, 500)
        back = decode_esf(encode_esf(stream))
        assert back.header == stream.header
        assert np.array_equal(back.events, stream.events)
        assert np.array_equal(back.triggers, stream.triggers)
        assert np.array_equal(back.trigger_pos, stream.trigger_pos)

        # Fuzz: arbitrary bytes must decode or raise a typed error w/ offset.
        small = encode_esf(_random_stream(rng, 400, 8))
        blobs = []
        for _ in range(120):
            blobs.append(rng.integers(0, 256, size=int(rng.integers(0, 400)), dtype=np.uint8).tobytes())
        for _ in range(80):
            blobs.append(small[:16] + rng.integers(0, 256, size=256, dtype=np.uint8).tobytes())
        for _ in range(80):
            mutated = bytearray(small)
            for pos in rng.integers(0, len(small), size=8):
                mutated[pos] = int(rng.integers(0, 256))
            blobs.append(bytes(mutated))
        blobs += [small[:k] for k in (0, 1, 15, 17, 33, len(small) - 1)]
        for blob in blobs:
            try:
                decode_esf(blob)
            except StreamError as exc:
                assert isinstance(exc.offset, int) and 0 <= exc.offset <= max(len(blob), 16), blob[:20]
            # anything other than StreamError propagates and fails the test


# -- criterion 3: sync window partitions -------------------------------------


def _random_schedule(rng: np.random.Generator):
    n = int(rng.integers(2, 13))
    period = int(rng.integers(2_000, 40_000))
    exp = int(rng.integers(max(period // 10, 1), period // 2))
    starts = [1_000 + k * period + int(rng.integers(-period // 10, period // 10 + 1)) for k in range(n)]
    return [ExposureInterval(k, s, s + exp) for k, s in enumerate(starts)]


def test_criterion_3_sync_partitions(capfd):
    with criterion(3, "sync: 1000 random schedules; frame-leading/midpoint are exact partitions; exposure within frame-leading", 10.0, capfd):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            exposures = _random_schedule(rng)
            w1 = windows(exposures, SyncMethod.EXPOSURE)
            for method, wins in (
                (SyncMethod.FRAME_LEADING, windows(exposures, SyncMethod.FRAME_LEADING)),
                (SyncMethod.MIDPOINT, windows(exposures, SyncMethod.MIDPOINT)),
            ):
                # tiling: consecutive windows share a boundary
                for a, b in zip(wins, wins[1:]):
                    assert a.t1 == b.t0, (method, a, b)
                t = np.sort(rng.integers(wins[0].t0, wins[-1].t1, size=200).astype(np.uint64))
                events = make_events(t, np.zeros(200), np.zeros(200), np.ones(200))
                membership = np.zeros(200, dtype=np.int64)
                for w, sub in zip(wins, assign_events(events, wins)):
                    inside = (t >= w.t0) & (t < w.t1)
                    membership += inside
                    assert np.array_equal(sub["t"], t[inside])  # brute force agrees
                assert np.all(membership == 1), method  # exactly one window per event

            # exposure windows are contained in the same frame's leading window
            w2 = {w.frame_id: w for w in windows(exposures, SyncMethod.FRAME_LEADING)}
            for w in w1:
                assert w2[w.frame_id].t0 <= w.t0 and w.t1 <= w2[w.frame_id].t1


# -- criterion 4: calibration under noise and outliers -----------------------


def test_criterion_4_calibration(capfd):
    with criterion(4, "calibration: recovers all planted inliers at threshold 2 (sigma 0.5, 30% outliers); axis std in [0.40,0.60]; noiseless < 1e-6", 5.0, capfd):
        h_true = np.array([[0.95, 0.08, 12.0], [-0.06, 1.04, -9.0], [2.0e-5, -1.5e-5, 1.0]])
        rng = np.random.default_rng(42)
        n_in, n_out = 350, 150
        src = rng.uniform(20, 1200, size=(n_in + n_out, 2))
        q = np.hstack([src, np.ones((n_in + n_out, 1))]) @ h_true.T
        dst = q[:, :2] / q[:, 2:]
        dst[:n_in] += rng.normal(0.0, 0.5, size=(n_in, 2))
        displacement = rng.uniform(8, 300, size=(n_out, 2)) * rng.choice([-1.0, 1.0], size=(n_out, 2))
        dst[n_in:] += displacement

        h, mask = estimate_homography_ransac(src, dst, threshold_px=2.0, seed=0)
        planted = np.zeros(n_in + n_out, dtype=bool)
        planted[:n_in] = True
        assert np.array_equal(mask, planted)  # every inlier found, every outlier rejected
        report = reprojection_stats(h, src, dst, mask)
        assert 0.40 <= report.std_axis_px <= 0.60

        # noiseless correspondences reproject to machine precision
        clean = estimate_homography(src[:n_in], (q[:n_in, :2] / q[:n_in, 2:]))
        clean_report = reprojection_stats(clean, src[:n_in], q[:n_in, :2] / q[:n_in, 2:])
        assert clean_report.max_px < 1e-6


# -- criterion 5: alignment deviation ----------------------------------------


def test_criterion_5_alignment(tmp_path, capfd):
    with criterion(5, "alignment: integer shifts to 16 px exact, refined within 0.25; synth pipeline reads planted 5 px within 0.25", 30.0, capfd):
        rng = np.random.default_rng(5)
        base = gaussian_blur(rng.uniform(0.0, 255.0, size=(280, 320)), 3.0)
        ys, xs, hgt, wdt = 70, 80, 140, 160
        ref = base[ys : ys + hgt, xs : xs + wdt]
        for dx, dy in [(0, 0), (16, 0), (-16, 5), (7, -13), (11, 11), (-3, -16)]:
            tgt = base[ys - dy : ys - dy + hgt, xs - dx : xs - dx + wdt]
            res = match_deviation(ref, tgt, search_radius=16, margin=32, smooth_sigma=1.0)
            assert (round(res.dx), round(res.dy)) == (dx, dy), (dx, dy, res)  # integer peak exact
            assert abs(res.dx - dx) <= 0.25 and abs(res.dy - dy) <= 0.25  # refinement stays close

        # End to end through the command line: events from the base view,
        # frames from a view translated 5 px right.
        a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        assert _run_cli(["synth", "-d", str(a), "--translate", "5,0", "--warped-dir", str(b),
                         "-o", str(tmp_path / "synth.json")]) == 0
        assert _run_cli(["pipeline", "--events", str(a / "events.esf"), "--frames-dir", str(b / "frames"),
                         "-d", str(out), "--no-meta"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["deviation_median_px"] == pytest.approx(5.0, abs=0.25)


# -- criterion 6: rate controller --------------------------------------------


def test_criterion_6_erc(capfd):
    with criterion(6, "rate controller: per-period brute-force cap; identity under cap; idempotent", 5.0, capfd):
        rng = np.random.default_rng(66)
        for _ in range(40):
            n = int(rng.integers(0, 3000))
            t = np.sort(rng.integers(0, 30_000, size=n).astype(np.uint64))
            events = make_events(t, rng.integers(0, 64, n), rng.integers(0, 64, n),
                                 rng.choice(np.array([-1, 1], dtype=np.int8), n))
            for cap, period in ((20_000, 1000), (100_000, 500), (1_000_000, 2000)):
                cfg = ErcConfig(cap_evps=cap, period_us=period)
                kept = erc_filter(events, cfg)
                pid_in = events["t"] // np.uint64(period)
                pid_out = kept["t"] // np.uint64(period)
                for p in np.unique(pid_in):
                    n_in = int((pid_in == p).sum())
                    n_out = int((pid_out == p).sum())
                    assert n_out == min(n_in, cfg.budget), (cap, period, int(p))
                again = erc_filter(kept, cfg)
                assert np.array_equal(again, kept)  # idempotent
            generous = ErcConfig(cap_evps=1_000_000_000, period_us=1000)
            assert np.array_equal(erc_filter(events, generous), events)  # identity under cap


# -- criterion 7: bandwidth accounting ---------------------------------------


def test_criterion_7_bandwidth(capfd):
    with criterion(7, "bandwidth: fixed8 mean is exactly 8N/duration; esf1 mean is exactly encoder bytes/duration", 5.0, capfd):
        rng = np.random.default_rng(77)
        for trial in range(10):
            stream = _random_stream(rng, int(rng.integers(2, 30_000)), int(rng.integers(0, 40)))
            t = stream.events["t"]
            duration = max(int(t[-1]) - int(t[0]), 1)
            n = len(stream.events)

            fixed = rate_report(stream, encoding="fixed8")
            assert fixed.mean_bps == 8 * n * 1_000_000 / duration  # bit-exact, same expression
            assert fixed.peak_bps >= fixed.mean_bps

            esf = rate_report(stream, encoding="esf1")
            assert esf.mean_bps == encode_stats(stream).n_bytes * 1_000_000 / duration
            assert encode_stats(stream).n_bytes == len(encode_esf(stream))
            assert esf.peak_bps >= esf.mean_bps


# -- criterion 8: label transfer on a known homography ------------------------


def test_criterion_8_label_transfer(tmp_path, capfd):
    with criterion(8, "label transfer: synth + known homography; IoU >= 0.8 for every frame", 30.0, capfd):
        h = np.array([[1.02, 0.01, 6.0], [-0.008, 0.99, -4.0], [1.0e-5, -5.0e-6, 1.0]])
        h_path = tmp_path / "H.json"
        save_homography(str(h_path), h)
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run_cli(["synth", "-d", str(a), "--homography", str(h_path), "--warped-dir", str(b),
                         "-o", str(tmp_path / "synth.json")]) == 0
        moved_path = tmp_path / "moved.json"
        assert _run_cli(["label-transfer", "--labels", str(a / "labels.json"),
                         "--homography", str(b / "homography.json"), "-o", str(moved_path)]) == 0
        moved = read_labels_json(str(moved_path))
        truth = {box.frame_id: box for box in read_labels_json(str(b / "labels.json"))}
        assert len(moved) == len(truth) > 0
        for box in moved:
            score = iou(box, truth[box.frame_id])
            assert score >= 0.8, (box.frame_id, score)


# -- criterion 9: throughput (reported, non-gating) ---------------------------


def test_criterion_9_throughput_report(capfd):
    rng = np.random.default_rng(99)
    stream = _random_stream(rng, 2_000_000, 100)
    blob = encode_esf(stream)
    t0 = time.perf_counter()
    decode_esf(blob)
    decode_mevs = 2.0 / (time.perf_counter() - t0)

    n = 20_000_000
    events = make_events(
        np.arange(n, dtype=np.uint64),
        rng.integers(0, 640, size=n),
        rng.integers(0, 480, size=n),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
    )
    t0 = time.perf_counter()
    accumulate(events, 640, 480, "count")
    acc_mevs = n / 1e6 / (time.perf_counter() - t0)

    _announce(
        f"\n[REPORT] criterion 9: decode {decode_mevs:.1f} MEv/s (floor 10), "
        f"accumulate {acc_mevs:.1f} MEv/s (floor 50) — non-gating",
        capfd,
    )
    _announce("[PASS] criterion 9: throughput reported (non-gating)", capfd)
