"""Windowing tests: hand-worked interval arithmetic plus brute-force
partition oracles over randomized trigger schedules."""

from __future__ import annotations

import numpy as np
import pytest

from evfuse.streams import UnsortedInput, make_events, make_triggers
from evfuse.sync import (
    CustomWindow,
    ExposureInterval,
    SyncMethod,
    TooFewExposures,
    _check_exposures,
    assign_events,
    median_period2,
    parse_method,
    SyncWindow,
    read_exposures_csv,
    read_windows_csv,
    triggers_to_exposures,
    window_counts,
    windows,
    write_exposures_csv,
    write_windows_csv,
)

TWO = [ExposureInterval(0, 1000, 1500), ExposureInterval(1, 11000, 11500)]


def _brute_counts(events, window_list):
    t = events["t"].astype(np.int64)
    return [int(((t >= w.t0) & (t < w.t1)).sum()) for w in window_list]


def _random_schedule(rng, n_frames=None):
    """A jittered but sane trigger schedule: sorted, non-overlapping exposures."""
    n_frames = n_frames or int(rng.integers(2, 30))
    period = int(rng.integers(2_000, 50_000))
    exposure = int(rng.integers(1, max(2, period // 3)))
    jitter = period // 10
    starts = []
    t = int(rng.integers(0, 5_000))
    for _ in range(n_frames):
        starts.append(t)
        t += period + int(rng.integers(-jitter, jitter + 1))
    return [ExposureInterval(i, s, s + exposure) for i, s in enumerate(starts)]


def _ref_windows(exposures, method):
    """``windows`` as one floor-and-clamp per method and bound (the reference)."""
    exposures = list(exposures)
    _check_exposures(exposures)
    if not exposures:
        return []

    def clamp(frame_id, t0, t1):
        t0 = max(0, t0)
        return SyncWindow(frame_id, t0, max(t0, t1))

    if isinstance(method, CustomWindow):
        out = []
        for e in exposures:
            if method.anchor == "start":
                a4 = 4 * e.start
            elif method.anchor == "end":
                a4 = 4 * e.end
            else:
                a4 = 2 * e.midpoint2()
            out.append(clamp(e.frame_id, (a4 - 4 * method.pre_us) // 4, (a4 + 4 * method.post_us) // 4))
        return out
    if method is SyncMethod.EXPOSURE:
        return [clamp(e.frame_id, e.start, e.end) for e in exposures]
    p2 = median_period2(exposures)
    if method is SyncMethod.FRAME_LEADING:
        out = [clamp(e.frame_id, e.start, nxt.start) for e, nxt in zip(exposures, exposures[1:])]
        last = exposures[-1]
        return out + [clamp(last.frame_id, last.start, (2 * last.start + p2) // 2)]
    if method is SyncMethod.CENTERED:
        return [clamp(e.frame_id, (2 * e.midpoint2() - p2) // 4, (2 * e.midpoint2() + p2) // 4) for e in exposures]
    if method is SyncMethod.MIDPOINT:
        mids2 = [e.midpoint2() for e in exposures]
        bounds4 = [2 * mids2[0] - p2] + [a + b for a, b in zip(mids2, mids2[1:])] + [2 * mids2[-1] + p2]
        return [clamp(e.frame_id, b0 // 4, b1 // 4) for e, b0, b1 in zip(exposures, bounds4, bounds4[1:])]
    raise ValueError(f"unknown sync method {method!r}")


# -- trigger pairing -----------------------------------------------------------


def test_pairing_clean():
    tr = make_triggers([1000, 1500, 11000, 11500], [1, 0, 1, 0], [0, 0, 0, 0])
    res = triggers_to_exposures(tr, channel=0)
    assert res.anomalies == []
    assert res.exposures == TWO


def test_pairing_skips_leading_falling_edge():
    tr = make_triggers([500, 1000, 1500], [0, 1, 0], [0, 0, 0])
    res = triggers_to_exposures(tr)
    assert len(res.anomalies) == 1
    assert res.anomalies[0].edge == "falling" and res.anomalies[0].t == 500
    assert res.exposures == [ExposureInterval(0, 1000, 1500)]


def test_pairing_double_rising_and_open_end():
    tr = make_triggers([100, 200, 300, 400], [1, 1, 0, 1], [0, 0, 0, 0])
    res = triggers_to_exposures(tr)
    # First rising at 100 displaced by the one at 200; last rising never closes.
    assert [a.t for a in res.anomalies] == [100, 400]
    assert res.exposures == [ExposureInterval(0, 200, 300)]


def test_pairing_filters_channel():
    tr = make_triggers([100, 150, 200, 250], [1, 1, 0, 0], [0, 3, 3, 0])
    res = triggers_to_exposures(tr, channel=3)
    assert res.exposures == [ExposureInterval(0, 150, 200)]
    assert res.anomalies == []


# -- window arithmetic ------------------------------------------------------------


def test_exposure_windows_are_the_exposures():
    ws = windows(TWO, SyncMethod.EXPOSURE)
    assert [(w.frame_id, w.t0, w.t1) for w in ws] == [(0, 1000, 1500), (1, 11000, 11500)]


def test_frame_leading_windows():
    ws = windows(TWO, SyncMethod.FRAME_LEADING)
    # Period = 10000; the last window runs one period past the last start.
    assert [(w.t0, w.t1) for w in ws] == [(1000, 11000), (11000, 21000)]


def test_centered_window_clamps_at_zero():
    # Midpoint 1250, period 10000: the raw window [-3750, 6250) clamps to [0, 6250).
    ws = windows(TWO, SyncMethod.CENTERED)
    assert (ws[0].t0, ws[0].t1) == (0, 6250)
    assert (ws[1].t0, ws[1].t1) == (11250 - 5000, 11250 + 5000)


def test_midpoint_partition_two_frames():
    ws = windows(TWO, SyncMethod.MIDPOINT)
    # Boundaries: m0 - P/2 = -3750 (clamped), (m0+m1)/2 = 6250, m1 + P/2 = 16250.
    assert [(w.t0, w.t1) for w in ws] == [(0, 6250), (6250, 16250)]


def test_custom_windows_anchors():
    exp = [ExposureInterval(0, 1000, 1500)]
    assert windows(exp, CustomWindow("start", 100, 200))[0] == windows(exp, CustomWindow("start", 100, 200))[0]
    w = windows(exp, CustomWindow("start", 100, 200))[0]
    assert (w.t0, w.t1) == (900, 1200)
    w = windows(exp, CustomWindow("end", 0, 50))[0]
    assert (w.t0, w.t1) == (1500, 1550)
    w = windows(exp, CustomWindow("midpoint", 250, 250))[0]
    assert (w.t0, w.t1) == (1000, 1500)


def test_custom_window_clamps():
    w = windows([ExposureInterval(0, 10, 20)], CustomWindow("start", 100, 5))[0]
    assert (w.t0, w.t1) == (0, 15)


def test_custom_rejects_bad_anchor():
    with pytest.raises(ValueError):
        CustomWindow("center", 1, 1)


def test_median_period_even_and_odd():
    exps = [ExposureInterval(i, s, s + 10) for i, s in enumerate([0, 1000, 2100, 3100])]
    # diffs 1000, 1100, 1000 -> median 1000
    assert median_period2(exps) == 2000
    exps = exps + [ExposureInterval(4, 4300, 4310)]
    # diffs 1000, 1100, 1000, 1200 -> median (1000+1100)/2 = 1050
    assert median_period2(exps) == 2100


def test_presets_need_two_exposures():
    one = [ExposureInterval(0, 100, 200)]
    assert windows(one, SyncMethod.EXPOSURE)[0].t1 == 200
    for m in (SyncMethod.FRAME_LEADING, SyncMethod.CENTERED, SyncMethod.MIDPOINT):
        with pytest.raises(TooFewExposures):
            windows(one, m)


def test_windows_reject_overlapping_exposures():
    with pytest.raises(ValueError):
        windows([ExposureInterval(0, 0, 100), ExposureInterval(1, 50, 150)], SyncMethod.EXPOSURE)


def _windows_outcome(fn, exposures, method):
    try:
        return fn(exposures, method)
    except (TooFewExposures, ValueError) as exc:
        return type(exc), str(exc)


def test_windows_match_reference_on_random_schedules():
    # Odd lengths and gaps put midpoints and medians on the quarter lattice;
    # starts near 0 and pre/post up to 40 ms make the clamp at 0 fire.  The
    # bare string pins the error order: too few exposures before unknown method.
    rng = np.random.default_rng(2024)
    methods = list(SyncMethod) + [CustomWindow(a, 0, 0) for a in ("start", "midpoint", "end")] + ["m3"]
    clamped = 0  # first windows whose lower bound was clamped at 0
    for _ in range(2_000):
        n = int(rng.integers(1, 12))
        lengths = rng.integers(0, 3, n) * rng.integers(0, 20_001, n)  # a third of exposures are zero-length
        gaps = rng.integers(0, 30_001, n)
        ends = np.cumsum(gaps + lengths) + int(rng.integers(0, 2)) * int(rng.integers(0, 50_000))
        exposures = [ExposureInterval(i, int(e - d), int(e)) for i, (e, d) in enumerate(zip(ends, lengths))]
        for method in methods:
            if isinstance(method, CustomWindow):
                method = CustomWindow(method.anchor, *(int(v) for v in rng.integers(0, 40_001, 2)))
            got = _windows_outcome(windows, exposures, method)
            assert got == _windows_outcome(_ref_windows, exposures, method), (exposures, method)
            clamped += isinstance(got, list) and got[0].t0 == 0 < exposures[0].start
    assert clamped > 1_000


def test_parse_method_aliases():
    assert parse_method("m2") is SyncMethod.FRAME_LEADING
    assert parse_method("Centered") is SyncMethod.CENTERED
    with pytest.raises(ValueError):
        parse_method("m9")


@pytest.mark.parametrize(
    "text, method",
    [("m1", SyncMethod.EXPOSURE), (" Midpoint ", SyncMethod.MIDPOINT), ("frame-leading", SyncMethod.FRAME_LEADING),
     ("midpoint:5000:5000", CustomWindow("midpoint", 5000, 5000)), ("start:0:1000", CustomWindow("start", 0, 1000)),
     ("end: 0 :7", CustomWindow("end", 0, 7))],
)
def test_parse_method_takes_presets_and_custom_windows(text, method):
    assert parse_method(text) == method
    windows(TWO, parse_method(text))  # either kind is a window rule


@pytest.mark.parametrize(
    "text, reason",
    [("m9", "unknown sync method"), ("", "unknown sync method"), ("start:1", "anchor:pre_us:post_us"),
     ("start:1:2:3", "anchor:pre_us:post_us"), ("center:1:1", "anchor must be start|midpoint|end"),
     ("start:-5:5", "must be non-negative"), ("end:5:x", "invalid literal")],
)
def test_parse_method_rejects_naming_the_value(text, reason):
    with pytest.raises(ValueError) as exc:
        parse_method(text)
    assert repr(text) in str(exc.value) and reason in str(exc.value)


# -- assignment and partition properties ----------------------------------------


def test_assign_events_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        exps = _random_schedule(rng)
        t = np.sort(rng.integers(0, exps[-1].end + 60_000, size=400).astype(np.uint64))
        events = make_events(t, np.zeros(400), np.zeros(400), np.ones(400))
        for method in (SyncMethod.EXPOSURE, SyncMethod.FRAME_LEADING, SyncMethod.CENTERED, SyncMethod.MIDPOINT):
            ws = windows(exps, method)
            assert list(window_counts(events, ws)) == _brute_counts(events, ws)
        # windows read from CSV may start or end before t = 0
        ws = [SyncWindow(0, -500, int(t[3]) + 1), SyncWindow(1, -900, -10), SyncWindow(2, int(t[7]), int(t[9]))]
        assert list(window_counts(events, ws)) == _brute_counts(events, ws)
    assert assign_events(events, []) == []


def test_assign_events_clamps_bounds_past_u64():
    events = make_events(np.arange(0, 1000, 10, dtype=np.uint64), np.zeros(100), np.zeros(100), np.ones(100))
    ws = [SyncWindow(0, 500, 2**70), SyncWindow(1, 2**70, 2**71)]
    assert [len(w) for w in assign_events(events, ws)] == [50, 0]


def test_assign_events_bound_past_u64_keeps_an_event_at_the_last_timestamp():
    # t = 2**64 - 1 lies before every bound past it, so such a bound cuts after it
    events = make_events([5, 2**64 - 2, 2**64 - 1], np.zeros(3), np.zeros(3), np.ones(3))
    ws = [SyncWindow(0, 0, 2**65), SyncWindow(1, 2**64 - 1, 2**70), SyncWindow(2, 2**64, 2**70),
          SyncWindow(3, -5, 2**64 - 1)]
    assert [w["t"].tolist() for w in assign_events(events, ws)] == [[5, 2**64 - 2, 2**64 - 1], [2**64 - 1], [], [5, 2**64 - 2]]
    assert window_counts(events, ws).tolist() == [3, 1, 0, 2]


def test_assign_events_rejects_shuffled_events():
    rng = np.random.default_rng(11)
    t = rng.permutation(np.arange(0, 100_000, 100, dtype=np.uint64))
    events = make_events(t, np.zeros(1000), np.zeros(1000), np.ones(1000))
    first = int(np.flatnonzero(t[1:] < t[:-1])[0]) + 1
    for count in (assign_events, window_counts):
        with pytest.raises(UnsortedInput) as exc:
            count(events, [SyncWindow(0, 0, 50_000), SyncWindow(1, 50_000, 100_000)])
        assert exc.value.index == first


def test_partition_property_m2_m4():
    """Every event inside the covered span lands in exactly one window."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        exps = _random_schedule(rng)
        t = np.sort(rng.integers(0, exps[-1].end + 60_000, size=300).astype(np.uint64))
        events = make_events(t, np.zeros(300), np.zeros(300), np.ones(300))
        for method in (SyncMethod.FRAME_LEADING, SyncMethod.MIDPOINT):
            ws = windows(exps, method)
            # Windows tile without gaps: each window starts where the previous ended.
            for a, b in zip(ws, ws[1:]):
                assert a.t1 == b.t0
            lo, hi = ws[0].t0, ws[-1].t1
            inside = (t.astype(np.int64) >= lo) & (t.astype(np.int64) < hi)
            hits = np.zeros(t.shape[0], dtype=int)
            for w in ws:
                hits += (t.astype(np.int64) >= w.t0) & (t.astype(np.int64) < w.t1)
            assert np.array_equal(hits, inside.astype(int))


def test_exposure_windows_subset_of_frame_leading():
    rng = np.random.default_rng(4)
    for _ in range(30):
        exps = _random_schedule(rng)
        m1 = windows(exps, SyncMethod.EXPOSURE)
        m2 = windows(exps, SyncMethod.FRAME_LEADING)
        for a, b in zip(m1, m2):
            assert b.t0 <= a.t0 and a.t1 <= b.t1


def test_periodic_widths_equal_period():
    # Strictly periodic schedule: centered and midpoint windows span one period
    # (up to the integer lattice).
    period, exposure = 10_000, 500
    exps = [ExposureInterval(i, 50_000 + i * period, 50_000 + i * period + exposure) for i in range(8)]
    for method in (SyncMethod.CENTERED, SyncMethod.MIDPOINT):
        for w in windows(exps, method):
            assert abs((w.t1 - w.t0) - period) <= 1


def test_centered_windows_may_overlap_under_jitter():
    exps = [ExposureInterval(0, 0, 100), ExposureInterval(1, 4000, 4100), ExposureInterval(2, 20000, 20100)]
    ws = windows(exps, SyncMethod.CENTERED)
    assert ws[1].t0 < ws[0].t1  # heavy jitter folds neighbors together


# -- CSV ---------------------------------------------------------------------------


def test_exposure_csv_roundtrip():
    # Exposures and windows share one integer-table reader and writer.
    cases = [
        (write_exposures_csv, read_exposures_csv, TWO, "frame_id,start_us,end_us"),
        (write_windows_csv, read_windows_csv, [SyncWindow(0, 0, 27500), SyncWindow(3, 27500, 77500)],
         "frame_id,t0_us,t1_us"),
    ]
    for write, read, rows, header in cases:
        text = write(rows)
        assert text.splitlines()[0] == header
        assert read(text) == rows


def test_exposure_csv_rejects_garbage():
    with pytest.raises(ValueError):
        read_exposures_csv("frame_id,start_us,end_us\n0,abc,10\n")


@pytest.mark.parametrize("read, header", [(read_exposures_csv, "frame_id,start_us,end_us"),
                                          (read_windows_csv, "frame_id,t0_us,t1_us")])
def test_int_csv_rejects_repeated_frame_id(read, header):
    with pytest.raises(ValueError, match="line 4: frame_id 3 repeats line 2"):
        read(f"{header}\n3,0,10\n4,10,20\n3,20,30\n")


@pytest.mark.parametrize("read, header", [(read_exposures_csv, "frame_id,start_us,end_us"),
                                          (read_windows_csv, "frame_id,t0_us,t1_us")])
@pytest.mark.parametrize("row", ["1,-5000,20000", "1,90000,60000", "1,-10,-5"])
def test_int_csv_rejects_negative_or_reversed_bounds(read, header, row):
    lower, upper = header.split(",")[1:]
    with pytest.raises(ValueError, match=f"line 3: needs 0 <= {lower} <= {upper}, got '{row}'"):
        read(f"{header}\n0,0,10\n{row}\n")
    assert len(read(f"{header}\n0,0,0\n1,5,5\n")) == 2  # zero-length intervals stay allowed
