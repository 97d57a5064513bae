"""Rate/bandwidth tests: arithmetic identities plus brute-force per-period
recounts of the rate-controller simulation."""

from __future__ import annotations

import hashlib
import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evfuse.codec import encode_stats, write_csv
from evfuse.rate import (
    ErcConfig,
    TooFewEvents,
    _SEARCH_EVENTS_PER_BIN,
    erc_filter,
    erc_thin,
    rate_report,
    rate_series,
)
from evfuse.streams import EventStream, StreamHeader, UnsortedInput, make_events, make_triggers
from test_codec import _ref_encode_words


def _events_at(times, width=64, height=64, seed=0):
    times = np.asarray(times, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    n = times.shape[0]
    return make_events(times, rng.integers(0, width, n), rng.integers(0, height, n), rng.choice([-1, 1], n))


def _stream(events, width=64, height=64):
    return EventStream(StreamHeader(width, height), events, make_triggers([], [], []))


# -- rate series -------------------------------------------------------------------


def _ref_series_csv(events, bin_us):
    """The series CSV from a dense count array, one entry per bin across the span (the reference)."""
    t = events["t"]
    lines = ["bin_start_us,count"]
    if t.shape[0]:
        start_bin = int(t[0]) // bin_us
        dense = np.bincount((t // np.uint64(bin_us) - np.uint64(start_bin)).astype(np.int64))
        lines += [f"{(start_bin + i) * bin_us},{int(c)}" for i, c in enumerate(dense)]
    return "\n".join(lines) + "\n"


def _csv(series):
    fh = io.StringIO()
    series.to_csv(fh)
    return fh.getvalue()


def test_rate_series_uniform_1mevps():
    # 10^6 events uniformly over exactly 1s at 1 per µs -> every 1ms bin holds 1000.
    t = np.arange(1_000_000, dtype=np.uint64)
    series = rate_series(_events_at(t), bin_us=1000)
    assert np.array_equal(series.index, np.arange(1000))
    assert (series.counts == 1000).all()
    assert (series.counts * (1_000_000.0 / series.bin_us) == 1e6).all()
    assert series.counts.sum() == 1_000_000


def test_rate_series_empty():
    series = rate_series(_events_at([]), bin_us=1000)
    assert series.index.shape[0] == series.counts.shape[0] == 0
    assert _csv(series) == "bin_start_us,count\n"


def test_rate_series_single_burst():
    series = rate_series(_events_at([500_123] * 700), bin_us=1000)
    assert series.index.tolist() == [500]
    assert series.counts.tolist() == [700]
    assert _csv(series) == "bin_start_us,count\n500000,700\n"


def test_rate_series_counts_sum_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = np.sort(rng.integers(0, 10_000_000, size=int(rng.integers(1, 5000))).astype(np.uint64))
        series = rate_series(_events_at(t), bin_us=int(rng.integers(1, 50_000)))
        assert series.counts.sum() == t.shape[0]
        # brute-force recount of a random bin between the first and last occupied one, empty or not
        k = int(rng.integers(int(series.index[0]), int(series.index[-1]) + 1))
        i = int(np.searchsorted(series.index, np.uint64(k)))
        count = int(series.counts[i]) if series.index[i] == k else 0
        lo = k * series.bin_us
        assert count == ((t >= lo) & (t < lo + series.bin_us)).sum()


def test_rate_series_csv():
    series = rate_series(_events_at([0, 1, 1500]), bin_us=1000)
    assert _csv(series) == "bin_start_us,count\n0,2\n1000,1\n"


@pytest.mark.parametrize("bin_us", [1, 7, 1000, 1 << 24])
def test_rate_series_csv_matches_dense_reference(bin_us):
    rng = np.random.default_rng(bin_us)
    streams = [[], [123_456] * 3, [1 << 32, (1 << 32) + 5, (1 << 32) + 70_000]]
    for _ in range(8):
        # four bursts of up to 3 bins each, after empty gaps of up to 20,000 bins (a CSV chunk is 16,384)
        starts = (int(rng.integers(0, 1 << 20)) + np.cumsum(rng.integers(0, 20_000, size=4))) * bin_us
        bursts = [s + rng.integers(0, 3 * bin_us, size=int(rng.integers(1, 50))) for s in starts]
        streams.append(np.sort(np.concatenate(bursts)))
    for t in streams:
        events = _events_at(t)
        assert _csv(rate_series(events, bin_us)) == _ref_series_csv(events, bin_us)


@pytest.mark.parametrize("bin_us", [1, 7, 1000])
def test_rate_series_csv_with_20_digit_bin_starts_matches_dense_reference(bin_us):
    top = 2**64 - 1
    streams = [
        [top - 40_000 * bin_us, top - 40_000 * bin_us + 3, top - 5, top],  # three chunks, mostly empty bins
        [10**19 - 9_000 * bin_us, 10**19 - 1, 10**19, 10**19 + 9_000 * bin_us],  # 19 and 20 digits in one chunk
    ]
    for t in streams:
        events = _events_at(t)
        assert _csv(rate_series(events, bin_us)) == _ref_series_csv(events, bin_us)


def test_series_memory_follows_items_not_span():
    # 2**18 one-µs bins, all but a handful empty: memory is the items plus one CSV chunk
    events = _events_at([3, 4, 4, 1 << 17, (1 << 18) + 2])
    digest = hashlib.sha256()
    sink = SimpleNamespace(write=lambda text: digest.update(text.encode()))  # keeps only a digest
    tracemalloc.start()
    try:
        rate_series(events, bin_us=1).to_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert digest.hexdigest() == hashlib.sha256(_ref_series_csv(events, 1).encode()).hexdigest()


def test_rate_series_rejects_bad_bin():
    for bin_us in (0, 2**64):  # a width is 1 to 2**64 - 1 us
        with pytest.raises(ValueError):
            rate_series(_events_at([1]), bin_us=bin_us)


@st.composite
def _sorted_times(draw):
    """A bin width and sorted timestamps whose first and last lie in the first and last of ``span`` bins:
    one event fewer than the edge search needs, as many, one more, or two, one or none; up to 2**64 - 1."""
    bin_us = draw(st.sampled_from([1, 7, 1000, 2**40]))
    span = draw(st.integers(1, 4))
    at = _SEARCH_EVENTS_PER_BIN * span  # the fewest events that the edge search cuts
    n = draw(st.sampled_from([at - 1, at, at + 1, 2, 1, 0]))
    top_bin = (2**64 - 1) // bin_us - span + 1  # the last first bin whose span still fits in uint64
    b0 = draw(st.one_of(st.just(top_bin), st.integers(0, top_bin)))
    lo, hi = b0 * bin_us, min((b0 + span) * bin_us, 2**64) - 1
    inner = draw(st.lists(st.integers(lo, hi), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    return bin_us, sorted(inner + [lo, hi][: min(n, 2)])


@settings(max_examples=300, deadline=None)
@given(_sorted_times())
@example((1, []))  # empty
@example((7, [2**64 - 1] * 3))  # one bin, the last one, divided
@example((7, [2**64 - 1] * 16))  # the same bin, searched
@example((2**40, [0, 2**40 - 1, 2**40, 2**64 - 1]))  # fewer events than the 2**24 bins they span
@example((1, [2**64 - 3, 2**64 - 2, 2**64 - 1, 2**64 - 1]))  # three bins of four events, up to the top
@example((1, [2**64 - 2] * 17 + [2**64 - 1] * 15))  # the last two bins, searched
@example((2**64 - 1, [0, 5, 2**64 - 2, 2**64 - 1]))  # the widest bins, divided
@example((2**64 - 1, [0] * 20 + [2**64 - 1] * 12))  # the widest bins, searched
def test_event_bins_match_unique_of_the_division(case):
    bin_us, times = case
    t = np.array(times, dtype=np.uint64)
    want_index, want_counts = np.unique(t // np.uint64(bin_us), return_counts=True)
    events = _events_at(t)
    series = rate_series(events, bin_us)
    assert series.index.dtype == np.uint64 and series.counts.dtype == np.int64
    assert np.array_equal(series.index, want_index) and np.array_equal(series.counts, want_counts)


# -- ERC ---------------------------------------------------------------------------


def test_erc_under_cap_is_identity():
    # 50 MEv/s against a 100 MEv/s cap: untouched. So under caps whose budget, up to 10**30
    # events per period, is far more than the input: it is never built at that size.
    t = np.arange(0, 100_000, 2, dtype=np.uint64)  # one event every 2 µs
    events = _events_at(t)
    for cfg in (ErcConfig(100_000_000, 1000), ErcConfig(10**15, 1000), ErcConfig(10**30, 10**6),
                ErcConfig(10**15, 2**64 - 1)):
        assert np.array_equal(erc_filter(events, cfg), events)
        assert np.array_equal(erc_thin(_stream(events), cfg).events, events)


def test_erc_exact_halving():
    # n = 2B in one period: exactly B survivors, every second event kept.
    cfg = ErcConfig(100_000_000, 1000)  # B = 100000
    b = cfg.budget
    t = np.zeros(2 * b, dtype=np.uint64)
    events = _events_at(t)
    out = erc_filter(events, cfg)
    assert out.shape[0] == b
    assert np.array_equal(out, events[0 : 2 * b : 2])


def test_erc_budget_value():
    assert ErcConfig(100_000_000, 1000).budget == 100_000
    assert ErcConfig(999, 1000).budget == 0  # sub-1-event budget drops the period


def test_erc_brute_force_per_period_cap():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 4000))
        t = np.sort(rng.integers(0, 50_000, size=n).astype(np.uint64))
        events = _events_at(t, seed=int(rng.integers(1 << 30)))
        cfg = ErcConfig(int(rng.integers(1, 200)) * 100_000, int(rng.integers(100, 5000)))
        out = erc_filter(events, cfg)
        b = cfg.budget
        # per-period recount on the output
        for pid in np.unique(t // np.uint64(cfg.period_us)):
            n_in = int((t // np.uint64(cfg.period_us) == pid).sum())
            n_out = int((out["t"] // np.uint64(cfg.period_us) == pid).sum())
            assert n_out <= b
            assert n_out == min(n_in, b)
        # order preserved
        assert (np.diff(out["t"].astype(np.int64)) >= 0).all()


def _ref_erc_filter(events, cfg):
    """Per-run loop reference for ``erc_filter``: one Python pass over each
    run of equal period id, in input order."""
    t = events["t"]
    n_total = t.shape[0]
    budget = cfg.budget
    if n_total == 0:
        return events[:0].copy()
    pid = t // np.uint64(cfg.period_us)
    starts = np.flatnonzero(np.r_[True, pid[1:] != pid[:-1]])
    ends = np.r_[starts[1:], n_total]
    keep_chunks = []
    for s, e in zip(starts, ends):
        n = int(e - s)
        if n <= budget:
            keep_chunks.append(np.arange(s, e))
        elif budget > 0:
            i = np.arange(budget, dtype=np.int64)
            keep_chunks.append(s + (2 * i * n + budget) // (2 * budget))
    if not keep_chunks:
        return events[:0].copy()
    return events[np.concatenate(keep_chunks)]


def test_erc_matches_reference_loop():
    rng = np.random.default_rng(11)
    cases = [
        (np.zeros(0, dtype=np.uint64), ErcConfig(1_000_000, 1000)),  # empty input
        (np.full(50, 7, dtype=np.uint64), ErcConfig(3_000, 1000)),  # one period, budget 3
        (np.arange(40, dtype=np.uint64), ErcConfig(999, 1000)),  # budget 0 drops everything
    ]
    for k in range(300):
        t = rng.integers(0, int(rng.integers(1, 30_000)), size=int(rng.integers(0, 2000))).astype(np.uint64)
        if k % 5:
            t = np.sort(t)  # every fifth case keeps its shuffled times
        period_us, budget = int(rng.integers(1, 3000)), int(rng.integers(0, 60))
        cases.append((t, ErcConfig(budget * 1_000_000 // period_us + 1, period_us)))  # .budget == budget
    for t, cfg in cases:
        events = _events_at(t, seed=int(t.shape[0]))
        out = erc_filter(events, cfg)
        assert out.dtype == events.dtype
        assert np.array_equal(out, _ref_erc_filter(events, cfg))


def test_erc_on_a_strided_view_matches_the_reference_in_a_copy():
    # Every second event of contiguous columns: budget 7 splits each period's run of about 330 unevenly.
    rng = np.random.default_rng(13)
    ids = np.arange(2_001)  # each event at its own pixel, so the kept ones are known by pixel
    base = make_events(np.sort(rng.integers(0, 3_000, size=ids.shape[0])), ids % 64, ids // 64, rng.choice([-1, 1], 2_001))
    events = base[::2]
    assert not any(events[f].flags.c_contiguous for f in "txyp")

    def shares_memory_with_base(got):
        return any(np.shares_memory(got[f], base[f]) for f in "txyp")

    cfg = ErcConfig(7_000, 1000)
    want = _ref_erc_filter(events, cfg)
    out = erc_filter(events, cfg)
    assert out.dtype == events.dtype and np.array_equal(out, want) and not shares_memory_with_base(out)
    # erc_thin keeps the same events, and each trigger sits after the kept events that were ahead of it
    t_tr = np.sort(rng.integers(0, 3_000, size=9)).astype(np.uint64)
    stream = EventStream(StreamHeader(64, 64), events, make_triggers(t_tr, [1] * 9, [0] * 9))
    thinned = erc_thin(stream, cfg)
    assert np.array_equal(thinned.events, want) and not shares_memory_with_base(thinned.events)
    keep = np.isin(events["x"] + 64 * events["y"].astype(np.int64), want["x"] + 64 * want["y"].astype(np.int64))
    ahead = stream.trigger_pos - np.arange(9)
    assert thinned.trigger_pos.tolist() == (stream.trigger_pos - np.searchsorted(np.flatnonzero(~keep), ahead)).tolist()


def test_erc_thin_removes_only_the_dropped_event_lines():
    # Random interleavings with many ties: the thinned stream's debug CSV is the input's
    # with the lines of the events erc_filter drops taken out, triggers all in place.
    rng = np.random.default_rng(12)
    for k in range(50):
        n_ev, n_tr = int(rng.integers(0, 300)), int(rng.integers(0, 20))
        t = np.sort(rng.integers(0, 5_000, size=n_ev + n_tr)).astype(np.uint64)
        is_trigger = np.zeros(t.shape[0], dtype=bool)
        is_trigger[rng.choice(t.shape[0], n_tr, replace=False)] = True
        ids = np.arange(n_ev)  # each event at its own pixel, so the kept ones are known by pixel
        events = make_events(t[~is_trigger], ids % 64, ids // 64, rng.choice([-1, 1], n_ev))
        triggers = make_triggers(t[is_trigger], rng.integers(0, 2, n_tr), rng.integers(0, 16, n_tr))
        stream = EventStream(StreamHeader(64, 64), events, triggers, np.flatnonzero(is_trigger))
        cfg = ErcConfig(int(rng.integers(1, 20)) * 1_000_000 // 500 + 1, 500)
        out = erc_filter(events, cfg)
        kept = np.isin(ids, out["x"].astype(np.int64) + 64 * out["y"].astype(np.int64))
        lines = write_csv(stream).splitlines()
        item_kept = stream.merge_items(kept, True)
        want = [line for line, keep in zip(lines, item_kept) if keep]
        assert write_csv(erc_thin(stream, cfg)).splitlines() == want


def test_erc_idempotent():
    rng = np.random.default_rng(3)
    t = np.sort(rng.integers(0, 20_000, size=3000).astype(np.uint64))
    events = _events_at(t)
    cfg = ErcConfig(50_000_000, 500)
    once = erc_filter(events, cfg)
    twice = erc_filter(once, cfg)
    assert np.array_equal(once, twice)


def test_erc_monotone_in_cap():
    rng = np.random.default_rng(4)
    t = np.sort(rng.integers(0, 20_000, size=2500).astype(np.uint64))
    events = _events_at(t)
    sizes = []
    for cap in (10, 30, 60, 90, 150):
        sizes.append(erc_filter(events, ErcConfig(cap * 1_000_000, 1000)).shape[0])
    assert sizes == sorted(sizes)


def test_erc_rejects_bad_config():
    with pytest.raises(ValueError):
        ErcConfig(0, 1000)
    with pytest.raises(ValueError):
        ErcConfig(1000, 0)
    with pytest.raises(ValueError):
        ErcConfig(1000, 2**64)  # a period is 1 to 2**64 - 1 us, like a rate bin


# -- rate report -------------------------------------------------------------------


def test_report_fixed8_identity():
    # 10^6 events over exactly 1 s -> mean bandwidth exactly 8 MB/s.
    t = np.arange(1_000_000, dtype=np.uint64)
    rep = rate_report(_stream(_events_at(t)), encoding="fixed8")
    assert rep.duration_us == 999_999
    assert rep.mean_bps == 8 * 1_000_000 * 1_000_000 / 999_999
    assert rep.mean_evps == 1_000_000 * 1_000_000 / 999_999
    assert rep.peak_evps >= rep.mean_evps
    assert rep.peak_bps >= rep.mean_bps
    assert not rep.saturated


def test_report_esf1_beats_fixed8_on_burst():
    # Constant-time single-row burst: state words amortize, wire bytes shrink.
    n = 500
    events = make_events(np.full(n, 777, dtype=np.uint64), np.arange(n) % 64, np.full(n, 3), np.ones(n))
    stream = _stream(events)
    esf1 = rate_report(stream, encoding="esf1")
    fixed8 = rate_report(stream, encoding="fixed8")
    assert encode_stats(stream).n_bytes < 8 * n
    assert esf1.mean_bps < fixed8.mean_bps


def test_esf1_report_with_trigger_before_first_event_bin():
    # A trigger at 0.1 ms sits in an earlier rate bin than every event (5-7 ms).
    events = _events_at(np.arange(5000, 7001, 100))
    stream = EventStream(StreamHeader(64, 64), events, make_triggers([100], [1], [0]))
    rep = rate_report(stream, encoding="esf1", bin_us=1000)
    assert rep.duration_us == 2000
    assert rep.mean_bps == encode_stats(stream).n_bytes * 1_000_000 / rep.duration_us
    assert rep.peak_bps >= rep.mean_bps


def _brute_esf1_peak_bps(stream, bin_us, item_words=None):
    """Peak esf1 bandwidth from per-item word counts (by default the reference
    encoder's), summed into bins one item at a time."""
    counts = _ref_encode_words(stream)[1] if item_words is None else item_words
    bin_words = {}
    for t, c in zip(stream.merged_times().tolist(), counts.tolist()):
        bin_words[t // bin_us] = bin_words.get(t // bin_us, 0) + c
    t_ev = stream.events["t"].tolist()
    mean_bps = (16 + 2 * sum(counts.tolist())) * 1_000_000 / max(t_ev[-1] - t_ev[0], 1)
    return max(2 * max(bin_words.values()) * 1_000_000 / bin_us, mean_bps), mean_bps


def _rollover_stream(seed):
    """Events across the timestamp rollovers into epochs 1, 2 and (three at once) 5, with triggers at and just
    after each: every rollover run is carried by an item in a bin that also holds triggers, at any bin width."""
    epoch = 1 << 24
    rng = np.random.default_rng(seed)
    around = ((1, -3_000), (2, -3_000), (5, 0))  # epoch 5 only from its start, so no item lands in epoch 4
    t_ev = np.sort(np.concatenate([k * epoch + rng.integers(lo, 3_000, 200) for k, lo in around]))
    t_tr = np.sort(np.concatenate([k * epoch + np.array([0, 0, 1, 9]) for k in (1, 2, 5)]))
    return EventStream(StreamHeader(64, 64), _events_at(t_ev, seed=seed),
                       make_triggers(t_tr, np.arange(t_tr.shape[0]) % 2, np.arange(t_tr.shape[0]) % 16))


@pytest.mark.parametrize("bin_us", [7, 100, 1000, 4096, 25_000, 1 << 24])
def test_esf1_peak_bps_matches_brute_force_bins(bin_us):
    # Event bursts with empty bins between them, a trigger-only stretch that is
    # the densest in words at some bin widths, a trigger before the first event
    # and a burst past the first timestamp rollover.
    rng = np.random.default_rng(bin_us)
    t_ev = np.sort(np.concatenate([rng.integers(a, a + w, m) for a, w, m in
                                   ((1_000, 300, 400), (60_000, 2_000, 300), (16_777_000, 900, 500))]))
    t_tr = np.sort(np.concatenate([[10], 30_000 + np.arange(2_000), rng.integers(1_000, 17_000_000, 20)]))
    stream = EventStream(StreamHeader(64, 64), _events_at(t_ev, seed=bin_us),
                         make_triggers(t_tr, np.arange(t_tr.shape[0]) % 2, np.arange(t_tr.shape[0]) % 16))
    peak_bps, mean_bps = _brute_esf1_peak_bps(stream, bin_us)
    rep = rate_report(stream, encoding="esf1", bin_us=bin_us)
    assert rep.peak_bps == peak_bps
    assert rep.mean_bps == mean_bps
    assert bin_us >= 25_000 or peak_bps > mean_bps  # the bins, not the mean, set the peak

    # rollover runs in bins with triggers, against encode_stats' own per-item counts and the reference encoder's
    stream = _rollover_stream(bin_us)
    stats = encode_stats(stream)
    run_bins = stream.merged_times()[stats.rows] // np.uint64(bin_us)
    assert stats.rows.shape[0] == 3 and np.isin(run_bins, stream.triggers["t"] // np.uint64(bin_us)).all()
    rep = rate_report(stream, encoding="esf1", bin_us=bin_us)
    assert (rep.peak_bps, rep.mean_bps) == _brute_esf1_peak_bps(stream, bin_us, stats.item_words)
    assert (rep.peak_bps, rep.mean_bps) == _brute_esf1_peak_bps(stream, bin_us)


def test_esf1_report_builds_merged_times_once(monkeypatch):
    # encode_stats needs the merged timestamps; the bin cut reuses the event bins instead
    calls = []
    merged_times = EventStream.merged_times
    monkeypatch.setattr(EventStream, "merged_times", lambda self: calls.append(1) or merged_times(self))
    t_ev = np.arange(0, 50_000, 7)
    triggers = make_triggers([3, 2_500, 2_999, 40_000], [1, 0, 1, 0], [0] * 4)
    stream = EventStream(StreamHeader(64, 64), _events_at(t_ev), triggers)
    rep = rate_report(stream, encoding="esf1", bin_us=1000)
    assert len(calls) == 1
    assert (rep.peak_bps, rep.mean_bps) == _brute_esf1_peak_bps(stream, 1000)


def test_report_peak_above_mean_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 3000))
        t = np.sort(rng.integers(0, 500_000, size=n).astype(np.uint64))
        for enc in ("esf1", "fixed8"):
            rep = rate_report(_stream(_events_at(t, seed=int(rng.integers(1 << 30)))), encoding=enc)
            assert rep.peak_evps >= rep.mean_evps
            assert rep.peak_bps >= rep.mean_bps


def test_report_saturation_flagging():
    # 200k events inside one 1 ms bin = 200 MEv/s, far above the 115 MEv/s limit.
    t = np.concatenate([np.zeros(200_000), [2_000_000]]).astype(np.uint64)
    rep = rate_report(_stream(_events_at(t)), encoding="fixed8", bin_us=1000)
    assert rep.saturated
    assert rep.saturated_bins[0]["index"] == 0
    assert rep.saturated_bins[0]["rate_evps"] == 200_000 * 1e6 / 1000
    # the quiet tail bin is not flagged
    assert all(b["index"] == 0 for b in rep.saturated_bins)


def test_report_saturation_threshold_boundary():
    # exactly at threshold counts as saturated (>=)
    t = np.concatenate([np.zeros(115_000), [1_000_000]]).astype(np.uint64)
    rep = rate_report(_stream(_events_at(t)), encoding="fixed8", bin_us=1000)
    assert any(b["index"] == 0 for b in rep.saturated_bins)


def test_report_rejects_tiny_stream():
    with pytest.raises(TooFewEvents):
        rate_report(_stream(_events_at([5])), encoding="fixed8")


def test_report_rejects_unknown_encoding():
    with pytest.raises(ValueError):
        rate_report(_stream(_events_at([1, 2])), encoding="raw")


def test_report_rejects_non_positive_saturation_rate():
    # with a zero or negative threshold every empty bin would count as saturated
    for rate in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="saturation"):
            rate_report(_stream(_events_at([1, 2])), encoding="fixed8", saturation_evps=rate)


def test_series_and_report_reject_shuffled_events():
    t = np.random.default_rng(12).permutation(np.arange(0, 100_000, 100, dtype=np.uint64))
    first = int(np.flatnonzero(t[1:] < t[:-1])[0]) + 1
    stream = _stream(_events_at(t))
    for call in (lambda: rate_series(stream.events), lambda: rate_report(stream, encoding="fixed8"),
                 lambda: rate_report(stream, encoding="esf1")):
        with pytest.raises(UnsortedInput) as exc:
            call()
        assert exc.value.index == first


def test_report_memory_follows_items_not_span():
    # 2**24 one-µs bins, all but a handful empty, with triggers in bins of their own
    events = _events_at([0, 5, 6, 1 << 23, 1 << 24])
    stream = EventStream(StreamHeader(64, 64), events, make_triggers([3, 1 << 22, 1 << 22], [1, 0, 1], [0, 0, 0]))
    tracemalloc.start()
    try:
        reports = [rate_report(stream, encoding=enc, bin_us=1) for enc in ("fixed8", "esf1")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    fixed8, esf1 = reports
    assert (fixed8.peak_evps, fixed8.peak_bps, fixed8.saturated_bins) == (1e6, 8e6, [])
    assert (esf1.peak_bps, esf1.mean_bps) == _brute_esf1_peak_bps(stream, 1)


def test_report_json_keys():
    rep = rate_report(_stream(_events_at([0, 10, 20, 1000])), encoding="esf1")
    js = rep.to_json()
    assert {"mean_evps", "peak_evps", "mean_Bps", "peak_Bps", "saturated_bins"} <= set(js)


def test_report_esf1_accounts_triggers():
    events = _events_at(np.arange(0, 10_000, 10))
    with_tr = EventStream(
        StreamHeader(64, 64),
        events,
        make_triggers(np.arange(0, 10_000, 1000), np.ones(10), np.zeros(10)),
    )
    without = _stream(events)
    assert rate_report(with_tr, "esf1").mean_bps > rate_report(without, "esf1").mean_bps
