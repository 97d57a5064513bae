"""Event-rate analysis: time series, rate-controller simulation, bandwidth.

The sensor can emit from ~0 to a nominal 1 GEv/s, but the USB link sustains
only ~115 MEv/s; deployments therefore configure an on-sensor event-rate
controller (ERC) that caps throughput (100 MEv/s here by default). This
module bins streams into rate series, simulates the cap with a deterministic
decimation policy, flags saturated bins, and accounts bandwidth for both the
compact wire format and a fixed 8-byte-per-event layout.

:func:`rate_series` is the one builder of the bins that hold events, and
:func:`_occupied_bins` finds runs of equal bin (or ERC period) in any order;
memory follows the items, never the time span they cover. Sorted events with
at least 16 per spanned bin are cut at each bin's start by a search; otherwise
each timestamp is divided by the bin width, as the rate controller always does,
since it thins shuffled input run by run. Bins and periods are 1 to
``MAX_BIN_US`` µs wide. Only the series CSV lists the empty bins, a chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import encode_stats
from .errors import EvfuseError
from .streams import Columns, EventStream, check_order, digit_table

DEFAULT_ERC_CAP_EVPS = 100_000_000  # explicit rate-controller cap
DEFAULT_ERC_PERIOD_US = 1000
DEFAULT_SATURATION_EVPS = 115_000_000  # sustained USB link limit
DEFAULT_BIN_US = 1000
MAX_BIN_US = 2**64 - 1  # widest bin or ERC period: a uint64, like the timestamps it divides
_CSV_CHUNK_BINS = 1 << 14  # rate-series CSV rows built at a time
# Fewest events per spanned bin at which a search for each bin's start beats dividing every timestamp:
# measured on 10^5 to 5·10^6 sorted events, the search was 1.7x slower at 8 and won from 16 up.
_SEARCH_EVENTS_PER_BIN = 16


class RateError(EvfuseError):
    pass


class TooFewEvents(RateError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"rate report needs at least 2 events, got {n}")


@dataclass(frozen=True)
class RateSeries:
    """Per-bin event counts over the occupied bins only: bin ``index[i]``
    covers ``[index[i]*bin_us, (index[i]+1)*bin_us)`` in absolute time and
    holds ``counts[i]`` events."""

    bin_us: int
    index: np.ndarray  # uint64, increasing
    counts: np.ndarray  # int64

    def to_csv(self, fh) -> None:
        """Write one ``bin_start_us,count`` row per bin from the first occupied
        bin to the last, empty ones as 0, one chunk of bins at a time."""
        fh.write("bin_start_us,count\n")
        if self.index.shape[0] == 0:
            return
        a, end = 0, int(self.index[-1]) + 1
        for lo in range(int(self.index[0]), end, _CSV_CHUNK_BINS):
            hi = min(lo + _CSV_CHUNK_BINS, end)
            b = int(np.searchsorted(self.index, np.uint64(hi - 1), side="right"))  # occupied bins [a, b) are in [lo, hi)
            chunk = np.zeros(hi - lo, dtype=np.uint64)
            chunk[(self.index[a:b] - np.uint64(lo)).astype(np.int64)] = self.counts[a:b]
            starts = (np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)) * np.uint64(self.bin_us)
            table = digit_table((starts, b",", chunk, b"\n"))
            fh.write(table[table != 0].tobytes().decode("ascii"))
            a = b


def _occupied_bins(t: np.ndarray, bin_us: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of equal bin in ``t``, one per occupied bin when ``t`` is time-sorted: each run's
    bin index and its first position in ``t``."""
    bins = t // np.uint64(bin_us)
    new_bin = np.ones(bins.shape[0], dtype=bool)
    np.not_equal(bins[1:], bins[:-1], out=new_bin[1:])
    first = np.flatnonzero(new_bin)
    return bins[first], first


def rate_series(events: Columns, bin_us: int = DEFAULT_BIN_US) -> RateSeries:
    """Count event timestamps per fixed bin anchored at t = 0, over the occupied bins only;
    unsorted events raise :class:`~evfuse.streams.UnsortedInput`. With at least
    ``_SEARCH_EVENTS_PER_BIN`` events per spanned bin, a search for each bin's start (all
    at most ``t[-1]``, so none wraps) cuts the sorted timestamps instead of dividing each."""
    if not 1 <= bin_us <= MAX_BIN_US:
        raise ValueError(f"bin width must be from 1 to {MAX_BIN_US} us")
    t = events["t"]
    check_order(t)
    n = t.shape[0]
    span = int(t[-1]) // bin_us - int(t[0]) // bin_us + 1 if n else 1  # an empty stream divides
    if span * _SEARCH_EVENTS_PER_BIN > n:
        index, first = _occupied_bins(t, bin_us)
    else:
        index = np.uint64(int(t[0]) // bin_us) + np.arange(span, dtype=np.uint64)
        first = np.searchsorted(t, index * np.uint64(bin_us))  # the first cut is 0
    counts = np.diff(first, append=n)
    occupied = counts != 0
    return RateSeries(bin_us, index[occupied], counts[occupied])


@dataclass(frozen=True)
class ErcConfig:
    """Rate-controller settings: events/second cap, control period in µs."""

    cap_evps: int = DEFAULT_ERC_CAP_EVPS
    period_us: int = DEFAULT_ERC_PERIOD_US

    def __post_init__(self):
        if self.cap_evps <= 0 or not 1 <= self.period_us <= MAX_BIN_US:
            raise ValueError(f"cap must be positive and period from 1 to {MAX_BIN_US} us")

    @property
    def budget(self) -> int:
        """Events allowed per control period."""
        return self.cap_evps * self.period_us // 1_000_000


def _erc_keep(events: Columns, cfg: ErcConfig) -> np.ndarray:
    """The rate controller's mask: a period (anchored at t = 0) within the
    budget ``B`` keeps all its events; one of ``n > B`` events keeps those at
    indices ``round(i*n/B)`` for ``i = 0..B-1``."""
    # runs of equal period id (no order check: shuffled input is thinned run by run)
    _, starts = _occupied_bins(events["t"], cfg.period_us)
    lengths = np.diff(starts, append=events.shape[0])
    budget = min(cfg.budget, events.shape[0])  # no period holds more events than the input
    keep = np.repeat(lengths <= budget, lengths)
    # Each over-budget run's kept offsets, one (runs x budget) array no larger than the events; with
    # budget == 0 it is empty, and NumPy divides empty arrays by zero without complaint.
    over = lengths > budget
    i2 = 2 * np.arange(budget, dtype=np.int64)
    keep[(starts[over][:, None] + (i2 * lengths[over][:, None] + budget) // (2 * budget)).ravel()] = True
    return keep


def erc_filter(events: Columns, cfg: ErcConfig = ErcConfig()) -> Columns:
    """Simulate the rate controller: a copy of the events :func:`_erc_keep`
    keeps, evenly spread and in order. Applying the filter twice changes nothing."""
    return events.take(np.flatnonzero(_erc_keep(events, cfg)))  # one index array gathers every column


def erc_thin(stream: EventStream, cfg: ErcConfig = ErcConfig()) -> EventStream:
    """``stream`` with its events through :func:`erc_filter`; every trigger
    keeps its place among the kept events, ties with them included."""
    kept = np.flatnonzero(_erc_keep(stream.events, cfg))
    triggers_ahead = np.arange(stream.n_triggers)
    kept_ahead = np.searchsorted(kept, stream.trigger_pos - triggers_ahead)  # kept events ahead of each trigger
    return EventStream(stream.header, stream.events.take(kept), stream.triggers, kept_ahead + triggers_ahead)


@dataclass(frozen=True)
class RateReport:
    """Stream-level rate and bandwidth summary under one encoding."""

    encoding: str
    n_events: int
    duration_us: int
    bin_us: int
    mean_evps: float
    peak_evps: float
    mean_bps: float
    peak_bps: float
    saturated_bins: list = field(default_factory=list)  # [{index, rate_evps}]

    @property
    def saturated(self) -> bool:
        return len(self.saturated_bins) > 0

    def to_json(self) -> dict:
        return {
            "encoding": self.encoding,
            "n_events": self.n_events,
            "duration_us": self.duration_us,
            "bin_us": self.bin_us,
            "mean_evps": self.mean_evps,
            "peak_evps": self.peak_evps,
            "mean_Bps": self.mean_bps,
            "peak_Bps": self.peak_bps,
            "saturated_bins": self.saturated_bins,
        }


def rate_report(
    stream: EventStream,
    encoding: str = "esf1",
    bin_us: int = DEFAULT_BIN_US,
    saturation_evps: float = DEFAULT_SATURATION_EVPS,
) -> RateReport:
    """Mean/peak event rate and bandwidth plus saturated-bin detection.

    ``encoding`` selects the byte accounting: ``esf1`` uses the actual wire
    words the encoder would emit (header included in the mean), ``fixed8``
    charges a flat 8 bytes per event. Mean rates divide by the timestamp span
    (``last - first``, floor 1 µs). The peak is taken over the occupied bins
    *and* the full span, so it can never undercut the mean.  Bins without
    items are never built, so the cost follows the item count, not the span.
    """
    if encoding not in ("esf1", "fixed8"):
        raise ValueError(f"unknown encoding: {encoding!r}")
    if not saturation_evps > 0:
        raise ValueError("saturation rate must be positive")
    events = stream.events
    n = events.shape[0]
    if n < 2:
        raise TooFewEvents(n)
    t = events["t"]
    series = rate_series(events, bin_us)  # occupied bins only: an empty bin is neither peak nor saturated
    index, counts = series.index, series.counts
    duration = max(int(t[-1]) - int(t[0]), 1)
    rates = counts * (1_000_000.0 / bin_us)
    mean_evps = n * 1_000_000 / duration
    peak_evps = max(float(rates.max()), mean_evps)

    if encoding == "fixed8":
        total_bytes = 8 * n
        bin_bytes = counts * 8
    else:
        stats = encode_stats(stream)  # also checks the merged items' time order: the trigger times are searchable
        total_bytes = stats.n_bytes  # includes the 16-byte header
        # Words per bin over the bins that hold items, triggers included. A bin's
        # first item comes after every event and trigger before the bin's start.
        trigger_t = stream.triggers["t"]
        edges = np.union1d(index, trigger_t // np.uint64(bin_us)) * np.uint64(bin_us)
        starts = np.searchsorted(t, edges) + np.searchsorted(trigger_t, edges)
        wide = np.uint32 if 4 * stats.words.size < 2**32 else np.int64  # exact (<= 4 words an item), 3x faster
        bin_words = np.add.reduceat(stats.words, starts, dtype=wide).astype(np.int64)
        # each rollover run counts in the bin of the item that carries it
        np.add.at(bin_words, np.searchsorted(starts, stats.rows, side="right") - 1, stats.run_lengths)
        bin_bytes = 2 * bin_words
    mean_bps = total_bytes * 1_000_000 / duration
    peak_bps = max(float(bin_bytes.max()) * 1_000_000 / bin_us, mean_bps)

    saturated = [
        {"index": int(index[i]), "rate_evps": float(rates[i])} for i in np.flatnonzero(rates >= saturation_evps)
    ]
    return RateReport(
        encoding=encoding,
        n_events=n,
        duration_us=duration,
        bin_us=bin_us,
        mean_evps=float(mean_evps),
        peak_evps=float(peak_evps),
        mean_bps=float(mean_bps),
        peak_bps=float(peak_bps),
        saturated_bins=saturated,
    )
