"""Frame/event temporal synchronization.

The frame camera's exposure is visible to the event camera as a pair of
trigger edges (rising = shutter open, falling = shutter close).  This module
pairs those edges into exposure intervals and carves the event timeline into
one window per frame.  Four preset windowing schemes are provided, plus an
anchored custom scheme:

``EXPOSURE`` (m1)
    exactly the exposure, ``[start, end)``.
``FRAME_LEADING`` (m2)
    frame-to-frame, ``[start_k, start_{k+1})``; the last window extends one
    median period past the last start.
``CENTERED`` (m3)
    one median period centered on the exposure midpoint.  Under trigger
    jitter neighboring windows may overlap.
``MIDPOINT`` (m4)
    boundaries halfway between consecutive exposure midpoints, extended half
    a period at both ends.  Always a partition.

All windows are half-open ``[t0, t1)`` in integer microseconds with lower
bounds clamped at zero.  Midpoints and medians can sit on quarter-microsecond
lattice points, so the arithmetic is done in exact integer quarters and only
floored on output; shared boundaries stay shared.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from . import streams  # module import: streams.validate_stream imports this module
from .errors import EvfuseError, InvalidInput


class TooFewExposures(EvfuseError):
    """The chosen windowing scheme needs more exposures than were given."""


@dataclass(frozen=True)
class ExposureInterval:
    """One frame exposure: half-open ``[start, end)`` in microseconds."""

    frame_id: int
    start: int
    end: int

    def midpoint2(self) -> int:
        """Twice the exposure midpoint (exact integer)."""
        return self.start + self.end


@dataclass(frozen=True)
class SyncWindow:
    """Half-open event window ``[t0, t1)`` assigned to a frame."""

    frame_id: int
    t0: int
    t1: int


class SyncMethod(Enum):
    EXPOSURE = "exposure"
    FRAME_LEADING = "frame_leading"
    CENTERED = "centered"
    MIDPOINT = "midpoint"


# Names accepted on the command line and in config files: m1-m4 in SyncMethod's order, each value, frame-leading.
METHOD_ALIASES = {**{f"m{i}": m for i, m in enumerate(SyncMethod, 1)}, **{m.value: m for m in SyncMethod},
                  "frame-leading": SyncMethod.FRAME_LEADING}


def parse_method(text: str) -> SyncMethod | CustomWindow:
    """The one parser of a window rule, as ``--method`` and config files spell it.

    A preset name or alias (``m1``-``m4``, ``exposure``, ``frame_leading``,
    ``centered``, ``midpoint``; any case) gives a :class:`SyncMethod`;
    ``ANCHOR:PRE_US:POST_US`` (e.g. ``midpoint:5000:5000``) gives a
    :class:`CustomWindow`.  Either result is accepted by :func:`windows`.  A
    bad value raises ``ValueError`` naming it; for a custom window the
    message ends with :class:`CustomWindow`'s own.
    """
    anchor, *bounds = text.strip().split(":")
    if not bounds:
        try:
            return METHOD_ALIASES[anchor.lower()]
        except KeyError:
            raise ValueError(f"unknown sync method {text!r}; choose from {sorted(set(METHOD_ALIASES))} "
                             "or ANCHOR:PRE_US:POST_US") from None
    try:
        if len(bounds) != 2:
            raise ValueError("expects 'anchor:pre_us:post_us'")
        return CustomWindow(anchor, int(bounds[0]), int(bounds[1]))
    except ValueError as exc:
        raise ValueError(f"custom window {text!r}: {exc}") from None


@dataclass(frozen=True)
class CustomWindow:
    """Window ``[anchor - pre_us, anchor + post_us)`` around a per-frame anchor."""

    anchor: str  # "start" | "midpoint" | "end"
    pre_us: int
    post_us: int

    def __post_init__(self):
        if self.anchor not in ("start", "midpoint", "end"):
            raise ValueError(f"anchor must be start|midpoint|end, got {self.anchor!r}")
        if self.pre_us < 0 or self.post_us < 0:
            raise ValueError("pre_us and post_us must be non-negative")


@dataclass(frozen=True)
class UnpairedEdge:
    """A trigger edge that could not be paired into an exposure.

    ``index`` is the edge's position in the trigger array that was paired; it
    is not part of the JSON record.
    """

    t: int
    edge: str  # "rising" | "falling"
    channel: int
    reason: str
    index: int

    def to_json(self) -> dict:
        return {"t": self.t, "edge": self.edge, "channel": self.channel, "reason": self.reason}


@dataclass
class PairingResult:
    exposures: list
    anomalies: list


def triggers_to_exposures(triggers: streams.Columns, channel: int = 0) -> PairingResult:
    """Pair consecutive (rising, falling) edges on one channel into exposures.

    Anomalous edges — a falling edge with nothing open, a rising edge while
    one is already open, or a rising edge left open at the end — are reported
    as :class:`UnpairedEdge` findings and pairing continues past them.
    """
    idx = np.flatnonzero(triggers["channel"] == channel)
    exposures: list[ExposureInterval] = []
    anomalies: list[UnpairedEdge] = []
    open_i = open_t = None  # the open rising edge: trigger index and time
    for i, t, edge in zip(idx.tolist(), triggers["t"][idx].tolist(), triggers["edge"][idx].tolist()):
        if edge == 1:
            if open_t is not None:
                anomalies.append(UnpairedEdge(open_t, "rising", channel, "followed by another rising edge", open_i))
            open_i, open_t = i, t
        elif open_t is None:
            anomalies.append(UnpairedEdge(t, "falling", channel, "no prior rising edge", i))
        else:
            exposures.append(ExposureInterval(len(exposures), open_t, t))
            open_i = open_t = None
    if open_t is not None:
        anomalies.append(UnpairedEdge(open_t, "rising", channel, "stream ended before falling edge", open_i))
    return PairingResult(exposures, anomalies)


def _check_exposures(exposures) -> None:
    prev_end = None
    for e in exposures:
        if e.end < e.start:
            raise InvalidInput(f"exposure {e.frame_id} ends before it starts: rising edge at t={e.start}, falling at t={e.end}")
        if prev_end is not None and e.start < prev_end:
            raise InvalidInput(f"exposure {e.frame_id} overlaps its predecessor: starts at t={e.start}, before t={prev_end}")
        prev_end = e.end


def median_period2(exposures) -> int:
    """Twice the median of successive start-to-start differences (exact)."""
    starts = [e.start for e in exposures]
    diffs = sorted(b - a for a, b in zip(starts, starts[1:]))
    if not diffs:
        raise TooFewExposures("need at least 2 exposures to estimate the frame period")
    k = len(diffs)
    return diffs[(k - 1) // 2] + diffs[k // 2]  # the two middle values; one value twice when k is odd


def windows(exposures, method) -> list:
    """Build one event window per exposure according to ``method``.

    ``method`` is a :class:`SyncMethod` preset or a :class:`CustomWindow`.
    Presets other than ``EXPOSURE`` need at least two exposures to estimate
    the frame period and raise :class:`TooFewExposures` otherwise.
    """
    exposures = list(exposures)
    _check_exposures(exposures)
    out = []
    for e, (q0, q1) in zip(exposures, _bounds4(exposures, method)):
        t0 = max(0, q0 // 4)
        out.append(SyncWindow(e.frame_id, t0, max(t0, q1 // 4)))
    return out


def _bounds4(exposures, method) -> list:
    """Each exposure's window bounds ``(lower, upper)`` in quarter microseconds."""
    if isinstance(method, CustomWindow):
        anchors4 = [2 * e.midpoint2() if method.anchor == "midpoint" else 4 * getattr(e, method.anchor) for e in exposures]
        return [(a - 4 * method.pre_us, a + 4 * method.post_us) for a in anchors4]
    if method is SyncMethod.EXPOSURE:
        return [(4 * e.start, 4 * e.end) for e in exposures]

    p2 = median_period2(exposures)  # half a period in quarters; raises TooFewExposures when needed
    if method is SyncMethod.FRAME_LEADING:
        starts4 = [4 * e.start for e in exposures]
        return list(zip(starts4, starts4[1:] + [starts4[-1] + 2 * p2]))
    mids4 = [2 * e.midpoint2() for e in exposures]
    if method is SyncMethod.CENTERED:
        return [(m - p2, m + p2) for m in mids4]
    if method is SyncMethod.MIDPOINT:
        # Neighbours share one exact boundary, so flooring keeps a partition.
        cuts4 = [mids4[0] - p2] + [(a + b) // 2 for a, b in zip(mids4, mids4[1:])] + [mids4[-1] + p2]
        return list(zip(cuts4, cuts4[1:]))
    raise ValueError(f"unknown sync method {method!r}")


def assign_events(events: streams.Columns, window_list) -> list:
    """Slice time-sorted events into per-window views via binary search.

    Returns one (possibly empty) view per window; an event is included when
    ``t0 <= t < t1``.  Windows may overlap, in which case events appear in
    every window that covers them.  A bound below 0 cuts before the first
    event and one past 2**64 - 1 after the last.  Unsorted events raise
    :class:`~evfuse.streams.UnsortedInput` at the first one out of order.
    """
    t = events["t"]
    streams.check_order(t)
    bounds = [max(b, 0) for w in window_list for b in (w.t0, w.t1)]
    cuts = np.searchsorted(t, np.array([min(b, 2**64 - 1) for b in bounds], dtype=np.uint64), side="left").tolist()
    cuts = [t.shape[0] if b >= 2**64 else c for b, c in zip(bounds, cuts)]
    return [events[i0:i1] for i0, i1 in zip(cuts[::2], cuts[1::2])]


def window_counts(events: streams.Columns, window_list) -> np.ndarray:
    """Number of events falling in each window."""
    return np.array([len(s) for s in assign_events(events, window_list)], dtype=np.int64)


# -- integer-table CSV -----------------------------------------------------


def _write_int_csv(header: str, rows) -> str:
    """One header line, then one line of integer fields per dataclass row.  Not :func:`~evfuse.streams.digit_table`:
    the fields are Python ints, and a custom window's end may pass 2**64 - 1."""
    lines = [header] + [",".join(str(v) for v in astuple(r)) for r in rows]
    return "\n".join(lines) + "\n"


def _read_int_csv(text: str, header: str, row_type, what: str) -> list:
    """Parse a table written by :func:`_write_int_csv` into ``row_type`` rows.

    Lines are read by :func:`~evfuse.streams.read_rows`; columns past the
    header's are ignored.  The first column is a ``frame_id``, which names a
    frame's outputs, so a repeated one is rejected.  The other two bound a
    time interval in µs, so ``0 <= lower <= upper`` must hold.
    """
    _, lower, upper = header.split(",")
    line_of = {}  # frame_id -> the line that holds it

    def parse(fields):
        frame_id, lo, hi = (int(fields[k]) for k in range(3))
        if not 0 <= lo <= hi:
            raise streams.LineRule(f"needs 0 <= {lower} <= {upper}")
        if frame_id in line_of:
            raise streams.LineRule(f"frame_id {frame_id} repeats line {line_of[frame_id]}")
        return row_type(frame_id, lo, hi)

    out = []
    for line_no, row in streams.read_rows(text, parse, what):
        line_of[row.frame_id] = line_no
        out.append(row)
    return out


def write_exposures_csv(exposures) -> str:
    return _write_int_csv("frame_id,start_us,end_us", exposures)


def read_exposures_csv(text: str) -> list:
    """Read back an exposure table, such as the file ``evfuse sync --exposures-out`` writes."""
    return _read_int_csv(text, "frame_id,start_us,end_us", ExposureInterval, "exposure")


def write_windows_csv(windows) -> str:
    return _write_int_csv("frame_id,t0_us,t1_us", windows)


def read_windows_csv(text: str) -> list:
    return _read_int_csv(text, "frame_id,t0_us,t1_us", SyncWindow, "window")
