"""Event stream data model.

An event camera reports per-pixel brightness changes ("CD events") with
microsecond timestamps, alongside external trigger edges that mark the
exposure window of a companion frame camera.  Both kinds of items share a
single time-ordered stream.  This module holds the in-memory representation
used throughout the package: compact NumPy record arrays plus a tiny header.

Events and triggers are stored in separate arrays; the original interleaving
is preserved via ``trigger_pos`` (the index of each trigger within the merged
item sequence), so serialization round-trips are item-exact even when a
trigger and an event share a timestamp.  :meth:`EventStream.merge_items` lays
values out in that order.  The stream rules (``x < width``, ``y < height``,
``channel < 16``, non-decreasing merged time) are defined once, in
:func:`rule_breaks`, for validation, encoding and CSV parsing alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvfuseError
from .sync import triggers_to_exposures

# CD event record: timestamp (microseconds), pixel coordinates, polarity (+1/-1).
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1")])

# Trigger record: timestamp (microseconds), edge (1 = rising, 0 = falling), channel 0-15.
TRIGGER_DTYPE = np.dtype([("t", "<u8"), ("edge", "<u1"), ("channel", "<u1")])

MAX_SENSOR_DIM = 2048  # coordinate fields are 11/12-bit in the wire format
N_CHANNELS = 16  # the trigger channel field is 4-bit in the wire format


class StreamError(EvfuseError):
    """Base class for event-stream structural errors."""


class UnsortedInput(StreamError):
    """Items handed to the encoder are not in non-decreasing time order."""

    def __init__(self, index: int, lead: str = ""):
        self.index = index
        super().__init__(f"{lead}item {index} breaks time order")


class CoordinateOutOfBounds(StreamError):
    """An event coordinate does not fit the sensor geometry."""

    def __init__(self, axis: str, value: int, offset: int | None = None, lead: str = ""):
        self.axis = axis
        self.value = value
        self.offset = offset
        at = f" at byte {offset}" if offset is not None else ""
        super().__init__(f"{lead}{axis}={value} out of bounds{at}")


class MalformedLine(StreamError, ValueError):
    """A CSV line does not parse or breaks a rule; ``line_no`` is 1-based, counting blank and comment lines."""

    def __init__(self, line_no: int, content: str, what: str, reason: str = "cannot parse"):
        self.line_no = line_no
        self.content = content
        super().__init__(f"{what} CSV line {line_no}: {reason}, got {content!r}")


class LineRule(ValueError):
    """Raised by a :func:`read_rows` parser for a line that parses but breaks a rule; the message is the rule."""


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_rows(text: str, parse, what: str):
    """The one line loop of every CSV input: yield ``(line_no, parse(fields))`` per data line, as it goes.

    Blank lines and ``#`` comments are skipped, and so is the first remaining
    line when none of its stripped comma-separated ``fields`` is a number (a
    header).  A ``ValueError``, ``KeyError`` or ``IndexError`` from ``parse``
    becomes :class:`MalformedLine`, whose reason is a :class:`LineRule`'s
    message or else "cannot parse".
    """
    header_allowed = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = list(map(str.strip, line.split(",")))
        if header_allowed:
            header_allowed = False
            if not any(map(_is_number, fields)):
                continue
        try:
            row = parse(fields)
        except (ValueError, KeyError, IndexError) as exc:
            raise MalformedLine(line_no, raw, what, str(exc) if isinstance(exc, LineRule) else "cannot parse") from None
        yield line_no, row


@dataclass(frozen=True)
class StreamHeader:
    """Sensor geometry attached to every stream."""

    width: int
    height: int

    def __post_init__(self):
        for axis, value in (("width", self.width), ("height", self.height)):
            if not (0 < value <= MAX_SENSOR_DIM):
                raise CoordinateOutOfBounds(axis, value)


def make_events(t, x, y, p) -> np.ndarray:
    """Build a CD-event record array from parallel sequences."""
    t = np.asarray(t, dtype=np.uint64)
    out = np.empty(t.shape[0], dtype=EVENT_DTYPE)
    out["t"] = t
    out["x"] = np.asarray(x, dtype=np.uint16)
    out["y"] = np.asarray(y, dtype=np.uint16)
    out["p"] = np.asarray(p, dtype=np.int8)
    return out


def make_triggers(t, edge, channel) -> np.ndarray:
    """Build a trigger record array. ``edge`` is 1 for rising, 0 for falling."""
    t = np.asarray(t, dtype=np.uint64)
    out = np.empty(t.shape[0], dtype=TRIGGER_DTYPE)
    out["t"] = t
    out["edge"] = np.asarray(edge, dtype=np.uint8)
    out["channel"] = np.asarray(channel, dtype=np.uint8)
    return out


def _empty_events() -> np.ndarray:
    return np.empty(0, dtype=EVENT_DTYPE)


def _empty_triggers() -> np.ndarray:
    return np.empty(0, dtype=TRIGGER_DTYPE)


@dataclass
class EventStream:
    """A decoded stream: header, CD events, triggers, and their interleaving.

    ``trigger_pos[i]`` is the index of trigger ``i`` within the merged item
    sequence (events and triggers together, encounter order).  Positions not
    listed there belong to events, in order.
    """

    header: StreamHeader
    events: np.ndarray = field(default_factory=_empty_events)
    triggers: np.ndarray = field(default_factory=_empty_triggers)
    trigger_pos: np.ndarray | None = None

    def __post_init__(self):
        self.events = np.asarray(self.events, dtype=EVENT_DTYPE)
        self.triggers = np.asarray(self.triggers, dtype=TRIGGER_DTYPE)
        if self.trigger_pos is None:
            # Default interleaving: stable merge by timestamp, events first on ties.
            pos = np.searchsorted(self.events["t"], self.triggers["t"], side="right")
            self.trigger_pos = (pos + np.arange(len(self.triggers), dtype=np.int64)).astype(np.int64)
        else:
            self.trigger_pos = np.asarray(self.trigger_pos, dtype=np.int64)
            if self.trigger_pos.shape[0] != self.triggers.shape[0]:
                raise ValueError("trigger_pos length must match triggers")
            pos = self.trigger_pos
            if pos.shape[0] and not (pos[0] >= 0 and pos[-1] < self.n_items and (pos[1:] > pos[:-1]).all()):
                raise ValueError("trigger_pos must be increasing positions within the merged item sequence")

    # -- basic introspection ------------------------------------------------

    @property
    def n_events(self) -> int:
        return int(self.events.shape[0])

    @property
    def n_triggers(self) -> int:
        return int(self.triggers.shape[0])

    @property
    def n_items(self) -> int:
        return self.n_events + self.n_triggers

    # -- merged view ----------------------------------------------------------

    def merge_items(self, per_event: np.ndarray, per_trigger) -> np.ndarray:
        """Per-event and per-trigger values (or one for all triggers) as one array in merged item order."""
        return np.insert(per_event, self.trigger_pos - np.arange(self.n_triggers), per_trigger)

    def merged_times(self) -> np.ndarray:
        """Timestamps of the merged item sequence, in encounter order."""
        return self.merge_items(self.events["t"], self.triggers["t"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.header == other.header
            and np.array_equal(self.events, other.events)
            and np.array_equal(self.triggers, other.triggers)
            and np.array_equal(self.trigger_pos, other.trigger_pos)
        )


@dataclass(frozen=True)
class Finding:
    """One structural anomaly discovered by :func:`validate_stream`."""

    kind: str
    message: str
    indices: tuple = ()

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message, "indices": list(self.indices)}


@dataclass
class ValidationReport:
    """Outcome of a structural pass over a stream.  Never mutates the stream."""

    findings: list

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict:
        out: dict = {}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def to_json(self) -> dict:
        return {"ok": self.ok, "findings": [f.to_json() for f in self.findings]}


def order_breaks(t: np.ndarray) -> np.ndarray:
    """Indices ``i`` where ``t[i] < t[i - 1]``: the items that break non-decreasing time order."""
    return np.flatnonzero(t[1:] < t[:-1]) + 1


def check_order(t: np.ndarray) -> None:
    """Raise :class:`UnsortedInput` at the first item of ``t`` that precedes its predecessor."""
    for i in order_breaks(t)[:1]:
        raise UnsortedInput(int(i))


def rule_breaks(stream: EventStream, t: np.ndarray) -> list:
    """``(rule, values, indices)`` for each rule ``stream`` breaks, in precedence order; one pass per rule.

    ``t`` is ``stream.merged_times()``.  ``x`` and ``y`` index the events,
    ``channel`` the triggers and ``order`` the merged items; ``values[indices]``
    are the offending values.
    """
    ev, h = stream.events, stream.header
    rules = (("x", ev["x"], h.width), ("y", ev["y"], h.height), ("channel", stream.triggers["channel"], N_CHANNELS))
    found = [(rule, values, np.flatnonzero(values >= limit)) for rule, values, limit in rules]
    found.append(("order", t, order_breaks(t)))
    return [f for f in found if f[2].shape[0]]


def check_stream(stream: EventStream, t: np.ndarray) -> None:
    """Raise the first break :func:`rule_breaks` finds: :class:`CoordinateOutOfBounds` or :class:`UnsortedInput`."""
    for rule, values, bad in rule_breaks(stream, t)[:1]:
        raise UnsortedInput(int(bad[0])) if rule == "order" else CoordinateOutOfBounds(rule, int(values[bad[0]]))


def validate_stream(stream: EventStream) -> ValidationReport:
    """Check the stream rules of :func:`rule_breaks` and trigger pairing.

    Returns a report of findings; an empty findings list means the stream is
    structurally sound.  The stream itself is left untouched.  Rule breaks
    are summarised, not listed: one ``monotonicity`` finding and at most one
    ``bounds`` finding per rule (x, y, channel), each holding the first
    offending indices and stating the total count in its message.  Each edge
    that :func:`~evfuse.sync.triggers_to_exposures` could not pair gives one
    ``unpaired_trigger`` finding.
    """
    findings: list[Finding] = []
    t = stream.merged_times()
    h = stream.header
    limits = {"x": f"width {h.width}", "y": f"height {h.height}", "channel": str(N_CHANNELS)}
    for rule, values, bad in rule_breaks(stream, t):
        n, i = bad.shape[0], int(bad[0])
        if rule == "order":  # the report lists time order first
            findings.insert(0, Finding("monotonicity", f"{n} item(s) precede their predecessor; first: "
                                       f"item {i} (t={int(t[i])}) precedes item {i - 1} (t={int(t[i - 1])})", (i - 1, i)))
        else:
            kind = "trigger" if rule == "channel" else "event"
            findings.append(Finding("bounds", f"{n} {kind}(s) with {rule} >= {limits[rule]}; first: "
                                    f"{kind} {i}: {rule}={int(values[i])}", (i,)))

    # Trigger pairing per channel: edges should alternate rising -> falling.
    tr = stream.triggers
    for ch in np.unique(tr["channel"]).tolist():
        for a in triggers_to_exposures(tr, ch).anomalies:
            findings.append(
                Finding("unpaired_trigger", f"channel {ch}: {a.edge} edge at t={a.t}: {a.reason}", (a.index,))
            )

    return ValidationReport(findings)
