"""Event stream data model.

An event camera reports per-pixel brightness changes ("CD events") with
microsecond timestamps, alongside external trigger edges that mark the
exposure window of a companion frame camera.  Both kinds of items share a
single time-ordered stream.  This module holds the in-memory representation
used throughout the package: one contiguous NumPy column per field, held by
:class:`Columns`, plus a tiny header.  ``np.asarray(columns)`` is the one
conversion to packed records.

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
from functools import partial

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


def digit_table(fields) -> np.ndarray:
    """The one writer of integer CSV tables: one ``(n, width)`` uint8 row per line, ``table[table != 0]`` the text.

    A field is a bytes literal, written on every line; an ``(n, k)`` uint8 table of each line's own
    characters, 0 for none; or a 1-D unsigned integer column in decimal, right-aligned in its largest value's width.
    """
    n = next(len(f) for f in fields if not isinstance(f, bytes))
    fields = [np.frombuffer(f, dtype=np.uint8)[None] if isinstance(f, bytes) else f for f in fields]
    widths = [f.shape[1] if f.ndim == 2 else len(str(f.max(initial=0))) for f in fields]
    table = np.zeros((n, sum(widths)), dtype=np.uint8)
    for f, cells in zip(fields, np.split(table, np.cumsum(widths)[:-1], axis=1)):
        if f.ndim == 2:
            cells[...] = f
            continue
        q = f.astype(np.uint32) if f.itemsize > 4 and cells.shape[1] < 10 else f  # 32-bit division is the faster
        ten = q.dtype.type(10)
        for k in range(cells.shape[1]):  # digit k from the right, where q is the number // 10**k
            above = q // ten  # // by a scalar is several times faster than np.divmod or %
            char = (q - above * ten).astype(np.uint8) + np.uint8(ord("0"))
            if k:
                char *= q != 0  # a number below 10**k has no digit k
            cells[:, -1 - k] = char
            q = above
    return table


@dataclass(frozen=True)
class StreamHeader:
    """Sensor geometry attached to every stream."""

    width: int
    height: int

    def __post_init__(self):
        for axis, value in (("width", self.width), ("height", self.height)):
            if not (0 < value <= MAX_SENSOR_DIM):
                raise CoordinateOutOfBounds(axis, value)


@dataclass(frozen=True, eq=False)
class Columns:
    """Items stored column-wise: one equal-length 1-D array per field of the record ``dtype``.

    ``c["t"]`` is the ``t`` column itself, writable in place.  A slice (steps
    included) gives views of every column, and a mask or an index array,
    like :meth:`take` and :meth:`copy`, new ones; one int is no key.
    ``np.asarray(c)`` is the one conversion to packed ``dtype`` records, byte
    for byte as a record array holds them, and :meth:`of` the one way back.
    Equality compares the dtype and the values of every column.
    """

    dtype: np.dtype  # EVENT_DTYPE or TRIGGER_DTYPE
    columns: dict  # field name -> 1-D array of the field's type, in dtype order

    def __post_init__(self):
        names, shapes = tuple(self.columns), {c.shape for c in self.columns.values()}
        if names != self.dtype.names or len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError(f"need one 1-D column of equal length per field of {self.dtype.names}, got {names}")
        for name, col in self.columns.items():
            if col.dtype != self.dtype[name]:
                raise ValueError(f"column {name!r} is {col.dtype}, expected {self.dtype[name]}")

    @classmethod
    def empty(cls, dtype: np.dtype, n: int = 0) -> Columns:
        return cls(dtype, {name: np.empty(n, dtype=dtype[name]) for name in dtype.names})

    @classmethod
    def of(cls, items, dtype: np.dtype) -> Columns:
        """``items`` as columns of ``dtype``: a :class:`Columns` of that dtype as it is, anything
        else (a record array, a sequence of records) through ``np.asarray`` into new columns."""
        if isinstance(items, Columns) and items.dtype == dtype:
            return items
        records = np.asarray(items, dtype=dtype)
        return cls(dtype, {name: records[name].copy() for name in dtype.names})

    def _each(self, fn) -> Columns:
        return Columns(self.dtype, {name: fn(col) for name, col in self.columns.items()})

    def __len__(self) -> int:
        return self.columns["t"].shape[0]

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.columns[key]
        if isinstance(key, (int, np.integer)):
            raise TypeError("columns take a field name, a slice, a mask or an index array, "
                            f"not the int {key}; np.asarray(c)[i] is record i")
        return self._each(lambda col: col[key])

    def take(self, indices) -> Columns:
        return self._each(lambda col: col.take(indices))

    def copy(self) -> Columns:
        return self._each(np.copy)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("columns are not records: converting them copies")
        out = np.empty(len(self), dtype=self.dtype)
        for name, col in self.columns.items():
            out[name] = col
        return out if dtype is None else out.astype(dtype, copy=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Columns):
            return NotImplemented
        return self.dtype == other.dtype and all(
            np.array_equal(col, other.columns[name]) for name, col in self.columns.items()
        )

    __hash__ = None


def _make(dtype: np.dtype, t, *values) -> Columns:
    """Columns of ``dtype`` from parallel sequences, each copied; a scalar is repeated for every item."""
    t = np.array(t, dtype=np.uint64)
    cols = {"t": t}
    for name, v in zip(dtype.names[1:], values):
        cols[name] = np.empty(t.shape[0], dtype=dtype[name])
        cols[name][...] = v
    return Columns(dtype, cols)


def make_events(t, x, y, p) -> Columns:
    """CD events from parallel sequences."""
    return _make(EVENT_DTYPE, t, x, y, p)


def make_triggers(t, edge, channel) -> Columns:
    """Triggers from parallel sequences. ``edge`` is 1 for rising, 0 for falling."""
    return _make(TRIGGER_DTYPE, t, edge, channel)


@dataclass
class EventStream:
    """A decoded stream: header, CD events, triggers, and their interleaving.

    ``trigger_pos[i]`` is the index of trigger ``i`` within the merged item
    sequence (events and triggers together, encounter order).  Positions not
    listed there belong to events, in order.
    """

    header: StreamHeader
    events: Columns = field(default_factory=partial(Columns.empty, EVENT_DTYPE))
    triggers: Columns = field(default_factory=partial(Columns.empty, TRIGGER_DTYPE))
    trigger_pos: np.ndarray | None = None

    def __post_init__(self):
        self.events = Columns.of(self.events, EVENT_DTYPE)
        self.triggers = Columns.of(self.triggers, TRIGGER_DTYPE)
        if self.trigger_pos is None:
            # Default interleaving: stable merge by timestamp, events first on ties.
            pos = np.searchsorted(self.events["t"], self.triggers["t"], side="right")
            self.trigger_pos = (pos + np.arange(len(self.triggers), dtype=np.int64)).astype(np.int64)
        else:
            self.trigger_pos = np.asarray(self.trigger_pos, dtype=np.int64)
            if len(self.trigger_pos) != len(self.triggers):
                raise ValueError("trigger_pos length must match triggers")
            pos = self.trigger_pos
            if pos.shape[0] and not (pos[0] >= 0 and pos[-1] < self.n_items and (pos[1:] > pos[:-1]).all()):
                raise ValueError("trigger_pos must be increasing positions within the merged item sequence")

    # -- basic introspection ------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_triggers(self) -> int:
        return len(self.triggers)

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
            and self.events == other.events
            and self.triggers == other.triggers
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
