"""ESF-1 binary codec and CSV debug format for event streams.

ESF-1 is a compact little-endian stream of 16-bit words behind a 16-byte
header.  The encoding is stateful: timestamp and row registers are updated by
dedicated words, and event/trigger words only carry the missing pieces.

Header layout (16 bytes)::

    0  4   magic "ESF1"
    4  1   version (1)
    5  1   reserved (0)
    6  2   sensor width,  u16 LE
    8  2   sensor height, u16 LE
    10 6   zero padding

Word types, distinguished by the high nibble::

    0x8 TIME_HIGH    12-bit payload, bits 12..23 of the timestamp
    0x6 TIME_LOW     12-bit payload, bits 0..11 of the timestamp
    0x0 CD_Y         12-bit payload, event row
    0x2 CD_X         bit 11 polarity (1 -> +1), bits 10..0 column; emits an event
    0xA EXT_TRIGGER  bit 0 edge (1 -> rising), bits 11..8 channel; emits a trigger

The full timestamp is ``epoch * 2**24 + time_high * 2**12 + time_low`` where
the epoch counter increments whenever a TIME_HIGH word carries a value
strictly smaller than the previous one (24-bit rollover).  Decoder state
starts at time_high = time_low = 0, epoch = 0, row unset; a CD_X word before
any CD_Y is an error.

``decode_esf`` runs one vectorized slice decoder over cache-sized word slices
in order, carrying those registers from slice to slice.  In a slice, a CD_X or
EXT_TRIGGER word reads the row after the CD_Y words ahead of it (one scan) and
the timestamp after the TIME words ahead of it: its position less those CD_Y
words and the items ahead of it.  A first pass counts each slice's events and
triggers, so the output columns are allocated once and each slice writes its
own part of each: decode memory follows the output, not the file.

The encoder emits state words only when the corresponding register changes,
so the byte count (16 + 2 * words) is the honest wire footprint used by the
rate-budget module.  Three 1-D forced-word masks, built from the merged
timestamps and the event rows alone, say whether each item forces a
TIME_HIGH, a TIME_LOW and a CD_Y word; its payload word always is.  Epoch
rollovers, the one case that needs a variable number of TIME_HIGH words,
carry a separate run of words.  ``encode_esf`` stacks the masks in wire order
(TIME_HIGH, TIME_LOW, CD_Y, payload), gathers the masked slots of a per-item
word table row by row and inserts the runs; ``encode_stats`` adds the masks
up as uint8 and counts each run by formula, so counting never builds a word,
a slot or a run; it keeps the two apart, so a per-bin sum reads one byte per
item and adds the few runs.  The stream rules, the merged item order, the CSV
line reader and the digit-table writer come from :mod:`evfuse.streams`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .streams import (
    EVENT_DTYPE,
    MAX_SENSOR_DIM,
    N_CHANNELS,
    TRIGGER_DTYPE,
    Columns,
    CoordinateOutOfBounds,
    EventStream,
    MalformedLine,  # parse_csv's error, still importable from this module
    StreamError,
    StreamHeader,
    UnsortedInput,
    check_stream,
    digit_table,
    make_events,
    make_triggers,
    read_rows,
    rule_breaks,
)

MAGIC = b"ESF1"
HEADER_SIZE = 16
WORD_SIZE = 2

TYPE_CD_Y = 0x0
TYPE_CD_X = 0x2
TYPE_TIME_LOW = 0x6
TYPE_TIME_HIGH = 0x8
TYPE_EXT_TRIGGER = 0xA
_SLICE_WORDS = 1 << 16  # words per decoded slice: its temporaries stay cache-sized


# -- typed decode errors ------------------------------------------------------


class BadMagic(StreamError):
    """The stream does not start with the ESF-1 signature."""

    def __init__(self, found: bytes, offset: int = 0, message: str = ""):
        self.found = bytes(found)
        self.offset = offset
        super().__init__(message or f"bad magic {self.found!r} at byte {offset}")


class TruncatedStream(StreamError):
    """The byte sequence ends in the middle of the header or of a word."""

    def __init__(self, offset: int, message: str = ""):
        self.offset = offset
        super().__init__(message or f"stream truncated at byte {offset}")


class UnknownWordType(StreamError):
    """A word carries a type nibble outside the defined set."""

    def __init__(self, nibble: int, offset: int):
        self.nibble = nibble
        self.offset = offset
        super().__init__(f"unknown word type 0x{nibble:X} at byte {offset}")


class CdXBeforeCdY(StreamError):
    """A CD_X word appeared before any CD_Y set the row register."""

    def __init__(self, offset: int):
        self.offset = offset
        super().__init__(f"CD_X before any CD_Y at byte {offset}")


# -- header ----------------------------------------------------------------------


def make_header(width: int, height: int) -> bytes:
    return struct.pack("<4sBBHH6x", MAGIC, 1, 0, width, height)


# -- decoding ------------------------------------------------------------------


def decode_esf(data: bytes) -> EventStream:
    """Decode an ESF-1 byte sequence into an :class:`EventStream`.

    Every byte sequence either decodes or raises a typed :class:`StreamError`
    carrying the byte offset of the first problem; nothing is skipped
    silently.
    """
    data = bytes(data)
    if len(data) < HEADER_SIZE:
        raise TruncatedStream(len(data), f"header needs {HEADER_SIZE} bytes, got {len(data)}")
    magic, version, _reserved, width, height = struct.unpack_from("<4sBBHH", data, 0)
    if magic != MAGIC:
        raise BadMagic(magic)
    if version != 1:
        raise BadMagic(magic, offset=4, message=f"unsupported version {version} at byte 4")
    if not (0 < width <= MAX_SENSOR_DIM):
        raise CoordinateOutOfBounds("width", width, 6)
    if not (0 < height <= MAX_SENSOR_DIM):
        raise CoordinateOutOfBounds("height", height, 8)
    if (len(data) - HEADER_SIZE) % WORD_SIZE:
        raise TruncatedStream(len(data) - 1, "odd byte count: truncated final word")

    words = np.frombuffer(data, dtype="<u2", offset=HEADER_SIZE)
    starts = range(0, words.shape[0], _SLICE_WORDS)
    at = np.zeros((len(starts) + 1, 2), dtype=np.int64)
    for k, s in enumerate(starts):
        types = words[s : s + _SLICE_WORDS] >> 12
        at[k + 1] = np.count_nonzero(types == TYPE_CD_X), np.count_nonzero(types == TYPE_EXT_TRIGGER)
    ev_at, tr_at = np.cumsum(at, axis=0).T
    events = Columns.empty(EVENT_DTYPE, ev_at[-1])
    triggers = Columns.empty(TRIGGER_DTYPE, tr_at[-1])
    trigger_pos = np.empty(tr_at[-1], dtype=np.int64)
    state = _Registers()
    for k, s in enumerate(starts):
        ev, tr = events[ev_at[k] : ev_at[k + 1]], triggers[tr_at[k] : tr_at[k + 1]]
        pos, state = _decode_slice(words[s : s + _SLICE_WORDS], state, s, width, height, ev, tr)
        np.add(pos, ev_at[k] + tr_at[k], out=trigger_pos[tr_at[k] : tr_at[k + 1]])
    return EventStream(StreamHeader(width, height), events, triggers, trigger_pos)


class _Registers(NamedTuple):
    """Decoder registers between word slices; ``row`` is None until the first CD_Y."""

    epoch: int = 0
    time_high: int = 0
    time_low: int = 0
    row: int | None = None


def _decode_slice(words, state, start, width, height, events, triggers):
    """Decode the slice ``words``, which starts at word ``start`` of the file, from the registers ``state``.

    Writes its items into the column views ``events`` and ``triggers``, sized
    by its CD_X and EXT_TRIGGER words.  Returns the triggers' positions among
    the slice's items and the registers after the slice.
    """
    n = words.shape[0]
    types = (words >> 12).astype(np.uint8)

    is_th = types == TYPE_TIME_HIGH
    is_time = is_th | (types == TYPE_TIME_LOW)
    is_y = types == TYPE_CD_Y
    is_x = types == TYPE_CD_X
    is_trig = types == TYPE_EXT_TRIGGER

    time_idx = np.flatnonzero(is_time)
    y_idx = np.flatnonzero(is_y)
    x_idx = np.flatnonzero(is_x)
    trig_idx = np.flatnonzero(is_trig)
    y_vals_all = words.take(y_idx) & 0xFFF
    x_words = words.take(x_idx)
    x_vals = np.bitwise_and(x_words, 0x7FF, out=events["x"])
    first_y = 0 if state.row is not None else int(y_idx[0]) if y_idx.shape[0] else n  # row unset before it

    # Screen for malformed words cheaply.  Only on failure is a per-word
    # ``bad`` mask built: its argmax is the word a sequential decoder stops at,
    # and that word alone picks the error (a column out of range wins over an
    # unset row).
    all_known = time_idx.shape[0] + y_idx.shape[0] + x_idx.shape[0] + trig_idx.shape[0] == n
    cd_x_too_early = x_idx.shape[0] and int(x_idx[0]) < first_y
    if (not all_known) or (y_vals_all >= height).any() or (x_vals >= width).any() or cd_x_too_early:
        bad = ~(is_time | is_y | is_x | is_trig)
        bad |= is_y & ((words & 0xFFF) >= height)
        bad |= is_x & ((words & 0x7FF) >= width)
        bad[:first_y] |= is_x[:first_y]
        i = int(np.argmax(bad))
        word = int(words[i])
        kind, offset = word >> 12, HEADER_SIZE + WORD_SIZE * (start + i)
        if kind == TYPE_CD_Y:
            raise CoordinateOutOfBounds("y", word & 0xFFF, offset)
        if kind == TYPE_CD_X and word & 0x7FF >= width:
            raise CoordinateOutOfBounds("x", word & 0x7FF, offset)
        raise CdXBeforeCdY(offset) if kind == TYPE_CD_X else UnknownWordType(kind, offset)

    # Timestamp state.  Both TIME word kinds update the same 64-bit register,
    # so build one table of its value after each TIME word (slot 0 = the
    # carried registers).  Within the TIME-word subsequence the high part
    # forward-fills across low-word updates and vice versa, and the epoch
    # increments at each strict TIME_HIGH decrease (24-bit rollover), the
    # carried TIME_HIGH included.
    time_is_high = is_th.take(time_idx)
    time_vals = (words.take(time_idx) & 0xFFF).astype(np.uint64)
    th_tab = np.concatenate((np.array([state.time_high], dtype=np.uint64), time_vals[time_is_high]))
    ep_tab = np.cumsum(np.concatenate(([state.epoch], th_tab[1:] < th_tab[:-1])), dtype=np.uint64)
    tl_tab = np.concatenate((np.array([state.time_low], dtype=np.uint64), time_vals[~time_is_high]))
    jth = np.cumsum(np.concatenate(([0], time_is_high)))  # TIME_HIGH slot of each table slot; the rest are TIME_LOW
    t_tab = ((ep_tab << np.uint64(24)) + (th_tab << np.uint64(12)))[jth] + tl_tab[np.arange(jth.shape[0]) - jth]

    # Each item reads the table at the count of TIME words ahead of it.  Every word is one of
    # the five kinds, so that is its position less the CD_Y words (one scan) and the items
    # ahead of it; the triggers ahead of each CD_X word are one repeat over the few triggers.
    cnt_y = np.cumsum(is_y, dtype=np.int32)
    y_tab = np.concatenate((np.array([state.row or 0], dtype=np.uint16), y_vals_all))
    x_ahead = np.searchsorted(x_idx, trig_idx)  # the CD_X words ahead of each trigger
    trig_ahead = np.repeat(np.arange(trig_idx.shape[0] + 1), np.diff(x_ahead, prepend=0, append=x_idx.shape[0]))
    trigger_pos = x_ahead + np.arange(trig_idx.shape[0])  # the items ahead of each trigger
    y_ahead = cnt_y.take(x_idx)

    # Every index below is in its table by construction; mode="clip" skips the buffered bounds check.
    np.take(t_tab, x_idx - np.arange(x_idx.shape[0]) - trig_ahead - y_ahead, out=events["t"], mode="clip")
    np.take(y_tab, y_ahead, out=events["y"], mode="clip")
    np.subtract(2 * ((x_words >> 11) & 1), 1, out=events["p"], casting="unsafe")  # bit set -> +1, clear -> -1

    trig_words = words.take(trig_idx)
    np.take(t_tab, trig_idx - trigger_pos - cnt_y.take(trig_idx), out=triggers["t"], mode="clip")
    np.bitwise_and(trig_words, 1, out=triggers["edge"], casting="unsafe")
    np.bitwise_and(trig_words >> 8, 0xF, out=triggers["channel"], casting="unsafe")

    row = int(y_tab[-1]) if y_idx.shape[0] else state.row
    return trigger_pos, _Registers(int(ep_tab[-1]), int(th_tab[-1]), int(tl_tab[-1]), row)


# -- encoding ------------------------------------------------------------------


@dataclass
class EncodeStats:
    """Wire accounting for one encoded stream.

    ``words[i]`` is the uint8 count of the words that merged item ``i``
    forces besides a rollover run: the TIME_HIGH, TIME_LOW and CD_Y words
    it forces and its payload word.  The items ``rows`` also carry a run of
    ``run_lengths`` TIME_HIGH words across an epoch rollover.
    ``item_words[i]`` (int64, built on first access and kept) is the two
    together, all the 16-bit words attributable to item ``i``.  Total bytes
    are ``16 + 2 * n_words``.
    """

    words: np.ndarray  # uint8, one per merged item
    rows: np.ndarray  # int64, increasing: the items that carry a rollover run
    run_lengths: np.ndarray  # int64, the length of each of their runs

    @cached_property
    def item_words(self) -> np.ndarray:
        item_words = self.words.astype(np.int64)
        item_words[self.rows] += self.run_lengths
        return item_words

    @cached_property
    def n_words(self) -> int:
        return int(self.words.sum(dtype=np.int64)) + int(self.run_lengths.sum())

    @property
    def n_bytes(self) -> int:
        return HEADER_SIZE + WORD_SIZE * self.n_words


def build_time_high(value: int) -> int:
    return (TYPE_TIME_HIGH << 12) | (value & 0xFFF)


def _rollover_count(prev: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The length of each run of :func:`_rollover_runs`, without building a word: two per epoch,
    one fewer from a nonzero TIME_HIGH, one more onto a nonzero one."""
    twice_d = ((high >> np.uint64(12)) - (prev >> np.uint64(12))).astype(np.int64) * 2
    return twice_d - ((prev & np.uint64(0xFFF)) != 0) + ((high & np.uint64(0xFFF)) != 0)


def _rollover_runs(prev: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The TIME_HIGH words from each ``p`` of ``prev`` to each ``h`` of ``high`` (``t >> 12``
    before and at a rollover), concatenated, and each run's length (:func:`_rollover_count`).

    The decoder increments the epoch only on a strict decrease, so each epoch
    is a step up to 1 and back down to 0, the first step up skipped from a
    nonzero TIME_HIGH; the run's last word lands on ``h``'s TIME_HIGH.
    """
    lengths = _rollover_count(prev, high)
    ends = np.cumsum(lengths)
    run = np.repeat(np.arange(lengths.shape[0]), lengths)
    step = np.arange(run.shape[0]) - (ends - lengths)[run] + ((prev & np.uint64(0xFFF)) != 0)[run]
    values = (step & 1) ^ 1  # 1, 0, 1, 0, ... from each run's first step
    values[ends - 1] = high & np.uint64(0xFFF)
    return (values | TYPE_TIME_HIGH << 12).astype("<u2"), lengths


def _forced_words(stream: EventStream) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray, np.ndarray]:
    """Which words each merged item forces, from the timestamps and event rows alone.

    Returns ``(high, low, masks, rows, prev)``: each item's ``t >> 12`` (epoch
    and TIME_HIGH, uint64) and TIME_LOW (uint16), and ``masks``, three 1-D
    bool arrays that say whether each item forces a TIME_HIGH, a TIME_LOW and
    a CD_Y word.  A register word is forced where it differs from the
    decoder's register after the previous item (all-zero registers, row
    unset, before the first); the payload word always is.  An epoch rollover
    is the one variable-length case: the TIME_HIGH mask is clear at the items
    ``rows``, which force the :func:`_rollover_runs` from ``prev`` (``high``
    before each of them) instead.
    """
    high = stream.merged_times()
    check_stream(stream, high)

    y = stream.events["y"]  # only events use the row register; the first one always sets it
    cd_y = stream.merge_items(np.concatenate(([True], y[1:] != y[:-1]))[: y.shape[0]], False)
    low = high.astype(np.uint16)
    low &= 0xFFF
    high >>= np.uint64(12)
    time_high, time_low = np.empty(high.shape[0], dtype=bool), np.empty(high.shape[0], dtype=bool)
    for mask, register in ((time_high, high), (time_low, low)):
        mask[:1] = register[:1] != 0
        np.not_equal(register[1:], register[:-1], out=mask[1:])
    # The epoch (high >> 12) changes only where ``high`` does, so rollovers are
    # looked for among those items alone: at most one per 4,096 µs of stream.
    changed = np.flatnonzero(time_high)
    prev = np.where(changed > 0, high[changed - 1], 0)
    rolls = (high[changed] >> np.uint64(12)) != (prev >> np.uint64(12))
    rows = changed[rolls]
    time_high[rows] = False  # a rollover item carries its run instead
    return high, low, (time_high, time_low, cd_y), rows, prev[rolls]


def encode_esf(stream: EventStream) -> bytes:
    """Encode a stream to ESF-1 bytes; state words are emitted minimally."""
    high, low, masks, rows, prev = _forced_words(stream)
    run_words, run_lengths = _rollover_runs(prev, high[rows])
    # one row per item, in wire order: TIME_HIGH, TIME_LOW, CD_Y, payload
    emit = np.stack(masks + (np.ones(high.shape[0], dtype=bool),), axis=1)
    del masks
    # The slot table reuses ``high``'s memory: each item's little-endian u64 holds its four u16 word slots.
    slots = high.astype("<u8", copy=False).view("<u2").reshape(-1, 4)
    slots[:, 0] &= 0xFFF
    slots[:, 0] |= TYPE_TIME_HIGH << 12
    np.bitwise_or(low, TYPE_TIME_LOW << 12, out=slots[:, 1])
    del low
    ev, tr = stream.events, stream.triggers
    slots[:, 2] = stream.merge_items(ev["y"], 0)  # CD_Y nibble is 0x0
    slots[:, 3] = stream.merge_items((TYPE_CD_X << 12) | (ev["p"] > 0).astype(np.uint16) << 11 | ev["x"],
                                  (TYPE_EXT_TRIGGER << 12) | tr["channel"].astype(np.uint16) << 8 | tr["edge"] & 1)
    # each rollover run goes before its item's first slot word
    cuts = np.concatenate(([0], rows))
    starts = np.cumsum([np.count_nonzero(emit[a:b]) for a, b in zip(cuts[:-1], cuts[1:])], dtype=np.int64)
    words = slots[emit]  # row-major: each item's words in wire order
    del high, slots, emit  # 12 B per item, freed before the runs go in and the bytes are joined
    if run_words.shape[0]:
        words = np.insert(words, np.repeat(starts, run_lengths), run_words)
    return b"".join((make_header(stream.header.width, stream.header.height), words))  # no extra tobytes() copy


def encode_stats(stream: EventStream) -> EncodeStats:
    """Word/byte accounting for the encoded form, counted from the forced-word masks and the
    rollover formula, so counting never builds a word or a slot."""
    high, _, (time_high, time_low, cd_y), rows, prev = _forced_words(stream)
    words = np.add(time_high, time_low, dtype=np.uint8)
    words += cd_y
    words += 1  # the payload
    return EncodeStats(words, rows, _rollover_count(prev, high[rows]))


# -- CSV debug format ----------------------------------------------------------


def write_csv(stream: EventStream) -> str:
    """Render a stream as debug CSV, one item per line in encounter order: an event as ``cd,<t>,<x>,<y>,<p>``
    with polarity written ``+1``/``-1``, a trigger as ``trig,<t>,<r|f>,<channel>``."""
    ev, tr = stream.events, stream.triggers
    sign = np.where(ev["p"] > 0, np.uint8(ord("+")), np.uint8(ord("-")))[:, None]
    ev_rows = digit_table((b"cd,", ev["t"], b",", ev["x"], b",", ev["y"], b",", sign, b"1\n"))
    edge = np.where(tr["edge"] != 0, np.uint8(ord("r")), np.uint8(ord("f")))[:, None]
    tr_rows = digit_table((b"trig,", tr["t"], b",", edge, b",", tr["channel"], b"\n"))
    table = np.zeros((stream.n_items, max(ev_rows.shape[1], tr_rows.shape[1])), dtype=np.uint8)
    table[np.delete(np.arange(stream.n_items), stream.trigger_pos), : ev_rows.shape[1]] = ev_rows
    table[stream.trigger_pos, : tr_rows.shape[1]] = tr_rows
    return table[table != 0].tobytes().decode("ascii")


_POLARITY = {"+1": 1, "1": 1, "-1": -1}
_EDGE = {"r": 1, "f": 0}


def _parse_item(fields: list) -> tuple:
    """One debug-CSV line: ``(t, x, y, p)`` for an event, ``(t, edge, channel)`` for a trigger."""
    kind = fields[0].lower()
    if kind == "cd":
        _, t, x, y, p = fields
        t, x, y = int(t), int(x), int(y)
        if not 0 <= t < 2**64 or x < 0 or y < 0:
            raise ValueError(t, x, y)
        return t, x, y, _POLARITY[p]
    if kind == "trig":
        _, t, edge, channel = fields
        t, channel = int(t), int(channel)
        if not 0 <= t < 2**64 or not 0 <= channel < N_CHANNELS:
            raise ValueError(t, channel)
        return t, _EDGE[edge.lower()], channel
    raise ValueError(kind)


def parse_csv(text: str, width: int, height: int) -> EventStream:
    """Parse debug CSV into a stream with the given sensor geometry.

    Lines are read by :func:`~evfuse.streams.read_rows`, so a line that does
    not parse raises :class:`MalformedLine`; the stream rules are then checked
    as the encoder checks them, and a break names its CSV line.
    """
    numbered = list(read_rows(text, _parse_item, "events"))
    rows = [row for _, row in numbered]
    is_trigger = np.array([len(row) == 3 for row in rows], dtype=bool)  # (t, edge, channel), else (t, x, y, p)
    ev_rows = [row for row in rows if len(row) == 4]
    tr_rows = [row for row in rows if len(row) == 3]
    events = make_events(*zip(*ev_rows)) if ev_rows else make_events([], [], [], [])
    triggers = make_triggers(*zip(*tr_rows)) if tr_rows else make_triggers([], [], [])
    stream = EventStream(StreamHeader(width, height), events, triggers, np.flatnonzero(is_trigger))
    item_lines = np.array([line_no for line_no, _ in numbered], dtype=np.int64)
    for rule, values, bad in rule_breaks(stream, stream.merged_times())[:1]:  # _parse_item rejects a bad channel
        i = int(bad[0])  # order indexes the items, x and y the events
        lead = f"events CSV line {(item_lines if rule == 'order' else item_lines[~is_trigger])[i]}: "
        raise UnsortedInput(i, lead) if rule == "order" else CoordinateOutOfBounds(rule, int(values[i]), lead=lead)
    return stream


def read_esf(path) -> EventStream:
    """Read and decode an ESF-1 file."""
    with open(path, "rb") as fh:
        return decode_esf(fh.read())


def write_esf(path, stream: EventStream) -> int:
    """Encode and write a stream; returns the byte count."""
    blob = encode_esf(stream)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)
