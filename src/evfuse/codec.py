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
in order, carrying those registers from slice to slice.  A first pass counts
each slice's events and triggers, so the output is allocated once and each
slice writes its own part: decode memory follows the output, not the file.

The encoder emits state words only when the corresponding register changes,
so the byte count (16 + 2 * words) is the honest wire footprint used by the
rate-budget module.  One forced-word mask, built from the merged timestamps
and the event rows alone, says which of four words in wire order (TIME_HIGH,
TIME_LOW, CD_Y, payload) each item forces; epoch rollovers, the one case that
needs a variable number of TIME_HIGH words, carry a separate short run of
words.  ``encode_esf`` gathers the masked slots of a per-item word table in
row-major order and inserts the runs; ``encode_stats`` counts the mask's rows
and the run lengths, so counting never builds a word or a slot.  The stream
rules, the merged item order and the CSV line reader come from
:mod:`evfuse.streams`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .streams import (
    EVENT_DTYPE,
    MAX_SENSOR_DIM,
    N_CHANNELS,
    TRIGGER_DTYPE,
    CoordinateOutOfBounds,
    EventStream,
    MalformedLine,  # parse_csv's error, still importable from this module
    StreamError,
    StreamHeader,
    UnsortedInput,
    check_stream,
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
    events = np.empty(ev_at[-1], dtype=EVENT_DTYPE)
    triggers = np.empty(tr_at[-1], dtype=TRIGGER_DTYPE)
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

    Writes its items into ``events`` and ``triggers``, sized by its CD_X and
    EXT_TRIGGER words.  Returns the triggers' positions among the slice's
    items and the registers after the slice.
    """
    n = words.shape[0]
    types = (words >> 12).astype(np.uint8)

    is_th = types == TYPE_TIME_HIGH
    is_tl = types == TYPE_TIME_LOW
    is_y = types == TYPE_CD_Y
    is_x = types == TYPE_CD_X
    is_trig = types == TYPE_EXT_TRIGGER

    y_idx = np.nonzero(is_y)[0]
    x_idx = np.nonzero(is_x)[0]
    y_vals_all = words.take(y_idx) & 0xFFF
    x_words = words.take(x_idx)
    x_vals = x_words & 0x7FF
    first_y = 0 if state.row is not None else int(y_idx[0]) if y_idx.shape[0] else n  # row unset before it

    # Screen for malformed words cheaply.  Only on failure is a per-word
    # ``bad`` mask built: its argmax is the word a sequential decoder stops at,
    # and that word alone picks the error (a column out of range wins over an
    # unset row).
    all_known = bool((is_th | is_tl | is_y | is_x | is_trig).all())
    cd_x_too_early = x_idx.shape[0] and int(x_idx[0]) < first_y
    if (not all_known) or (y_vals_all >= height).any() or (x_vals >= width).any() or cd_x_too_early:
        bad = ~(is_th | is_tl | is_y | is_x | is_trig)
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
    # so build one table of its value after each TIME word; cnt_time[i] then
    # indexes it (slot 0 = the carried registers).  Within the TIME-word
    # subsequence the high part forward-fills across low-word updates and vice
    # versa, and the epoch increments at each strict TIME_HIGH decrease
    # (24-bit rollover), the carried TIME_HIGH included.
    is_time = is_th | is_tl
    time_idx = np.nonzero(is_time)[0]
    time_is_high = is_th.take(time_idx)
    time_vals = (words.take(time_idx) & 0xFFF).astype(np.uint64)
    th_tab = np.insert(time_vals[time_is_high], 0, state.time_high)
    ep_tab = np.insert(np.cumsum(th_tab[1:] < th_tab[:-1], dtype=np.uint64), 0, 0) + np.uint64(state.epoch)
    tl_tab = np.insert(time_vals[~time_is_high], 0, state.time_low)
    jth = np.insert(np.cumsum(time_is_high, dtype=np.int32), 0, 0)
    jtl = np.insert(np.cumsum(~time_is_high, dtype=np.int32), 0, 0)
    t_tab = (ep_tab[jth] << np.uint64(24)) + (th_tab[jth] << np.uint64(12)) + tl_tab[jtl]

    cnt_time = np.cumsum(is_time, dtype=np.int32)
    cnt_y = np.cumsum(is_y, dtype=np.int32)
    y_tab = np.insert(y_vals_all.astype(np.uint16), 0, state.row or 0)

    events["t"] = t_tab[cnt_time.take(x_idx)]
    events["x"] = x_vals
    events["y"] = y_tab[cnt_y.take(x_idx)]
    events["p"] = ((x_words >> 11) & 1).astype(np.int8) * 2 - 1  # bit set -> +1, clear -> -1

    trig_idx = np.nonzero(is_trig)[0]
    trig_words = words.take(trig_idx)
    triggers["t"] = t_tab[cnt_time.take(trig_idx)]
    triggers["edge"] = trig_words & 1
    triggers["channel"] = (trig_words >> 8) & 0xF

    # Position of each trigger among the slice's items: events before it plus triggers before it.
    trigger_pos = np.searchsorted(x_idx, trig_idx) + np.arange(trig_idx.shape[0])
    row = int(y_tab[-1]) if y_idx.shape[0] else state.row
    return trigger_pos, _Registers(int(ep_tab[-1]), int(th_tab[-1]), int(tl_tab[-1]), row)


# -- encoding ------------------------------------------------------------------


@dataclass
class EncodeStats:
    """Wire accounting for one encoded stream.

    ``item_words[i]`` counts the 16-bit words attributable to merged item
    ``i`` (its payload word plus whatever state words it forced).  Total
    bytes are ``16 + 2 * sum(item_words)``.
    """

    item_words: np.ndarray
    n_words: int

    @property
    def n_bytes(self) -> int:
        return HEADER_SIZE + WORD_SIZE * self.n_words


def build_time_high(value: int) -> int:
    return (TYPE_TIME_HIGH << 12) | (value & 0xFFF)


def _rollover_words(cur_v: int, d: int, v_tgt: int) -> list:
    """TIME_HIGH words that advance the epoch ``d`` times and land on ``v_tgt``.

    The decoder increments the epoch only on a strict decrease, so from a zero
    register we first step up to 1 and back down.
    """
    ws = []
    for _ in range(d):
        if cur_v == 0:
            ws.append(build_time_high(1))
            cur_v = 1
        ws.append(build_time_high(0))
        cur_v = 0
    if v_tgt != cur_v:
        ws.append(build_time_high(v_tgt))
    return ws


def _forced_words(stream: EventStream) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Which words each merged item forces, from the timestamps and event rows alone.

    Returns ``(high, low, emit, rows, runs)``: each item's ``t >> 12`` (epoch
    and TIME_HIGH, uint64) and TIME_LOW (uint16), and ``emit[i, k]``, whether
    item ``i`` forces word ``k`` of TIME_HIGH, TIME_LOW, CD_Y and payload.  A
    register word is forced where it differs from the decoder's register after
    the previous item (all-zero registers, row unset, before the first); the
    payload always is.  An epoch rollover is the one variable-length case: its
    item's TIME_HIGH slot is not emitted and ``runs[j]`` holds the TIME_HIGH
    words that item ``rows[j]`` forces instead.
    """
    high = stream.merged_times()
    check_stream(stream, high)

    emit = np.ones((high.shape[0], 4), dtype=bool)
    y = stream.events["y"]  # only events use the row register; the first one always sets it
    emit[:, 2] = stream.merge_items(np.concatenate(([True], y[1:] != y[:-1]))[: y.shape[0]], False)
    low = high.astype(np.uint16)
    low &= 0xFFF
    high >>= np.uint64(12)
    for k, register in enumerate((high, low)):
        emit[:1, k] = register[:1] != 0
        np.not_equal(register[1:], register[:-1], out=emit[1:, k])
    # The epoch (high >> 12) changes only where ``high`` does, so rollovers are
    # looked for among those rows alone: at most one per 4,096 µs of stream.
    changed = np.flatnonzero(emit[:, 0])
    prev = np.where(changed > 0, high[changed - 1], 0)
    rolls = (high[changed] >> np.uint64(12)) != (prev >> np.uint64(12))
    rows = changed[rolls]
    runs = [_rollover_words(p & 0xFFF, (c >> 12) - (p >> 12), c & 0xFFF)
            for p, c in zip(prev[rolls].tolist(), high[rows].tolist())]
    emit[rows, 0] = False  # a rollover item carries its run instead
    return high, low, emit, rows, runs


def encode_esf(stream: EventStream) -> bytes:
    """Encode a stream to ESF-1 bytes; state words are emitted minimally."""
    high, low, emit, rows, runs = _forced_words(stream)
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
    if runs:
        words = np.insert(words, np.repeat(starts, [len(r) for r in runs]), np.concatenate(runs))
    return b"".join((make_header(stream.header.width, stream.header.height), words))  # no extra tobytes() copy


def encode_stats(stream: EventStream) -> EncodeStats:
    """Word/byte accounting for the encoded form, counted from the forced-word mask."""
    _, _, emit, rows, runs = _forced_words(stream)  # the timestamps are dropped here
    item_words = np.einsum("ij->i", emit.view(np.uint8)).astype(np.int64)  # row sums, 3x faster than sum()
    item_words[rows] += np.array([len(r) for r in runs], dtype=np.int64)
    return EncodeStats(item_words=item_words, n_words=int(item_words.sum()))


# -- CSV debug format ----------------------------------------------------------


def write_csv(stream: EventStream) -> str:
    """Render a stream as debug CSV, one item per line in encounter order.

    Events become ``cd,<t>,<x>,<y>,<p>`` with polarity written ``+1``/``-1``;
    triggers become ``trig,<t>,<r|f>,<channel>``.
    """
    ev, tr = stream.events, stream.triggers
    ev_lines = [
        f"cd,{t},{x},{y},{'+1' if p else '-1'}"
        for t, x, y, p in zip(ev["t"].tolist(), ev["x"].tolist(), ev["y"].tolist(), (ev["p"] > 0).tolist())
    ]
    tr_lines = [
        f"trig,{t},{'r' if e else 'f'},{c}"
        for t, e, c in zip(tr["t"].tolist(), tr["edge"].tolist(), tr["channel"].tolist())
    ]
    lines = stream.merge_items(np.array(ev_lines, dtype=object), tr_lines).tolist()
    return "\n".join(lines) + ("\n" if lines else "")


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
