"""Wire-format tests: golden reference model, hand-built word sequences,
round trips, and decoder totality under fuzzing."""

from __future__ import annotations

import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evfuse import codec
from evfuse.rate import rate_report
from evfuse.codec import (
    HEADER_SIZE,
    TYPE_CD_X,
    TYPE_CD_Y,
    TYPE_EXT_TRIGGER,
    TYPE_TIME_HIGH,
    TYPE_TIME_LOW,
    BadMagic,
    CdXBeforeCdY,
    MalformedLine,
    TruncatedStream,
    UnknownWordType,
    build_time_high,
    decode_esf,
    encode_esf,
    encode_stats,
    make_header,
    parse_csv,
    write_csv,
)
from evfuse.streams import (
    CoordinateOutOfBounds,
    EventStream,
    StreamError,
    StreamHeader,
    UnsortedInput,
    make_events,
    make_triggers,
    validate_stream,
)


# -- golden-word oracle: one ESF-1 word per call, as the format table lays it out --


def build_time_low(value: int) -> int:
    return (TYPE_TIME_LOW << 12) | (value & 0xFFF)


def build_cd_y(y: int) -> int:
    return (TYPE_CD_Y << 12) | (y & 0xFFF)


def build_cd_x(x: int, polarity: int) -> int:
    return (TYPE_CD_X << 12) | ((1 if polarity > 0 else 0) << 11) | (x & 0x7FF)


def build_trigger(edge: int, channel: int) -> int:
    return (TYPE_EXT_TRIGGER << 12) | ((channel & 0xF) << 8) | (edge & 1)


def pack_words(words) -> bytes:
    """Pack a sequence of 16-bit word values little-endian."""
    return np.asarray(words, dtype="<u2").tobytes()


def _merged_mask(stream):
    """Boolean array over the merged item sequence; True where the item is a trigger."""
    return stream.merge_items(np.zeros(stream.n_events, dtype=bool), True)


class ReferenceDecoder:
    """Sequential golden model of the word-stream state machine.

    Kept deliberately dumb: one word at a time, explicit registers.  The
    vectorized decoder must agree with it on every stream: the same items, or
    the same typed error at the same byte offset.
    """

    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.time_high = 0
        self.time_low = 0
        self.epoch = 0
        self.y = None
        self.items = []  # ("cd", t, x, y, p) or ("trig", t, edge, channel)
        self.offset = HEADER_SIZE  # byte offset of the next word

    def step(self, word):
        kind = word >> 12
        payload = word & 0xFFF
        offset = self.offset
        self.offset += 2
        if kind == 0x8:
            if payload < self.time_high:
                self.epoch += 1
            self.time_high = payload
        elif kind == 0x6:
            self.time_low = payload
        elif kind == 0x0:
            if payload >= self.height:
                raise CoordinateOutOfBounds("y", payload, offset)
            self.y = payload
        elif kind == 0x2:
            x = word & 0x7FF
            if x >= self.width:
                raise CoordinateOutOfBounds("x", x, offset)
            if self.y is None:
                raise CdXBeforeCdY(offset)
            p = 1 if (word >> 11) & 1 else -1
            self.items.append(("cd", self.t(), x, self.y, p))
        elif kind == 0xA:
            self.items.append(("trig", self.t(), word & 1, (word >> 8) & 0xF))
        else:
            raise UnknownWordType(kind, offset)

    def t(self):
        return self.epoch * 2**24 + self.time_high * 2**12 + self.time_low


def _stream_items(stream):
    """Flatten a stream into the golden model's item tuples."""
    cds = zip(*(stream.events[f].tolist() for f in ("t", "x", "y", "p")))
    trigs = zip(*(stream.triggers[f].tolist() for f in ("t", "edge", "channel")))
    return [("trig", *next(trigs)) if is_trig else ("cd", *next(cds)) for is_trig in _merged_mask(stream)]


def _random_stream(rng, n_events=200, n_triggers=8, width=640, height=480, t_span=5_000_000):
    t_ev = np.sort(rng.integers(0, t_span, size=n_events).astype(np.uint64))
    events = make_events(
        t_ev,
        rng.integers(0, width, size=n_events),
        rng.integers(0, height, size=n_events),
        rng.choice([-1, 1], size=n_events),
    )
    t_tr = np.sort(rng.integers(0, t_span, size=n_triggers).astype(np.uint64))
    triggers = make_triggers(t_tr, rng.integers(0, 2, size=n_triggers), rng.integers(0, 16, size=n_triggers))
    return EventStream(StreamHeader(width, height), events, triggers)


def _ref_rollover_words(cur_v, d, v_tgt):
    """TIME_HIGH words that advance the epoch ``d`` times (the reference)."""
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


def _ref_encode_words(stream):
    """Words and per-item word counts from explicit per-register arrays and
    offset scatters (the reference encoder; input checks left out)."""
    ev, tr = stream.events, stream.triggers
    n = stream.n_items
    if n == 0:
        return np.empty(0, dtype="<u2"), np.empty(0, dtype=np.int64)

    is_trig = _merged_mask(stream)
    t = stream.merged_times()

    payload = np.empty(n, dtype=np.uint16)
    payload[~is_trig] = (TYPE_CD_X << 12) | (ev["p"] > 0).astype(np.uint16) << 11 | ev["x"].astype(np.uint16)
    payload[is_trig] = (
        (TYPE_EXT_TRIGGER << 12) | (tr["channel"].astype(np.uint16) << 8) | (tr["edge"].astype(np.uint16) & 1)
    )

    e = (t >> np.uint64(24)).astype(np.int64)
    v = ((t >> np.uint64(12)) & np.uint64(0xFFF)).astype(np.int64)
    tl = (t & np.uint64(0xFFF)).astype(np.int64)
    e_prev = np.concatenate([[0], e[:-1]])
    v_prev = np.concatenate([[0], v[:-1]])
    tl_prev = np.concatenate([[0], tl[:-1]])
    d_epoch = e - e_prev

    n_th = np.zeros(n, dtype=np.int64)
    simple = (d_epoch == 0) & (v != v_prev)
    n_th[simple] = 1
    rollover_words = {}
    for i in np.nonzero(d_epoch > 0)[0]:
        ws = _ref_rollover_words(int(v_prev[i]), int(d_epoch[i]), int(v[i]))
        rollover_words[int(i)] = ws
        n_th[i] = len(ws)

    tl_emit = tl != tl_prev

    y_emit = np.zeros(n, dtype=bool)
    ev_positions = np.nonzero(~is_trig)[0]
    if ev_positions.shape[0]:
        ey = ev["y"].astype(np.int64)
        y_emit[ev_positions] = np.concatenate([[True], ey[1:] != ey[:-1]])

    counts = n_th + tl_emit + y_emit + 1
    offsets = np.cumsum(counts) - counts
    out = np.zeros(int(counts.sum()), dtype="<u2")
    out[offsets[simple]] = (TYPE_TIME_HIGH << 12) | v[simple].astype(np.uint16)
    for i, ws in rollover_words.items():
        out[offsets[i] : offsets[i] + len(ws)] = ws
    out[(offsets + n_th)[tl_emit]] = (TYPE_TIME_LOW << 12) | tl[tl_emit].astype(np.uint16)
    y_all = np.zeros(n, dtype=np.int64)
    y_all[ev_positions] = ev["y"]
    out[(offsets + n_th + tl_emit)[y_emit]] = y_all[y_emit].astype(np.uint16)
    out[offsets + counts - 1] = payload
    return out, counts


def _ref_slot_encode(stream):
    """Bytes and per-item word counts from a filled ``(n_items, 4)`` slot table
    whose emit mask is computed from the slot values themselves, with a
    full-length epoch array for the rollovers (the reference slot-table
    encoder; input checks left out)."""
    ev, tr = stream.events, stream.triggers
    is_ev = ~_merged_mask(stream)
    t = stream.merged_times()
    slots = np.zeros((t.shape[0], 4), dtype="<u2")
    time_high, time_low, cd_y, payload = slots.T
    time_low[:] = t
    t >>= np.uint64(12)
    time_high[:] = t
    epoch = t >> np.uint64(12)
    rows = np.flatnonzero(np.concatenate((epoch[:1] != 0, epoch[1:] != epoch[:-1])))
    runs = []
    for i in rows.tolist():
        v_prev, e_prev = (int(time_high[i - 1]) & 0xFFF, int(epoch[i - 1])) if i else (0, 0)
        runs.append(_ref_rollover_words(v_prev, int(epoch[i]) - e_prev, int(time_high[i]) & 0xFFF))
    start = np.array([TYPE_TIME_HIGH << 12, TYPE_TIME_LOW << 12], dtype="<u2")
    slots[:, :2] &= 0xFFF
    slots[:, :2] |= start
    cd_y[is_ev] = ev["y"]
    payload[is_ev] = (TYPE_CD_X << 12) | (ev["p"] > 0).astype(np.uint16) << 11 | ev["x"]
    payload[~is_ev] = (TYPE_EXT_TRIGGER << 12) | tr["channel"].astype(np.uint16) << 8 | tr["edge"] & 1

    emit = np.ones(slots.shape, dtype=bool)
    emit[:1, :2] = slots[:1, :2] != start
    np.not_equal(slots[1:, :2], slots[:-1, :2], out=emit[1:, :2])
    y = ev["y"]
    emit[:, 2] = False
    emit[is_ev, 2] = np.concatenate(([True], y[1:] != y[:-1]))[: y.shape[0]]
    emit[rows, 0] = False

    words = slots[emit]
    if runs:
        cuts = np.concatenate(([0], rows))
        starts = np.cumsum([np.count_nonzero(emit[a:b]) for a, b in zip(cuts[:-1], cuts[1:])])
        words = np.insert(words, np.repeat(starts, [len(r) for r in runs]), np.concatenate(runs))
    item_words = emit.sum(axis=1).astype(np.int64)
    item_words[rows] += np.array([len(r) for r in runs], dtype=np.int64)
    return make_header(stream.header.width, stream.header.height) + words.tobytes(), item_words


# -- hand-built word sequences (values worked out from the state-machine rules) --


def test_decode_single_event_words():
    data = make_header(1280, 720) + pack_words(
        [build_time_high(1), build_time_low(2), build_cd_y(5), build_cd_x(3, -1)]
    )
    s = decode_esf(data)
    assert s.n_events == 1 and s.n_triggers == 0
    assert _stream_items(s) == [("cd", 2**12 + 2, 3, 5, -1)]


def test_decode_trigger_words():
    data = make_header(1280, 720) + pack_words([build_time_high(1), build_time_low(0), 0xA101])
    s = decode_esf(data)
    assert s.n_events == 0 and s.n_triggers == 1
    assert _stream_items(s) == [("trig", 4096, 1, 1)]


def test_encode_trigger_words():
    # the encoder counterpart of the word list above (TIME_LOW stays at its zero register)
    s = EventStream(StreamHeader(1280, 720), triggers=make_triggers([4096], [1], [1]))
    words = np.frombuffer(encode_esf(s), dtype="<u2", offset=HEADER_SIZE)
    assert list(words) == [build_time_high(1), build_trigger(1, 1)]


def test_decode_epoch_rollover():
    # TIME_HIGH drops from 4095 to 0: the timestamp must advance past 2**24.
    words = [
        build_time_high(4095),
        build_time_low(7),
        build_cd_y(0),
        build_cd_x(1, 1),
        build_time_high(0),
        build_cd_x(2, 1),
    ]
    s = decode_esf(make_header(32, 32) + pack_words(words))
    t0, t1 = int(s.events["t"][0]), int(s.events["t"][1])
    assert t0 == 4095 * 2**12 + 7
    assert t1 == 2**24 + 7
    assert t1 > t0


def test_decode_initial_state_is_zero():
    # No TIME words at all: the first event sits at t = 0.
    s = decode_esf(make_header(16, 16) + pack_words([build_cd_y(3), build_cd_x(4, 1)]))
    assert int(s.events["t"][0]) == 0


def test_encode_minimal_word_emission():
    # Two events at the same t and row: state words appear once.
    events = make_events([4098, 4098], [3, 4], [5, 5], [-1, 1])
    s = EventStream(StreamHeader(1280, 720), events)
    blob = encode_esf(s)
    assert len(blob) == HEADER_SIZE + 2 * 5  # TIME_HIGH, TIME_LOW, CD_Y, CD_X, CD_X
    words = np.frombuffer(blob, dtype="<u2", offset=HEADER_SIZE)
    assert list(words) == [
        build_time_high(1),
        build_time_low(2),
        build_cd_y(5),
        build_cd_x(3, -1),
        build_cd_x(4, 1),
    ]


def test_encode_empty_stream_is_header_only():
    blob = encode_esf(EventStream(StreamHeader(1280, 720)))
    assert blob == make_header(1280, 720)
    assert len(blob) == 16
    assert decode_esf(blob) == EventStream(StreamHeader(1280, 720))


def test_encode_skips_zero_initial_registers():
    # t = 0 matches the decoder's initial registers: no TIME words needed.
    s = EventStream(StreamHeader(16, 16), make_events([0], [1], [2], [1]))
    words = np.frombuffer(encode_esf(s), dtype="<u2", offset=HEADER_SIZE)
    assert list(words) == [build_cd_y(2), build_cd_x(1, 1)]


def test_word_count_accounting():
    events = make_events([4098, 4098, 5000], [3, 4, 4], [5, 5, 6], [-1, 1, 1])
    s = EventStream(StreamHeader(1280, 720), events)
    stats = encode_stats(s)
    assert stats.n_bytes == len(encode_esf(s))
    assert stats.item_words.sum() == stats.n_words
    # item 0 forces TH+TL+CDY+CDX, item 1 just CDX, item 2 TL+CDY+CDX.
    assert list(stats.item_words) == [4, 1, 3]


def test_rollover_count_matches_the_words_built():
    # Gaps of 1-4 epochs from and onto zero and nonzero TIME_HIGH values.
    prev, high, want = [], [], []
    for epoch in range(3):
        for d in range(1, 5):
            for cur_v in (0, 1, 0xFFF):
                for v_tgt in (0, 1, 0xFFF):
                    prev.append(epoch << 12 | cur_v)
                    high.append((epoch + d) << 12 | v_tgt)
                    want.append(_ref_rollover_words(cur_v, d, v_tgt))
    prev, high = np.array(prev, dtype=np.uint64), np.array(high, dtype=np.uint64)
    words, lengths = codec._rollover_runs(prev, high)
    assert codec._rollover_count(prev, high).tolist() == lengths.tolist() == [len(ws) for ws in want]
    assert words.dtype == np.dtype("<u2") and words.tolist() == [w for ws in want for w in ws]


def _raise_timeout(signum, frame):
    raise TimeoutError("took longer than the limit")


def test_word_count_at_the_last_timestamp_returns_promptly():
    # 2^40 - 1 epochs lie between the two events: 2^41 - 1 TIME_HIGH words, to be counted, not built.
    # The timer stops a word-building count long before its list outgrows memory.
    s = EventStream(StreamHeader(4, 4), make_events([0, 2**64 - 1], [1, 1], [1, 1], [1, 1]))
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        stats = encode_stats(s)
        report = rate_report(s, encoding="esf1")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert stats.item_words.tolist() == [2, 2 + 2**41 - 1]  # CD_Y + CD_X; TIME_LOW + CD_X + the run
    assert report.mean_bps == stats.n_bytes * 1_000_000 / (2**64 - 1)


# -- typed decode errors ---------------------------------------------------------


def test_bad_magic():
    with pytest.raises(BadMagic):
        decode_esf(b"JUNK" + bytes(12))


def test_bad_version():
    blob = bytearray(make_header(64, 64))
    blob[4] = 7
    with pytest.raises(BadMagic):
        decode_esf(bytes(blob))



@pytest.mark.parametrize(
    "width, height, axis, value, offset",
    [(0, 64, "width", 0, 6), (2049, 0, "width", 2049, 6), (64, 0, "height", 0, 8), (2048, 2049, "height", 2049, 8)],
)
def test_sensor_size_limits(width, height, axis, value, offset):
    # the header decoder and StreamHeader apply one rule; width is checked first
    with pytest.raises(CoordinateOutOfBounds) as exc:
        decode_esf(make_header(width, height))
    assert (exc.value.axis, exc.value.value, exc.value.offset) == (axis, value, offset)
    with pytest.raises(CoordinateOutOfBounds) as exc:
        StreamHeader(width, height)
    assert (exc.value.axis, exc.value.value, exc.value.offset) == (axis, value, None)
    assert decode_esf(make_header(2048, 2048)).header == StreamHeader(2048, 2048)


def test_truncated_header():
    with pytest.raises(TruncatedStream):
        decode_esf(b"ESF1\x01")


def test_truncated_word():
    data = make_header(64, 64) + pack_words([build_cd_y(1)]) + b"\x55"
    with pytest.raises(TruncatedStream) as exc:
        decode_esf(data)
    assert exc.value.offset == len(data) - 1


def test_unknown_word_type_offset():
    data = make_header(64, 64) + pack_words([build_cd_y(1), 0x3000])
    with pytest.raises(UnknownWordType) as exc:
        decode_esf(data)
    assert exc.value.nibble == 0x3
    assert exc.value.offset == HEADER_SIZE + 2


def test_cd_x_before_cd_y():
    data = make_header(64, 64) + pack_words([build_time_low(5), build_cd_x(1, 1)])
    with pytest.raises(CdXBeforeCdY) as exc:
        decode_esf(data)
    assert exc.value.offset == HEADER_SIZE + 2


def test_coordinate_out_of_bounds_row():
    data = make_header(64, 64) + pack_words([build_cd_y(64)])
    with pytest.raises(CoordinateOutOfBounds) as exc:
        decode_esf(data)
    assert exc.value.axis == "y" and exc.value.offset == HEADER_SIZE


def test_coordinate_out_of_bounds_column():
    data = make_header(64, 64) + pack_words([build_cd_y(0), build_cd_x(64, 1)])
    with pytest.raises(CoordinateOutOfBounds) as exc:
        decode_esf(data)
    assert exc.value.axis == "x" and exc.value.offset == HEADER_SIZE + 2


def test_earliest_error_wins():
    # An unknown word before an out-of-bounds row: the unknown word reports first.
    data = make_header(64, 64) + pack_words([0xF000, build_cd_y(99)])
    with pytest.raises(UnknownWordType):
        decode_esf(data)


# -- golden-model agreement and round trips --------------------------------------


def test_vectorized_decoder_matches_reference_model():
    rng = np.random.default_rng(7)
    for trial in range(20):
        s = _random_stream(rng, n_events=300, n_triggers=12)
        blob = encode_esf(s)
        words = np.frombuffer(blob, dtype="<u2", offset=HEADER_SIZE)
        ref = ReferenceDecoder(s.header.width, s.header.height)
        for w in words:
            ref.step(int(w))
        assert _stream_items(decode_esf(blob)) == ref.items


def _decode_outcome(decode, data):
    try:
        return decode(data)
    except StreamError as err:
        return type(err), err.offset, str(err)


def _reference_decode(data):
    ref = ReferenceDecoder(*np.frombuffer(data, dtype="<u2", count=2, offset=6).tolist())
    for w in np.frombuffer(data, dtype="<u2", offset=HEADER_SIZE).tolist():
        ref.step(w)
    return ref.items


def _random_word_blobs(rng, count):
    """``count`` ESF-1 byte strings of up to 39 random words.

    Every word kind plus unknown nibbles.  Payloads mostly stay under a
    per-array cap below 96, so they land on both sides of sensor sizes
    1..89: errors of every kind compete for the earliest offset, and about
    one array in ten decodes to events.
    """
    nibbles = np.array([TYPE_TIME_HIGH, TYPE_TIME_LOW, TYPE_CD_Y, TYPE_CD_X, TYPE_EXT_TRIGGER, 0x1, 0x7, 0xF])
    weights = np.array([10, 10, 25, 37, 15, 1, 1, 1]) / 100
    for _ in range(count):
        n = int(rng.integers(0, 40))
        words = nibbles[rng.choice(8, size=n, p=weights)] << 12
        words |= np.where(rng.random(n) < 0.98, rng.integers(0, rng.integers(1, 96), n), rng.integers(0, 0x1000, n))
        is_x = words >> 12 == TYPE_CD_X
        words[is_x] |= rng.integers(0, 2, int(is_x.sum())) << 11  # polarity
        yield make_header(*(int(v) for v in rng.integers(1, 90, 2))) + pack_words(words)


def _assert_decoder_matches_reference_on_random_words(count):
    kinds = set()
    for data in _random_word_blobs(np.random.default_rng(99), count):
        got = _decode_outcome(lambda d: _stream_items(decode_esf(d)), data)
        assert got == _decode_outcome(_reference_decode, data), np.frombuffer(data, "<u2", offset=HEADER_SIZE)
        kinds.add(got[0] if isinstance(got, tuple) else "items")
    assert kinds == {"items", UnknownWordType, CoordinateOutOfBounds, CdXBeforeCdY}


def test_decoder_matches_reference_model_on_random_words():
    _assert_decoder_matches_reference_on_random_words(10_000)


def test_roundtrip_random_streams():
    rng = np.random.default_rng(11)
    for trial in range(20):
        s = _random_stream(rng)
        assert decode_esf(encode_esf(s)) == s


def test_roundtrip_preserves_tie_interleaving():
    # A trigger squeezed between two events at the same timestamp.
    events = make_events([100, 100], [1, 2], [3, 3], [1, -1])
    triggers = make_triggers([100], [1], [0])
    s = EventStream(StreamHeader(32, 32), events, triggers, trigger_pos=[1])
    back = decode_esf(encode_esf(s))
    assert back == s
    assert list(back.trigger_pos) == [1]


def test_roundtrip_epoch_gaps():
    # Timestamps spanning several 2**24 us epochs, including a multi-epoch jump.
    ts = [0, 2**24 - 1, 2**24, 2**24 + 5, 3 * 2**24 + 17, 5 * 2**24]
    events = make_events(ts, [1] * 6, [2] * 6, [1] * 6)
    s = EventStream(StreamHeader(32, 32), events)
    back = decode_esf(encode_esf(s))
    assert back == s
    assert list(back.events["t"]) == ts


def test_reencode_reproduces_item_sequence():
    rng = np.random.default_rng(13)
    s = _random_stream(rng)
    blob = encode_esf(s)
    again = encode_esf(decode_esf(blob))
    assert _stream_items(decode_esf(again)) == _stream_items(s)


def test_multi_rollover_round_trip():
    # 80 s spans several 24-bit timestamp rollovers.
    rng = np.random.default_rng(21)
    s = _random_stream(rng, n_events=4000, n_triggers=40, t_span=80_000_000)
    assert decode_esf(encode_esf(s)) == s


def test_decode_error_offset_after_many_words():
    words = [build_cd_y(1)] + [build_cd_x(1, 1)] * 9 + [0x3000]
    with pytest.raises(UnknownWordType) as exc:
        decode_esf(make_header(64, 64) + pack_words(words))
    assert exc.value.offset == HEADER_SIZE + 2 * 10


# -- word slices: the decoder carries its registers from one slice to the next --


@pytest.fixture(params=[1, 2, 3, 7])
def slice_words(request, monkeypatch):
    """Decode in slices of 1, 2, 3 or 7 words, so every register crosses a slice boundary."""
    monkeypatch.setattr(codec, "_SLICE_WORDS", request.param)
    return request.param


def test_slices_match_reference_model_on_random_words(slice_words):
    _assert_decoder_matches_reference_on_random_words(1_000)


def test_slices_round_trip_random_streams(slice_words):
    rng = np.random.default_rng(11)
    for trial in range(20):
        s = _random_stream(rng)
        assert decode_esf(encode_esf(s)) == s


def test_slices_preserve_tie_interleaving(slice_words):
    events = make_events([100, 100], [1, 2], [3, 3], [1, -1])
    s = EventStream(StreamHeader(32, 32), events, make_triggers([100], [1], [0]), trigger_pos=[1])
    assert decode_esf(encode_esf(s)) == s


def test_slices_multi_rollover_round_trip(slice_words):
    s = _random_stream(np.random.default_rng(21), n_events=4000, n_triggers=40, t_span=80_000_000)
    assert decode_esf(encode_esf(s)) == s


def _decode_every_slicing(monkeypatch, words, width=64, height=64):
    """Decode ``words`` in slices of every size from one word to all of them.

    Each outcome (items, or error type, offset and message) must equal the
    reference model's; returns it and the decoded streams.
    """
    data = make_header(width, height) + pack_words(words)
    want, streams = _decode_outcome(_reference_decode, data), []
    for size in range(1, len(words) + 1):
        monkeypatch.setattr(codec, "_SLICE_WORDS", size)
        got = _decode_outcome(decode_esf, data)
        assert (got if isinstance(got, tuple) else _stream_items(got)) == want, size
        streams.append(got)
    return want, streams


def test_slices_carry_epoch_across_rollover(monkeypatch):
    # TIME_HIGH drops from 4095 to 0 in a later slice than it was set; TIME_LOW and the row carry too.
    words = [build_time_high(4095), build_time_low(7), build_cd_y(0), build_cd_x(1, 1), build_time_high(0),
             build_cd_x(2, 1)]
    items, _ = _decode_every_slicing(monkeypatch, words)
    assert items == [("cd", 4095 * 2**12 + 7, 1, 0, 1), ("cd", 2**24 + 7, 2, 0, 1)]


def test_slices_carry_a_multi_epoch_run(monkeypatch):
    ts = [0, 2**24 - 1, 2**24, 2**24 + 5, 3 * 2**24 + 17, 5 * 2**24, 5 * 2**24 + 4096]
    s = EventStream(StreamHeader(32, 32), make_events(ts, [1] * 7, [2, 2, 3, 3, 4, 4, 4], [1] * 7))
    words = np.frombuffer(encode_esf(s), dtype="<u2", offset=HEADER_SIZE).tolist()
    items, _ = _decode_every_slicing(monkeypatch, words, 32, 32)
    assert items == _stream_items(s)


def test_slices_carry_unset_row_to_a_later_cd_x(monkeypatch):
    # the first CD_Y comes in a later slice than the CD_X: the error is at the CD_X
    words = [build_time_low(1), build_time_low(2), build_time_low(3), build_cd_x(1, 1), build_cd_y(2)]
    outcome, _ = _decode_every_slicing(monkeypatch, words)
    assert outcome[:2] == (CdXBeforeCdY, HEADER_SIZE + 2 * 3)
    # a row set in an earlier slice stays set
    items, _ = _decode_every_slicing(monkeypatch, [build_cd_y(2), build_time_low(1), build_cd_x(1, 1)])
    assert items == [("cd", 1, 1, 2, 1)]


def test_slices_report_an_unknown_word_in_the_last_slice(monkeypatch):
    outcome, _ = _decode_every_slicing(monkeypatch, [build_cd_y(1)] + [build_cd_x(1, 1)] * 8 + [0x3000])
    assert outcome == (UnknownWordType, HEADER_SIZE + 2 * 9, f"unknown word type 0x3 at byte {HEADER_SIZE + 18}")


def test_slices_count_earlier_events_in_trigger_positions(monkeypatch):
    words = [build_cd_y(1), build_cd_x(1, 1), build_cd_x(2, 1), build_cd_x(3, 0), build_trigger(1, 0),
             build_cd_x(4, 1), build_trigger(0, 0)]
    _, streams = _decode_every_slicing(monkeypatch, words)
    assert [s.trigger_pos.tolist() for s in streams] == [[3, 5]] * len(words)


def test_slices_find_each_items_time_words_by_position(monkeypatch):
    # An item's timestamp is read after the TIME words ahead of it, counted as its position less
    # the CD_Y words and the items ahead of it. Across the slicings, triggers open and close slices.
    words = [build_cd_y(3), build_time_low(5), build_cd_x(1, 1),  # a CD_X word before any trigger
             build_trigger(1, 2), build_trigger(0, 2),  # back-to-back triggers between two CD_X words
             build_cd_x(2, 0), build_trigger(1, 0), build_time_low(9),  # TIME_LOW right after a trigger
             build_cd_y(4), build_trigger(0, 3), build_cd_x(3, 1), build_time_high(1), build_trigger(0, 1)]
    items, streams = _decode_every_slicing(monkeypatch, words)
    assert items == [("cd", 5, 1, 3, 1), ("trig", 5, 1, 2), ("trig", 5, 0, 2), ("cd", 5, 2, 3, -1),
                     ("trig", 5, 1, 0), ("trig", 9, 0, 3), ("cd", 9, 3, 4, 1), ("trig", 4096 + 9, 0, 1)]
    assert [s.trigger_pos.tolist() for s in streams] == [[1, 2, 4, 5, 7]] * len(words)


def test_slices_of_time_words_only(monkeypatch):
    words = [build_cd_y(1), build_cd_x(1, 1), build_time_high(2), build_time_low(3), build_time_high(4),
             build_time_low(5), build_cd_x(2, 0)]
    items, _ = _decode_every_slicing(monkeypatch, words)
    assert items == [("cd", 0, 1, 1, 1), ("cd", 4 * 2**12 + 5, 2, 1, -1)]


def test_decode_memory_follows_the_output():
    # 1 M events over 3 epochs.  Decoding the whole word array at once builds
    # word-length temporaries worth about ten times the output; slices keep
    # them within a fixed budget.
    s = _random_stream(np.random.default_rng(5), 1_000_000, 100, 1280, 720, t_span=3 * 2**24)
    blob = encode_esf(s)
    tracemalloc.start()
    try:
        out = decode_esf(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == s
    columns = [*out.events.columns.values(), *out.triggers.columns.values(), out.trigger_pos]
    out_bytes = sum(col.nbytes for col in columns)
    assert peak <= out_bytes + 16 * 2**20, (peak, out_bytes)


# Timestamps built from (epoch, TIME_HIGH, TIME_LOW) parts drawn from small
# value sets, so sorted draws hold ties, zero and nonzero registers, and 1-3
# epoch gaps from and onto zero and nonzero TIME_HIGH values.
_time_parts = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.one_of(st.sampled_from([0, 1, 0xFFF]), st.integers(min_value=0, max_value=0xFFF)),
    st.one_of(st.sampled_from([0, 1, 0xFFF]), st.integers(min_value=0, max_value=0xFFF)),
)
_oracle_item = st.tuples(
    _time_parts,
    st.booleans(),  # trigger?
    st.integers(min_value=0, max_value=63),  # x
    st.integers(min_value=0, max_value=3),  # y, few rows so rows repeat
    st.integers(min_value=0, max_value=15),  # polarity bit / edge, channel
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_oracle_item, max_size=40), st.sampled_from(["mixed", "events", "triggers"]))
@example([((0, 0, 0), False, 1, 2, 1)], "mixed")  # one event at the start state
@example([((0, 3, 5), True, 0, 0, 7)], "mixed")  # one trigger, nonzero TIME_HIGH/TIME_LOW
# epoch gaps from a zero TIME_HIGH onto zero and onto nonzero values
@example([((1, 0, 0), False, 1, 1, 0), ((3, 0, 9), False, 1, 1, 0), ((5, 7, 0), True, 0, 0, 2)], "mixed")
# epoch gaps from a nonzero TIME_HIGH onto nonzero and onto zero values, with a tie
@example([((0, 5, 0), False, 1, 1, 0), ((3, 5, 0), True, 0, 0, 0), ((3, 5, 0), False, 2, 1, 1),
          ((4, 0, 0), False, 2, 1, 1)], "mixed")
def test_encoder_matches_reference_encoder(items, kinds):
    items = sorted(items, key=lambda it: it[0])
    t = [(e << 24) | (th << 12) | tl for (e, th, tl), *_ in items]
    is_trig = np.array([{"mixed": it[1], "events": False, "triggers": True}[kinds] for it in items], dtype=bool)
    ev = [(ti, it) for ti, it, trig in zip(t, items, is_trig) if not trig]
    tr = [(ti, it) for ti, it, trig in zip(t, items, is_trig) if trig]
    events = make_events([ti for ti, _ in ev], [it[2] for _, it in ev], [it[3] for _, it in ev],
                         [1 if it[4] & 1 else -1 for _, it in ev])
    triggers = make_triggers([ti for ti, _ in tr], [it[4] & 1 for _, it in tr], [it[4] for _, it in tr])
    s = EventStream(StreamHeader(64, 4), events, triggers, trigger_pos=np.flatnonzero(is_trig))

    ref_words, ref_counts = _ref_encode_words(s)
    stats = encode_stats(s)
    assert list(np.frombuffer(encode_esf(s), dtype="<u2", offset=HEADER_SIZE)) == list(ref_words)
    assert list(stats.item_words) == list(ref_counts)
    assert stats.n_words == ref_words.shape[0]


def _stream_at_scale(rng, n, kinds, t0=0):
    """``n`` items with ties, small steps and 1-3-epoch jumps; ``kinds`` is
    "mixed" (about 5 % triggers, the first item a trigger), "events" or
    "triggers"."""
    steps = rng.choice(np.array([0, 0, 1, 3, 700, 4095, 4096, 9000], dtype=np.uint64), size=n)
    jumps = rng.choice(n, 12, replace=False)
    steps[jumps] = (rng.integers(1, 4, 12) << 24) + rng.integers(0, 1 << 24, 12)
    steps[jumps[:2]] = 1 << 24  # a gap of exactly one epoch keeps TIME_HIGH
    t = np.uint64(t0) + np.cumsum(steps, dtype=np.uint64)
    is_trig = {"mixed": rng.random(n) < 0.05, "events": np.zeros(n, bool), "triggers": np.ones(n, bool)}[kinds]
    is_trig[0] |= kinds == "mixed"
    n_ev, n_tr = int((~is_trig).sum()), int(is_trig.sum())
    events = make_events(t[~is_trig], rng.integers(0, 1280, n_ev), rng.integers(0, 3, n_ev), rng.choice([-1, 1], n_ev))
    triggers = make_triggers(t[is_trig], rng.integers(0, 2, n_tr), rng.integers(0, 16, n_tr))
    return EventStream(StreamHeader(1280, 720), events, triggers, trigger_pos=np.flatnonzero(is_trig))


@pytest.mark.parametrize("kinds, t0", [("mixed", 0), ("mixed", 1 << 24), ("events", 5), ("triggers", 3 << 24)])
def test_encoder_matches_slot_table_reference_at_scale(kinds, t0):
    s = _stream_at_scale(np.random.default_rng(2023), 200_000, kinds, t0)
    t, is_trig = s.merged_times(), _merged_mask(s)
    epochs = np.diff(t >> np.uint64(24))
    assert np.count_nonzero(epochs) >= 3 and epochs.max() >= 2  # rollovers, some across several epochs
    assert bool(is_trig[0]) == (kinds != "events")  # trigger-first
    tied = np.diff(t) == 0
    assert tied.sum() > 10_000
    assert kinds != "mixed" or (tied & (is_trig[1:] != is_trig[:-1])).sum() > 1_000  # triggers tied with events
    ref_bytes, ref_counts = _ref_slot_encode(s)
    assert encode_esf(s) == ref_bytes
    stats = encode_stats(s)
    assert np.array_equal(stats.item_words, ref_counts)
    assert stats.n_bytes == len(ref_bytes)


def test_encode_rejects_unsorted_items():
    events = make_events([10, 5], [1, 1], [1, 1], [1, 1])
    with pytest.raises(UnsortedInput):
        encode_esf(EventStream(StreamHeader(32, 32), events, trigger_pos=np.empty(0, dtype=np.int64)))


@pytest.mark.parametrize("trigger_pos", [[1, 0], [0, 0], [-1, 1], [1, 3]])
def test_stream_rejects_trigger_positions_outside_the_merged_order(trigger_pos):
    # Two triggers among one event: positions must be increasing and within 0-2.
    with pytest.raises(ValueError, match="trigger_pos must be increasing"):
        EventStream(StreamHeader(8, 8), make_events([5], [1], [1], [1]), make_triggers([5, 5], [1, 0], [0, 0]),
                    trigger_pos=trigger_pos)


def test_encode_rejects_out_of_bounds():
    header = StreamHeader(32, 24)
    cases = [
        ("x", 40, EventStream(header, make_events([1, 2], [3, 40], [1, 30], [1, 1]))),
        ("y", 30, EventStream(header, make_events([1, 2], [3, 4], [1, 30], [1, 1]))),
        ("channel", 16, EventStream(header, triggers=make_triggers([1], [1], [16]))),
        ("x", 40, EventStream(header, make_events([2, 1], [3, 40], [1, 1], [1, 1]))),  # bounds before order
    ]
    for axis, value, stream in cases:
        for encode in (encode_esf, encode_stats):
            with pytest.raises(CoordinateOutOfBounds) as exc:
                encode(stream)
            assert (exc.value.axis, exc.value.value) == (axis, value)
    for axis, value, text in (("x", 40, "cd,1,40,30,+1\n"), ("y", 30, "cd,1,3,30,+1\n")):
        with pytest.raises(CoordinateOutOfBounds) as exc:
            parse_csv(text, 32, 24)
        assert (exc.value.axis, exc.value.value) == (axis, value)


def test_parse_csv_rejects_unsorted_lines():
    # The CSV parser applies the encoder's rules, time order included; the index is the merged item's.
    with pytest.raises(UnsortedInput) as exc:
        parse_csv("cd,5,1,1,+1\ntrig,7,r,0\ncd,6,1,1,-1\n", 32, 24)
    assert exc.value.index == 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([None, "x", "y", "channel", "order"]),
    st.randoms(use_true_random=False),
)
def test_validate_flags_exactly_what_encode_rejects(n_events, n_pairs, fault, pyrng):
    """One rule set: a planted x, y, channel or order fault makes ``encode_stats``
    raise and ``validate_stream`` report it; a clean stream passes both."""
    width, height, n = 32, 24, n_events + 2 * n_pairs
    assume({None: True, "x": n_events > 0, "y": n_events > 0, "channel": n_pairs > 0, "order": n >= 2}[fault])
    t = sorted(pyrng.randrange(1, 10**6) for _ in range(n))  # >= 1, so an item can step below its predecessor
    is_trig = np.zeros(n, dtype=bool)
    is_trig[pyrng.sample(range(n), 2 * n_pairs)] = True
    x, y = [pyrng.randrange(width) for _ in range(n_events)], [pyrng.randrange(height) for _ in range(n_events)]
    channel = [pyrng.randrange(16)] * (2 * n_pairs)  # one channel, rising and falling edges alternate
    if fault == "order":
        j = pyrng.randrange(1, n)
        t[j] = t[j - 1] - 1
    elif fault == "channel":
        channel[pyrng.randrange(2 * n_pairs)] = pyrng.randrange(16, 256)
    elif fault is not None:
        coords, limit = (x, width) if fault == "x" else (y, height)
        coords[pyrng.randrange(n_events)] = pyrng.randrange(limit, 2048)
    t = np.array(t, dtype=np.uint64)
    s = EventStream(StreamHeader(width, height), make_events(t[~is_trig], x, y, [1] * n_events),
                    make_triggers(t[is_trig], np.arange(2 * n_pairs) % 2 == 0, channel), np.flatnonzero(is_trig))

    report = validate_stream(s)
    try:
        encode_stats(s)
        raised = None
    except (CoordinateOutOfBounds, UnsortedInput) as err:
        raised = err
    assert (raised is None) == (fault is None) == report.ok
    if isinstance(raised, UnsortedInput):
        assert ("monotonicity", (raised.index - 1, raised.index)) in [(f.kind, f.indices) for f in report.findings]
    elif raised is not None:
        assert any(f.kind == "bounds" and f" with {raised.axis} >= " in f.message
                   and f.message.endswith(f": {raised.axis}={raised.value}") for f in report.findings)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decoder_totality_on_fuzzed_bytes(blob):
    """Any byte soup either decodes or raises a typed error with an offset."""
    try:
        decode_esf(blob)
    except StreamError as err:
        assert isinstance(
            err, (BadMagic, TruncatedStream, UnknownWordType, CdXBeforeCdY, CoordinateOutOfBounds)
        )
        offset = getattr(err, "offset", None)
        assert offset is not None and 0 <= offset <= max(len(blob), 1)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=400))
def test_decoder_totality_with_valid_header(body):
    header = make_header(640, 480)
    try:
        stream = decode_esf(header + body)
    except StreamError as err:
        assert getattr(err, "offset", None) is not None
    else:
        # Whatever decoded must respect the header geometry.
        assert validate_stream(stream).ok or all(
            f.kind in ("monotonicity", "unpaired_trigger") for f in validate_stream(stream).findings
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**26), min_size=0, max_size=60),
    st.lists(st.integers(min_value=0, max_value=2**26), min_size=0, max_size=6),
    st.randoms(use_true_random=False),
)
def test_roundtrip_property(ev_ts, tr_ts, pyrng):
    ev_ts = sorted(ev_ts)
    tr_ts = sorted(tr_ts)
    events = make_events(
        ev_ts,
        [pyrng.randrange(64) for _ in ev_ts],
        [pyrng.randrange(48) for _ in ev_ts],
        [pyrng.choice([-1, 1]) for _ in ev_ts],
    )
    triggers = make_triggers(tr_ts, [pyrng.randrange(2) for _ in tr_ts], [pyrng.randrange(16) for _ in tr_ts])
    s = EventStream(StreamHeader(64, 48), events, triggers)
    assert decode_esf(encode_esf(s)) == s


# -- CSV debug format -------------------------------------------------------------


def test_csv_roundtrip():
    events = make_events([100, 250], [4, 5], [6, 7], [1, -1])
    triggers = make_triggers([200], [1], [2])
    s = EventStream(StreamHeader(64, 64), events, triggers)
    text = write_csv(s)
    assert text.splitlines() == ["cd,100,4,6,+1", "trig,200,r,2", "cd,250,5,7,-1"]
    assert parse_csv(text, 64, 64) == s
    # Writing what we parsed reproduces the text exactly.
    assert write_csv(parse_csv(text, 64, 64)) == text


def _ref_write_csv(stream):
    """Per-item loop reference for ``write_csv``."""
    lines = []
    for item in _stream_items(stream):
        if item[0] == "cd":
            _, t, x, y, p = item
            lines.append(f"cd,{t},{x},{y},{'+1' if p > 0 else '-1'}")
        else:
            _, t, edge, channel = item
            lines.append(f"trig,{t},{'r' if edge else 'f'},{channel}")
    return "".join(line + "\n" for line in lines)


def test_write_csv_matches_reference_loop():
    rng = np.random.default_rng(17)
    ties = EventStream(
        StreamHeader(32, 32),
        make_events([100, 100, 100], [1, 2, 3], [3, 3, 4], [1, -1, 1]),
        make_triggers([100, 100], [1, 0], [0, 5]),
        trigger_pos=[0, 2],
    )
    streams = [
        ties,
        _random_stream(rng, n_events=0, n_triggers=6),  # trigger-only
        _random_stream(rng, n_events=50, n_triggers=0),  # event-only
        _random_stream(rng, n_events=0, n_triggers=0),  # empty
    ]
    streams += [_random_stream(rng, int(rng.integers(0, 300)), int(rng.integers(0, 20)), t_span=500) for _ in range(50)]
    for s in streams:
        assert write_csv(s) == _ref_write_csv(s)
    assert write_csv(streams[3]) == ""
    assert write_csv(ties).splitlines()[:3] == ["trig,100,r,0", "cd,100,1,3,+1", "trig,100,f,5"]


def test_write_csv_matches_reference_loop_at_full_width():
    # every column at its widest and narrowest: t at 0 and 2^64 - 1, x and y at 0 and 2047, channel 15
    top = 2**64 - 1
    edges = EventStream(
        StreamHeader(2048, 2048),
        make_events([0, 0, 9, 10, 10**19 - 1, 10**19, top, top], [0, 2047, 9, 10, 99, 100, 2047, 0],
                    [2047, 0, 10, 9, 1000, 999, 0, 2047], [1, -1, -1, 1, 1, -1, -1, 1]),
        make_triggers([0, 10**19, top, top], [0, 1, 1, 0], [15, 0, 9, 10]),
        trigger_pos=[0, 7, 9, 11],
    )
    assert write_csv(edges) == _ref_write_csv(edges)
    assert write_csv(edges).splitlines()[-3:] == [f"trig,{top},r,9", f"cd,{top},0,2047,+1", f"trig,{top},f,10"]
    rng = np.random.default_rng(64)
    for n_events, n_triggers in [(300, 20), (0, 7), (40, 0)]:
        t = np.sort(rng.integers(0, top, size=n_events + n_triggers, dtype=np.uint64, endpoint=True))
        is_trigger = np.zeros(t.shape[0], dtype=bool)
        is_trigger[rng.choice(t.shape[0], n_triggers, replace=False)] = True
        s = EventStream(
            StreamHeader(2048, 2048),
            make_events(t[~is_trigger], rng.integers(0, 2048, n_events), rng.integers(0, 2048, n_events),
                        rng.choice([-1, 1], n_events)),
            make_triggers(t[is_trigger], rng.integers(0, 2, n_triggers), rng.integers(0, 16, n_triggers)),
            trigger_pos=np.flatnonzero(is_trigger),
        )
        assert write_csv(s) == _ref_write_csv(s)


_CSV_TIMES = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 9, 10, 2**32, 10**19, 2**64 - 1]))


@st.composite
def _csv_streams(draw):
    """Valid streams of up to 2048x2048 with full-range times; a repeated time gives an event-trigger tie."""
    width, height = draw(st.integers(1, 2048)), draw(st.integers(1, 2048))
    items = sorted(draw(st.lists(st.tuples(_CSV_TIMES, st.booleans()), max_size=30)), key=lambda item: item[0])
    ev = [(t, draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)), draw(st.sampled_from([-1, 1])))
          for t, is_trigger in items if not is_trigger]
    tr = [(t, draw(st.integers(0, 1)), draw(st.integers(0, 15))) for t, is_trigger in items if is_trigger]
    return EventStream(
        StreamHeader(width, height),
        make_events(*zip(*ev)) if ev else make_events([], [], [], []),
        make_triggers(*zip(*tr)) if tr else make_triggers([], [], []),
        trigger_pos=[i for i, (_, is_trigger) in enumerate(items) if is_trigger],
    )


@settings(max_examples=200, deadline=None)
@given(s=_csv_streams())
@example(s=EventStream(StreamHeader(4, 4)))  # empty
@example(s=EventStream(StreamHeader(4, 4), triggers=make_triggers([0, 2**64 - 1], [1, 0], [15, 15])))
@example(s=EventStream(StreamHeader(2048, 1), make_events([5, 2**64 - 1], [2047, 0], [0, 0], [-1, 1])))
@example(s=EventStream(StreamHeader(4, 4), make_events([7, 7], [1, 2], [3, 3], [1, -1]),
                       make_triggers([7, 7], [1, 0], [0, 15]), trigger_pos=[0, 2]))  # ties, a trigger first
def test_csv_round_trip_property(s):
    text = write_csv(s)
    assert parse_csv(text, s.header.width, s.header.height) == s
    assert write_csv(parse_csv(text, s.header.width, s.header.height)) == text


def test_csv_tolerates_header_and_comments():
    text = "kind,t,x,y,p\n# comment\n\ncd,1,2,3,+1\n"
    s = parse_csv(text, 16, 16)
    assert s.n_events == 1


def test_csv_malformed_line_reports_number():
    with pytest.raises(MalformedLine) as exc:
        parse_csv("cd,1,2,3,+1\ncd,not_a_number,2,3,+1\n", 16, 16)
    assert exc.value.line_no == 2


def test_csv_bad_polarity_token():
    with pytest.raises(MalformedLine):
        parse_csv("cd,1,2,3,up\n", 16, 16)


# -- structural validation ---------------------------------------------------------


def test_validate_clean_stream():
    rng = np.random.default_rng(3)
    s = _random_stream(rng, n_triggers=0)
    # Add well-paired triggers: rising/falling alternating on one channel.
    t0 = 10_000
    triggers = make_triggers(
        [t0, t0 + 4000, t0 + 33_333, t0 + 37_333], [1, 0, 1, 0], [0, 0, 0, 0]
    )
    s = EventStream(s.header, s.events, triggers)
    assert validate_stream(s).ok


def test_validate_reports_monotonicity_with_both_indices():
    events = make_events([10, 5], [1, 1], [1, 1], [1, 1])
    s = EventStream(StreamHeader(32, 32), events, trigger_pos=np.empty(0, dtype=np.int64))
    report = validate_stream(s)
    kinds = [f.kind for f in report.findings]
    assert kinds == ["monotonicity"]
    assert report.findings[0].indices == (0, 1)


def test_validate_reports_unpaired_triggers():
    # Two consecutive rising edges on one channel.
    triggers = make_triggers([100, 200, 300], [1, 1, 0], [0, 0, 0])
    s = EventStream(StreamHeader(32, 32), triggers=triggers)
    report = validate_stream(s)
    assert [f.kind for f in report.findings] == ["unpaired_trigger"]


def test_validate_reports_bounds():
    events = make_events([1], [100], [1], [1])
    s = EventStream(StreamHeader(32, 32), events)
    assert [f.kind for f in validate_stream(s).findings] == ["bounds"]


def test_validate_unpaired_finding_holds_trigger_index():
    # Channel 1's second rising edge is trigger 3 of the whole array.
    triggers = make_triggers([100, 150, 200, 250, 300], [1, 1, 0, 1, 0], [0, 1, 0, 1, 1])
    s = EventStream(StreamHeader(32, 32), triggers=triggers)
    findings = validate_stream(s).findings
    assert [(f.kind, f.indices) for f in findings] == [("unpaired_trigger", (1,))]
    assert "channel 1: rising edge at t=150" in findings[0].message


def test_validate_report_is_bounded_on_shuffled_stream():
    rng = np.random.default_rng(8)
    n = 200_000
    events = make_events(rng.permutation(n), rng.integers(0, 64, n), rng.integers(0, 64, n), rng.choice([-1, 1], n))
    s = EventStream(StreamHeader(64, 64), events, trigger_pos=np.empty(0, dtype=np.int64))
    findings = validate_stream(s).findings
    assert len(findings) <= 3
    assert [f.kind for f in findings] == ["monotonicity"]
    t = events["t"].astype(np.int64)
    n_bad = int(np.count_nonzero(t[1:] < t[:-1]))
    i = int(np.flatnonzero(t[1:] < t[:-1])[0])
    assert findings[0].indices == (i, i + 1)
    assert findings[0].message.startswith(f"{n_bad} item(s)")


def test_validate_bounds_one_finding_per_axis():
    events = make_events(np.arange(6), [1, 40, 50, 1, 60, 1], [99, 1, 1, 70, 1, 1], [1] * 6)
    s = EventStream(StreamHeader(32, 32), events)
    findings = validate_stream(s).findings
    assert [(f.kind, f.indices) for f in findings] == [("bounds", (1,)), ("bounds", (0,))]
    assert findings[0].message.startswith("3 event(s) with x >= width 32")
    assert findings[1].message.startswith("2 event(s) with y >= height 32")


def test_validate_reports_trigger_channel_bounds():
    triggers = make_triggers([100, 200, 300, 400], [1, 0, 1, 0], [0, 16, 0, 40])
    findings = validate_stream(EventStream(StreamHeader(32, 32), triggers=triggers)).findings
    bounds = [(f.message, f.indices) for f in findings if f.kind == "bounds"]
    assert bounds == [("2 trigger(s) with channel >= 16; first: trigger 1: channel=16", (1,))]
