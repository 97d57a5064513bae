"""The column container behind every event and trigger array: views,
copies, and the one conversion to and from packed records."""

from __future__ import annotations

import numpy as np
import pytest

from evfuse.codec import decode_esf, encode_esf
from evfuse.streams import (
    EVENT_DTYPE,
    TRIGGER_DTYPE,
    Columns,
    EventStream,
    StreamHeader,
    make_events,
    make_triggers,
)


def _records(dtype, **fields) -> np.ndarray:
    """A packed record array filled field by field: the layout before events were columns."""
    out = np.empty(len(fields["t"]), dtype=dtype)
    for name, values in fields.items():
        out[name] = values
    return out


def _sample(n=50, seed=3):
    rng = np.random.default_rng(seed)
    fields = {"t": np.sort(rng.integers(0, 2**40, n)).astype(np.uint64), "x": rng.integers(0, 1280, n),
              "y": rng.integers(0, 720, n), "p": rng.choice([-1, 1], n)}
    return make_events(*fields.values()), _records(EVENT_DTYPE, **fields)


def test_slices_are_views_and_take_and_copy_are_not():
    events, _ = _sample()
    for part in (events[5:20], events[::3], events[-10::-2]):
        assert all(np.shares_memory(part[f], events[f]) for f in EVENT_DTYPE.names)
    view = events[10:]
    view["x"][0] = 1279
    assert events["x"][10] == 1279  # a write through a slice reaches the source
    for independent in (events.copy(), events.take([3, 1, 4]), events[events["p"] > 0]):
        assert not any(np.shares_memory(independent[f], events[f]) for f in EVENT_DTYPE.names)
    copied = events.copy()
    copied["t"][:] = 0
    assert events["t"].any() and copied == make_events(np.zeros(50), events["x"], events["y"], events["p"])


def test_records_are_the_packed_layout_byte_for_byte():
    events, records = _sample()
    assert np.asarray(events).dtype == EVENT_DTYPE
    assert np.asarray(events).tobytes() == records.tobytes()
    assert np.asarray(events[::4]).tobytes() == records[::4].tobytes()
    assert np.asarray(events).nbytes == 13 * len(events) == records.nbytes
    triggers = make_triggers([1, 5, 9], [1, 0, 1], [0, 15, 3])
    want = _records(TRIGGER_DTYPE, t=[1, 5, 9], edge=[1, 0, 1], channel=[0, 15, 3])
    assert np.asarray(triggers).tobytes() == want.tobytes()
    assert Columns.of(want, TRIGGER_DTYPE) == triggers and Columns.of(records, EVENT_DTYPE) == events


@pytest.mark.parametrize("key", [0, -1, 7, np.int64(2)])
def test_one_int_is_no_key(key):
    events, records = _sample(n=7)
    with pytest.raises(TypeError, match=r"field name, a slice, a mask or an index array.*np\.asarray\(c\)\[i\]"):
        events[key]
    with pytest.raises(TypeError, match="field name"):
        list(events)  # no record-by-record iteration either
    assert np.asarray(events)[2].tolist() == records[2].tolist()  # the record way in the message works


@pytest.mark.parametrize("key", [np.True_, (0,), None], ids=["bool", "tuple", "none"])
def test_a_key_that_changes_the_dimension_is_no_key(key):
    events, _ = _sample(n=7)
    with pytest.raises(TypeError, match=r"field name, a slice, a mask or an index array.*np\.asarray\(c\)\[i\]"):
        events[key]


def test_stream_from_concatenated_slices_holds_the_same_events():
    events, records = _sample()
    joined = np.concatenate([events[:20], events[20:21], events[21:]])
    assert joined.dtype == EVENT_DTYPE and np.array_equal(joined, records)
    stream = EventStream(StreamHeader(1280, 720), joined)  # a record array is turned into columns once, here
    assert isinstance(stream.events, Columns) and stream.events == events
    assert all(stream.events[f].flags.c_contiguous for f in EVENT_DTYPE.names)
    assert stream == EventStream(StreamHeader(1280, 720), events)


def test_decoded_columns_are_contiguous():
    events, _ = _sample(n=5_000)
    triggers = make_triggers([10, 2**39], [1, 0], [2, 2])
    stream = decode_esf(encode_esf(EventStream(StreamHeader(1280, 720), events, triggers)))
    for items in (stream.events, stream.triggers):
        assert all(col.flags.c_contiguous for col in items.columns.values())
    assert stream.events == events and stream.triggers == triggers


def test_columns_must_match_the_record_fields():
    t = np.arange(3, dtype=np.uint64)
    with pytest.raises(ValueError, match="equal length"):
        Columns(TRIGGER_DTYPE, {"t": t, "edge": np.zeros(2, np.uint8), "channel": np.zeros(3, np.uint8)})
    with pytest.raises(ValueError, match="column 'edge'"):
        Columns(TRIGGER_DTYPE, {"t": t, "edge": np.zeros(3, np.int64), "channel": np.zeros(3, np.uint8)})


def test_every_record_array_use_the_benchmark_makes():
    events, records = _sample(n=200)
    # len, dtype names, and name indexing that returns the column, writable in place
    assert len(events) == 200 and events.dtype.names == ("t", "x", "y", "p")
    edited = events.copy()
    edited["x"][len(edited) // 2] ^= 1
    edited["t"][-1] += 1
    assert edited["x"][100] == records["x"][100] ^ 1 and edited["t"][-1] == records["t"][-1] + 1
    assert not np.array_equal(edited, events) and np.array_equal(events, records)
    # slices, steps included, and the field comparisons of the checks
    assert len(events[1:]) == 199 and len(events[::2]) == 100
    assert np.array_equal(events["x"][1:] != events["x"][:-1], records["x"][1:] != records["x"][:-1])
    assert np.array_equal(np.asarray(events[1:]["t"]), records["t"][1:])
    # a swap spliced with np.concatenate, then read back as records
    j = 50
    swapped = np.concatenate([events[:j], events[j + 1:j + 2], events[j:j + 1], events[j + 2:]])
    want = records.copy()
    want[[j, j + 1]] = records[[j + 1, j]]
    assert np.array_equal(swapped, want) and np.array_equal(np.asarray(events), records)
    # take, ascontiguousarray of a column, and record keys built from np.asarray of each field
    kept = events.take(np.arange(0, 200, 3))
    assert np.array_equal(np.ascontiguousarray(kept["t"]), records["t"][::3])
    keys = [np.asarray(kept[f]).astype(np.int64) for f in ("t", "y", "x")]
    assert all(k.shape == (67,) for k in keys)
