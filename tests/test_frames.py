"""Accumulation and rendering tests with brute-force per-pixel oracles."""

from __future__ import annotations

import numpy as np
import pytest

from evfuse.frames import (
    accumulate,
    read_pgm,
    render_gray,
    write_pgm,
)
from evfuse.streams import make_events


def _brute_accumulate(events, width, height, mode):
    out = np.zeros((height, width), dtype=np.int32)
    for ev in events:
        x, y, p = int(ev["x"]), int(ev["y"]), int(ev["p"])
        if mode == "count":
            out[y, x] += 1
        elif mode == "polarity":
            out[y, x] += p
        else:
            out[y, x] = 1
    return out


def _random_events(rng, n, width, height):
    t = np.sort(rng.integers(0, 1_000_000, size=n).astype(np.uint64))
    x = rng.integers(0, width, size=n)
    y = rng.integers(0, height, size=n)
    p = rng.choice([-1, 1], size=n)
    return make_events(t, x, y, p)


def test_accumulate_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(10):
        w, h = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        events = _random_events(rng, int(rng.integers(0, 500)), w, h)
        for mode in ("count", "polarity", "binary"):
            got = accumulate(events, w, h, mode)
            assert got.dtype == np.int32 and got.shape == (h, w)
            assert np.array_equal(got, _brute_accumulate(events, w, h, mode))


def test_accumulate_empty():
    events = make_events([], [], [], [])
    assert accumulate(events, 8, 4, "count").sum() == 0


def test_accumulate_rejects_unknown_mode():
    events = make_events([1], [0], [0], [1])
    with pytest.raises(ValueError):
        accumulate(events, 4, 4, "sum")


def test_render_polarity_midgray_and_extremes():
    data = np.array([[0, 3, -3, 6, -6]], dtype=np.int32)
    gray = render_gray(data, "polarity", clip=3)
    assert list(gray[0]) == [128, 255, 1, 255, 1]


def test_render_polarity_half_clip_rounds_even():
    # 128 + 127 * 1.5/3 = 191.5 -> rounds to nearest even = 192
    data = np.array([[1]], dtype=np.int32)
    assert render_gray(data, "polarity", clip=2)[0, 0] == 192
    # 128 + 127 * 0.5 = 191.5 again via clip=6, value 3
    assert render_gray(np.array([[3]], dtype=np.int32), "polarity", clip=6)[0, 0] == 192


def test_render_count_ramp():
    data = np.array([[0, 1, 2, 3, 9]], dtype=np.int32)
    gray = render_gray(data, "count", clip=3)
    assert list(gray[0]) == [0, 85, 170, 255, 255]


def test_render_binary():
    data = np.array([[0, 1, -2]], dtype=np.int32)
    assert list(render_gray(data, "binary")[0]) == [0, 255, 255]


def _ref_render_gray(data, mode, clip):
    """The float formula per pixel, no lookup table (the reference)."""
    data = data.astype(np.int64)  # unsigned surfaces too: polarity clips them at -clip
    if mode == "binary":
        return np.where(data != 0, 255, 0).astype(np.uint8)
    if mode == "count":
        scaled = 255.0 * np.minimum(data, clip) / clip
        return np.rint(np.maximum(scaled, 0.0)).astype(np.uint8)
    clamped = np.clip(data, -clip, clip)
    return np.rint(128.0 + 127.0 * clamped / clip).astype(np.uint8)


@pytest.mark.parametrize("mode", ["count", "polarity", "binary"])
@pytest.mark.parametrize("clip", [1, 2, 3, 7, 255, 256, 10**6, 2**31 - 1])
def test_render_gray_matches_float_formula(mode, clip):
    rng = np.random.default_rng(clip)
    top, bottom = np.iinfo(np.int32).max, np.iinfo(np.int32).min
    sensor = rng.integers(-4, 12, (720, 1280)).astype(np.int32)  # one EVK4-sized frame, a lookup table's size
    sensor[0, :4] = top, bottom, -top, 0  # extremes that overflow an int32 index into that table
    for data in (
        rng.integers(-300, 300, (37, 53)).astype(np.int32),  # negative values and values above clip
        rng.integers(0, 4, (5, 6)).astype(np.int32),
        np.full((2, 3), -5, dtype=np.int32),
        np.zeros((0, 4), dtype=np.int32),
        np.array([[top, 0, -top, bottom]], dtype=np.int32),
        sensor,
        np.array([[0, 5, 300, 65535]], dtype=np.uint16),  # unsigned, the per-pixel path unless clip is 1
        rng.integers(0, 300, (37, 53)).astype(np.uint16),  # unsigned, the lookup table
    ):
        got = render_gray(data, mode, clip)
        assert got.dtype == np.uint8 and np.array_equal(got, _ref_render_gray(data, mode, clip))


def test_render_rejects_bad_clip():
    with pytest.raises(ValueError):
        render_gray(np.zeros((1, 1), dtype=np.int32), "count", clip=0)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(13, 21)).astype(np.uint8)
    path = str(tmp_path / "frame.pgm")
    write_pgm(path, img)
    back = read_pgm(path)
    assert np.array_equal(back, img)


def test_pgm_header_comment(tmp_path):
    path = str(tmp_path / "c.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
    assert np.array_equal(read_pgm(path), np.array([[0, 1], [2, 3]], dtype=np.uint8))


def test_pgm_rejects_p2(tmp_path):
    path = str(tmp_path / "ascii.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P2\n1 1\n255\n0\n")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_accumulate_throughput_smoke():
    # A light version of the acceptance throughput check: 2M events must
    # accumulate well under a second.
    import time

    rng = np.random.default_rng(1)
    n = 2_000_000
    events = _random_events(rng, n, 1280, 720)
    start = time.perf_counter()
    accumulate(events, 1280, 720, "polarity")
    rate = n / (time.perf_counter() - start)
    assert rate > 20e6
