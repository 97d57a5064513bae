"""Alignment-check tests.

The Gaussian impulse response is pinned against a hand-computed kernel value:
a sigma=1 kernel truncated at radius 3 has normalized center weight
exp(0)/sum = 0.399050, so a 2D impulse keeps 0.399050^2 = 0.159241 at its
center after separable blurring.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy import ndimage

from evfuse import alignment, cli, frames
from evfuse.alignment import (
    AllOffsetsUnusable,
    NonFiniteInput,
    ZeroVariance,
    ZnccResult,
    _centre,
    _sectors,
    _subpixel,
    _zncc_map,
    canny,
    edge_deviation,
    event_frame_deviation,
    gaussian_blur,
    match_deviation,
    sobel_gradients,
    zncc_score,
)


def _shift(img, dx, dy):
    """Integer shift with zero fill."""
    out = np.zeros_like(img)
    h, w = img.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def _texture(rng, h=160, w=200):
    """Smooth random texture with plenty of edges."""
    img = rng.uniform(0, 255, size=(h, w))
    return gaussian_blur(img, 2.0)


def _brute_map(template, image, r):
    """The score map as one ``zncc_score`` call per offset (the reference)."""
    size = 2 * r + 1
    scores = np.full((size, size), np.nan)
    for iy, dy in enumerate(range(-r, r + 1)):
        for ix, dx in enumerate(range(-r, r + 1)):
            try:
                scores[iy, ix] = zncc_score(template, image, dx, dy)
            except ZeroVariance:
                continue
    return scores


def _brute_match(reference, target, search_radius=16, margin=32, smooth_sigma=1.0):
    """``match_deviation`` as a full ``zncc_score`` sweep (the reference)."""
    ref = np.asarray(reference, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    h, w = ref.shape
    if smooth_sigma > 0:
        ref = gaussian_blur(ref, smooth_sigma)
        tgt = gaussian_blur(tgt, smooth_sigma)
    r = search_radius
    size = 2 * r + 1
    scores = _brute_map(ref[margin : h - margin, margin : w - margin], tgt, r)
    if np.isnan(scores).all():
        raise AllOffsetsUnusable("every candidate patch was constant")
    filled = np.where(np.isnan(scores), -np.inf, scores)
    best = filled.max()
    ties = np.argwhere(filled == best)
    offsets = ties - r
    order = np.lexsort((offsets[:, 1], offsets[:, 0], (offsets**2).sum(axis=1)))
    iy, ix = ties[order[0]]
    dy, dx = int(iy) - r, int(ix) - r
    sub_x, sub_y = 0.0, 0.0
    if 0 < ix < size - 1 and np.isfinite(filled[iy, ix - 1]) and np.isfinite(filled[iy, ix + 1]):
        sub_x = _subpixel(filled[iy, ix - 1], filled[iy, ix], filled[iy, ix + 1])
    if 0 < iy < size - 1 and np.isfinite(filled[iy - 1, ix]) and np.isfinite(filled[iy + 1, ix]):
        sub_y = _subpixel(filled[iy - 1, ix], filled[iy, ix], filled[iy + 1, ix])
    fx, fy = dx + sub_x, dy + sub_y
    return ZnccResult(dx=fx, dy=fy, score=float(best), deviation=math.hypot(fx, fy))


def _ref_canny(image, sigma=1.4, low_frac=0.1, high_frac=0.3):
    """``canny`` as full-frame passes: every pixel's direction from arctan2,
    masked non-maximum suppression, thresholds on the thinned map (the reference)."""
    if not 0.0 <= low_frac <= high_frac:
        raise ValueError("need 0 <= low_frac <= high_frac")
    img = gaussian_blur(image, sigma)
    gx = ndimage.correlate(img, alignment.SOBEL_X, mode="reflect")
    gy = ndimage.correlate(img, alignment.SOBEL_Y, mode="reflect")
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak <= 0.0:
        return np.zeros(img.shape, dtype=bool)
    angle = np.mod(np.arctan2(gy, gx), math.pi)
    sector = ((angle + math.pi / 8) // (math.pi / 4)).astype(np.int64) % 4
    padded = np.pad(mag, 1)
    center = padded[1:-1, 1:-1]
    steps = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}
    keep = np.zeros(mag.shape, dtype=bool)
    for s, (dy, dx) in steps.items():
        fwd = padded[1 + dy : padded.shape[0] - 1 + dy, 1 + dx : padded.shape[1] - 1 + dx]
        bwd = padded[1 - dy : padded.shape[0] - 1 - dy, 1 - dx : padded.shape[1] - 1 - dx]
        keep |= (sector == s) & (center >= fwd) & (center >= bwd)
    thin = np.where(keep, mag, 0.0)
    strong = thin >= high_frac * peak
    weak = thin >= low_frac * peak
    if not strong.any():
        return np.zeros(img.shape, dtype=bool)
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    kept = np.unique(labels[strong])
    return np.isin(labels, kept[kept != 0])


# -- blur ---------------------------------------------------------------------------


def test_blur_impulse_center_weight():
    img = np.zeros((15, 15))
    img[7, 7] = 1.0
    out = gaussian_blur(img, 1.0)
    assert out[7, 7] == pytest.approx(0.159241, abs=1e-6)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_blur_preserves_constant():
    img = np.full((9, 9), 37.0)
    assert np.allclose(gaussian_blur(img, 2.0), 37.0)


def test_blur_semigroup():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, size=(64, 64))
    twice = gaussian_blur(gaussian_blur(img, 1.0), 1.0)
    once = gaussian_blur(img, math.sqrt(2.0))
    # Truncation and edge handling differ slightly; agreement within 2 gray levels.
    assert np.abs(twice - once).max() < 2.0


def test_blur_zero_sigma_is_identity():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 255, size=(8, 8))
    assert np.array_equal(gaussian_blur(img, 0.0), img)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
def test_blur_and_canny_reject_non_finite_sigma(sigma):
    img = np.zeros((8, 8))
    with pytest.raises(ValueError, match="sigma"):
        gaussian_blur(img, sigma)
    with pytest.raises(ValueError, match="sigma"):
        canny(img, sigma=sigma)
    assert np.array_equal(gaussian_blur(img, -1.0), img)  # a non-positive sigma still means no blur


def test_sobel_on_ramp():
    # Horizontal ramp: gx = 8 * step everywhere (kernel weight sum 8), gy = 0.
    img = np.tile(np.arange(10, dtype=float) * 3.0, (6, 1))
    gx, gy = sobel_gradients(img)
    assert np.allclose(gx[:, 1:-1], 24.0)
    assert np.allclose(gy, 0.0)


# -- canny --------------------------------------------------------------------------


def test_canny_square_outline():
    img = np.zeros((40, 40))
    img[10:30, 10:30] = 200.0
    edges = canny(img)
    assert edges.any()
    ys, xs = np.nonzero(edges)
    # All edge pixels hug the square boundary (blur widens it a little).
    for y, x in zip(ys, xs):
        near_v = min(abs(x - 10), abs(x - 29)) <= 2 and 7 <= y <= 32
        near_h = min(abs(y - 10), abs(y - 29)) <= 2 and 7 <= x <= 32
        assert near_v or near_h
    # NMS keeps the outline thin: far fewer pixels than the blurred band.
    assert len(ys) < 4 * 20 * 3


def test_canny_inversion_invariant():
    rng = np.random.default_rng(3)
    img = _texture(rng, 80, 80)
    assert np.array_equal(canny(img), canny(255.0 - img))


def test_canny_scale_invariant():
    rng = np.random.default_rng(4)
    img = _texture(rng, 60, 60)
    assert np.array_equal(canny(img), canny(img * 7.5))


def test_canny_blank_image_no_edges():
    assert not canny(np.zeros((20, 20))).any()
    assert not canny(np.full((20, 20), 9.0)).any()


def test_canny_threshold_ordering():
    with pytest.raises(ValueError):
        canny(np.zeros((8, 8)), low_frac=0.5, high_frac=0.2)


def test_canny_hysteresis_keeps_connected_weak():
    # A bright edge connected to a faint continuation: hysteresis keeps both;
    # an isolated faint blob elsewhere is dropped.
    img = np.zeros((30, 60))
    img[:, 20:] = 100.0  # strong vertical edge at x=20
    img[14:16, 5:8] = 12.0  # faint isolated blob
    edges = canny(img, sigma=1.0)
    assert edges[:, 18:23].any()
    assert not edges[:, :12].any()


def _disk(h, w, radius, cx, cy):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.where((xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2, 200.0, 40.0)


def _oracle_inputs():
    rng = np.random.default_rng(21)
    yy, xx = np.mgrid[0:48, 0:64].astype(np.float64)
    cases = {
        "texture": _texture(rng, 90, 120),
        "coarse texture": np.round(_texture(rng, 70, 50) / 32.0) * 32.0,
        "disk": _disk(80, 100, 22, 47.5, 41),
        "noise": rng.uniform(0, 255, size=(40, 56)),
        "ramp 45": xx + yy,
        "ramp 135": xx - yy,
        "ramp 22.5": xx + yy * math.tan(math.pi / 8),
        "ramp 67.5": xx * math.tan(math.pi / 8) + yy,
        "step 45": np.where(xx > yy, 100.0, 0.0),
        "constant": np.full((20, 30), 7.0),
        "zero": np.zeros((20, 30)),
        "1x1": np.array([[5.0]]),
        "1xN": rng.uniform(0, 9, size=(1, 17)),
        "Nx1": rng.uniform(0, 9, size=(23, 1)),
        "2x2": np.array([[0.0, 1.0], [3.0, 2.0]]),
    }
    for h, w in ((1, 2), (3, 1), (5, 7), (33, 13)):
        cases[f"noise {h}x{w}"] = rng.uniform(0, 255, size=(h, w))
    return cases


@pytest.mark.parametrize("name, image", list(_oracle_inputs().items()))
def test_sobel_equals_correlate(name, image):
    gx, gy = sobel_gradients(image)
    assert np.array_equal(gx, ndimage.correlate(image, alignment.SOBEL_X, mode="reflect"))
    assert np.array_equal(gy, ndimage.correlate(image, alignment.SOBEL_Y, mode="reflect"))


@pytest.mark.parametrize("name, image", list(_oracle_inputs().items()))
@pytest.mark.parametrize("sigma, low_frac, high_frac", [
    (1.4, 0.1, 0.3), (0.0, 0.1, 0.3), (1.4, 0.0, 0.3), (1.0, 0.2, 0.2), (0.0, 0.0, 0.0),
])
def test_canny_equals_reference(name, image, sigma, low_frac, high_frac):
    got = canny(image, sigma, low_frac, high_frac)
    assert got.dtype == bool
    assert np.array_equal(got, _ref_canny(image, sigma, low_frac, high_frac))


def test_canny_equals_reference_at_sensor_scale():
    image = _disk(720, 1280, 150, 640.5, 360)
    image += _texture(np.random.default_rng(22), 720, 1280) * 0.05
    assert np.array_equal(canny(image), _ref_canny(image))


def test_sectors_at_bin_edges_equal_the_angle_formula():
    # Gradients at and within 1e-15 rad of every k * pi/8, and signed zeros.
    theta = np.array([k * math.pi / 8 + d for k in range(-8, 9) for d in (-1e-15, -3e-16, 0.0, 3e-16, 1e-15)])
    scale = np.array([1e-300, 1e-3, 1.0, 255.0 * 8, 1e300])[:, None]
    gx = (np.cos(theta) * scale).ravel()
    gy = (np.sin(theta) * scale).ravel()
    zeros = [0.0, -0.0]
    gx = np.concatenate((gx, [a for a in zeros for _ in zeros], [1.0, -1.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0]))
    gy = np.concatenate((gy, [b for _ in zeros for b in zeros], [0.0, -0.0, 1.0, -1.0, -0.0, 0.0, -1.0, 1.0]))
    gx = np.concatenate((gx, [np.inf, -np.inf, 1.0, np.inf, 5e-324, 3 * 5e-324]))
    gy = np.concatenate((gy, [1.0, np.inf, -np.inf, np.inf, 5e-324, 5e-324]))
    angle = np.mod(np.arctan2(gy, gx), math.pi)
    want = ((angle + math.pi / 8) // (math.pi / 4)).astype(np.int64) % 4
    assert np.array_equal(_sectors(gx, gy), want)


# -- zncc ---------------------------------------------------------------------------


def test_zncc_perfect_and_inverted():
    rng = np.random.default_rng(5)
    img = rng.uniform(0, 1, size=(21, 21))
    tpl = img[5:16, 5:16].copy()
    assert zncc_score(tpl, img, 0, 0) == pytest.approx(1.0)
    assert zncc_score(-tpl, img, 0, 0) == pytest.approx(-1.0)
    assert zncc_score(3.0 * tpl + 11.0, img, 0, 0) == pytest.approx(1.0)


def test_zncc_finds_shift():
    rng = np.random.default_rng(6)
    img = rng.uniform(0, 1, size=(31, 31))
    tpl = img[12:19, 10:17].copy()  # center (13, 15) vs image center (15, 15)
    assert zncc_score(tpl, img, -2, 0) == pytest.approx(1.0)
    assert zncc_score(tpl, img, 0, 0) < 0.999


def test_zncc_zero_variance():
    flat = np.zeros((5, 5))
    img = np.zeros((11, 11))
    with pytest.raises(ZeroVariance):
        zncc_score(flat, img, 0, 0)


def test_zncc_out_of_bounds_offset():
    with pytest.raises(ValueError):
        zncc_score(np.zeros((5, 5)), np.ones((11, 11)), 10, 0)


# -- match_deviation ----------------------------------------------------------------


def test_match_recovers_integer_shift():
    rng = np.random.default_rng(7)
    img = _texture(rng)
    for dx, dy in [(0, 0), (3, -2), (-7, 5), (11, 11)]:
        res = match_deviation(img, _shift(img, dx, dy), search_radius=12, margin=16)
        assert round(res.dx) == dx and round(res.dy) == dy
        assert res.deviation == pytest.approx(math.hypot(dx, dy), abs=0.5)
        assert res.score > 0.9


def test_match_identical_images_zero_deviation():
    rng = np.random.default_rng(8)
    img = _texture(rng)
    res = match_deviation(img, img)
    # integer peak at (0, 0); subpixel refinement may wander by a millipixel
    assert abs(res.dx) < 0.01 and abs(res.dy) < 0.01 and res.deviation < 0.02
    assert res.score == pytest.approx(1.0)
    assert res.to_json()["deviation_px"] == res.deviation


def test_match_subpixel_on_analytic_peak():
    # A smooth Gaussian bump shifted by half a pixel: the quadratic refinement
    # should land between the two integer offsets.
    ys, xs = np.mgrid[0:120, 0:120].astype(float)
    a = np.exp(-(((xs - 60.0) ** 2) + (ys - 60.0) ** 2) / 200.0)
    b = np.exp(-(((xs - 60.6) ** 2) + (ys - 60.0) ** 2) / 200.0)
    res = match_deviation(a, b, search_radius=4, margin=8, smooth_sigma=0.0)
    assert 0.2 < res.dx < 1.0
    assert abs(res.dy) < 0.2


def test_match_all_constant_raises():
    flat = np.zeros((100, 100))
    with pytest.raises(AllOffsetsUnusable):
        match_deviation(flat, flat)
    # a textured reference against a constant target: every patch is constant
    rng = np.random.default_rng(10)
    with pytest.raises(AllOffsetsUnusable):
        match_deviation(_texture(rng, 60, 60), np.full((60, 60), 5.0), search_radius=4, margin=8)


@pytest.mark.parametrize("value", [0.0, 5.0, 128.0, 0.1])
def test_match_constant_target_makes_no_zncc_calls(monkeypatch, value):
    # a textured reference against a blank frame: no offset is usable, which
    # the region's energy proves without scoring any of the 33 x 33 offsets
    ref = _texture(np.random.default_rng(10), 180, 240)
    tgt = np.full((180, 240), value)
    with pytest.raises(AllOffsetsUnusable) as want:
        _brute_match(ref, tgt)
    calls, score = [], alignment._zncc  # the scorer every exact re-score goes through
    monkeypatch.setattr(alignment, "_zncc", lambda *args: calls.append(args) or score(*args))
    with pytest.raises(AllOffsetsUnusable) as got:
        match_deviation(ref, tgt)
    assert calls == []
    assert str(got.value) == str(want.value)


def test_match_bright_blank_target_of_many_pixels_makes_no_zncc_calls(monkeypatch):
    # 336 x 336 = 112,896 template pixels of 255: too many for a worst-case
    # rounding bound on the region's energy to prove the target constant, but
    # every patch of a constant region is the same, so one patch settles it
    ref = _texture(np.random.default_rng(13), 400, 400)
    tgt = np.full((400, 400), 255.0)
    with pytest.raises(AllOffsetsUnusable) as want:
        _brute_match(ref, tgt)
    calls, score = [], alignment._zncc
    monkeypatch.setattr(alignment, "_zncc", lambda *args: calls.append(args) or score(*args))
    with pytest.raises(AllOffsetsUnusable) as got:
        match_deviation(ref, tgt)
    assert calls == []
    assert str(got.value) == str(want.value)


def _outcome(fn, *args):
    """``repr`` of the result, or the ``AllOffsetsUnusable`` message."""
    try:
        return repr(fn(*args))
    except AllOffsetsUnusable as exc:
        return f"AllOffsetsUnusable({exc})"


@pytest.mark.parametrize("bump2", [0.5e-12, 1.0e-12, 1.02e-12, 2e-12, 1e-10])
@pytest.mark.parametrize("where", [(4, 4), (30, 30)])
def test_match_near_constant_target_like_brute_force(bump2, where):
    # One pixel of a constant target raised by sqrt(bump2), so every patch
    # holding it has a sum of squares of bump2 * (1 - 1/n): just below or just
    # above VAR_EPS. (4, 4) is the region's corner, inside one patch only.
    ref = _texture(np.random.default_rng(11), 60, 60)
    tgt = np.full((60, 60), 5.0)
    tgt[where] += math.sqrt(bump2)
    args = (ref, tgt, 4, 8, 0.0)
    assert _outcome(match_deviation, *args) == _outcome(_brute_match, *args)


@pytest.mark.parametrize("value", [123456789.123, 1e12 / 3])
def test_match_large_constant_target_like_brute_force(value):
    # A large constant's float mean rounds, so every patch's pv is the same
    # rounding noise: 1.7e-12, above VAR_EPS, for the first value (every offset
    # is scored) and 0.0 for the second (none is).
    ref = _texture(np.random.default_rng(12), 60, 60)
    tgt = np.full((60, 60), value)
    args = (ref, tgt, 4, 8, 0.0)
    assert _outcome(match_deviation, *args) == _outcome(_brute_match, *args)


def test_match_validates_geometry():
    img = np.zeros((40, 40))
    with pytest.raises(ValueError):
        match_deviation(img, img, search_radius=20, margin=10)
    with pytest.raises(ValueError):
        match_deviation(img, np.zeros((41, 40)))
    with pytest.raises(ValueError):
        match_deviation(img, img, search_radius=16, margin=32)  # too small
    with pytest.raises(ValueError, match="search_radius"):
        match_deviation(img, img, search_radius=-1, margin=4)


def test_event_frame_deviation_band_vs_disk():
    # Event-style evidence: an activity band where a disk edge swept, offset
    # by a known (3, -2) from the RGB disk it should align to.
    ys, xs = np.mgrid[0:140, 0:160].astype(float)
    rgb = np.where(np.hypot(xs - 80, ys - 70) < 25, 220.0, 30.0)
    ring = np.abs(np.hypot(xs - 83, ys - 68) - 25.0)
    activity = np.clip(3.0 - ring, 0.0, 3.0)  # 3px-wide swept band, int-like
    res = event_frame_deviation(activity, rgb, search_radius=8, margin=16)
    # convention: (dx, dy) is where the reference content sits inside the
    # target — the rgb disk lies at (-3, +2) from the event band
    assert res.dx == pytest.approx(-3.0, abs=0.3)
    assert res.dy == pytest.approx(2.0, abs=0.3)
    assert res.deviation == pytest.approx(math.hypot(3, 2), abs=0.4)


def test_edge_deviation_on_shifted_scene():
    # Two views of the same scene with different tone curves and a known 4px
    # horizontal shift (cut from a wider texture, so no artificial border).
    rng = np.random.default_rng(9)
    base = _texture(rng, 160, 220)
    a = base[:, 4:204]
    b = 255.0 - 0.7 * base[:, 0:200]  # content of `a` moved right by 4
    res = edge_deviation(a, b, search_radius=8, margin=16)
    assert round(res.dx) == 4 and round(res.dy) == 0
    assert res.deviation == pytest.approx(4.0, abs=0.6)


# -- FFT score map against the brute-force sweep -----------------------------------


def _map_case(kind, h, w, r, margin, seed):
    """(template, target) pairs for the score-map comparison."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        ref = rng.uniform(0, 255, size=(h, w))
        tgt = rng.uniform(0, 255, size=(h, w))
    elif kind == "texture":
        base = _texture(rng, h + 8, w + 8)
        ref, tgt = base[4 : 4 + h, 4 : 4 + w], base[2 : 2 + h, 7 : 7 + w]
    elif kind == "edges":  # blurred Canny maps, as edge_deviation correlates them
        base = _texture(rng, h + 8, w + 8)
        ref = gaussian_blur(canny(base[4 : 4 + h, 4 : 4 + w]).astype(float), 1.0)
        tgt = gaussian_blur(canny(base[1 : 1 + h, 6 : 6 + w]).astype(float), 1.0)
    elif kind == "constant":  # most of the target is one value, so part of the map is NaN
        ref = _texture(rng, h, w)
        tgt = ref.copy()
        tgt[:, : w - margin - r // 2] = 77.3
    else:  # "border": loud noise around the template, so the region's energy
        # sits in the 2r border strip and the summed-area variances round badly
        ref = _texture(rng, h, w)
        tgt = 1e4 * rng.uniform(0, 255, size=(h, w))
        tgt[margin : h - margin, margin : w - margin] = ref[margin : h - margin, margin : w - margin]
    return ref[margin : h - margin, margin : w - margin], tgt


@pytest.mark.parametrize("kind", ["random", "texture", "edges", "constant", "border"])
@pytest.mark.parametrize(
    "h, w, r, margin",
    [(61, 84, 6, 9), (72, 51, 5, 8), (45, 45, 0, 3), (64, 90, 7, 7), (57, 66, 3, 10)],
)
def test_zncc_map_matches_brute_force(kind, h, w, r, margin):
    template, target = _map_case(kind, h, w, r, margin, seed=h * w + r)
    fast = _zncc_map(*_centre(template), target, r)
    slow = _brute_map(template, target, r)
    assert np.array_equal(np.isnan(fast), np.isnan(slow))
    if kind == "constant" and r > 1:
        assert np.isnan(slow).any() and not np.isnan(slow).all()
    ok = ~np.isnan(slow)
    assert np.abs(fast[ok] - slow[ok]).max(initial=0.0) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_match_equals_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    h, w = [(70, 96), (83, 64), (90, 90)][seed % 3]
    r, margin, sigma = [(6, 10, 1.0), (4, 4, 0.0), (8, 12, 2.0)][seed % 3]
    base = _texture(rng, h + 20, w + 20)
    dx, dy = (int(v) for v in rng.integers(-r - 1, r + 2, size=2))
    ref = base[10 : 10 + h, 10 : 10 + w]
    tgt = base[10 + dy : 10 + dy + h, 10 + dx : 10 + dx + w]
    if seed >= 3:
        ref, tgt = canny(ref).astype(float), canny(tgt).astype(float)
    expected = _brute_match(ref, tgt, r, margin, sigma)
    assert repr(match_deviation(ref, tgt, r, margin, sigma)) == repr(expected)


def _sparse_pair(where, h=48, w=56, r=4, margin=8):
    """(reference, target) of isolated pixels: a dot pattern inside the template
    and its copy moved by (2, -1) in the target, plus support where ``where``
    says; "outside" keeps all of it outside both read windows."""
    rng = np.random.default_rng(sum(map(ord, where)))
    ref = np.zeros((h, w))
    if where == "empty":
        return ref, ref.copy()
    if where == "single":
        tgt = ref.copy()
        ref[h // 2, w // 2], tgt[h // 2 + 1, w // 2 - 2] = 1.0, 2.0
        return ref, tgt
    if where == "outside":
        ref, tgt = (rng.random((2, h, w)) < 0.1).astype(float)
        ref[margin : h - margin, margin : w - margin] = 0.0
        tgt[margin - r : h - margin + r, margin - r : w - margin + r] = 0.0
        return ref, tgt
    ref[margin : h - margin, margin : w - margin] = rng.random((h - 2 * margin, w - 2 * margin)) < 0.04
    tgt = _shift(ref, 2, -1)
    edge = {"top": np.s_[0, :], "bottom": np.s_[-1, :], "left": np.s_[:, 0], "right": np.s_[:, -1],
            "corners": np.s_[:: h - 1, :: w - 1]}[where]
    ref[edge] += rng.random(ref[edge].shape) < 0.5
    tgt[edge] += 3.0 * (rng.random(tgt[edge].shape) < 0.5)
    return ref, tgt


@pytest.mark.parametrize("where", ["top", "bottom", "left", "right", "corners", "outside", "single", "empty"])
@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0, 25.0])  # radius 75 exceeds the 48x56 image
def test_match_on_sparse_support_like_brute_force(where, sigma):
    args = (*_sparse_pair(where), 4, 8, sigma)
    got = _outcome(match_deviation, *args)
    assert got == _outcome(_brute_match, *args)
    if where == "empty":
        assert got.startswith("AllOffsetsUnusable")


@pytest.mark.parametrize("sigma, inset", [(2.0, 16), (2.0, 32), (1.0, 0)])
def test_blur_inside_equals_full_blur_on_sensor_sized_events(sigma, inset):
    # Event-like activity at 1280x720: a swept disk outline, counts 0-3, and
    # background events over the whole frame, the border strips included.
    ys, xs = np.mgrid[0:720, 0:1280]
    img = np.round(np.clip(3.0 - np.abs(np.hypot(xs - 400, ys - 360) - 200.0), 0.0, 3.0))
    rng = np.random.default_rng(22)
    img[rng.integers(0, 720, 2000), rng.integers(0, 1280, 2000)] += 1.0
    window = np.s_[inset : 720 - inset, inset : 1280 - inset]
    got = alignment._blur_inside(img, sigma, inset)
    assert got[window].tobytes() == gaussian_blur(img, sigma)[window].tobytes()
    got[window] = 0.0
    assert not got.any()


def test_match_exact_tie_breaks_like_brute_force():
    # The target holds the reference's blob twice, mirrored about its center:
    # offsets -15 and +15 see identical patches, so their scores tie exactly
    # and the tie-break (smallest |offset|, then (dy, dx)) picks dx = -15.
    ys, xs = np.mgrid[0:80, 0:100].astype(float)

    def blob(cx):
        return (np.hypot(xs - cx, ys - 40) <= 4).astype(float)

    ref, tgt = blob(50), blob(35) + blob(65)
    expected = _brute_match(ref, tgt, 16, 30, 1.0)
    assert expected.dx == -15.0 and expected.score == 1.0
    assert repr(match_deviation(ref, tgt, 16, 30, 1.0)) == repr(expected)


def test_match_subpixel_sign_of_zero_like_brute_force():
    # Content symmetric in y: the peak's two y neighbours differ only by
    # rounding, so dy is a signed zero-ish value that rounds to -0.0, as in
    # the golden pipeline summary. Only exact neighbour scores reproduce it.
    rng = np.random.default_rng(0)
    base = gaussian_blur(rng.uniform(0, 255, size=(80, 130)), 2.0)
    base = base + base[::-1]
    ref, tgt = base[:, 10:110], base[:, 7:107]
    expected = _brute_match(ref, tgt, 8, 16, 0.0)
    assert str(round(expected.dy, 3)) == "-0.0"
    assert repr(match_deviation(ref, tgt, 8, 16, 0.0)) == repr(expected)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_match_rejects_bad_smooth_sigma(sigma):
    rng = np.random.default_rng(13)
    base = _texture(rng, 80, 100)
    for check in (match_deviation, edge_deviation, event_frame_deviation):
        with pytest.raises(ValueError, match="smooth_sigma"):
            check(base, _shift(base, 2, 0), search_radius=4, margin=8, smooth_sigma=sigma)


@pytest.mark.parametrize("which, bad", [("target", np.nan), ("reference", np.inf)])
def test_match_rejects_non_finite_pixels(which, bad):
    rng = np.random.default_rng(11)
    base = _texture(rng, 120, 160)
    ref, tgt = base.copy(), _shift(base, 3, 0)
    (tgt if which == "target" else ref)[60, 80] = bad
    for check in (match_deviation, edge_deviation, event_frame_deviation):
        with pytest.raises(NonFiniteInput, match=which):
            check(ref, tgt, search_radius=8, margin=16)


def _run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("mode", ["edges", "intensity", "activity"])
def test_verify_cli_matches_brute_force(mode, tmp_path):
    rng = np.random.default_rng(12)
    base = _texture(rng, 110, 150)
    ref = np.clip(base[5:105, 5:145], 0, 255).astype(np.uint8)
    tgt = np.clip(255.0 - base[3:103, 9:149], 0, 255).astype(np.uint8)
    frames.write_pgm(str(tmp_path / "ref.pgm"), ref)
    frames.write_pgm(str(tmp_path / "tgt.pgm"), tgt)
    out = tmp_path / "res.json"
    argv = ["verify", str(tmp_path / "ref.pgm"), str(tmp_path / "tgt.pgm"), "--mode", mode,
            "--radius", "8", "--margin", "16", "-o", str(out)]
    assert _run_cli(argv) == 0
    ref_f, tgt_f = ref.astype(np.float64), tgt.astype(np.float64)
    if mode == "edges":
        expected = _brute_match(canny(ref_f).astype(float), canny(tgt_f).astype(float), 8, 16, 1.0)
    elif mode == "intensity":
        expected = _brute_match(ref_f, tgt_f, 8, 16, 1.0)
    else:
        expected = _brute_match(np.abs(ref_f), canny(tgt_f).astype(float), 8, 16, 1.0)
    assert out.read_text() == json.dumps(expected.to_json(), indent=2, sort_keys=True) + "\n"
