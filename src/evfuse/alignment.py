"""Cross-modal alignment checking between event frames and RGB frames.

The two modalities never look alike pixel-for-pixel, so the comparison runs
on edge maps by default: both images are reduced to Canny edges, lightly
blurred so nearby-but-not-identical contours still overlap, and the central
patch of one is swept over the other under zero-normalized cross-correlation.
The offset of the correlation peak (refined to subpixel) is the measured
misalignment; its magnitude is the deviation reported to calibration checks.
The blur before the sweep covers only the window the sweep reads, plus the
kernel radius. A blank target, constant over that window, is recognised from
one patch's variance: about 0.05 s at 1280x720.

All images are 2D float or uint8 arrays.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EvfuseError, InvalidInput


class AlignmentError(EvfuseError):
    pass


class ZeroVariance(AlignmentError):
    """A correlation patch is constant, so its ZNCC is undefined."""


class AllOffsetsUnusable(AlignmentError):
    """Every candidate offset had a constant patch: nothing to align on."""


class NonFiniteInput(AlignmentError):
    """An input image holds a NaN or infinite pixel."""


VAR_EPS = 1e-12

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
SOBEL_Y = SOBEL_X.T


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, kernel truncated at 3 sigma, reflected edges."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    img = np.asarray(image, dtype=np.float64)
    if sigma <= 0:
        return img.copy()
    radius = int(math.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    from scipy import ndimage  # SciPy loads on first use: `import evfuse.cli` stays light

    out = ndimage.convolve1d(img, kernel, axis=0, mode="reflect")
    return ndimage.convolve1d(out, kernel, axis=1, mode="reflect")


def _blur_inside(image: np.ndarray, sigma: float, inset: int) -> np.ndarray:
    """``gaussian_blur(image, sigma)`` bit for bit inside the window ``inset``
    pixels in from every side, 0 outside it. Only the window and the kernel
    radius around it are blurred, whatever the pixels hold; the full shape is
    kept, as slices of a cropped copy would sum in another order."""
    h, w = image.shape
    lo = max(inset - int(math.ceil(3.0 * sigma)), 0)  # pixels from lo to h - lo reach the window
    crop = gaussian_blur(image[lo : h - lo, lo : w - lo], sigma)
    out = np.zeros((h, w))
    out[inset : h - inset, inset : w - inset] = crop[inset - lo : h - inset - lo, inset - lo : w - inset - lo]
    return out


def sobel_gradients(image: np.ndarray) -> tuple:
    """``ndimage.correlate`` with ``SOBEL_X`` and ``SOBEL_Y``, mode "reflect", bit
    for bit: one shifted slice of the symmetrically padded image per non-zero
    weight, added in place in correlate's order (row-major, from the first
    product)."""
    img = np.asarray(image, dtype=np.float64)
    rows, cols = img.shape
    padded = np.pad(img, 1, mode="symmetric")
    nw, n, ne, w, _, e, sw, s, se = (padded[dy : dy + rows, dx : dx + cols] for dy in range(3) for dx in range(3))
    gx = ne - nw
    two = np.multiply(w, 2.0)
    gx -= two
    gx += np.multiply(e, 2.0, out=two)
    gx -= sw
    gx += se
    gy = nw + np.multiply(n, 2.0, out=two)
    gy += ne
    np.subtract(sw, gy, out=gy)
    gy += np.multiply(s, 2.0, out=two)
    gy += se
    return gx, gy


def _sectors(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Direction bin of each gradient (0-3: 0, 45, 90, 135 degrees),
    ``floor((mod(arctan2(gy, gx), pi) + pi/8) / (pi/4)) % 4``."""
    angle = np.mod(np.arctan2(gy, gx), math.pi)
    return ((angle + math.pi / 8) // (math.pi / 4)).astype(np.int64) % 4


def canny(
    image: np.ndarray,
    sigma: float = 1.4,
    low_frac: float = 0.1,
    high_frac: float = 0.3,
) -> np.ndarray:
    """Binary edge map: blur, Sobel, non-maximum suppression, hysteresis.

    Thresholds are fractions of the peak gradient magnitude, which makes the
    result invariant to linear intensity scaling (and to inversion).
    """
    if not 0.0 <= low_frac <= high_frac:
        raise ValueError("need 0 <= low_frac <= high_frac")
    img = gaussian_blur(image, sigma)
    gx, gy = sobel_gradients(img)
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak <= 0.0:
        return np.zeros(img.shape, dtype=bool)

    # Only a candidate (mag >= low) can end up weak or strong: any other
    # pixel's thinned value is 0 or below low, whatever its direction.
    # Non-maximum suppression compares each candidate with its two neighbours
    # along the gradient, steps (0, 1), (1, 1), (1, 0) or (1, -1) by direction
    # bin, in one gather on the flat zero-padded magnitude.
    low = low_frac * peak
    w = mag.shape[1]
    cand = np.flatnonzero(mag >= low)
    step = np.array([1, w + 3, w + 2, w + 1])[_sectors(gx.ravel()[cand], gy.ravel()[cand])]
    padded = np.pad(mag, 1).ravel()
    at = cand + 2 * (cand // w) + w + 3  # flat index in the padded frame
    centre = padded[at]
    keep = (centre >= padded[at + step]) & (centre >= padded[at - step])
    edges = cand[keep]
    strong = edges[centre[keep] >= high_frac * peak]
    if not strong.size:
        return np.zeros(img.shape, dtype=bool)
    # Hysteresis. A suppressed pixel counts as 0, so with low == 0 all are weak.
    weak = np.full(mag.shape, low == 0.0)
    weak.ravel()[edges] = True
    from scipy import ndimage

    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    kept = np.unique(labels.ravel()[strong])
    return np.isin(labels, kept[kept != 0])


@dataclass(frozen=True)
class ZnccResult:
    """Outcome of a correlation sweep: integer peak plus subpixel refinement."""

    dx: float
    dy: float
    score: float
    deviation: float

    def to_json(self) -> dict:
        out = asdict(self)
        out["deviation_px"] = out.pop("deviation")
        return out


def zncc_score(template: np.ndarray, image: np.ndarray, dx: int = 0, dy: int = 0) -> float:
    """ZNCC between ``template`` and the same-size patch of ``image`` whose
    center sits ``(dx, dy)`` away from the image center."""
    return _zncc(*_centre(np.asarray(template, dtype=np.float64)), np.asarray(image, dtype=np.float64), dx, dy)


def _centre(template: np.ndarray) -> tuple:
    """The zero-mean template and its sum of squares."""
    t0 = template - template.mean()
    return t0, float((t0 * t0).sum())


def _zncc(t0: np.ndarray, tv: float, image: np.ndarray, dx: int, dy: int) -> float:
    """``zncc_score`` of the template that ``_centre`` gave as ``(t0, tv)``."""
    th, tw = t0.shape
    ih, iw = image.shape
    x0 = (iw - tw) // 2 + dx
    y0 = (ih - th) // 2 + dy
    if x0 < 0 or y0 < 0 or x0 + tw > iw or y0 + th > ih:
        raise ValueError(f"offset ({dx}, {dy}) pushes the patch outside the image")
    p0, pv = _centre(image[y0 : y0 + th, x0 : x0 + tw])
    if tv <= VAR_EPS or pv <= VAR_EPS:
        raise ZeroVariance("constant patch under correlation")
    return float((t0 * p0).sum() / math.sqrt(tv * pv))


def _require_finite(reference: np.ndarray, target: np.ndarray) -> None:
    """Raise ``NonFiniteInput`` naming the input that holds a NaN or inf."""
    for name, img in (("reference", reference), ("target", target)):
        bad = int(np.count_nonzero(~np.isfinite(img)))
        if bad:
            raise NonFiniteInput(f"{name} image has {bad} non-finite pixels")


def _subpixel(s_minus: float, s0: float, s_plus: float) -> float:
    """Peak offset of the parabola through three samples, clamped to +/-0.5."""
    denom = s_minus - 2.0 * s0 + s_plus
    if denom >= 0.0:  # flat or not a maximum; stay on the integer peak
        return 0.0
    delta = 0.5 * (s_minus - s_plus) / denom
    return max(-0.5, min(0.5, delta))


def _zncc_map(t0: np.ndarray, tv: float, image: np.ndarray, r: int) -> np.ndarray:
    """ZNCC at every offset within ``r`` of the template ``_centre`` gave as
    ``(t0, tv)``: cell ``[dy + r, dx + r]`` holds ``zncc_score(template, image,
    dx, dy)``, NaN where it raises ``ZeroVariance``. Every value is within
    2.5e-10 of the exact score; the NaN cells are exactly ``zncc_score``'s.

    Lewis, "Fast Normalized Cross-Correlation" (1995): the numerators of all
    offsets come from one FFT correlation of the zero-mean template with the
    region every offset covers, and the patch variances from summed-area
    tables of that region. The region's mean is subtracted first to limit
    cancellation. A cell whose rounding bound is too wide to decide whether
    the patch is constant, or to keep its score within 2.5e-10, is settled by
    ``zncc_score`` itself. That happens when the patch holds a small share of
    the region's energy, e.g. when most of it sits in the 2r border strip. A
    blank target, one value over the region, needs one patch: every patch
    holds the same values in the same shape, so its sum of squares is
    ``zncc_score``'s at every offset (1280x720: about 0.05 s, no re-score).
    """
    th, tw = t0.shape
    ih, iw = image.shape
    y0, x0 = (ih - th) // 2 - r, (iw - tw) // 2 - r
    region = image[y0 : y0 + th + 2 * r, x0 : x0 + tw + 2 * r]
    size = 2 * r + 1
    if tv <= VAR_EPS or (region.min() == region.max() and _centre(region[:th, :tw])[1] <= VAR_EPS):
        return np.full((size, size), np.nan)

    g = region - region.mean()
    n = th * tw
    sq = g * g
    eps = np.finfo(np.float64).eps
    energy = float(sq.sum())

    from scipy import fft as sp_fft

    # Valid offsets never wrap, so the region's own size is enough padding.
    shape = tuple(sp_fft.next_fast_len(k, real=True) for k in g.shape)
    spectrum = sp_fft.rfft2(g, shape) * np.conj(sp_fft.rfft2(t0, shape))
    num = sp_fft.irfft2(spectrum, shape)[:size, :size]

    def box_sums(a):
        rows = a.cumsum(axis=0)  # of the summed-area table only rows 0..2r and th..th+2r are read
        top, bottom = np.zeros((2, size, a.shape[1] + 1))
        top[1:, 1:] = rows[: size - 1].cumsum(axis=1)
        bottom[:, 1:] = rows[-size:].cumsum(axis=1)
        return bottom[:, tw:] - top[:, tw:] - bottom[:, :-tw] + top[:, :-tw]

    pv = box_sums(sq) - box_sums(g) ** 2 / n
    # Rounding bound on pv, doubled: a summed-area entry errs by at most
    # (rows + cols) * eps times the sum of its terms' magnitudes; pv takes four
    # entries of sq and squares four of g, whose magnitude sum is at most
    # sqrt(g.size * sum(sq)). Patches this close to VAR_EPS are re-scored.
    tol = 2.0 * (g.shape[0] + g.shape[1]) * eps * energy
    tol *= 4.0 + 8.0 * math.sqrt(g.size / n)
    # Rounding bound on a numerator: each of the three FFTs of length N errs by
    # about 5 * eps * log2(N) relative to its input's 2-norm (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., sec. 24.1), and the
    # product with the template's spectrum grows that by at most sqrt(n).
    num_tol = 15.0 * eps * math.log2(shape[0] * shape[1]) * math.sqrt(n * energy * tv)
    pv_safe = np.maximum(pv, VAR_EPS)
    scores = num / np.sqrt(tv * pv_safe)
    # A pv error of tol / 2 moves a score by at most |score| * tol / (2 pv),
    # and a numerator error by num_tol / sqrt(tv * pv); both doubled.
    err = np.abs(scores) * tol / pv_safe + 2.0 * num_tol / np.sqrt(tv * pv_safe)
    _rescore(scores, t0, tv, image, np.argwhere((pv <= VAR_EPS + tol) | (err > 2.5e-10)))
    return scores


def _rescore(scores: np.ndarray, t0: np.ndarray, tv: float, image: np.ndarray, cells) -> None:
    """Overwrite ``scores`` at ``cells`` ((iy, ix) rows) with exact ``zncc_score``
    values, NaN where the patch is constant."""
    r = scores.shape[0] // 2
    for iy, ix in cells:
        try:
            scores[iy, ix] = _zncc(t0, tv, image, int(ix) - r, int(iy) - r)
        except ZeroVariance:
            scores[iy, ix] = np.nan


def check_search(search_radius: int, margin: int) -> None:
    """Raise ``ValueError`` unless ``0 <= search_radius <= margin``: every
    searched offset must keep the template inside the target."""
    if search_radius < 0:
        raise ValueError(f"search_radius must be >= 0, got {search_radius}")
    if margin < search_radius:
        raise ValueError(f"margin must be >= search_radius, got {margin} < {search_radius}")


def match_deviation(
    reference: np.ndarray,
    target: np.ndarray,
    search_radius: int = 16,
    margin: int = 32,
    smooth_sigma: float = 1.0,
) -> ZnccResult:
    """Locate ``reference``'s central patch inside ``target``.

    The central region of ``reference`` (inset by ``margin`` on every side) is
    correlated against ``target`` at every integer offset within
    ``search_radius``. Both inputs are blurred first so that binary edge maps
    gain correlation basin width. Returns the best offset, its score, and the
    Euclidean deviation in pixels.

    The score map comes from ``_zncc_map``; the peak, every offset tied with
    it, and the peak's four neighbours are re-scored exactly, so the reported
    score, the tie-break and the subpixel refinement use the values of a
    ``zncc_score`` sweep.
    """
    ref = np.asarray(reference, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if ref.shape != tgt.shape:
        raise InvalidInput(f"reference and target must have the same shape, got {ref.shape} and {tgt.shape}")
    check_search(search_radius, margin)
    if not 0.0 <= smooth_sigma < math.inf:
        raise ValueError(f"smooth_sigma must be finite and >= 0, got {smooth_sigma}")
    h, w = ref.shape
    if h <= 2 * margin or w <= 2 * margin:
        raise InvalidInput(f"image {w}x{h} too small for margin {margin}")
    _require_finite(ref, tgt)

    r = search_radius
    if smooth_sigma > 0:  # the template reads ref inside margin, the sweep tgt inside margin - r
        ref = _blur_inside(ref, smooth_sigma, margin)
        tgt = _blur_inside(tgt, smooth_sigma, margin - r)
    t0, tv = _centre(ref[margin : h - margin, margin : w - margin])
    size = 2 * r + 1
    scores = _zncc_map(t0, tv, tgt, r)
    if np.isnan(scores).all():
        raise AllOffsetsUnusable("every candidate patch was constant")
    # The map is within 2.5e-10 of the exact scores and zncc_score rounds far
    # less than that, so every offset whose zncc_score can reach the peak's
    # lies within 1e-9 of the map's peak.
    _rescore(scores, t0, tv, tgt, np.argwhere(scores >= np.nanmax(scores) - 1e-9))

    best = np.nanmax(scores)
    ties = np.argwhere(scores == best)
    # deterministic tie-break: smallest |offset|, then lexicographic (dy, dx)
    offsets = ties - r
    order = np.lexsort((offsets[:, 1], offsets[:, 0], (offsets**2).sum(axis=1)))
    iy, ix = ties[order[0]]
    dy, dx = int(iy) - r, int(ix) - r

    neighbours = [(y, x) for y, x in ((iy - 1, ix), (iy + 1, ix), (iy, ix - 1), (iy, ix + 1))
                  if 0 <= y < size and 0 <= x < size]
    _rescore(scores, t0, tv, tgt, neighbours)
    sub_x, sub_y = 0.0, 0.0
    if 0 < ix < size - 1 and np.isfinite(scores[iy, ix - 1]) and np.isfinite(scores[iy, ix + 1]):
        sub_x = _subpixel(scores[iy, ix - 1], scores[iy, ix], scores[iy, ix + 1])
    if 0 < iy < size - 1 and np.isfinite(scores[iy - 1, ix]) and np.isfinite(scores[iy + 1, ix]):
        sub_y = _subpixel(scores[iy - 1, ix], scores[iy, ix], scores[iy + 1, ix])

    fx, fy = dx + sub_x, dy + sub_y
    return ZnccResult(dx=fx, dy=fy, score=float(best), deviation=math.hypot(fx, fy))


def edge_deviation(
    reference: np.ndarray,
    target: np.ndarray,
    search_radius: int = 16,
    margin: int = 32,
    smooth_sigma: float = 1.0,
) -> ZnccResult:
    """Edge-domain alignment check: Canny both inputs, then correlate."""
    _require_finite(reference, target)
    ea = canny(reference).astype(np.float64)
    eb = canny(target).astype(np.float64)
    return match_deviation(ea, eb, search_radius, margin, smooth_sigma)


def event_frame_deviation(
    event_activity: np.ndarray,
    rgb_image: np.ndarray,
    search_radius: int = 16,
    margin: int = 32,
    smooth_sigma: float = 2.0,
) -> ZnccResult:
    """Alignment between an accumulated event frame and an RGB frame.

    Events fire where intensity edges move, so the accumulated activity map
    *is* already edge evidence — running an edge detector over it would split
    every smeared band into two contours and bias the correlation. Only the
    RGB side goes through Canny; the event side contributes its absolute
    activity directly, and both are smoothed so slightly different edge
    geometry still correlates by mass.
    """
    _require_finite(event_activity, rgb_image)
    activity = np.abs(np.asarray(event_activity, dtype=np.float64))
    edges = canny(rgb_image).astype(np.float64)
    return match_deviation(activity, edges, search_radius, margin, smooth_sigma)
