"""Planar homography estimation and geometric transfer between camera views.

Estimation is the standard normalized direct linear transform: points are
translated/scaled so each cloud has zero centroid and mean distance sqrt(2),
the 2n x 9 system is solved by SVD, and the result is denormalized. A RANSAC
wrapper makes the fit robust to mismatched correspondences.

Points are (n, 2) float arrays in pixel coordinates. Homographies are 3x3
float64 arrays mapping source pixels to destination pixels.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EvfuseError, InvalidInput, read_json


class GeometryError(EvfuseError):
    """Base class for estimation/transfer failures."""


class TooFewPoints(GeometryError):
    def __init__(self, n: int, needed: int = 4):
        self.n = n
        self.needed = needed
        super().__init__(f"homography needs at least {needed} correspondences, got {n}")


class DegenerateConfiguration(GeometryError):
    """The correspondences do not constrain a homography (e.g. collinear points)."""


class NoConsensus(GeometryError):
    """RANSAC found no model with enough inliers."""


class PointAtInfinity(GeometryError):
    """A warped point's homogeneous scale vanished."""


def _as_points(pts) -> np.ndarray:
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {arr.shape}")
    return arr


def _normalization(pts: np.ndarray) -> np.ndarray:
    """Similarity transform sending the cloud to zero mean, mean radius sqrt(2)."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge points overflow; estimate_homography rejects that
        centroid = pts.mean(axis=0)
        dist = np.linalg.norm(pts - centroid, axis=1).mean()
        scale = math.sqrt(2.0) / dist if dist > 1e-12 else 1.0
        tx, ty = -scale * centroid
    return np.array([[scale, 0.0, tx], [0.0, scale, ty], [0.0, 0.0, 1.0]])


def _apply_h(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    proj = np.hstack([pts, np.ones((pts.shape[0], 1))]) @ h.T
    w = proj[:, 2]
    bad = np.abs(w) <= 1e-12
    if bad.any():
        x, y = pts[np.argmax(bad)]
        raise PointAtInfinity(f"{int(bad.sum())} point(s) mapped to infinity, the first at (x={x:g}, y={y:g})")
    return proj[:, :2] / w[:, None]


def estimate_homography(src, dst) -> np.ndarray:
    """Fit the homography H with dst ~= H @ src by normalized DLT."""
    src, dst = _as_points(src), _as_points(dst)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have matching shapes")
    n = src.shape[0]
    if n < 4:
        raise TooFewPoints(n)

    t_src = _normalization(src)
    t_dst = _normalization(dst)
    sn = _apply_h(t_src, src)
    dn = _apply_h(t_dst, dst)

    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0] = -x
    a[0::2, 1] = -y
    a[0::2, 2] = -1.0
    a[0::2, 6] = u * x
    a[0::2, 7] = u * y
    a[0::2, 8] = u
    a[1::2, 3] = -x
    a[1::2, 4] = -y
    a[1::2, 5] = -1.0
    a[1::2, 6] = v * x
    a[1::2, 7] = v * y
    a[1::2, 8] = v

    if not np.isfinite(a).all():  # SVD would not converge
        raise DegenerateConfiguration("correspondences overflow float64 once normalized")
    _, s, vt = np.linalg.svd(a)
    rank = int((s > s[0] * 1e-9).sum()) if s[0] > 0 else 0
    if rank < 8:
        raise DegenerateConfiguration(f"correspondence matrix rank {rank} < 8 (collinear or repeated points?)")
    hn = vt[-1].reshape(3, 3)

    h = np.linalg.inv(t_dst) @ hn @ t_src
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    else:
        h = h / np.linalg.norm(h)
    return h


def estimate_homography_ransac(
    src,
    dst,
    threshold_px: float = 2.0,
    max_iterations: int = 2000,
    confidence: float = 0.999,
    seed: int = 0,
    min_inliers: int = 5,
):
    """Robust homography fit. Returns ``(H, inlier_mask)``.

    Random 4-point models are scored by how many correspondences reproject
    within ``threshold_px``; the consensus set of the best model is refit with
    the full DLT. Iteration stops early once the expected chance of having
    missed a better model drops below ``1 - confidence``. A model whose
    consensus never grows past its own 4-point sample is no consensus at all,
    hence ``min_inliers`` defaults to 5.
    """
    src, dst = _as_points(src), _as_points(dst)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have matching shapes")
    n = src.shape[0]
    if n < 4:
        raise TooFewPoints(n)

    rng = np.random.default_rng(seed)
    best_count = 0
    best_mask = None
    needed = max_iterations
    it = 0
    while it < min(needed, max_iterations):
        it += 1
        pick = rng.choice(n, size=4, replace=False)
        try:
            h = estimate_homography(src[pick], dst[pick])
            residual = np.linalg.norm(_apply_h(h, src) - dst, axis=1)
        except (DegenerateConfiguration, PointAtInfinity):
            continue
        mask = residual <= threshold_px
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            w = count / n
            if w >= 1.0:
                break
            # iterations needed so that P(all samples contaminated) < 1 - confidence
            denom = math.log1p(-(w**4))
            needed = math.ceil(math.log(1.0 - confidence) / denom) if denom < 0 else max_iterations

    if best_mask is None or best_count < max(min_inliers, 4):
        raise NoConsensus(f"no 4-point model reached {threshold_px}px consensus after {it} iterations")

    h = estimate_homography(src[best_mask], dst[best_mask])
    final_mask = np.linalg.norm(_apply_h(h, src) - dst, axis=1) <= threshold_px
    if int(final_mask.sum()) >= 4:
        h = estimate_homography(src[final_mask], dst[final_mask])
    else:
        final_mask = best_mask
    return h, final_mask


@dataclass(frozen=True)
class CalibrationReport:
    """Reprojection residual summary for a fitted homography.

    ``mean_px``/``std_px``/``max_px`` describe the per-point residual *norms*;
    ``std_axis_px`` is the pooled per-axis scatter about the axis means, which
    matches the noise sigma when errors are isotropic.
    """

    mean_px: float
    std_px: float
    max_px: float
    std_axis_px: float
    inliers: int
    total: int

    def to_json(self) -> dict:
        return asdict(self)


def reprojection_stats(h: np.ndarray, src, dst, mask=None) -> CalibrationReport:
    src, dst = _as_points(src), _as_points(dst)
    total = src.shape[0]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        src, dst = src[mask], dst[mask]
    if src.shape[0] == 0:
        raise ValueError("no points to evaluate")
    delta = _apply_h(h, src) - dst
    norms = np.linalg.norm(delta, axis=1)
    axis_var = delta.var(axis=0)  # population variance per axis
    return CalibrationReport(
        mean_px=float(norms.mean()),
        std_px=float(norms.std()),
        max_px=float(norms.max()),
        std_axis_px=float(math.sqrt(axis_var.mean())),
        inliers=int(src.shape[0]),
        total=int(total),
    )


# -- applying homographies ---------------------------------------------------------


def warp_points(h: np.ndarray, pts) -> np.ndarray:
    return _apply_h(np.asarray(h, dtype=np.float64), _as_points(pts))


def box_images(h: np.ndarray, boxes) -> tuple:
    """The ``(x0, y0, x1, y1)`` hulls of the corner images of ``(n, 4)`` such boxes
    through ``h`` (one ``(4n, 3) @ h.T`` product, as in ``_apply_h``), and a flag
    per box whose image is unbounded: ``h``'s denominator is within 1e-12 of 0
    on a corner or changes sign, so the box reaches ``h``'s vanishing line."""
    x0, y0, x1, y1 = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    one = np.ones_like(x0)
    corners = np.stack([x0, y0, one, x1, y0, one, x0, y1, one, x1, y1, one], axis=1).reshape(-1, 3)
    proj = (corners @ h.T).reshape(-1, 4, 3)
    w = proj[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = proj[..., :2] / w[..., None]
    unbounded = ~((w > 1e-12).all(axis=1) | (w < -1e-12).all(axis=1))
    return np.concatenate([xy.min(axis=1), xy.max(axis=1)], axis=1), unbounded


def warp_box(h: np.ndarray, x: float, y: float, w: float, bh: float) -> tuple:
    """Map an axis-aligned box through ``h``; returns the bounding box of the
    warped corners as ``(x, y, w, h)``, or raises :class:`PointAtInfinity`
    where :func:`box_images` finds the image unbounded."""
    (bounds,), (unbounded,) = box_images(np.asarray(h, dtype=np.float64), [x, y, x + w, y + bh])
    if unbounded:
        raise PointAtInfinity(f"box (x={x}, y={y}, w={w}, h={bh}) reaches the vanishing line: its image is unbounded")
    lx, ly, hx, hy = bounds.tolist()
    return lx, ly, hx - lx, hy - ly


def pull_back(h: np.ndarray, shape) -> np.ndarray:
    """Where each pixel of a ``(height, width)`` ``shape`` destination of ``h``
    comes from, ``H^-1 (x, y)``: a read-only ``(2, height, width)`` array of
    its source rows ``ys`` and columns ``xs``, the layout :func:`resample` reads.
    A pixel on the vanishing line of ``H^-1`` raises :class:`PointAtInfinity`
    naming the first such pixel in row-major order."""
    hy, wx = shape
    ys, xs = np.indices((hy, wx), dtype=np.float64).reshape(2, -1)
    back = _apply_h(np.linalg.inv(np.asarray(h, dtype=np.float64)), np.stack([xs, ys], axis=1))
    coords = back.T[::-1].reshape(2, hy, wx)
    coords.flags.writeable = False
    return coords


def resample(image: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Sample ``image`` bilinearly at the :func:`pull_back` ``coords``, 0 outside
    it; a uint8 image gives a rounded uint8 result."""
    from scipy import ndimage  # SciPy loads on first use: `import evfuse.cli` stays light

    out = ndimage.map_coordinates(np.asarray(image, dtype=np.float64), coords, order=1, mode="constant", cval=0.0)
    if image.dtype == np.uint8:
        return np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out


def warp_image(h: np.ndarray, image: np.ndarray, out_shape=None) -> np.ndarray:
    """Resample ``image`` into the destination frame of ``h`` (bilinear).

    Each destination pixel is pulled from ``H^-1 (x, y)`` in the source;
    pixels that map outside it are 0.
    """
    return resample(image, pull_back(h, np.shape(image) if out_shape is None else out_shape))


# -- serialization -------------------------------------------------------------------


def homography_to_json(h: np.ndarray) -> dict:
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (3, 3):
        raise ValueError("homography must be 3x3")
    return {"h": h.tolist()}


def homography_from_json(obj, what: str = "homography JSON") -> np.ndarray:
    """The matrix of ``{"h": [[...], [...], [...]]}``: 3x3, finite and invertible,
    so every later ``inv`` of it is safe.  Anything else is :class:`InvalidInput`
    naming ``what`` and the field."""
    if not isinstance(obj, dict) or "h" not in obj:
        raise InvalidInput(f"{what} must be an object with an 'h' field, got {obj!r:.60}")
    try:
        h = np.asarray(obj["h"], dtype=np.float64)
        np.linalg.inv(h)  # raises LinAlgError, a ValueError, on a singular matrix
    except (TypeError, ValueError):
        h = None
    if h is None or h.shape != (3, 3) or not np.isfinite(h).all():
        raise InvalidInput(f"{what}: field 'h' must be an invertible 3x3 matrix of finite numbers, got {obj['h']!r:.60}")
    return h


def save_homography(path: str, h: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(homography_to_json(h), fh, indent=2)
        fh.write("\n")


def load_homography(path: str) -> np.ndarray:
    return homography_from_json(read_json(path, "homography"), f"homography {str(path)!r}")
