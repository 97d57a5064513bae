"""Homography estimation and transfer tests.

Residual-statistic expectations come from direct computation: with isotropic
Gaussian noise of sigma on both coordinates, the per-axis scatter of the
residuals approaches sigma, while the scatter of the residual *norms* is the
Rayleigh spread ~0.655*sigma. The tests pin both behaviors separately.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from evfuse.geometry import (
    CalibrationReport,
    DegenerateConfiguration,
    NoConsensus,
    PointAtInfinity,
    TooFewPoints,
    estimate_homography,
    estimate_homography_ransac,
    homography_from_json,
    homography_to_json,
    load_homography,
    reprojection_stats,
    save_homography,
    warp_box,
    warp_image,
    warp_points,
)
from evfuse.labels import BoundingBox, clip_box, iou, transfer_box, write_labels_json


def _random_h(rng):
    """A well-conditioned random homography: similarity plus mild perspective."""
    angle = rng.uniform(-0.5, 0.5)
    scale = rng.uniform(0.7, 1.4)
    tx, ty = rng.uniform(-100, 100, size=2)
    h = np.array(
        [
            [scale * math.cos(angle), -scale * math.sin(angle), tx],
            [scale * math.sin(angle), scale * math.cos(angle), ty],
            [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
        ]
    )
    return h


def _grid_points(rng, n, width=1280, height=720):
    return rng.uniform([0, 0], [width, height], size=(n, 2))


# -- DLT ---------------------------------------------------------------------------


def test_dlt_recovers_exact_homography():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h_true = _random_h(rng)
        src = _grid_points(rng, 12)
        dst = warp_points(h_true, src)
        h = estimate_homography(src, dst)
        back = warp_points(h, src)
        assert np.abs(back - dst).max() < 1e-6


def test_dlt_four_point_minimal():
    h_true = np.array([[2.0, 0.0, 5.0], [0.0, 1.0, -3.0], [0.0, 0.0, 1.0]])
    src = np.array([[0, 0], [100, 0], [0, 100], [100, 100]], dtype=float)
    h = estimate_homography(src, warp_points(h_true, src))
    assert np.allclose(h, h_true, atol=1e-9)


def test_dlt_rejects_too_few():
    pts = np.zeros((3, 2))
    with pytest.raises(TooFewPoints):
        estimate_homography(pts, pts)


def test_dlt_rejects_collinear():
    src = np.array([[0, 0], [1, 1], [2, 2], [3, 3], [4, 4]], dtype=float)
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(src, src + 1.0)


def test_dlt_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        estimate_homography(np.zeros((4, 2)), np.zeros((5, 2)))


# -- residual statistics ------------------------------------------------------------


def test_reprojection_stats_hand_values():
    # Identity model, residual norms {0, 0, 2, 2}: mean 1, std 1, max 2.
    h = np.eye(3)
    src = np.array([[0, 0], [10, 10], [20, 20], [30, 30]], dtype=float)
    dst = src + np.array([[0, 0], [0, 0], [2, 0], [0, 2]], dtype=float)
    rep = reprojection_stats(h, src, dst)
    assert rep.mean_px == pytest.approx(1.0)
    assert rep.std_px == pytest.approx(1.0)
    assert rep.max_px == pytest.approx(2.0)
    assert rep.inliers == 4 and rep.total == 4
    js = rep.to_json()
    assert set(js) == {"mean_px", "std_px", "max_px", "std_axis_px", "inliers", "total"}


def test_reprojection_axis_std_tracks_noise_sigma():
    rng = np.random.default_rng(21)
    h_true = _random_h(rng)
    src = _grid_points(rng, 4000)
    dst = warp_points(h_true, src) + rng.normal(0.0, 0.5, size=(4000, 2))
    rep = reprojection_stats(h_true, src, dst)
    assert 0.45 < rep.std_axis_px < 0.55
    # Norm scatter is the Rayleigh spread, clearly below the axis sigma.
    assert 0.28 < rep.std_px < 0.38
    assert rep.mean_px == pytest.approx(0.5 * math.sqrt(math.pi / 2.0), rel=0.05)


def test_reprojection_stats_respects_mask():
    h = np.eye(3)
    src = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
    dst = src.copy()
    dst[3] += 100.0
    rep = reprojection_stats(h, src, dst, mask=np.array([True, True, True, False]))
    assert rep.max_px == 0.0 and rep.inliers == 3 and rep.total == 4


# -- RANSAC ------------------------------------------------------------------------


def test_ransac_recovers_planted_inliers():
    rng = np.random.default_rng(42)
    h_true = _random_h(rng)
    n_in, n_out = 350, 150
    src_in = _grid_points(rng, n_in)
    dst_in = warp_points(h_true, src_in) + rng.normal(0.0, 0.5, size=(n_in, 2))
    src_out = _grid_points(rng, n_out)
    # Outliers displaced well beyond the consensus threshold.
    dst_out = warp_points(h_true, src_out) + rng.uniform(8.0, 300.0, size=(n_out, 2)) * rng.choice(
        [-1.0, 1.0], size=(n_out, 2)
    )
    src = np.vstack([src_in, src_out])
    dst = np.vstack([dst_in, dst_out])
    planted = np.zeros(n_in + n_out, dtype=bool)
    planted[:n_in] = True

    h, mask = estimate_homography_ransac(src, dst, threshold_px=2.0, seed=0)
    assert np.array_equal(mask, planted)
    rep = reprojection_stats(h, src, dst, mask=mask)
    assert rep.mean_px < 1.0 and rep.inliers == n_in


def test_ransac_clean_data_keeps_everything():
    rng = np.random.default_rng(3)
    h_true = _random_h(rng)
    src = _grid_points(rng, 40)
    dst = warp_points(h_true, src)
    h, mask = estimate_homography_ransac(src, dst, threshold_px=1.0, seed=1)
    assert mask.all()
    assert np.abs(warp_points(h, src) - dst).max() < 1e-6


def test_ransac_no_consensus():
    rng = np.random.default_rng(9)
    src = _grid_points(rng, 30)
    dst = _grid_points(rng, 30)  # unrelated clouds
    with pytest.raises(NoConsensus):
        estimate_homography_ransac(src, dst, threshold_px=1e-9, max_iterations=50, seed=2)


def test_ransac_deterministic_for_seed():
    rng = np.random.default_rng(12)
    h_true = _random_h(rng)
    src = _grid_points(rng, 100)
    dst = warp_points(h_true, src) + rng.normal(0, 0.3, size=(100, 2))
    dst[:20] += 50.0
    h1, m1 = estimate_homography_ransac(src, dst, seed=5)
    h2, m2 = estimate_homography_ransac(src, dst, seed=5)
    assert np.array_equal(h1, h2) and np.array_equal(m1, m2)


# -- warps -------------------------------------------------------------------------


def test_warp_point_and_box_affine():
    h = np.array([[2.0, 0.0, 10.0], [0.0, 3.0, -5.0], [0.0, 0.0, 1.0]])
    assert warp_points(h, [[1.0, 1.0]]).tolist() == [[12.0, -2.0]]
    x, y, w, bh = warp_box(h, 0.0, 0.0, 10.0, 10.0)
    assert (x, y, w, bh) == (10.0, -5.0, 20.0, 30.0)


def test_warp_box_perspective_hull():
    # Pure perspective: corners map to different scales; hull must cover all.
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.001, 0.0, 1.0]])
    x, y, w, bh = warp_box(h, 100.0, 100.0, 100.0, 100.0)
    corners = warp_points(h, np.array([[100, 100], [200, 100], [100, 200], [200, 200]], dtype=float))
    assert x == pytest.approx(corners[:, 0].min())
    assert x + w == pytest.approx(corners[:, 0].max())
    assert y == pytest.approx(corners[:, 1].min())
    assert y + bh == pytest.approx(corners[:, 1].max())


def test_warp_point_at_infinity():
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.01, 0.0, 1.0]])
    with pytest.raises(PointAtInfinity):
        warp_points(h, [[100.0, 0.0]])


@pytest.mark.parametrize("x", [50.0, 99.0])
def test_warp_box_across_the_vanishing_line_raises(x):
    # w = 1 - x/100: the corners' w have mixed signs, so the box's image is unbounded
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.01, 0.0, 1.0]])
    with pytest.raises(PointAtInfinity, match="vanishing line"):
        warp_box(h, x, 10.0, 100.0, 20.0)
    # a box entirely on either side maps to a finite box
    assert warp_box(h, 0.0, 10.0, 50.0, 20.0) == pytest.approx((0.0, 10.0, 100.0, 50.0))
    assert warp_box(h, 150.0, 10.0, 50.0, 20.0) == pytest.approx((-300.0, -60.0, 100.0, 50.0))


def test_warp_box_results_are_pinned():
    # Seeded boxes and homographies, about one in seven crossing the vanishing line, plus boxes
    # with corners on it and within 1e-12 of it: the digest pins every float and every raise.
    rng = np.random.default_rng(20231103)
    scale = np.array([[0.3, 0.3, 50.0], [0.3, 0.3, 50.0], [3e-3, 3e-3, 0.3]])
    cases = []
    for _ in range(1000):
        h = np.eye(3) + rng.normal(size=(3, 3)) * scale
        x, y = rng.uniform(-200.0, 600.0, 2)
        w, bh = rng.uniform(0.0, 300.0, 2)
        cases.append((h, x, y, w, bh))
    line = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.01, 0.0, 1.0]])  # vanishing line x = 100
    cases += [(line, x, 10.0, 100.0 - x, 20.0) for x in (0.0, 99.9999999999, 100.0 - 1e-10, 100.0 - 1e-14)]
    cases += [(line, 100.0 + d, 10.0, 50.0, 20.0) for d in (0.0, 1e-14, 1e-10, 1e-8)]
    sha = hashlib.sha256()
    n_raised = 0
    for h, x, y, w, bh in cases:
        try:
            sha.update(np.array(warp_box(h, x, y, w, bh)).tobytes())
        except PointAtInfinity:
            n_raised += 1
            sha.update(b"raised")
    assert (n_raised, len(cases)) == (140, 1008)
    assert sha.hexdigest() == "c567408d46d562fdf3baab9522af62211cc4f9148f7319f0dc8af1500c1b01bb"


def test_warp_image_translation():
    h = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
    img = np.zeros((12, 12), dtype=np.uint8)
    img[4, 5] = 200
    out = warp_image(h, img)
    assert out[6, 8] == 200
    assert out.sum() == 200


def test_warp_image_identity_roundtrip():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    assert np.array_equal(warp_image(np.eye(3), img), img)


# -- serialization ------------------------------------------------------------------


def test_homography_json_roundtrip(tmp_path):
    h = np.array([[1.5, 0.1, 3.0], [0.0, 0.9, -2.0], [1e-5, 0.0, 1.0]])
    assert np.array_equal(homography_from_json(homography_to_json(h)), h)
    path = str(tmp_path / "cal.json")
    save_homography(path, h)
    assert np.array_equal(load_homography(path), h)


# -- labels -------------------------------------------------------------------------


def test_iou_values():
    a = BoundingBox(0, "drone", 0, 0, 10, 10)
    assert iou(a, a) == 1.0
    b = BoundingBox(0, "drone", 5, 0, 10, 10)
    assert iou(a, b) == pytest.approx(50.0 / 150.0)
    c = BoundingBox(0, "drone", 20, 20, 5, 5)
    assert iou(a, c) == 0.0


def test_transfer_box_identity_and_scale():
    box = BoundingBox(3, "drone", 10.0, 20.0, 30.0, 40.0, score=0.9)
    same = transfer_box(np.eye(3), box)
    assert same == box
    scaled = transfer_box(np.diag([2.0, 2.0, 1.0]), box)
    assert (scaled.x, scaled.y, scaled.w, scaled.h) == (20.0, 40.0, 60.0, 80.0)
    assert scaled.class_name == "drone" and scaled.score == 0.9


def test_clip_box():
    box = BoundingBox(0, "drone", -5.0, -5.0, 20.0, 20.0)
    clipped = clip_box(box, 100, 100)
    assert (clipped.x, clipped.y, clipped.w, clipped.h) == (0.0, 0.0, 15.0, 15.0)
    assert clip_box(BoundingBox(0, "drone", 200.0, 0.0, 10.0, 10.0), 100, 100) is None


def test_box_json_roundtrip():
    box = BoundingBox(2, "bullet", 1.5, 2.5, 3.0, 4.0, score=0.25)
    js = box.to_json()
    assert js["class"] == "bullet"
    assert BoundingBox.from_json(js) == box
    no_score = BoundingBox(2, "bullet", 1.5, 2.5, 3.0, 4.0)
    assert "score" not in no_score.to_json()
    assert BoundingBox.from_json(no_score.to_json()) == no_score


def test_box_from_json_reads_fields_in_order():
    # the first field that fails names the fault: frame_id before class, x before y
    with pytest.raises(ValueError):
        BoundingBox.from_json({"frame_id": "one"})
    with pytest.raises(KeyError, match="class"):
        BoundingBox.from_json({"frame_id": 1, "x": 0})
    with pytest.raises(ValueError):
        BoundingBox.from_json({"frame_id": 1, "class": "c", "x": "left"})
    with pytest.raises(TypeError):
        BoundingBox.from_json({"frame_id": 1, "class": "c", "x": 0, "y": 0, "w": 1, "h": 1, "score": None})


def test_labels_json_layout(tmp_path):
    path = tmp_path / "labels.json"
    write_labels_json(str(path), [BoundingBox(2, "bullet", 1.5, 2.5, 3.0, 4.0, score=0.25),
                                  BoundingBox(3, "disk", 0.0, -1.0, 2.0, 3.0)])
    assert path.read_bytes() == b"""[
  {
    "frame_id": 2,
    "class": "bullet",
    "x": 1.5,
    "y": 2.5,
    "w": 3.0,
    "h": 4.0,
    "score": 0.25
  },
  {
    "frame_id": 3,
    "class": "disk",
    "x": 0.0,
    "y": -1.0,
    "w": 2.0,
    "h": 3.0
  }
]
"""
