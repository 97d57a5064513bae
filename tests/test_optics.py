"""Optics arithmetic tests.

The object-extent table, crop factors, and FOV values are checked against the
published reference numbers for the two bundled sensors; exact identities
(linearity, reciprocal crop factors) are checked algebraically.
"""

from __future__ import annotations

import math

import pytest

from evfuse.optics import (
    MIN_DETECTABLE_PX,
    FieldOfView,
    LensSpec,
    SensorSpec,
    crop_factor,
    effective_focal,
    field_of_view,
    get_lenses,
    get_sensor,
    load_presets,
    object_extent_px,
    pixel_pitch,
)

DVS_PITCH = 4.86

# (object m, distance m, focal mm, reference px) — published theory values.
EXTENT_TABLE = [
    (0.30, 100, 8, 5),
    (0.30, 100, 35, 22),
    (0.30, 100, 100, 61),
    (0.30, 300, 8, 1.6),
    (0.30, 300, 35, 7),
    (0.30, 300, 100, 20),
    (0.30, 350, 8, 1.4),
    (0.30, 350, 35, 6),
    (0.30, 350, 100, 18),
    (0.02, 10, 8, 3),
    (0.02, 10, 35, 14),
    (0.02, 10, 100, 41),
    (0.02, 30, 8, 1),
    (0.02, 30, 35, 5),
    (0.02, 30, 100, 14),
    (0.02, 100, 8, 0.3),
    (0.02, 100, 35, 1.4),
    (0.02, 100, 100, 4),
    (0.02, 400, 8, 0.08),
    (0.02, 400, 35, 0.35),
    (0.02, 400, 100, 1),
]

# (focal mm, published effective focal mm on the larger reference sensor)
EFFECTIVE_FOCAL_TABLE = [(8, 15), (35, 63), (50, 91), (75, 136), (100, 181)]


def test_pixel_pitch_reference_sensor():
    assert pixel_pitch(7.14, 1280, 720) == pytest.approx(4.86, abs=0.005)


def test_pixel_pitch_algebra():
    d, n = 10.0, 1000
    assert pixel_pitch(d, n, n) == pytest.approx(1000.0 * d / (n * math.sqrt(2.0)))
    assert pixel_pitch(d, 2 * n, 2 * n) == pytest.approx(pixel_pitch(d, n, n) / 2.0)


def test_extent_table_within_one_px():
    for size_m, dist_m, focal, ref in EXTENT_TABLE:
        px = object_extent_px(size_m, dist_m, focal, DVS_PITCH)
        assert abs(px - ref) <= 1.0, f"{size_m}m @ {dist_m}m, {focal}mm: {px:.2f} vs {ref}"


def test_extent_headline_value():
    # 30 cm at 100 m through 8 mm on 4.86 µm pitch: 4.94 px.
    px = object_extent_px(0.30, 100, 8, DVS_PITCH)
    assert f"{px:.2f}" == "4.94"


def test_extent_linearity_identities():
    base = object_extent_px(0.5, 50, 25, 5.0)
    assert object_extent_px(1.0, 50, 25, 5.0) == pytest.approx(2 * base)
    assert object_extent_px(0.5, 50, 50, 5.0) == pytest.approx(2 * base)
    assert object_extent_px(0.5, 100, 25, 5.0) == pytest.approx(base / 2)
    assert object_extent_px(0.5, 50, 25, 10.0) == pytest.approx(base / 2)


def test_extent_validates_inputs():
    with pytest.raises(ValueError):
        object_extent_px(0.3, 0.005, 8, 4.86)  # 5 mm distance < 8 mm focal
    with pytest.raises(ValueError):
        object_extent_px(-1, 10, 8, 4.86)


def test_detectability_threshold_constant():
    assert MIN_DETECTABLE_PX == 3.0
    # The published no-detection cases sit below it.
    assert object_extent_px(0.02, 100, 8, DVS_PITCH) < MIN_DETECTABLE_PX
    assert object_extent_px(0.30, 100, 8, DVS_PITCH) > MIN_DETECTABLE_PX


def test_crop_factor_between_bundled_sensors():
    evk4 = get_sensor("evk4")
    ximea = get_sensor("ximea")
    ratio = crop_factor(ximea, evk4)
    assert ratio == pytest.approx(1.787, abs=0.005)
    assert crop_factor(evk4, ximea) * ratio == pytest.approx(1.0)
    assert crop_factor(evk4, evk4) == 1.0


def test_effective_focal_matches_published_within_5pct():
    evk4 = get_sensor("evk4")
    ximea = get_sensor("ximea")
    ratio = crop_factor(ximea, evk4)
    for focal, ref in EFFECTIVE_FOCAL_TABLE:
        eff = effective_focal(focal, ratio)
        rel = abs(eff - ref) / ref
        assert rel < 0.05, f"{focal}mm -> {eff:.1f} vs {ref}"
        if focal >= 35:
            assert rel < 0.02


def test_field_of_view_evk4_8mm():
    fov = field_of_view(get_sensor("evk4"), 8.0)
    assert fov.horizontal_deg == pytest.approx(42.5, abs=0.1)
    assert fov.vertical_deg < fov.horizontal_deg < fov.diagonal_deg


def test_field_of_view_90_degrees():
    s = SensorSpec(1000, 1000, 16.0)  # 16 mm square extent
    fov = field_of_view(s, 8.0)
    assert fov.horizontal_deg == pytest.approx(90.0)
    assert fov.vertical_deg == pytest.approx(90.0)


def test_field_of_view_monotone_in_focal():
    s = get_sensor("evk4")
    assert field_of_view(s, 4.0).horizontal_deg > field_of_view(s, 8.0).horizontal_deg


def test_sensor_from_diagonal_roundtrip():
    s = SensorSpec(1280, 720, pixel_pitch(7.137, 1280, 720))
    assert s.pitch_um == pytest.approx(4.86, abs=0.005)
    assert s.diagonal_mm == pytest.approx(7.137, abs=1e-9)


def test_presets_structure():
    presets = load_presets()
    assert set(presets["sensors"]) == {"evk4", "ximea"}
    assert get_sensor("evk4").width == 1280
    assert get_sensor("ximea").pitch_um == 5.5
    lenses = get_lenses()
    assert len(lenses) == 9
    dvs_lenses = get_lenses("evk4")
    assert {l.focal_mm for l in dvs_lenses} == {8.0, 35.0, 50.0, 75.0, 100.0}
    assert all(l.effective_focal_mm is not None for l in dvs_lenses)
    with pytest.raises(KeyError):
        get_sensor("gopro")


def test_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec(0, 720, 4.86)
    with pytest.raises(ValueError):
        LensSpec("x", -8.0)
    with pytest.raises(ValueError):
        field_of_view(get_sensor("evk4"), 0.0)


def test_fov_json():
    js = FieldOfView(1.0, 2.0, 3.0).to_json()
    assert js == {"horizontal_deg": 1.0, "vertical_deg": 2.0, "diagonal_deg": 3.0}
