"""Lens and sensor arithmetic for fusion-rig planning.

Answers the questions that come up when pairing an event camera with an RGB
camera behind different optics: how big is an object on the sensor at a given
distance, what focal length on one sensor matches the field of view of
another (crop factor / effective focal length), and what FOV does a given
lens/sensor pair see.

Bundled presets describe the two sensors used throughout (``evk4`` DVS at
4.86 µm pitch, ``ximea`` RGB at 5.5 µm pitch) plus a lens table with
measured distortion and effective focal lengths; they live in
``data/presets.json`` so they can be edited without touching code.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from importlib import resources

# Below roughly this on-sensor extent, small fast objects stop producing
# enough intensity change to register, regardless of theoretical size.
MIN_DETECTABLE_PX = 3.0


@dataclass(frozen=True)
class SensorSpec:
    """Pixel grid plus photosite pitch (µm)."""

    width: int
    height: int
    pitch_um: float
    name: str = ""

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.pitch_um <= 0:
            raise ValueError("sensor dimensions and pitch must be positive")

    @property
    def diagonal_mm(self) -> float:
        return self.pitch_um * math.hypot(self.width, self.height) / 1000.0

    @property
    def width_mm(self) -> float:
        return self.pitch_um * self.width / 1000.0

    @property
    def height_mm(self) -> float:
        return self.pitch_um * self.height / 1000.0


@dataclass(frozen=True)
class LensSpec:
    """One lens: focal length plus informational distortion figure."""

    model: str
    focal_mm: float
    distortion_pct: float = 0.0
    effective_focal_mm: float | None = None

    def __post_init__(self):
        if self.focal_mm <= 0:
            raise ValueError("focal length must be positive")


def pixel_pitch(diagonal_mm: float, width_px: int, height_px: int) -> float:
    """Photosite pitch in µm from the sensor diagonal and resolution."""
    if diagonal_mm <= 0 or width_px <= 0 or height_px <= 0:
        raise ValueError("diagonal and resolution must be positive")
    return 1000.0 * diagonal_mm / math.hypot(width_px, height_px)


def object_extent_px(object_size_m: float, distance_m: float, focal_mm: float, pitch_um: float) -> float:
    """On-sensor extent in pixels of an object of ``object_size_m`` at
    ``distance_m``, under the thin-lens far-field approximation."""
    if min(object_size_m, distance_m, focal_mm, pitch_um) <= 0:
        raise ValueError("all inputs must be positive")
    if distance_m * 1000.0 <= focal_mm:
        raise ValueError("distance must exceed the focal length")
    image_size_mm = focal_mm * object_size_m / distance_m
    return image_size_mm * 1000.0 / pitch_um


def crop_factor(reference: SensorSpec, target: SensorSpec) -> float:
    """Diagonal ratio: how much longer the target's lens looks compared with
    the same lens on the reference sensor."""
    return reference.diagonal_mm / target.diagonal_mm


def effective_focal(focal_mm: float, ratio: float) -> float:
    """Focal length on the reference sensor that matches this lens/target FOV."""
    if focal_mm <= 0 or ratio <= 0:
        raise ValueError("focal length and ratio must be positive")
    return focal_mm * ratio


@dataclass(frozen=True)
class FieldOfView:
    horizontal_deg: float
    vertical_deg: float
    diagonal_deg: float

    def to_json(self) -> dict:
        return asdict(self)


def field_of_view(sensor: SensorSpec, focal_mm: float) -> FieldOfView:
    """Angular field of view of ``sensor`` behind a ``focal_mm`` lens."""
    if focal_mm <= 0:
        raise ValueError("focal length must be positive")

    def angle(extent_mm: float) -> float:
        return math.degrees(2.0 * math.atan(extent_mm / (2.0 * focal_mm)))

    return FieldOfView(
        horizontal_deg=angle(sensor.width_mm),
        vertical_deg=angle(sensor.height_mm),
        diagonal_deg=angle(sensor.diagonal_mm),
    )


# -- presets -----------------------------------------------------------------------


def load_presets() -> dict:
    text = resources.files("evfuse").joinpath("data/presets.json").read_text(encoding="utf-8")
    return json.loads(text)


def get_sensor(name: str) -> SensorSpec:
    presets = load_presets()
    try:
        raw = presets["sensors"][name.lower()]
    except KeyError:
        known = ", ".join(sorted(presets["sensors"]))
        raise KeyError(f"unknown sensor preset {name!r} (known: {known})") from None
    return SensorSpec(raw["width"], raw["height"], raw["pitch_um"], raw.get("name", name))


def get_lenses(camera: str | None = None) -> list:
    return [LensSpec(raw["model"], raw["focal_mm"], raw.get("distortion_pct", 0.0), raw.get("effective_focal_mm"))
            for raw in load_presets()["lenses"] if camera is None or raw.get("camera") == camera.lower()]
