"""Bounding-box labels and their transfer between camera views."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInput, read_json
from .geometry import warp_box


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned box label on one frame. ``x, y`` is the top-left corner."""

    frame_id: int
    class_name: str
    x: float
    y: float
    w: float
    h: float
    score: float | None = None

    def to_json(self) -> dict:
        out = {"class" if k == "class_name" else k: v for k, v in asdict(self).items()}
        if self.score is None:
            del out["score"]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "BoundingBox":
        return cls(int(obj["frame_id"]), str(obj["class"]), *(float(obj[k]) for k in "xywh"),
                   float(obj["score"]) if "score" in obj else None)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes (0 when disjoint)."""
    x0 = max(a.x, b.x)
    y0 = max(a.y, b.y)
    x1 = min(a.x + a.w, b.x + b.w)
    y1 = min(a.y + a.h, b.y + b.h)
    if x1 <= x0 or y1 <= y0:
        return 0.0
    inter = (x1 - x0) * (y1 - y0)
    union = a.w * a.h + b.w * b.h - inter
    return float(inter / union) if union > 0 else 0.0


def transfer_box(h: np.ndarray, box: BoundingBox) -> BoundingBox:
    """Map a box into another view: warp the four corners, keep their hull."""
    x, y, w, bh = warp_box(h, box.x, box.y, box.w, box.h)
    return BoundingBox(box.frame_id, box.class_name, x, y, w, bh, box.score)


def transfer_boxes(h: np.ndarray, boxes) -> list:
    return [transfer_box(h, b) for b in boxes]


def clip_box(box: BoundingBox, width: int, height: int) -> BoundingBox | None:
    """Clip a box to the sensor; returns None when nothing remains."""
    x0 = max(box.x, 0.0)
    y0 = max(box.y, 0.0)
    x1 = min(box.x + box.w, float(width))
    y1 = min(box.y + box.h, float(height))
    if x1 <= x0 or y1 <= y0:
        return None
    return BoundingBox(box.frame_id, box.class_name, x0, y0, x1 - x0, y1 - y0, box.score)


def write_labels_json(path: str, boxes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([b.to_json() for b in boxes], fh, indent=2)
        fh.write("\n")


def read_labels_json(path: str) -> list:
    """Read a JSON list of box objects; anything else, or a box with a
    non-finite coordinate or score, is :class:`InvalidInput` naming the file."""
    data = read_json(path, "labels")
    try:
        boxes = [BoundingBox.from_json(obj) for obj in data]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"labels {path!r} must hold a JSON list of box objects ({exc!r})") from None
    for i, box in enumerate(boxes):
        for name, value in asdict(box).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidInput(f"labels {path!r} box {i}: {name} must be finite, got {value!r}")
    return boxes
