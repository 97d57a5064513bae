"""The fusion stage behind ``pipeline`` and ``accumulate``: each window of events rendered, checked
for alignment against its RGB frame and given that frame's boxes in event coordinates. No file I/O."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import alignment, frames, geometry, labels, streams, sync

NO_RGB = "no RGB frame"  # FusedFrame.skipped when the RGB source has no frame for the window


@dataclass(frozen=True)
class FusedFrame:
    """One window's rendered uint8 ``image``, its RGB ``boxes`` moved into event coordinates and clipped
    to the sensor, and its alignment ``check``; ``skipped`` says why a window with an RGB source has none."""

    window: sync.SyncWindow
    n_events: int
    image: np.ndarray
    boxes: tuple
    check: alignment.ZnccResult | None
    skipped: str | None

    def to_json(self) -> dict:
        """The window's entry in ``pipeline``'s ``summary.json``."""
        w, c = self.window, self.check
        entry = {"frame_id": w.frame_id, "window": {"t0": w.t0, "t1": w.t1}, "n_events": self.n_events,
                 "labels_out": [b.to_json() for b in self.boxes]}
        if c is not None:
            entry["deviation_px"] = round(c.deviation, 3)
            entry["offset"] = {"dx": round(c.dx, 3), "dy": round(c.dy, 3), "score": round(c.score, 4)}
        return entry


def fuse(stream: streams.EventStream, windows, rgb=None, h=None, boxes=(), mode="polarity",
         clip=frames.DEFAULT_CLIP, radius=16, margin=32, smooth_sigma=2.0, jobs=1):
    """Yield one :class:`FusedFrame` per window, in window order, fused on ``jobs`` threads.
    ``rgb(frame_id)`` gives that RGB frame as a float array, or None; without ``rgb`` no
    window is checked. ``h`` maps RGB to event coordinates (None: they agree): it moves ``boxes``,
    and its one pull-back per run, read-only and shared by the threads, warps every RGB frame."""
    width, height = stream.header.width, stream.header.height
    coords = geometry.pull_back(h, (height, width)) if rgb and h is not None else None
    by_frame = {}
    for box in boxes:
        by_frame.setdefault(box.frame_id, []).append(box)

    def one(w, sub):
        acc = frames.accumulate(sub, width, height, mode)
        target = rgb(w.frame_id) if rgb else None
        check, skipped = None, NO_RGB if rgb and target is None else None
        if target is not None:
            activity = acc if mode == "count" else frames.accumulate(sub, width, height, "count")
            target = target if coords is None else geometry.resample(target, coords)
            try:
                check = alignment.event_frame_deviation(activity, target, radius, margin, smooth_sigma)
            except alignment.AlignmentError as exc:
                skipped = str(exc)
        moved = (labels.clip_box(b if h is None else labels.transfer_box(h, b), width, height)
                 for b in by_frame.get(w.frame_id, ()))
        return FusedFrame(w, int(sub.shape[0]), frames.render_gray(acc, mode, clip),
                          tuple(b for b in moved if b is not None), check, skipped)

    per_window = sync.assign_events(stream.events, windows)
    if jobs == 1:  # no pool: a one-thread pool gains no speed and adds peak RSS
        yield from map(one, windows, per_window)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(one, windows, per_window)  # map() keeps window order
