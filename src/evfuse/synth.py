"""Synthetic moving-scene generator: ground truth for the whole toolkit.

A parametric pattern (disk, rectangle, or checker patch) slides across a
canvas. Per pixel, the generator integrates changes of log(I+1) and emits an
event each time the accumulated change crosses the contrast threshold, with
the timestamp linearly interpolated inside the sub-step — the standard
change-detector model. Alongside the events it produces exposure triggers,
time-averaged 8-bit frames, and analytic bounding-box labels, so
synchronization, calibration, and label-transfer claims can be tested without
hardware.

A second camera view is produced by mapping the *scene* through a homography
before rasterization (``warp_view``), not by resampling pixels or events, so
the ground-truth homography is exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import warp_points
from .labels import BoundingBox
from .streams import EventStream, StreamHeader, make_events, make_triggers
from .sync import ExposureInterval

PATTERNS = ("disk", "rectangle", "checker")


class InvalidSpec(Exception):
    pass


@dataclass(frozen=True)
class SceneSpec:
    """Parametric moving scene. Intensities are 8-bit-scale floats; velocity
    is px/s; ``start`` is the pattern center at t=0 (``None`` centers the
    whole sweep on the canvas)."""

    width: int = 240
    height: int = 180
    pattern: str = "disk"
    pattern_size: float = 40.0
    velocity: tuple = (120.0, 0.0)
    duration_s: float = 0.35
    background: float = 40.0
    foreground: float = 200.0
    contrast: float = 0.25
    fps: float = 20.0
    exposure_us: int = 5000
    dt_us: int = 500
    start: tuple | None = None

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise InvalidSpec(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.width <= 0 or self.height <= 0 or self.pattern_size <= 0:
            raise InvalidSpec("canvas and pattern size must be positive")
        if self.contrast <= 0:
            raise InvalidSpec("contrast threshold must be positive")
        if self.fps * self.duration_s < 2:
            raise InvalidSpec("need at least two frames (fps * duration >= 2)")
        if not 0 < self.dt_us <= self.exposure_us:
            raise InvalidSpec("need 0 < dt <= exposure")
        if self.exposure_us > self.period_us:
            raise InvalidSpec("exposure cannot exceed the frame period")
        if self.background < 0 or self.foreground < 0:
            raise InvalidSpec("intensities must be non-negative")

    @property
    def period_us(self) -> int:
        return int(round(1_000_000 / self.fps))

    @property
    def n_frames(self) -> int:
        return int(self.fps * self.duration_s)

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1_000_000))

    def center_at(self, t_us: float) -> tuple:
        if self.start is not None:
            sx, sy = self.start
        else:
            sx = self.width / 2.0 - self.velocity[0] * self.duration_s / 2.0
            sy = self.height / 2.0 - self.velocity[1] * self.duration_s / 2.0
        t_s = t_us / 1_000_000.0
        return sx + self.velocity[0] * t_s, sy + self.velocity[1] * t_s


@dataclass
class SceneResult:
    stream: EventStream
    frames: np.ndarray  # (n_frames, height, width) uint8
    exposures: list  # of ExposureInterval
    labels: list  # of BoundingBox
    spec: SceneSpec
    homography: np.ndarray = field(default_factory=lambda: np.eye(3))


def _coverage(spec: SceneSpec, xs: np.ndarray, ys: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """Pattern coverage in [0, 1] at (possibly warped) source coordinates,
    with a ~1 px linear ramp at the outline."""
    half = spec.pattern_size / 2.0
    if spec.pattern == "disk":
        dist = np.hypot(xs - cx, ys - cy)
        return np.clip(half + 0.5 - dist, 0.0, 1.0)
    covx = np.clip(half + 0.5 - np.abs(xs - cx), 0.0, 1.0)
    covy = np.clip(half + 0.5 - np.abs(ys - cy), 0.0, 1.0)
    cov = covx * covy
    if spec.pattern == "checker":
        cell = max(spec.pattern_size / 4.0, 1.0)
        pu = np.floor((xs - (cx - half)) / cell).astype(np.int64)
        pv = np.floor((ys - (cy - half)) / cell).astype(np.int64)
        cov = cov * ((pu + pv) % 2 == 0)
    return cov


def _intensity(spec: SceneSpec, xs: np.ndarray, ys: np.ndarray, t_us: float) -> np.ndarray:
    cx, cy = spec.center_at(t_us)
    cov = _coverage(spec, xs, ys, cx, cy)
    return spec.background + (spec.foreground - spec.background) * cov


def _boundary_points(spec: SceneSpec, t_us: float, n: int = 64) -> np.ndarray:
    """Sample points along the pattern outline at time t (source view)."""
    cx, cy = spec.center_at(t_us)
    half = spec.pattern_size / 2.0
    if spec.pattern == "disk":
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([cx + half * np.cos(ang), cy + half * np.sin(ang)], axis=1)
    # square outline: walk the perimeter, corners included
    per = np.linspace(0.0, 4.0, n, endpoint=False)
    side = np.floor(per).astype(int)
    f = per - side
    pts = np.empty((n, 2))
    for i, (s, fi) in enumerate(zip(side, f)):
        if s == 0:
            pts[i] = (cx - half + spec.pattern_size * fi, cy - half)
        elif s == 1:
            pts[i] = (cx + half, cy - half + spec.pattern_size * fi)
        elif s == 2:
            pts[i] = (cx + half - spec.pattern_size * fi, cy + half)
        else:
            pts[i] = (cx - half, cy + half - spec.pattern_size * fi)
    return pts


def _exposure_table(spec: SceneSpec) -> list:
    out = []
    for k in range(spec.n_frames):
        start = k * spec.period_us
        out.append(ExposureInterval(k, start, start + spec.exposure_us))
    return out


def _simulate(spec: SceneSpec, h: np.ndarray | None, width: int, height: int) -> SceneResult:
    """Core generator. ``h`` maps source-view coordinates to this view; the
    intensity field of this view is I(H^-1(x,y), t), evaluated analytically."""
    ys_i, xs_i = np.mgrid[0:height, 0:width]
    if h is None:
        hm = np.eye(3)
        xs, ys = xs_i.astype(np.float64), ys_i.astype(np.float64)
    else:
        hm = np.asarray(h, dtype=np.float64)
        pts = np.stack([xs_i.ravel(), ys_i.ravel()], axis=1).astype(np.float64)
        back = warp_points(np.linalg.inv(hm), pts)
        xs = back[:, 0].reshape(height, width)
        ys = back[:, 1].reshape(height, width)

    exposures = _exposure_table(spec)
    n_steps = -(-spec.duration_us // spec.dt_us)  # ceil division
    dt = spec.dt_us
    c = spec.contrast

    acc = np.zeros((height, width), dtype=np.float64)
    i_now = _intensity(spec, xs, ys, 0.0)
    log_prev = np.log1p(i_now)
    intensity_sum = np.zeros((spec.n_frames, height, width), dtype=np.float64)
    intensity_n = np.zeros(spec.n_frames, dtype=np.int64)
    # sample at t=0 contributes to any exposure starting at 0
    for k, exp in enumerate(exposures):
        if exp.start <= 0 < exp.end:
            intensity_sum[k] += i_now
            intensity_n[k] += 1

    ts_parts, xs_parts, ys_parts, ps_parts = [], [], [], []
    flat_x = xs_i.ravel()
    flat_y = ys_i.ravel()

    for step in range(1, n_steps + 1):
        t_now = step * dt
        i_now = _intensity(spec, xs, ys, float(t_now))
        log_now = np.log1p(i_now)
        delta = log_now - log_prev
        acc += delta
        m = np.floor(np.abs(acc) / c).astype(np.int64)
        fired = np.flatnonzero(m.ravel())
        if fired.size:
            m_f = m.ravel()[fired]
            a = (acc - delta).ravel()[fired]  # residual before this step
            d = delta.ravel()[fired]
            s = np.sign(acc.ravel()[fired]).astype(np.int8)
            total = int(m_f.sum())
            pix = np.repeat(fired, m_f)
            j = np.arange(total) - np.repeat(np.cumsum(m_f) - m_f, m_f) + 1
            frac = (np.repeat(s, m_f) * j * c - np.repeat(a, m_f)) / np.repeat(d, m_f)
            frac = np.clip(frac, np.finfo(np.float64).tiny, 1.0)
            t_ev = (t_now - dt) + np.floor(frac * dt).astype(np.int64)
            order = np.lexsort((pix, t_ev))
            ts_parts.append(t_ev[order].astype(np.uint64))
            xs_parts.append(flat_x[pix[order]])
            ys_parts.append(flat_y[pix[order]])
            ps_parts.append(np.repeat(s, m_f)[order])
            acc -= np.sign(acc) * m * c
        # accumulate frame integrals
        for k, exp in enumerate(exposures):
            if exp.start <= t_now < exp.end:
                intensity_sum[k] += i_now
                intensity_n[k] += 1
        log_prev = log_now

    if ts_parts:
        events = make_events(
            np.concatenate(ts_parts),
            np.concatenate(xs_parts),
            np.concatenate(ys_parts),
            np.concatenate(ps_parts),
        )
    else:
        events = make_events([], [], [], [])

    tr_t = np.repeat([e.start for e in exposures], 2).astype(np.uint64)
    tr_t[1::2] = [e.end for e in exposures]
    tr_edge = np.tile([1, 0], spec.n_frames)
    triggers = make_triggers(tr_t, tr_edge, np.zeros(2 * spec.n_frames))

    stream = EventStream(StreamHeader(width, height), events, triggers)

    frames = np.clip(
        np.rint(intensity_sum / intensity_n[:, None, None]), 0, 255
    ).astype(np.uint8)

    labels = []
    for exp in exposures:
        mid = (exp.start + exp.end) / 2.0
        pts = _boundary_points(spec, mid)
        if h is not None:
            pts = warp_points(hm, pts)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        labels.append(
            BoundingBox(exp.frame_id, spec.pattern, float(lo[0]), float(lo[1]), float(hi[0] - lo[0]), float(hi[1] - lo[1]))
        )

    return SceneResult(stream, frames, exposures, labels, spec, hm)


def gen_scene(spec: SceneSpec) -> SceneResult:
    """Generate the reference view of the scene."""
    return _simulate(spec, None, spec.width, spec.height)


def warp_view(spec: SceneSpec, h, width: int | None = None, height: int | None = None) -> SceneResult:
    """Generate the same scene as seen by a second camera related to the
    first by homography ``h`` (source -> second view)."""
    return _simulate(spec, h, width or spec.width, height or spec.height)
