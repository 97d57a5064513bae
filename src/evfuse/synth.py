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

Each time step evaluates only the pattern's box at both ends of the step
(mapped through the homography for the second view). That is exact: the
pattern's coverage is exactly 0 from ``pattern_size/2 + 0.5`` off its centre
on, so outside the box the intensity is exactly ``background`` at both ends,
the log-intensity change is exactly 0, and no pixel there can fire. A step
whose box crosses the homography's vanishing line, or follows a firing that
left a residual of a whole threshold, runs on the full frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvfuseError
from .geometry import warp_points
from .labels import BoundingBox
from .streams import EventStream, StreamHeader, make_events, make_triggers
from .sync import ExposureInterval

PATTERNS = ("disk", "rectangle", "checker")


class InvalidSpec(EvfuseError):
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
        for name in ("pattern_size", "velocity", "start", "duration_s", "background", "foreground", "contrast", "fps"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise InvalidSpec(f"{name} must be finite, got {value!r}")
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


def _step_boxes(spec: SceneSpec, hm: np.ndarray, width: int, height: int, n_steps: int) -> np.ndarray:
    """Row ``k`` is the ``(y0, y1, x0, x1)`` slice of the view of ``hm``
    outside which the intensity is exactly ``background`` at both ends of
    step ``k``. Row 0 (the t=0 sample) is empty, as is every row whose
    pattern is off the canvas; a row whose box cannot be mapped through
    ``hm`` is the full frame."""
    cx, cy = spec.center_at(np.arange(n_steps + 1) * float(spec.dt_us))
    # coverage is exactly 0 from pattern_size/2 + 0.5 off the centre; 1 px more for rounding
    r = spec.pattern_size / 2.0 + 1.5
    x0, x1 = np.minimum(cx[:-1], cx[1:]) - r, np.maximum(cx[:-1], cx[1:]) + r
    y0, y1 = np.minimum(cy[:-1], cy[1:]) - r, np.maximum(cy[:-1], cy[1:]) + r
    one = np.ones(n_steps)
    corners = np.stack([np.stack([x, y, one], axis=1) for x, y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1))])
    proj = corners @ hm.T  # (4, n_steps, 3)
    w = proj[..., 2]
    # With one sign of H's denominator on all four corners the box maps into
    # the bounding box of their images; otherwise it crosses H's vanishing line.
    mappable = (w > 0).all(axis=0) | (w < 0).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        px, py = proj[..., 0] / w, proj[..., 1] / w
    bounds = np.stack([py.min(axis=0) - 1.0, py.max(axis=0) + 1.0, px.min(axis=0) - 1.0, px.max(axis=0) + 1.0], axis=1)
    mappable &= np.isfinite(bounds).all(axis=1)
    bounds = np.where(mappable[:, None], np.floor(bounds) + [0, 1, 0, 1], [0, height, 0, width])
    bounds = np.clip(bounds, 0, [height, height, width, width]).astype(np.int64)
    return np.concatenate([np.zeros((1, 4), dtype=np.int64), bounds])


def _simulate(spec: SceneSpec, h: np.ndarray | None, width: int, height: int) -> SceneResult:
    """Core generator. ``h`` maps source-view coordinates to this view; the
    intensity field of this view is I(H^-1(x,y), t), evaluated analytically.
    Each step updates the full-frame ``i_now``, ``log_prev`` and ``acc`` in
    place inside its box from :func:`_step_boxes`, so the frame integrals add
    what a full-frame evaluation would."""
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
    boxes = _step_boxes(spec, hm, width, height, n_steps)
    dt = spec.dt_us
    c = spec.contrast

    acc = np.zeros((height, width), dtype=np.float64)
    i_now = _intensity(spec, xs, ys, 0.0)
    log_prev = np.log1p(i_now)
    intensity_sum = np.zeros((spec.n_frames, height, width), dtype=np.float64)
    intensity_n = np.zeros(spec.n_frames, dtype=np.int64)

    ts_parts, xs_parts, ys_parts, ps_parts = [], [], [], []
    flat_x = xs_i.ravel()
    flat_y = ys_i.ravel()
    refire = False

    for step in range(n_steps + 1):
        t_now = step * dt
        # Rounding can leave |acc| >= c after a firing; such a pixel fires
        # again on the next step wherever it is, so that step is full-frame.
        y0, y1, x0, x1 = (0, height, 0, width) if refire else boxes[step]
        if y0 < y1 and x0 < x1:
            box = np.s_[y0:y1, x0:x1]
            i_box = _intensity(spec, xs[box], ys[box], float(t_now))
            log_now = np.log1p(i_box)
            delta = log_now - log_prev[box]
            acc_box = acc[box] + delta
            m = np.floor(np.abs(acc_box) / c).astype(np.int64)
            fired = np.flatnonzero(m)
            refire = False
            if fired.size:
                m_f = m.ravel()[fired]
                acc_f = acc_box.ravel()[fired]
                d = delta.ravel()[fired]
                a = acc_f - d  # residual before this step
                s = np.sign(acc_f).astype(np.int8)
                total = int(m_f.sum())
                row, col = np.divmod(fired, x1 - x0)
                pix = np.repeat((row + y0) * width + (col + x0), m_f)
                j = np.arange(total) - np.repeat(np.cumsum(m_f) - m_f, m_f) + 1
                frac = (np.repeat(s, m_f) * j * c - np.repeat(a, m_f)) / np.repeat(d, m_f)
                frac = np.clip(frac, np.finfo(np.float64).tiny, 1.0)
                t_ev = (t_now - dt) + np.floor(frac * dt).astype(np.int64)
                order = np.lexsort((pix, t_ev))
                ts_parts.append(t_ev[order].astype(np.uint64))
                xs_parts.append(flat_x[pix[order]])
                ys_parts.append(flat_y[pix[order]])
                ps_parts.append(np.repeat(s, m_f)[order])
                acc_box -= np.sign(acc_box) * m * c
                refire = bool((np.abs(acc_box.ravel()[fired]) / c >= 1.0).any())
            acc[box] = acc_box
            i_now[box] = i_box
            log_prev[box] = log_now
        # accumulate frame integrals; exposures never overlap (exposure <= period)
        k, phase = divmod(t_now, spec.period_us)
        if k < spec.n_frames and phase < spec.exposure_us:
            intensity_sum[k] += i_now
            intensity_n[k] += 1

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
