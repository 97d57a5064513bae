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

Every view, the reference included, is rendered through its homography. A
time step's box is the pattern's box at both ends of the step, mapped through
that homography (the full frame where it crosses the vanishing line). That is
exact: the pattern's coverage is exactly 0 from ``pattern_size/2 + 0.5`` off
its centre on, so outside the box the intensity is exactly ``background`` at
both ends and the log-intensity change is exactly 0. Inside the box only the
outline band changes: coverage is exactly 1 up to ``pattern_size/2 - 0.5`` off
the centre (per axis for the rectangle), and a distance to the straight-moving
centre is convex in time, so over a run of steps a pixel inside at both ends
stays inside, and one whose end distances sum to more than ``pattern_size + 1``
plus the travel stays outside; only the other pixels are evaluated. A firing counts every
crossing its pixel's residual still passes the firing test for, so no residual
can fire by itself, and a pixel whose change is 0 never fires: the generator
works on the nonzero changes alone, per pixel, not step by step. A pixel that
no batch of an exposure evaluates holds one intensity through it, so its frame
value comes from one scalar running sum per saturated intensity; only the
bands, and any pixel at neither saturated intensity, are summed step by step.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvfuseError
from .geometry import box_images, pull_back, warp_points
from .labels import BoundingBox
from .streams import MAX_SENSOR_DIM, EventStream, StreamHeader, make_events, make_triggers
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
        for name in ("width", "height"):
            if not 0 < getattr(self, name) <= MAX_SENSOR_DIM:
                raise InvalidSpec(f"{name} must be from 1 to {MAX_SENSOR_DIM}, got {getattr(self, name)!r}")
        if self.pattern_size <= 0 or self.contrast <= 0:
            raise InvalidSpec("pattern size and contrast threshold must be positive")
        if self.fps * self.duration_s < 2:
            raise InvalidSpec("need at least two frames (fps * duration >= 2)")
        if not 0 < self.dt_us <= self.exposure_us:
            raise InvalidSpec("need 0 < dt <= exposure")
        if self.exposure_us > self.period_us:
            raise InvalidSpec("exposure cannot exceed the frame period")
        if self.background < 0 or self.foreground < 0:
            raise InvalidSpec("intensities must be non-negative")
        # one pixel crosses at most |log change| / contrast + 2 thresholds in a step, counted in int64
        if abs(math.log1p(self.foreground) - math.log1p(self.background)) / self.contrast + 2 >= 2**63:
            raise InvalidSpec(f"contrast {self.contrast!r} is too small: one step's crossings overflow int64")

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
    bounds, unbounded = box_images(hm, np.stack([x0, y0, x1, y1], axis=1))
    bounds = bounds[:, [1, 3, 0, 2]] + [-1.0, 1.0, -1.0, 1.0]
    mappable = ~unbounded & np.isfinite(bounds).all(axis=1)
    bounds = np.where(mappable[:, None], np.floor(bounds) + [0, 1, 0, 1], [0, height, 0, width])
    bounds = np.clip(bounds, 0, [height, height, width, width]).astype(np.int64)
    return np.concatenate([np.zeros((1, 4), dtype=np.int64), bounds])


def _saturated(spec: SceneSpec, xs: np.ndarray, ys: np.ndarray, ca: tuple, cb: tuple) -> np.ndarray:
    """Where the coverage is exactly 1 or exactly 0 at every step while the
    centre moves straight from ``ca`` to ``cb`` (the module docstring says
    why); a small margin errs toward evaluating."""
    half = spec.pattern_size / 2.0
    tol = 1e-6 + 1e-12 * max(map(abs, ca + cb))  # the centre's rounding off the straight line
    if spec.pattern == "disk":
        axes = [(np.hypot(xs - ca[0], ys - ca[1]), np.hypot(xs - cb[0], ys - cb[1]), math.dist(ca, cb))]
    else:  # the rectangle's coverage is a product of one factor per axis
        axes = [(np.abs(v - a), np.abs(v - b), abs(b - a)) for v, a, b in ((xs, ca[0], cb[0]), (ys, ca[1], cb[1]))]
    inside = spec.pattern != "checker"  # the checker's cells move inside the pattern
    outside = False
    for da, db, travel in axes:
        inside = inside & (np.maximum(da, db) <= half - 0.5 - tol)
        outside = outside | ((da + db - travel) / 2.0 >= half + 0.5 + tol)
    return inside | outside


_RUN_STEPS = 16  # steps per run at most: a run pays for one band test over its union box
_RUN_TRAVEL = 0.1  # of the pattern size, the centre's travel per run at most: the band widens with it
_BATCH_ELEMENTS = 1 << 16  # band pixels x (steps + 1) per batch of two or more steps: temporaries stay cache-sized


def _batches(spec: SceneSpec, xs: np.ndarray, ys: np.ndarray, boxes: np.ndarray):
    """Batches ``(k0, k1, at)`` of the steps ``k0 <= k < k1`` from step 1 on,
    each with the ascending ``(rows, cols)`` index ``at`` of the pixels of its
    run's union box that are not :func:`_saturated` over the run, or whose
    source coordinates are not finite: every pixel that can change in it."""
    height, width = xs.shape
    travel, step_travel = _RUN_TRAVEL * spec.pattern_size, math.hypot(*spec.velocity) * spec.dt_us / 1e6
    n = _RUN_STEPS if step_travel * _RUN_STEPS <= travel else max(int(travel / step_travel), 1)
    empty = (boxes[:, 0] >= boxes[:, 1]) | (boxes[:, 2] >= boxes[:, 3])
    rows = np.where(empty[:, None], [height, 0, width, 0], boxes)  # an empty box adds nothing to a union
    starts = np.arange(1, len(rows), n)
    lo, hi = np.minimum.reduceat(rows, starts), np.maximum.reduceat(rows, starts)
    nonfinite = ~(np.isfinite(xs) & np.isfinite(ys))
    for k0, y0, y1, x0, x1 in zip(starts.tolist(), lo[:, 0], hi[:, 1], lo[:, 2], hi[:, 3]):
        k1, box = min(k0 + n, len(rows)), np.s_[y0:y1, x0:x1]
        ca, cb = (spec.center_at((k - 1) * float(spec.dt_us)) for k in (k0, k1))
        row, col = np.nonzero(~_saturated(spec, xs[box], ys[box], ca, cb) | nonfinite[box])
        steps = max(_BATCH_ELEMENTS // max(row.size, 1) - 1, 1)
        for s0 in range(k0, k1, steps):
            yield s0, min(s0 + steps, k1), (row + y0, col + x0)


def _changes(spec: SceneSpec, xs: np.ndarray, ys: np.ndarray, boxes: np.ndarray) -> tuple:
    """Phase 1: the nonzero log(I+1) changes as ``(step, pixel, delta)``
    arrays, step-major and pixel-ascending, and the 8-bit frames. A batch
    evaluates its pixels alone: ``i_now`` and ``log_prev`` already hold the
    others' values, which its steps leave as they are. So an exposure sums
    step by step only the bands of its batches and any pixel at neither
    saturated intensity; every other pixel holds one saturated intensity
    throughout, whose running sum is one scalar sequence of float64 adds."""
    height, width = xs.shape
    # exposures never overlap (exposure <= period), and step 0 exposes frame 0
    frame, phase = np.divmod(np.arange(boxes.shape[0]) * spec.dt_us, spec.period_us)
    exposing = (frame < spec.n_frames) & (phase < spec.exposure_us)
    closing = exposing & np.append(~exposing[1:] | (frame[1:] != frame[:-1]), True)  # a frame's last step
    n_exposing = np.bincount(frame[exposing], minlength=spec.n_frames)
    frames = np.empty((spec.n_frames, height, width), dtype=np.uint8)
    i_now = _intensity(spec, xs, ys, 0.0)
    log_prev = np.log1p(i_now)
    now, prev, flat_xs, flat_ys = (a.reshape(-1) for a in (i_now, log_prev, xs, ys))
    saturated = spec.background + (spec.foreground - spec.background) * np.array([0.0, 1.0])  # as _intensity has them
    source = ((k0, k1, rows * width + cols) for k0, k1, (rows, cols) in _batches(spec, xs, ys, boxes))
    ahead = collections.deque()  # batches drawn early, to learn an exposure's bands
    summed = total = None  # the open exposure's summed pixels and their running sums

    def expose(k: int, k1: int, band: np.ndarray) -> None:
        """Add step ``k`` to its exposure; the batch running ``k`` ends before ``k1`` and evaluates ``band``."""
        nonlocal summed, total
        n = n_exposing[frame[k]]
        if summed is None:  # k opens the exposure, whose steps are k to k + n - 1
            while (ahead[-1][1] if ahead else k1) < k + n and (drawn := next(source, None)):
                ahead.append(drawn)
            mask = (now != saturated[0]) & (now != saturated[1])
            mask[np.concatenate([band] + [b for k0, _, b in ahead if k0 < k + n])] = True
            summed = np.flatnonzero(mask)
            total = np.zeros(summed.size)
        total += now[summed]
        if closing[k]:
            sums = np.zeros(2)
            for _ in range(n):
                sums += saturated
            level = np.clip(np.rint(sums / n), 0, 255).astype(np.uint8)
            out = frames[frame[k]]
            out.fill(level[0])
            np.copyto(out, level[1], where=i_now == saturated[1])
            out.reshape(-1)[summed] = np.clip(np.rint(total / n), 0, 255).astype(np.uint8)
            summed = None

    expose(0, 1, np.empty(0, dtype=np.int64))
    parts = []
    while batch := (ahead.popleft() if ahead else next(source, None)):
        k0, k1, band = batch
        i_band = _intensity(spec, flat_xs[band], flat_ys[band], np.arange(k0, k1)[:, None] * float(spec.dt_us))
        log_now = np.log1p(i_band)
        delta = np.diff(log_now, axis=0, prepend=prev[band][None])
        k, j = np.nonzero(delta)
        parts.append((k + k0, band[j], delta[k, j]))
        prev[band] = log_now[-1]
        for k in np.flatnonzero(exposing[k0:k1]):
            now[band] = i_band[k]
            expose(k0 + k, k1, band)
        now[band] = i_band[-1]
    parts = list(zip(*parts))  # each column's parts are freed once it is joined, before the next is
    return *(np.concatenate(parts.pop(0)) for _ in range(3)), frames


def _fire(pix: np.ndarray, delta: np.ndarray, c: float) -> tuple:
    """Phase 2: the firings, in change order, as the changes' indices, counts
    ``m``, signs, residuals before the step and deltas. The changed pixels
    are ordered once by change count, most first, so the pixels with an
    ``r``-th change are a prefix: rank ``r`` updates the prefix of the
    residuals in place."""
    by_pixel = np.argsort(pix, kind="stable")
    count = np.bincount(pix)
    count = count[count > 0]  # the changed pixels', ascending as in by_pixel
    first = (np.cumsum(count) - count)[np.argsort(-count, kind="stable")]
    n_live = first.size - np.cumsum(np.bincount(count))[:-1]  # rank r: the pixels with an r-th change
    acc = np.zeros(first.size)
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0), np.empty(0))]
    for r, n in enumerate(n_live.tolist()):
        ids = by_pixel[first[:n] + r]
        d = delta[ids]
        acc_r = acc[:n]
        acc_r += d
        m = np.floor(np.abs(acc_r) / c).astype(np.int64)
        fired = np.flatnonzero(m)
        m_f, acc_f = m[fired], acc_r[fired]
        s = np.sign(acc_f).astype(np.int8)
        # rounding can leave a residual that passes the firing test: one more crossing of this step
        while (more := np.abs(acc_f - s * m_f * c) / c >= 1).any():
            m_f = m_f + more
        parts.append((ids[fired], m_f, s, acc_f - d[fired], d[fired]))
        acc_r[fired] = acc_f - s * m_f * c
    ids, *rest = map(np.concatenate, zip(*parts))
    del by_pixel, parts  # the ordering below needs neither: freed, they keep the peak down
    order = np.argsort(ids)
    return ids[order], *(x[order] for x in rest)


def _simulate(spec: SceneSpec, h: np.ndarray | None, width: int, height: int) -> SceneResult:
    """Core generator. ``h`` maps source-view coordinates to this view
    (``None`` is the identity); the intensity field of this view is
    I(H^-1(x,y), t), evaluated analytically. Three phases: :func:`_changes`
    evaluates log(I+1) once per batch of steps, on the pixels whose coverage
    is not saturated over the batch's run; each delta is the same difference
    of the same floats as a per-step, full-frame evaluation takes, and each
    delta it skips is exactly 0, so the changes are bit-identical. :func:`_fire` runs the
    rule on every pixel's ``r``-th change at once: a pixel fires
    ``m = floor(|acc| / c)`` events, raised while the residual
    ``acc - sign(acc)*m*c`` still passes the firing test ``|acc| / c >= 1``.
    The emission stamps each event inside its step by linear interpolation
    and orders all of them with one sort."""
    hm = np.eye(3) if h is None else np.asarray(h, dtype=np.float64)
    ys, xs = pull_back(hm, (height, width))

    exposures = _exposure_table(spec)
    n_steps = -(-spec.duration_us // spec.dt_us)  # ceil division
    step, pix, delta, frames = _changes(spec, xs, ys, _step_boxes(spec, hm, width, height, n_steps))
    ids, m_f, s, a, d = _fire(pix, delta, spec.contrast)
    j = np.arange(int(m_f.sum())) - np.repeat(np.cumsum(m_f) - m_f, m_f) + 1
    frac = (np.repeat(s, m_f) * j * spec.contrast - np.repeat(a, m_f)) / np.repeat(d, m_f)
    frac = np.clip(frac, np.finfo(np.float64).tiny, 1.0)
    t_ev = (np.repeat(step[ids], m_f) - 1) * spec.dt_us + np.floor(frac * spec.dt_us).astype(np.int64)
    # In (step, pixel, crossing) order, with step k's stamps in [t_k - dt, t_k], a stable
    # sort by time gives each step's (time, pixel) order, step after step.
    order = np.argsort(t_ev, kind="stable")
    ev_y, ev_x = np.divmod(np.repeat(pix[ids], m_f)[order], width)
    events = make_events(t_ev[order], ev_x, ev_y, np.repeat(s, m_f)[order])

    tr_t = np.repeat([e.start for e in exposures], 2).astype(np.uint64)
    tr_t[1::2] = [e.end for e in exposures]
    tr_edge = np.tile([1, 0], spec.n_frames)
    triggers = make_triggers(tr_t, tr_edge, np.zeros(2 * spec.n_frames))

    stream = EventStream(StreamHeader(width, height), events, triggers)

    labels = []
    for exp in exposures:
        pts = warp_points(hm, _boundary_points(spec, (exp.start + exp.end) / 2.0))
        (lx, ly), (hx, hy) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        labels.append(BoundingBox(exp.frame_id, spec.pattern, lx, ly, hx - lx, hy - ly))

    return SceneResult(stream, frames, exposures, labels, spec, hm)


def gen_scene(spec: SceneSpec) -> SceneResult:
    """Generate the reference view of the scene: the identity view."""
    return _simulate(spec, np.eye(3), spec.width, spec.height)


def warp_view(spec: SceneSpec, h, width: int | None = None, height: int | None = None) -> SceneResult:
    """Generate the same scene as seen by a second camera related to the
    first by homography ``h`` (source -> second view)."""
    return _simulate(spec, h, width or spec.width, height or spec.height)
