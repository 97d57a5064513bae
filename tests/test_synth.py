"""Scene-generator tests: conservation against a scalar reimplementation of
the threshold-with-carry rule, byte equality with a full-frame reference
generator at any batch budget, pinned bench-scene bytes and memory, stream
validity, and warped-view geometry."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from evfuse import cli, synth
from evfuse.geometry import pull_back, warp_points
from evfuse.labels import BoundingBox, iou
from evfuse.streams import EventStream, StreamHeader, make_events, make_triggers, validate_stream
from evfuse.sync import triggers_to_exposures
from evfuse.synth import (
    InvalidSpec,
    SceneResult,
    SceneSpec,
    _boundary_points,
    _exposure_table,
    _intensity,
    _runs,
    _saturated,
    _simulate,
    gen_scene,
    warp_view,
)

SMALL = SceneSpec(
    width=96,
    height=72,
    pattern="disk",
    pattern_size=24.0,
    velocity=(150.0, 40.0),
    duration_s=0.2,
    fps=20.0,
    exposure_us=4000,
    dt_us=1000,
)


def _scalar_recount(spec):
    """Independent per-pixel scalar model of the event emission rule: a step
    fires ``m = floor(|acc| / c)`` events, raised while the residual
    ``acc - sign(acc)*m*c`` still passes the firing test ``|acc| / c >= 1``."""
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width]
    xs = xs.astype(np.float64)
    ys = ys.astype(np.float64)
    n_steps = -(-spec.duration_us // spec.dt_us)
    samples = [
        np.log1p(_intensity(spec, xs, ys, float(k * spec.dt_us)))
        for k in range(n_steps + 1)
    ]
    total = 0
    pos = 0
    for py in range(spec.height):
        for px in range(spec.width):
            acc = 0.0
            for k in range(1, len(samples)):
                acc += samples[k][py, px] - samples[k - 1][py, px]
                m = math.floor(abs(acc) / spec.contrast)
                while abs(acc - math.copysign(m * spec.contrast, acc)) / spec.contrast >= 1:
                    m += 1
                if m:
                    if acc > 0:
                        pos += m
                    total += m
                    acc -= math.copysign(m * spec.contrast, acc)
    return total, pos


def _ref_simulate(spec: SceneSpec, h: np.ndarray | None, width: int, height: int) -> SceneResult:
    """Reference generator: every step evaluates the whole frame and scans
    every exposure. A step fires ``m = floor(|acc| / c)`` events per pixel,
    raised while the residual ``acc - sign(acc)*m*c`` still passes the firing
    test ``|acc| / c >= 1``. ``synth._simulate`` must reproduce it byte for
    byte."""
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
        while (more := np.abs(acc - np.sign(acc) * m * c) / c >= 1).any():
            m += more
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


ORACLE = SceneSpec(
    width=64, height=48, pattern_size=16.0, duration_s=0.1, fps=20.0, exposure_us=5000, dt_us=500,
)
# With this contrast a full fg -> bg change crosses 214 thresholds by
# floor(|acc| / c) and leaves a residual of 1.0000000000000004 thresholds: a
# 215th crossing, which must be stamped inside the step that made it.
REFIRE_CONTRAST = 0.0073941062388593855
REFIRE_SPEC = replace(
    ORACLE, pattern="rectangle", pattern_size=4.0, start=(10.0, 24.0), velocity=(24000.0, 0.0),
    contrast=REFIRE_CONTRAST,
)
# H's denominator 1 - 0.02 x + 0.0005 y vanishes on a line through the source
# canvas near x = 50, which the horizontal and diagonal sweeps' boxes cross
PROJECTIVE_H = np.array([[1.02, 0.03, 1.0], [-0.02, 0.98, 0.5], [-0.02, 0.0005, 1.0]])
ORACLE_H = {
    "none": None,
    "translation": np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "projective": PROJECTIVE_H,
}


def _assert_same_scene(got: SceneResult, want: SceneResult) -> None:
    assert got.stream == want.stream  # the dtype and every column of the events and the triggers
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.labels == want.labels
    assert got.exposures == want.exposures
    assert np.array_equal(got.homography, want.homography)


ORACLE_PATTERNS = {  # id -> (pattern, contrast)
    "disk": ("disk", ORACLE.contrast),
    "rectangle": ("rectangle", ORACLE.contrast),
    "checker": ("checker", ORACLE.contrast),
    # the checker's sharp cell edges leave residuals of a whole threshold at this contrast
    "checker-refire": ("checker", REFIRE_CONTRAST),
}
ORACLE_VELOCITIES = {"horizontal": (300.0, 0.0), "vertical": (0.0, -250.0), "diagonal": (220.0, 180.0)}
ORACLE_CHANGES = {
    "leaves": {"start": (40.0, 24.0), "velocity": (500.0, 100.0)},  # leaves the canvas
    "enters": {"start": (-30.0, 24.0), "velocity": (600.0, 0.0)},  # starts off it, then enters
    "off-canvas": {"start": (-200.0, -200.0), "velocity": (10.0, 10.0)},  # never on it
    "dt-700": {"dt_us": 700, "exposure_us": 2100, "fps": 30.0, "velocity": (180.0, -90.0)},
    "checker-dt-1000": {"pattern": "checker", "dt_us": 1000, "exposure_us": 3000, "pattern_size": 21.0, "width": 70},
    # 0.5 px per step from x = 20.5: at steps 0, 6, 12, ... pixels of the centre row (of every row, for the
    # rectangle) lie exactly pattern_size/2 -+ 0.5 off the centre, where coverage just reaches 1 and 0
    "outline-on-pixels": {"start": (20.5, 24.0), "velocity": (1000.0, 0.0)},
    "rectangle-outline-on-pixels": {"pattern": "rectangle", "start": (20.5, 24.0), "velocity": (1000.0, 0.0)},
    "larger-than-canvas": {"pattern_size": 100.0, "start": (-20.0, 30.0), "velocity": (300.0, -60.0)},
    # union boxes of about 84 x 87 px: runs of 16 steps, longer than union pixels x (steps + 1) <= 2^16 allows
    "long-runs": {"width": 120, "height": 90, "pattern_size": 80.0, "velocity": (300.0, 100.0)},
    # 40 steps per exposure: each spans three runs of 16 steps
    "exposure-spans-runs": {"exposure_us": 20_000},
    # no step between exposures: one closes and the next opens inside a batch
    "back-to-back-exposures": {"exposure_us": 50_000, "velocity": (300.0, 60.0)},
    "static": {"velocity": (0.0, 0.0)},
    # the reference view's pattern is last on the canvas at t = 52.5 ms, inside frame 1's exposure
    "leaves-during-exposure": {"start": (50.5, 24.0), "velocity": (400.0, 0.0)},
}


@pytest.mark.parametrize("h_name", sorted(ORACLE_H))
@pytest.mark.parametrize("velocity", list(ORACLE_VELOCITIES.values()), ids=list(ORACLE_VELOCITIES))
@pytest.mark.parametrize("pattern, contrast", list(ORACLE_PATTERNS.values()), ids=list(ORACLE_PATTERNS))
def test_simulate_matches_full_frame_reference(pattern, contrast, velocity, h_name):
    spec = replace(ORACLE, pattern=pattern, velocity=velocity, contrast=contrast)
    h = ORACLE_H[h_name]
    got = _simulate(spec, h, spec.width, spec.height)
    assert got.stream.n_events > 100
    _assert_same_scene(got, _ref_simulate(spec, h, spec.width, spec.height))


def _record_boxes(monkeypatch) -> list:
    """The shape of each run's box, appended as :func:`synth._runs` hands it to :func:`synth._saturated`."""
    shapes = []

    def saturated(spec, xs, ys, ca, cb):
        shapes.append(xs.shape)
        return _saturated(spec, xs, ys, ca, cb)

    monkeypatch.setattr(synth, "_saturated", saturated)
    return shapes


def test_projective_oracle_case_runs_the_full_frame_fallback(monkeypatch):
    spec = replace(ORACLE, velocity=(300.0, 0.0))
    n_steps = -(-spec.duration_us // spec.dt_us)
    shapes = {}
    for name in ("projective", "translation"):
        shapes[name] = _record_boxes(monkeypatch)
        ys, xs = pull_back(ORACLE_H[name], (spec.height, spec.width))
        list(_runs(spec, xs, ys, ORACLE_H[name], n_steps))
    assert (spec.height, spec.width) in shapes["projective"]
    assert (spec.height, spec.width) not in shapes["translation"]


@pytest.mark.parametrize("changes", list(ORACLE_CHANGES.values()), ids=list(ORACLE_CHANGES))
@pytest.mark.parametrize("h_name", sorted(ORACLE_H))
def test_simulate_matches_reference_at_canvas_edges_and_other_steps(changes, h_name):
    spec = replace(ORACLE, **changes)
    h = ORACLE_H[h_name]
    got = _simulate(spec, h, spec.width, spec.height)
    _assert_same_scene(got, _ref_simulate(spec, h, spec.width, spec.height))


ORACLE_CASES = [  # both oracle tests' cases, with their ids
    pytest.param(replace(ORACLE, pattern=pattern, contrast=contrast, velocity=velocity), h_name,
                 id=f"{pattern_id}-{velocity_id}-{h_name}")
    for pattern_id, (pattern, contrast) in ORACLE_PATTERNS.items()
    for velocity_id, velocity in ORACLE_VELOCITIES.items()
    for h_name in sorted(ORACLE_H)
] + [
    pytest.param(replace(ORACLE, **changes), h_name, id=f"{h_name}-{changes_id}")
    for changes_id, changes in ORACLE_CHANGES.items()
    for h_name in sorted(ORACLE_H)
]
# one step per run, and an odd budget whose runs end mid-sweep and hold three full-frame (64x48) samples
BATCH_BUDGETS = (1, 9999)


@pytest.mark.parametrize("spec, h_name", ORACLE_CASES)
def test_simulate_matches_reference_at_any_batch_budget(monkeypatch, spec, h_name):
    h = ORACLE_H[h_name]
    want = _ref_simulate(spec, h, spec.width, spec.height)
    for budget in BATCH_BUDGETS:
        monkeypatch.setattr(synth, "_BATCH_ELEMENTS", budget)
        _assert_same_scene(_simulate(spec, h, spec.width, spec.height), want)


@pytest.mark.parametrize("budget", BATCH_BUDGETS)
def test_runs_cover_every_step_and_batches_stay_within_the_budget(monkeypatch, budget):
    monkeypatch.setattr(synth, "_BATCH_ELEMENTS", budget)
    spec = replace(ORACLE, velocity=(300.0, 0.0))
    n_steps = -(-spec.duration_us // spec.dt_us)
    ys, xs = pull_back(PROJECTIVE_H, (spec.height, spec.width))
    shapes, runs, batches = _record_boxes(monkeypatch), [], []

    def recorded(*args):
        for run in _runs(*args):
            runs.append(run)
            yield run

    def intensity(spec, xs, ys, t_us):
        if np.ndim(t_us):  # a batch's steps, on its run's band
            batches.append((xs.size, np.size(t_us)))
        return _intensity(spec, xs, ys, t_us)

    monkeypatch.setattr(synth, "_runs", recorded)
    monkeypatch.setattr(synth, "_intensity", intensity)
    synth._changes(spec, xs, ys, PROJECTIVE_H, n_steps)
    assert [k0 for k0, _, _ in runs] == [1] + [k1 for _, k1, _ in runs[:-1]] and runs[-1][1] == n_steps + 1
    full = [shape == (spec.height, spec.width) for shape in shapes]
    assert any(full)
    before = _intensity(spec, xs, ys, 0.0)
    for (k0, k1, band), full_box in zip(runs, full, strict=True):
        assert (np.diff(band) > 0).all()
        if full_box:  # past the vanishing line a box is the full frame, but the band is not
            assert band.size < spec.width * spec.height / 4
        for k in range(k0, k1):  # every pixel whose intensity changes in a step is in the step's band
            now = _intensity(spec, xs, ys, k * float(spec.dt_us))
            assert np.isin(np.flatnonzero(now != before), band).all()
            before = now
    assert sum(steps for _, steps in batches) == n_steps
    assert all(steps == 1 or size * (steps + 1) <= budget for size, steps in batches)
    assert any(steps > 1 for _, steps in batches) == (budget > 1)


def test_bench_scene_evaluates_the_outline_band(monkeypatch):
    spec = SceneSpec(duration_s=1.0)  # the bench scene's reference view
    n_steps = -(-spec.duration_us // spec.dt_us)
    # each step's box: the pattern's at both ends of the step, 1.5 px more and a pixel's rounding, clipped
    cx, cy = spec.center_at(np.arange(n_steps + 1) * float(spec.dt_us))
    r = spec.pattern_size / 2.0 + 1.5
    area = 1
    for c, size in ((cx, spec.width), (cy, spec.height)):
        lo = np.clip(np.floor(np.minimum(c[:-1], c[1:]) - r - 1.0), 0, size)
        hi = np.clip(np.floor(np.maximum(c[:-1], c[1:]) + r + 1.0) + 1, 0, size)
        area = area * np.clip(hi - lo, 0, None)
    box_elements = spec.width * spec.height + int(area.sum())
    evaluated = []

    def counted(*args):
        out = _intensity(*args)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(synth, "_intensity", counted)
    gen_scene(spec)
    # evaluating every pixel of each step's box reads 1.0 or more
    assert sum(evaluated) <= 0.35 * box_elements


# sha256 of `evfuse synth -d a --width 240 --height 180 --duration-s 1 --translate 5,0 --warped-dir b`:
# each view's events.esf, and its 20 frame PGMs in frame order
BENCH_SCENE_SHA256 = {
    ("a", "events"): "6276ccb78e90a1ad18e194e938881d833f33ab56dc5bf704de698043aab0e731",
    ("a", "frames"): "6c0220211ce0c0dc0b9cadfda8a41f827b7f69772bf270bdee72143122016b62",
    ("b", "events"): "2bcc1e4d5eb1a789b582e547a8d60724a84b07ee2f888783cbf282959f0c52eb",
    ("b", "frames"): "a1dbd617390b531a420bbbaa1ce92044abf881905f4357cdec1563460d84d04e",
}


def test_bench_scene_outputs_are_pinned(tmp_path):
    argv = ["synth", "-d", str(tmp_path / "a"), "--width", "240", "--height", "180", "--duration-s", "1",
            "--translate", "5,0", "--warped-dir", str(tmp_path / "b")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    got = {}
    for view in "ab":
        got[view, "events"] = hashlib.sha256((tmp_path / view / "events.esf").read_bytes()).hexdigest()
        frames = hashlib.sha256()
        for k in range(20):
            frames.update((tmp_path / view / "frames" / f"frame_{k}.pgm").read_bytes())
        got[view, "frames"] = frames.hexdigest()
    assert got == BENCH_SCENE_SHA256


def test_bench_scene_memory_peak():
    spec = SceneSpec(duration_s=1.0)  # the bench scene's reference view
    tracemalloc.start()
    try:
        gen_scene(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 2**20


def test_simulate_matches_reference_when_a_residual_reaches_the_threshold():
    spec = REFIRE_SPEC
    want = _ref_simulate(spec, None, spec.width, spec.height)
    ev = want.stream.events
    # the 3x3 pixels the pattern covered at t=0 change fully in step 1
    covered = ev[(abs(ev["x"].astype(int) - 10) <= 1) & (abs(ev["y"].astype(int) - 24) <= 1)]
    pixels, counts = np.unique(np.asarray(covered)[["x", "y"]], return_counts=True)
    assert len(pixels) == 9 and (counts == 215).all()
    assert covered["t"].max() <= spec.dt_us
    assert not (covered["t"] == 2 * spec.dt_us).any()
    _assert_same_scene(_simulate(spec, None, spec.width, spec.height), want)


def test_event_conservation_against_scalar_model():
    disk = SceneSpec(
        width=48,
        height=36,
        pattern="disk",
        pattern_size=14.0,
        velocity=(200.0, 0.0),
        duration_s=0.1,
        fps=30.0,
        exposure_us=3000,
        dt_us=1000,
    )
    for spec in (disk, REFIRE_SPEC):
        res = gen_scene(spec)
        total, pos = _scalar_recount(spec)
        assert res.stream.n_events == total
        assert int((res.stream.events["p"] > 0).sum()) == pos


def test_stream_is_valid_and_sorted():
    res = gen_scene(SMALL)
    report = validate_stream(res.stream)
    assert report.ok, report.findings
    t = res.stream.events["t"].astype(np.int64)
    assert (np.diff(t) >= 0).all()
    assert res.stream.n_events > 1000  # the sweep actually produces data


def test_triggers_reproduce_exposure_table():
    res = gen_scene(SMALL)
    pairing = triggers_to_exposures(res.stream.triggers, channel=0)
    assert pairing.anomalies == []
    assert pairing.exposures == res.exposures
    assert len(res.exposures) == SMALL.n_frames


def test_static_scene_triggers_only():
    spec = SceneSpec(
        width=64, height=48, velocity=(0.0, 0.0), duration_s=0.2, fps=20.0,
        exposure_us=4000, dt_us=1000,
    )
    res = gen_scene(spec)
    assert res.stream.n_events == 0
    assert res.stream.n_triggers == 2 * spec.n_frames


def test_velocity_mirror_symmetry():
    fwd = gen_scene(SMALL)
    bwd = gen_scene(
        SceneSpec(**{**SMALL.__dict__, "velocity": (-SMALL.velocity[0], SMALL.velocity[1])})
    )
    # Mirrored sweep: same event count to within a few percent, and mean x
    # positions mirror about the canvas center.
    assert bwd.stream.n_events == pytest.approx(fwd.stream.n_events, rel=0.03)
    mx_f = fwd.stream.events["x"].mean()
    mx_b = bwd.stream.events["x"].mean()
    assert mx_f + mx_b == pytest.approx(SMALL.width - 1, abs=1.5)


def test_doubling_contrast_halves_events():
    res1 = gen_scene(SMALL)
    res2 = gen_scene(SceneSpec(**{**SMALL.__dict__, "contrast": 2 * SMALL.contrast}))
    assert res2.stream.n_events == pytest.approx(res1.stream.n_events / 2, rel=0.05)


def test_frames_show_the_pattern():
    res = gen_scene(SMALL)
    assert res.frames.shape == (SMALL.n_frames, SMALL.height, SMALL.width)
    assert res.frames.dtype == np.uint8
    for k, label in enumerate(res.labels):
        cx = int(label.x + label.w / 2)
        cy = int(label.y + label.h / 2)
        assert res.frames[k, cy, cx] > 150  # foreground
        assert res.frames[k, 2, 2] < 60  # background corner


def test_labels_track_the_motion():
    res = gen_scene(SMALL)
    xs = [l.x for l in res.labels]
    assert all(b > a for a, b in zip(xs, xs[1:]))  # moving right
    for label in res.labels:
        assert label.w == pytest.approx(SMALL.pattern_size, abs=0.5)
        assert label.class_name == "disk"


def test_identity_warp_is_exact():
    a = gen_scene(SMALL)
    b = warp_view(SMALL, np.eye(3))
    assert a.stream == b.stream
    assert np.array_equal(a.frames, b.frames)
    assert a.labels == b.labels


def test_translation_warp_shifts_frames_and_boxes():
    h = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    a = gen_scene(SMALL)
    b = warp_view(SMALL, h)
    # ground-truth boxes shift by exactly 5 px
    for la, lb in zip(a.labels, b.labels):
        assert lb.x == pytest.approx(la.x + 5.0, abs=1e-9)
        assert lb.y == pytest.approx(la.y, abs=1e-9)
    # frames shift by 5 px: compare overlapping slices
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fb[:, 5:], fa[:, :-5])


def test_scaling_warp_scales_boxes():
    h = np.diag([2.0, 2.0, 1.0])
    spec = SceneSpec(**{**SMALL.__dict__, "pattern": "rectangle"})
    a = gen_scene(spec)
    b = warp_view(spec, h, width=2 * spec.width, height=2 * spec.height)
    for la, lb in zip(a.labels, b.labels):
        assert lb.w == pytest.approx(2 * la.w, abs=1e-9)
        assert lb.h == pytest.approx(2 * la.h, abs=1e-9)
        assert lb.x == pytest.approx(2 * la.x, abs=1e-9)


def test_checker_pattern_emits_more_than_rectangle():
    rect = gen_scene(SceneSpec(**{**SMALL.__dict__, "pattern": "rectangle"}))
    check = gen_scene(SceneSpec(**{**SMALL.__dict__, "pattern": "checker"}))
    # internal cell edges add events beyond the outline alone
    assert check.stream.n_events > rect.stream.n_events * 0.5
    assert {b.class_name for b in check.labels} == {"checker"}


def test_label_iou_between_views_after_transfer():
    from evfuse.labels import transfer_box

    h = np.array([[1.1, 0.02, 4.0], [-0.01, 0.95, 2.0], [1e-5, 0.0, 1.0]])
    a = gen_scene(SMALL)
    b = warp_view(SMALL, h)
    for la, lb in zip(a.labels, b.labels):
        assert iou(transfer_box(h, la), lb) > 0.95


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        SceneSpec(pattern="triangle")
    with pytest.raises(InvalidSpec):
        SceneSpec(contrast=0.0)
    with pytest.raises(InvalidSpec):
        SceneSpec(duration_s=0.01, fps=20.0)  # < 2 frames
    with pytest.raises(InvalidSpec):
        SceneSpec(dt_us=6000, exposure_us=5000)
    with pytest.raises(InvalidSpec):
        SceneSpec(exposure_us=60_000, fps=20.0)  # exceeds 50 ms period
    with pytest.raises(InvalidSpec, match="contrast"):
        SceneSpec(contrast=1e-300)  # one step's crossings overflow int64
    with pytest.raises(InvalidSpec, match="width"):
        SceneSpec(width=4096, height=8)  # wider than any stream


NON_FINITE_SPEC = {  # field -> its value with one non-finite component
    "pattern_size": lambda v: v,
    "velocity": lambda v: (v, 0.0),
    "start": lambda v: (0.0, v),
    "duration_s": lambda v: v,
    "background": lambda v: v,
    "foreground": lambda v: v,
    "contrast": lambda v: v,
    "fps": lambda v: v,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_SPEC))
def test_non_finite_spec_values_are_rejected(field, value):
    with pytest.raises(InvalidSpec, match=field):
        SceneSpec(**{field: NON_FINITE_SPEC[field](value)})


def test_generation_is_deterministic():
    a = gen_scene(SMALL)
    b = gen_scene(SMALL)
    assert a.stream == b.stream
    assert np.array_equal(a.frames, b.frames)
