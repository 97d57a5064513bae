"""The fusion stage as a library call: the frames ``evfuse pipeline`` reports."""

from __future__ import annotations

import json
import sys

import numpy as np

from evfuse import alignment, cli, codec, frames, fuse, geometry, labels, sync, synth


def test_fuse_in_memory_gives_the_pipeline_summary_frames(tmp_path):
    spec = synth.SceneSpec()
    scene = synth.gen_scene(spec)
    view = synth.warp_view(spec, np.array([[1.0, 0.02, 5.0], [0.0, 1.0, -2.0], [0.0, 0.0, 1.0]]))
    left_out = 3

    # The same inputs as files, for the command line.
    codec.write_esf(str(tmp_path / "events.esf"), scene.stream)
    (tmp_path / "rgb").mkdir()
    for i, image in enumerate(view.frames):
        if i != left_out:
            frames.write_pgm(str(tmp_path / "rgb" / f"frame_{i}.pgm"), image)
    labels.write_labels_json(str(tmp_path / "labels.json"), view.labels)
    geometry.save_homography(str(tmp_path / "h.json"), view.homography)
    assert cli.main(["pipeline", "--events", str(tmp_path / "events.esf"), "--frames-dir", str(tmp_path / "rgb"),
                     "--labels", str(tmp_path / "labels.json"), "--homography", str(tmp_path / "h.json"),
                     "--invert-homography", "-d", str(tmp_path / "out"), "--no-meta"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())

    wins = sync.windows(sync.triggers_to_exposures(scene.stream.triggers).exposures, sync.SyncMethod.CENTERED)

    def rgb(frame_id):
        return None if frame_id == left_out else view.frames[frame_id].astype(np.float64)

    fused = list(fuse.fuse(scene.stream, wins, rgb, np.linalg.inv(view.homography), view.labels))
    assert [f.to_json() for f in fused] == summary["frames"]
    assert [f.skipped for f in fused] == [fuse.NO_RGB if i == left_out else None for i in range(len(wins))]
    assert all(f.boxes for f in fused) and len(fused) == len(view.frames)


def _scene_windows(scene):
    return sync.windows(sync.triggers_to_exposures(scene.stream.triggers).exposures, sync.SyncMethod.CENTERED)


def test_fuse_without_homography_only_clips_the_boxes():
    scene = synth.gen_scene(synth.SceneSpec())
    spec = scene.spec
    # boxes past each edge, one wholly off the sensor; with h=None (RGB and event coordinates agree)
    extra = [labels.BoundingBox(1, "edge", -10.0, 170.0, 30.0, 20.0), labels.BoundingBox(2, "edge", 230.5, -4.0, 25.0, 8.0),
             labels.BoundingBox(2, "off", 300.0, 10.0, 5.0, 5.0)]
    boxes = scene.labels + extra
    fused = list(fuse.fuse(scene.stream, _scene_windows(scene), boxes=boxes))
    want = {}
    for b in boxes:
        clipped = labels.clip_box(b, spec.width, spec.height)
        if clipped is not None:
            want.setdefault(b.frame_id, []).append(clipped)
    assert [list(f.boxes) for f in fused] == [want.get(f.window.frame_id, []) for f in fused]
    assert fused[1].boxes[-1] == labels.BoundingBox(1, "edge", 0.0, 170.0, 20.0, 10.0)
    assert fused[2].boxes[-1] == labels.BoundingBox(2, "edge", 230.5, 0.0, 9.5, 4.0)


def test_fuse_checks_each_frame_against_its_warped_rgb_frame(monkeypatch):
    spec = synth.SceneSpec()
    scene = synth.gen_scene(spec)
    view = synth.warp_view(spec, np.array([[1.0, 0.02, 5.0], [0.0, 1.0, -2.0], [0.0, 0.0, 1.0]]))
    h = np.linalg.inv(view.homography)
    wins = _scene_windows(scene)
    want = []
    for w, sub in zip(wins, sync.assign_events(scene.stream.events, wins)):
        activity = frames.accumulate(sub, spec.width, spec.height, "count")
        target = geometry.warp_image(h, view.frames[w.frame_id].astype(np.float64), (spec.height, spec.width))
        want.append(alignment.event_frame_deviation(activity, target))

    pull_back, calls = geometry.pull_back, []
    monkeypatch.setattr(geometry, "pull_back", lambda *a: calls.append(a) or pull_back(*a))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often, all reading the one pull-back
    try:
        for jobs in (1, 4):
            fused = fuse.fuse(scene.stream, wins, lambda i: view.frames[i].astype(np.float64), h, jobs=jobs)
            assert [f.check for f in fused] == want
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 2  # one pull-back per run, not one per frame


def test_a_constant_rgb_frame_is_reported_and_left_out_of_the_median(tmp_path, capsys):
    # the README scene, planted 5 px shift, with one RGB frame blanked: its alignment check is unusable
    spec = synth.SceneSpec()
    scene = synth.gen_scene(spec)
    view = synth.warp_view(spec, np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    blank = 3
    rgb_frames = [np.full_like(f, 255) if i == blank else f for i, f in enumerate(view.frames)]

    fused = list(fuse.fuse(scene.stream, _scene_windows(scene), lambda i: rgb_frames[i].astype(np.float64)))
    assert [f.skipped for f in fused] == ["every candidate patch was constant" if i == blank else None
                                          for i in range(len(fused))]
    assert [f.check is None for f in fused] == [i == blank for i in range(len(fused))]

    codec.write_esf(str(tmp_path / "events.esf"), scene.stream)
    (tmp_path / "rgb").mkdir()
    for i, image in enumerate(rgb_frames):
        frames.write_pgm(str(tmp_path / "rgb" / f"frame_{i}.pgm"), image)
    capsys.readouterr()
    assert cli.main(["pipeline", "--events", str(tmp_path / "events.esf"), "--frames-dir", str(tmp_path / "rgb"),
                     "-d", str(tmp_path / "out"), "--no-meta"]) == 0
    warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert warnings == [{"level": "warning", "msg": "alignment check unusable for frame", "frame_id": blank,
                         "reason": "every candidate patch was constant"}]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["frames"] == [f.to_json() for f in fused]
    assert "deviation_px" not in summary["frames"][blank]
    others = [e["deviation_px"] for e in summary["frames"] if e["frame_id"] != blank]
    assert len(others) == len(fused) - 1
    assert summary["deviation_median_px"] == round(float(np.median(others)), 3)
