"""The fusion stage as a library call: the frames ``evfuse pipeline`` reports."""

from __future__ import annotations

import json

import numpy as np

from evfuse import cli, codec, frames, fuse, geometry, labels, sync, synth


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
