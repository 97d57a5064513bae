"""Accumulate events into images three ways and write them to disk.

A moving disk generates events along its leading and trailing edges; binning
those events per pixel gives an image. ``count`` shows activity, ``polarity``
keeps the sign (darkening vs brightening), ``binary`` just marks touched
pixels.
"""

import pathlib
import tempfile

import numpy as np

from evfuse import SceneSpec, accumulate, gen_scene, render_gray, write_pgm

scene = gen_scene(SceneSpec(pattern="disk", velocity=(180.0, 60.0)))
events = scene.stream.events
width, height = scene.spec.width, scene.spec.height
print(f"synthetic disk scene: {len(events)} events on a {width}x{height} canvas")

out_dir = pathlib.Path(tempfile.mkdtemp(prefix="evfuse_accum_"))
for mode in ("count", "polarity", "binary"):
    acc = accumulate(events, width, height, mode)
    image = render_gray(acc, mode)
    path = out_dir / f"all_events_{mode}.pgm"
    write_pgm(str(path), image)
    print(f"  {mode:8s} accumulator range [{acc.min():4d}, {acc.max():3d}] "
          f"-> gray range [{image.min():3d}, {image.max():3d}]  {path}")

# Polarity rendering is signed: 128 is "no net change", the disk's leading
# edge brightens (ON events) while the trailing edge darkens (OFF events).
acc = accumulate(events, width, height, "polarity")
on_px = int((acc > 0).sum())
off_px = int((acc < 0).sum())
print(f"\npolarity balance: {on_px} net-ON pixels vs {off_px} net-OFF pixels")
print(f"images written under {out_dir}")
