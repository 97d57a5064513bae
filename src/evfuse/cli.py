"""Command-line front end for the evfuse toolkit.

Conventions shared by every subcommand:

* exit status is 0 on success, 1 for usage errors, 2 for data errors: an
  ``EvfuseError`` or ``OSError`` (``InvalidInput`` names the input file and
  why); anything else is an evfuse bug, with a traceback and no JSON record;
* option values are checked by the parser, before any input is read, so a
  bad value is always a usage error: every numeric option declares its range
  through one rule (``_number``), and ``--method`` takes the window rule, a
  preset or a custom ``ANCHOR:PRE_US:POST_US`` window, through the library's
  one parser (``sync.parse_method``);
* options that would override one another are mutually exclusive, so giving
  both is a usage error naming both: ``optics``' modes and sensor sources,
  ``pipeline --homography``/``--points`` and ``synth --homography``/``--translate``;
* results go to stdout (or to files named by ``-o``/``--out-dir``);
* diagnostics are single-line JSON records on stderr, e.g.
  ``{"level": "warning", "msg": "..."}`` — never free-form prose;
* report JSON is serialized with sorted keys so identical inputs produce
  byte-identical bytes; ``--no-meta`` drops the provenance block (tool
  version, creation time, input paths) from reports that carry one.

The ``pipeline`` subcommand accepts ``--config FILE`` with a JSON object of
its "config options" (keys match the long flag names with ``-`` replaced by
``_``). The values become flags parsed before the command line's own, so
they are checked exactly like flags (``null`` keeps the default) and
explicit flags win, because argparse keeps an option's last occurrence; a
config value that excludes a given flag is a usage error like two flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from . import alignment, codec, frames, geometry, labels, optics, rate, sync, synth
from .errors import EvfuseError, InvalidInput, read_json, read_text
from .streams import MAX_SENSOR_DIM, N_CHANNELS, EventStream, LineRule, read_rows, validate_stream

OK = 0
USAGE_ERROR = 1
DATA_ERROR = 2

# Exceptions that mean "the inputs were bad", not "the invocation was bad".
_DATA_ERRORS = (EvfuseError, OSError)


def _diag(level: str, msg: str, **fields) -> None:
    """Write one single-line JSON diagnostic record to stderr."""
    rec = {"level": level, "msg": msg}
    rec.update(fields)
    print(json.dumps(rec, sort_keys=True), file=sys.stderr)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit(obj, path: str | None) -> None:
    """Write a JSON document to stdout or, when given, to ``path``."""
    _write_text(_dump_json(obj), path)


def _meta(**inputs) -> dict:
    clean = {k: v for k, v in inputs.items() if v is not None}
    return {
        "tool": f"evfuse {__version__}",
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "inputs": clean,
    }


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for
    data errors, so usage failures are remapped to status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _usage_fail(message)


def _usage_fail(message: str) -> "SystemExit":
    _diag("error", message, kind="usage")
    return SystemExit(USAGE_ERROR)


# -- small input parsers -----------------------------------------------------


def _number(convert, ok, expects: str):
    """argparse type: ``convert(text)``, which must satisfy ``ok``; anything
    else is a usage error saying what the option expects."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects {expects}, got {text!r}")

    return parse


_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_nonnegative_int = _number(int, lambda v: v >= 0, "an integer >= 0")
_sensor_dim = _number(int, lambda v: 0 < v <= MAX_SENSOR_DIM, f"an integer from 1 to {MAX_SENSOR_DIM}")
_channel = _number(int, lambda v: 0 <= v < N_CHANNELS, f"a trigger channel 0-{N_CHANNELS - 1}")
_positive_float = _number(float, lambda v: v > 0, "a positive number")  # inf: --saturation-evps flags no bin
_positive_finite = _number(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_blur_sigma = _number(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_probability = _number(float, lambda v: 0 < v < 1, "a number strictly between 0 and 1")
_pair = _number(lambda t: tuple(map(float, t.split(","))), lambda v: len(v) == 2, "'X,Y' numbers")
_wh = _number(lambda t: tuple(map(int, t.lower().split("x"))), lambda v: len(v) == 2 and min(v) > 0, "'WIDTHxHEIGHT'")


def _method(text: str):
    """argparse type for ``--method``: a :class:`sync.SyncMethod` preset or a :class:`sync.CustomWindow`."""
    try:
        return sync.parse_method(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


METHOD_HELP = ("window rule: a preset m1|m2|m3|m4 (exposure|frame_leading|centered|midpoint) "
               "or a custom ANCHOR:PRE_US:POST_US window, e.g. midpoint:5000:5000 (default: %(default)s)")


def _read_points_csv(path: str):
    """Correspondence CSV read by :func:`~evfuse.streams.read_rows`:
    ``src_x,src_y,dst_x,dst_y`` finite numbers per line, columns past the fourth ignored."""

    def parse(fields):
        row = [float(fields[k]) for k in range(4)]
        if not all(map(math.isfinite, row)):
            raise LineRule("needs finite numbers")
        return row

    rows = [row for _, row in read_rows(read_text(path, "points CSV"), parse, "points")]
    pts = np.array(rows, dtype=np.float64).reshape(-1, 4)
    return pts[:, :2], pts[:, 2:]


def _build_windows(stream: EventStream, windows_csv, channel: int, method, need_exposures=True):
    """Event windows for sync/accumulate/pipeline, as ``(exposures, windows)``.

    Windows come from ``windows_csv`` when given (exposures are then None).
    Otherwise the trigger edges on ``channel`` are paired, unpaired edges are
    reported as warnings, and ``method`` (a preset or a custom window) builds
    one window per exposure.
    """
    if windows_csv:
        return None, sync.read_windows_csv(read_text(windows_csv, "window CSV"))
    pairing = sync.triggers_to_exposures(stream.triggers, channel=channel)
    for a in pairing.anomalies:
        _diag("warning", "unpaired trigger edge", **a.to_json())
    if need_exposures and not pairing.exposures:
        raise sync.TooFewExposures("no exposures found on the selected trigger channel")
    return pairing.exposures, sync.windows(pairing.exposures, method)


# -- subcommands -------------------------------------------------------------


def cmd_decode(args) -> int:
    stream = codec.read_esf(args.esf)
    _write_text(codec.write_csv(stream), args.csv)
    _diag(
        "info",
        "decoded stream",
        n_events=int(stream.events.shape[0]),
        n_triggers=int(stream.triggers.shape[0]),
        width=stream.header.width,
        height=stream.header.height,
    )
    return OK


def cmd_encode(args) -> int:
    stream = codec.parse_csv(read_text(args.csv, "events CSV"), args.width, args.height)
    n_bytes = codec.write_esf(args.out, stream)
    _diag(
        "info",
        "encoded stream",
        n_events=int(stream.events.shape[0]),
        n_triggers=int(stream.triggers.shape[0]),
        n_bytes=n_bytes,
    )
    return OK


def cmd_info(args) -> int:
    stream = codec.read_esf(args.esf)
    ev, tr = stream.events, stream.triggers
    times = stream.merged_times()
    doc = {
        "width": stream.header.width,
        "height": stream.header.height,
        "n_events": int(ev.shape[0]),
        "n_triggers": int(tr.shape[0]),
        "t_first_us": int(times[0]) if times.size else None,
        "t_last_us": int(times[-1]) if times.size else None,
        "duration_us": int(times[-1] - times[0]) if times.size else 0,
        "file_bytes": Path(args.esf).stat().st_size,
    }
    _emit(doc, args.out)
    return OK


def cmd_validate(args) -> int:
    stream = codec.read_esf(args.esf)
    report = validate_stream(stream)
    _emit(report.to_json(), args.out)
    if not report.ok:
        _diag("error", "stream has structural findings", counts=report.counts())
        return DATA_ERROR
    return OK


def cmd_sync(args) -> int:
    stream = codec.read_esf(args.esf)
    exposures, wins = _build_windows(stream, None, args.channel, args.method, need_exposures=False)
    if args.exposures_out:
        Path(args.exposures_out).write_text(sync.write_exposures_csv(exposures), encoding="utf-8")
    counts = sync.window_counts(stream.events, wins)
    _write_text(sync.write_windows_csv(wins), args.out)
    _diag(
        "info",
        "built sync windows",
        n_exposures=len(exposures),
        n_windows=len(wins),
        n_events_assigned=int(counts.sum()),
    )
    return OK


def cmd_accumulate(args) -> int:
    stream = codec.read_esf(args.esf)
    _, wins = _build_windows(stream, args.windows, args.channel, args.method)
    width, height = stream.header.width, stream.header.height
    out_dir = Path(args.out_dir)
    (out_dir).mkdir(parents=True, exist_ok=True)
    per_window = sync.assign_events(stream.events, wins)
    entries = []
    for w, sub in zip(wins, per_window):
        acc = frames.accumulate(sub, width, height, args.mode)
        image = frames.render_gray(acc, args.mode, args.clip)
        path = out_dir / f"frame_{w.frame_id}.{args.format}"
        frames.write_image(str(path), image)
        entries.append(
            {
                "frame_id": w.frame_id,
                "window": {"t0": w.t0, "t1": w.t1},
                "n_events": int(sub.shape[0]),
                "path": str(path),
            }
        )
    _emit({"mode": args.mode, "frames": entries}, args.out)
    return OK


def cmd_calibrate(args) -> int:
    src, dst = _read_points_csv(args.points)
    if args.no_ransac:
        h = geometry.estimate_homography(src, dst)
        mask = None
    else:
        h, mask = geometry.estimate_homography_ransac(
            src,
            dst,
            threshold_px=args.threshold_px,
            max_iterations=args.iterations,
            confidence=args.confidence,
            seed=args.seed,
            min_inliers=args.min_inliers,
        )
    report = geometry.reprojection_stats(h, src, dst, mask)
    if args.out:
        geometry.save_homography(args.out, h)
    doc = {"homography": geometry.homography_to_json(h)["h"], "report": report.to_json()}
    _emit(doc, args.report_out)
    return OK


def _check_search(radius: int, margin: int) -> None:
    """Reject a search radius/margin pair before any input is read."""
    try:
        alignment.check_search(radius, margin)
    except ValueError as exc:
        raise _usage_fail(str(exc)) from None


def cmd_verify(args) -> int:
    _check_search(args.radius, args.margin)
    ref = frames.read_image(args.reference).astype(np.float64)
    tgt = frames.read_image(args.target).astype(np.float64)
    if args.mode == "edges":
        res = alignment.edge_deviation(
            ref, tgt, args.radius, args.margin, smooth_sigma=args.smooth_sigma
        )
    elif args.mode == "intensity":
        res = alignment.match_deviation(ref, tgt, args.radius, args.margin, args.smooth_sigma)
    else:  # activity: reference is an accumulated event frame
        res = alignment.event_frame_deviation(
            ref, tgt, args.radius, args.margin, smooth_sigma=args.smooth_sigma
        )
    _emit(res.to_json(), args.out)
    return OK


def cmd_rate(args) -> int:
    stream = codec.read_esf(args.esf)
    report = rate.rate_report(
        stream, encoding=args.encoding, bin_us=args.bin_us, saturation_evps=args.saturation_evps
    )
    if report.saturated:
        _diag("warning", "stream exceeds the saturation rate in some bins", n_bins=len(report.saturated_bins))
    if args.series_out:
        with open(args.series_out, "w", encoding="utf-8") as fh:
            rate.rate_series(stream.events, args.bin_us).to_csv(fh)
    _emit(report.to_json(), args.out)
    return OK


def cmd_erc(args) -> int:
    stream = codec.read_esf(args.esf)
    cfg = rate.ErcConfig(cap_evps=args.cap_evps, period_us=args.period_us)
    kept = rate.erc_filter(stream.events, cfg)
    filtered = EventStream(stream.header, kept, stream.triggers)
    n_bytes = codec.write_esf(args.out, filtered)
    doc = {
        "n_in": int(stream.events.shape[0]),
        "n_out": int(kept.shape[0]),
        "n_dropped": int(stream.events.shape[0] - kept.shape[0]),
        "cap_evps": args.cap_evps,
        "period_us": args.period_us,
        "out_bytes": n_bytes,
    }
    _emit(doc, None)
    return OK


def cmd_optics(args) -> int:
    if args.list:
        _emit(optics.load_presets(), args.out)
        return OK

    sensor = None
    if args.sensor:
        try:
            sensor = optics.get_sensor(args.sensor)
        except KeyError:
            raise _usage_fail(f"unknown sensor preset {args.sensor!r}") from None
    elif args.pitch_um and args.size:
        sensor = optics.SensorSpec(*args.size, args.pitch_um)
    pitch_um = sensor.pitch_um if sensor else args.pitch_um  # extent math needs only the pitch

    if args.object_m is not None:
        if args.distance_m is None or args.focal_mm is None or pitch_um is None:
            raise _usage_fail("extent mode needs --object-m, --distance-m, --focal-mm and a sensor (--sensor or --pitch-um)")
        try:
            px = optics.object_extent_px(args.object_m, args.distance_m, args.focal_mm, pitch_um)
        except ValueError as exc:  # the parser admits only positive values: the object is within the focal length
            raise _usage_fail(f"--distance-m {args.distance_m} with --focal-mm {args.focal_mm}: {exc}") from None
        print(f"{px:.2f} px")
        if px < optics.MIN_DETECTABLE_PX:
            _diag(
                "warning",
                "object spans fewer pixels than the detectability floor",
                extent_px=round(px, 3),
                min_px=optics.MIN_DETECTABLE_PX,
            )
        return OK

    if args.fov:
        if args.focal_mm is None or sensor is None:
            raise _usage_fail("fov mode needs --focal-mm and a full sensor (--sensor or --pitch-um with --size)")
        _emit(optics.field_of_view(sensor, args.focal_mm).to_json(), args.out)
        return OK

    # --crop: the parser requires exactly one of the four modes
    if sensor is None:
        raise _usage_fail("crop mode needs a full target sensor (--sensor or --pitch-um with --size)")
    try:
        reference = optics.get_sensor(args.reference)
    except KeyError:
        raise _usage_fail(f"unknown sensor preset {args.reference!r}") from None
    ratio = optics.crop_factor(reference, sensor)
    doc = {"reference": args.reference, "target": args.sensor, "crop_factor": round(ratio, 4)}
    if args.focal_mm is not None:
        doc["focal_mm"] = args.focal_mm
        doc["effective_focal_mm"] = round(optics.effective_focal(args.focal_mm, ratio), 2)
    _emit(doc, args.out)
    return OK


def _write_scene(out_dir: Path, result: synth.SceneResult) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    n_bytes = codec.write_esf(str(out_dir / "events.esf"), result.stream)
    (out_dir / "exposures.csv").write_text(sync.write_exposures_csv(result.exposures), encoding="utf-8")
    frame_dir = out_dir / "frames"
    frame_dir.mkdir(exist_ok=True)
    for i in range(result.frames.shape[0]):
        frames.write_pgm(str(frame_dir / f"frame_{i}.pgm"), result.frames[i])
    labels.write_labels_json(str(out_dir / "labels.json"), result.labels)
    geometry.save_homography(str(out_dir / "homography.json"), result.homography)
    return {
        "dir": str(out_dir),
        "n_events": int(result.stream.events.shape[0]),
        "n_triggers": int(result.stream.triggers.shape[0]),
        "n_frames": int(result.frames.shape[0]),
        "n_labels": len(result.labels),
        "esf_bytes": n_bytes,
    }


def cmd_synth(args) -> int:
    spec = synth.SceneSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(synth.SceneSpec)})
    result = synth.gen_scene(spec)
    summary = {"scene": _write_scene(Path(args.out_dir), result)}

    h = None
    if args.homography:
        h = geometry.load_homography(args.homography)
    elif args.translate:
        dx, dy = args.translate
        h = np.array([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]])
    if h is not None:
        if not args.warped_dir:
            raise _usage_fail("--homography/--translate needs --warped-dir for the second view")
        warped = synth.warp_view(spec, h)
        summary["warped"] = _write_scene(Path(args.warped_dir), warped)

    # Reproducibility: record the generating parameters next to the data.
    Path(args.out_dir, "scene.json").write_text(_dump_json(dataclasses.asdict(spec)), encoding="utf-8")

    _emit(summary, args.out)
    return OK


def cmd_label_transfer(args) -> int:
    boxes = labels.read_labels_json(args.labels)
    h = geometry.load_homography(args.homography)
    if args.invert:
        h = np.linalg.inv(h)
    out_boxes = labels.transfer_boxes(h, boxes)
    if args.clip:
        clipped = [labels.clip_box(b, *args.clip) for b in out_boxes]
        dropped = sum(1 for b in clipped if b is None)
        out_boxes = [b for b in clipped if b is not None]
        if dropped:
            _diag("warning", "boxes fell entirely outside the target canvas", n_dropped=dropped)
    labels.write_labels_json(args.out, out_boxes)
    _emit({"n_in": len(boxes), "n_out": len(out_boxes), "out": args.out}, None)
    return OK


# -- pipeline ----------------------------------------------------------------

def _config_argv(args, argv: list) -> list:
    """``argv`` with the ``--config`` object spliced in as flags right after
    the subcommand name.

    argparse then checks config values exactly like flags, and explicit flags
    win because argparse keeps the last occurrence. ``null`` keeps the
    default; ``true``/``false`` are accepted only by on/off switches.
    """
    config = read_json(args.config, "config")
    if not isinstance(config, dict):
        raise InvalidInput(f"config {args.config!r} must hold a JSON object, got {json.dumps(config):.60}")
    unknown = sorted(set(config) - set(args.config_options))
    if unknown:
        raise _usage_fail(f"unknown config keys: {', '.join(unknown)}")
    flags = []
    for key, value in config.items():
        action = args.config_options[key]
        switch = action.nargs == 0  # an on/off flag such as --invert-homography
        if value is None or (switch and value is False):
            continue  # the default
        if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            kind = "true or false" if switch else "a string or a number"
            raise _usage_fail(f"config key {key!r} expects {kind}, got {json.dumps(value)}")
        flag = action.option_strings[-1]
        flags.append(flag if switch else f"{flag}={value}")
    i = argv.index(args.command) + 1
    return argv[:i] + flags + argv[i:]


def cmd_pipeline(args) -> int:
    _check_search(args.radius, args.margin)
    stream = codec.read_esf(args.events)
    width, height = stream.header.width, stream.header.height

    if args.erc_cap_evps:
        cfg = rate.ErcConfig(cap_evps=args.erc_cap_evps, period_us=args.erc_period_us)
        kept = rate.erc_filter(stream.events, cfg)
        dropped = int(stream.events.shape[0] - kept.shape[0])
        if dropped:
            _diag("warning", "rate controller dropped events", n_dropped=dropped, cap_evps=cfg.cap_evps)
        stream = EventStream(stream.header, kept, stream.triggers)

    _, wins = _build_windows(stream, args.windows, args.channel, args.method)
    per_window = sync.assign_events(stream.events, wins)

    # Homography mapping RGB-frame coordinates into event coordinates.
    h = None
    calibration = None
    if args.homography:
        h = geometry.load_homography(args.homography)
        if args.invert_homography:
            h = np.linalg.inv(h)
    elif args.points:
        src, dst = _read_points_csv(args.points)
        h, mask = geometry.estimate_homography_ransac(src, dst, threshold_px=args.threshold_px, seed=args.seed)
        calibration = geometry.reprojection_stats(h, src, dst, mask).to_json()

    rgb_boxes = {}
    if args.labels:
        if h is None:
            raise _usage_fail("--labels needs a homography (--homography or --points)")
        for box in labels.read_labels_json(args.labels):
            rgb_boxes.setdefault(box.frame_id, []).append(box)

    out_dir = Path(args.out_dir)
    frame_dir = out_dir / "frames"
    frame_dir.mkdir(parents=True, exist_ok=True)
    frames_dir = Path(args.frames_dir) if args.frames_dir else None

    def _one(pair):
        w, sub = pair
        activity = frames.accumulate(sub, width, height, "count")
        render_acc = activity if args.mode == "count" else frames.accumulate(sub, width, height, args.mode)
        image = frames.render_gray(render_acc, args.mode, args.clip)
        frames.write_pgm(str(frame_dir / f"frame_{w.frame_id}.pgm"), image)

        entry = {
            "frame_id": w.frame_id,
            "window": {"t0": w.t0, "t1": w.t1},
            "n_events": int(sub.shape[0]),
            "labels_out": [],
        }

        rgb = None
        if frames_dir is not None:
            rgb_path = frames_dir / f"frame_{w.frame_id}.pgm"
            if rgb_path.exists():
                rgb = frames.read_image(str(rgb_path)).astype(np.float64)
                if h is None and rgb.shape != (height, width):
                    raise InvalidInput(f"RGB frame {str(rgb_path)!r} is {rgb.shape[1]}x{rgb.shape[0]}, not the event "
                                       f"sensor's {width}x{height}: map it with --homography or --points")
            else:
                _diag("warning", "no RGB frame for window", frame_id=w.frame_id, path=str(rgb_path))
        if rgb is not None:
            target = rgb if h is None else geometry.warp_image(h, rgb, out_shape=(height, width))
            try:
                res = alignment.event_frame_deviation(
                    activity,
                    target,
                    search_radius=args.radius,
                    margin=args.margin,
                    smooth_sigma=args.smooth_sigma,
                )
                entry["deviation_px"] = round(res.deviation, 3)
                entry["offset"] = {"dx": round(res.dx, 3), "dy": round(res.dy, 3), "score": round(res.score, 4)}
            except alignment.AlignmentError as exc:
                _diag("warning", "alignment check unusable for frame", frame_id=w.frame_id, reason=str(exc))

        for box in rgb_boxes.get(w.frame_id, ()):
            moved = labels.clip_box(labels.transfer_box(h, box), width, height)
            if moved is not None:
                entry["labels_out"].append(moved.to_json())
        return entry

    work = list(zip(wins, per_window))
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            entries = list(pool.map(_one, work))  # map() preserves frame order
    else:
        entries = [_one(p) for p in work]

    all_boxes = [labels.BoundingBox.from_json(b) for e in entries for b in e["labels_out"]]
    if rgb_boxes:
        labels.write_labels_json(str(out_dir / "labels.json"), all_boxes)

    summary = {
        "frames": entries,
        "rate": rate.rate_report(stream, encoding=args.encoding, bin_us=args.bin_us).to_json(),
    }
    if calibration is not None:
        summary["calibration"] = calibration
    deviations = [e["deviation_px"] for e in entries if "deviation_px" in e]
    if deviations:
        summary["deviation_median_px"] = round(float(np.median(deviations)), 3)
    if not args.no_meta:
        summary["meta"] = _meta(events=args.events, frames_dir=args.frames_dir, labels=args.labels)

    text = _dump_json(summary)
    (out_dir / "summary.json").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evfuse", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"evfuse {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        return p

    p = add("decode", cmd_decode, "decode an ESF-1 file to debug CSV")
    p.add_argument("esf", help="input .esf file")
    p.add_argument("--csv", default=None, metavar="PATH", help="CSV output path (default: stdout)")

    p = add("encode", cmd_encode, "encode debug CSV back into an ESF-1 file")
    p.add_argument("--csv", required=True, metavar="PATH", help="CSV input path")
    p.add_argument("--width", type=_sensor_dim, required=True, help="sensor width in pixels")
    p.add_argument("--height", type=_sensor_dim, required=True, help="sensor height in pixels")
    p.add_argument("-o", "--out", required=True, help="output .esf path")

    p = add("info", cmd_info, "print stream geometry, counts, and time span as JSON")
    p.add_argument("esf")
    p.add_argument("-o", "--out", default=None)

    p = add("validate", cmd_validate, "check time order, bounds, and trigger pairing")
    p.add_argument("esf")
    p.add_argument("-o", "--out", default=None)

    p = add("sync", cmd_sync, "pair trigger edges into exposures and build event windows")
    p.add_argument("esf")
    p.add_argument("--method", type=_method, default="m3", help=METHOD_HELP)
    p.add_argument("--channel", type=_channel, default=0, help="trigger channel 0-15 (default 0)")
    p.add_argument("--exposures-out", default=None, metavar="CSV", help="also write the exposure table")
    p.add_argument("-o", "--out", default=None, help="windows CSV output (default: stdout)")

    p = add("accumulate", cmd_accumulate, "accumulate events into per-frame images")
    p.add_argument("esf")
    p.add_argument("--windows", default=None, metavar="CSV", help="window CSV (frame_id,t0_us,t1_us)")
    p.add_argument("--method", type=_method, default="m3", help=METHOD_HELP)
    p.add_argument("--channel", type=_channel, default=0)
    p.add_argument("--mode", default="polarity", choices=["count", "polarity", "binary"])
    p.add_argument("--clip", type=_positive_int, default=frames.DEFAULT_CLIP, help="full-scale event count for rendering")
    p.add_argument("--format", default="pgm", choices=["pgm", "png"])
    p.add_argument("-d", "--out-dir", required=True, help="directory for frame_<id> images")
    p.add_argument("-o", "--out", default=None, help="summary JSON (default: stdout)")

    p = add("calibrate", cmd_calibrate, "fit a homography to point correspondences")
    p.add_argument("--points", required=True, metavar="CSV", help="src_x,src_y,dst_x,dst_y per line")
    p.add_argument("--no-ransac", action="store_true", help="plain least-squares fit on all points")
    p.add_argument("--threshold-px", type=_positive_finite, default=2.0)
    p.add_argument("--iterations", type=_positive_int, default=2000)
    p.add_argument("--confidence", type=_probability, default=0.999)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-inliers", type=int, default=5)
    p.add_argument("-o", "--out", default=None, metavar="H.json", help="write the fitted homography")
    p.add_argument("--report-out", default=None, help="report JSON (default: stdout)")

    p = add("verify", cmd_verify, "measure alignment deviation between two images")
    p.add_argument("reference", help="reference image (PGM/PNG)")
    p.add_argument("target", help="target image (PGM/PNG)")
    p.add_argument("--mode", default="edges", choices=["edges", "intensity", "activity"],
                   help="edges: Canny both; intensity: raw; activity: reference is an event-count frame")
    p.add_argument("--radius", type=_nonnegative_int, default=16, help="integer search radius in px")
    p.add_argument("--margin", type=_nonnegative_int, default=32, help="template inset from the reference border")
    p.add_argument("--smooth-sigma", type=_blur_sigma, default=1.0)
    p.add_argument("-o", "--out", default=None)

    p = add("rate", cmd_rate, "report event rate and bandwidth under an encoding")
    p.add_argument("esf")
    p.add_argument("--encoding", default="esf1", choices=["esf1", "fixed8"])
    p.add_argument("--bin-us", type=_positive_int, default=rate.DEFAULT_BIN_US)
    p.add_argument("--saturation-evps", type=_positive_float, default=rate.DEFAULT_SATURATION_EVPS)
    p.add_argument("--series-out", default=None, metavar="CSV", help="per-bin counts (bin_start_us,count)")
    p.add_argument("-o", "--out", default=None)

    p = add("erc", cmd_erc, "simulate the event-rate controller and write the thinned stream")
    p.add_argument("esf")
    p.add_argument("--cap-evps", type=_positive_int, default=rate.DEFAULT_ERC_CAP_EVPS)
    p.add_argument("--period-us", type=_positive_int, default=rate.DEFAULT_ERC_PERIOD_US)
    p.add_argument("-o", "--out", required=True, help="output .esf path")

    p = add("optics", cmd_optics, "lens/sensor resolvability math")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--object-m", type=_positive_finite, default=None, help="object size in meters (extent mode)")
    mode.add_argument("--fov", action="store_true", help="report field of view")
    mode.add_argument("--crop", action="store_true", help="report crop factor vs --reference")
    mode.add_argument("--list", action="store_true", help="dump sensor/lens presets as JSON")
    sensor = p.add_mutually_exclusive_group()
    sensor.add_argument("--sensor", default=None, help="sensor preset name (see --list)")
    sensor.add_argument("--pitch-um", type=_positive_finite, default=None, help="pixel pitch for a custom sensor")
    p.add_argument("--size", type=_wh, default=None, metavar="WxH", help="custom sensor resolution (for --fov and --crop)")
    p.add_argument("--distance-m", type=_positive_finite, default=None)
    p.add_argument("--focal-mm", type=_positive_finite, default=None)
    p.add_argument("--reference", default="ximea", help="reference sensor for --crop (default: ximea)")
    p.add_argument("-o", "--out", default=None)

    p = add("synth", cmd_synth, "generate a synthetic scene (events, frames, labels)")
    p.add_argument("-d", "--out-dir", required=True)
    for f in dataclasses.fields(synth.SceneSpec):  # one flag per scene parameter
        pair = f.default is None or isinstance(f.default, tuple)
        p.add_argument("--" + f.name.replace("_", "-"), type=_pair if pair else type(f.default), default=f.default,
                       choices=synth.PATTERNS if f.name == "pattern" else None, metavar="X,Y" if pair else None,
                       help=f"SceneSpec.{f.name} (default: %(default)s)")
    view = p.add_mutually_exclusive_group()
    view.add_argument("--homography", default=None, metavar="H.json", help="render a second view through this homography")
    view.add_argument("--translate", type=_pair, default=None, metavar="DX,DY", help="shortcut: second view offset in px")
    p.add_argument("--warped-dir", default=None, help="output directory for the second view")
    p.add_argument("-o", "--out", default=None)

    p = add("label-transfer", cmd_label_transfer, "map bounding boxes through a homography")
    p.add_argument("--labels", required=True, metavar="JSON")
    p.add_argument("--homography", required=True, metavar="H.json")
    p.add_argument("--invert", action="store_true", help="apply the inverse mapping")
    p.add_argument("--clip", type=_wh, default=None, metavar="WxH", help="clip boxes to this canvas, drop outsiders")
    p.add_argument("-o", "--out", required=True, help="output labels JSON")

    p = add("pipeline", cmd_pipeline, "events + frames -> windows, renders, labels, checks, rate")
    p.add_argument("--events", required=True, metavar="ESF")
    p.add_argument("-d", "--out-dir", required=True)
    p.add_argument("--config", default=None, metavar="JSON",
                   help="JSON object of the options below, checked like flags; explicit flags win")
    p.add_argument("--windows", default=None, metavar="CSV", help="explicit windows instead of trigger pairing")
    p.add_argument("--no-meta", action="store_true", help="omit the provenance block for byte-identical output")
    o = p.add_argument_group("config options", "also --config keys: the flag name without '--', '-' as '_'")
    h_source = o.add_mutually_exclusive_group()
    config_options = {}

    def opt(*flags, group=o, **kwargs):
        action = group.add_argument(*flags, **kwargs)
        config_options[action.dest] = action

    opt("--frames-dir", default=None, help="directory of RGB frame_<id>.pgm images")
    opt("--labels", default=None, metavar="JSON", help="RGB-side boxes to transfer")
    opt("--homography", group=h_source, default=None, metavar="H.json", help="maps RGB coords to event coords")
    opt("--points", group=h_source, default=None, metavar="CSV", help="estimate the homography from correspondences")
    opt("--invert-homography", action="store_true", help="the file stores event->RGB; invert it")
    opt("--method", type=_method, default="m3", help=METHOD_HELP)
    opt("--channel", type=_channel, default=0, help="trigger channel 0-15 (default: %(default)s)")
    opt("--mode", default="polarity", choices=["count", "polarity", "binary"], help="(default: %(default)s)")
    opt("--clip", type=_positive_int, default=frames.DEFAULT_CLIP, help="full-scale event count (default: %(default)s)")
    opt("--erc-cap-evps", type=_positive_int, default=None, help="pre-filter through the rate controller")
    opt("--erc-period-us", type=_positive_int, default=rate.DEFAULT_ERC_PERIOD_US, help="ERC period (default: %(default)s)")
    opt("--encoding", default="esf1", choices=["esf1", "fixed8"], help="bandwidth encoding (default: %(default)s)")
    opt("--bin-us", type=_positive_int, default=rate.DEFAULT_BIN_US, help="rate bin width (default: %(default)s)")
    opt("--radius", type=_nonnegative_int, default=16, help="integer search radius in px (default: %(default)s)")
    opt("--margin", type=_nonnegative_int, default=32, help="template inset from the border (default: %(default)s)")
    opt("--smooth-sigma", type=_blur_sigma, default=2.0, help="blur before matching (default: %(default)s)")
    opt("--threshold-px", type=_positive_finite, default=2.0, help="RANSAC inlier threshold (default: %(default)s)")
    opt("--seed", type=int, default=0, help="RANSAC seed (default: %(default)s)")
    opt("--jobs", type=_positive_int, default=1, help="frame worker threads (default: %(default)s)")
    p.set_defaults(config_options=config_options)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = parser.parse_args(_config_argv(args, argv))
        return args.func(args)
    except _DATA_ERRORS as exc:
        msg = str(exc) or exc.__class__.__name__
        _diag("error", msg, kind=exc.__class__.__name__)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
