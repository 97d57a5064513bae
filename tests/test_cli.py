"""Command-line interface: exit codes, output contracts, determinism."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfuse import cli, codec, frames, optics
from evfuse.codec import MalformedLine, parse_csv, read_esf
from evfuse.errors import EvfuseError
from evfuse.streams import CoordinateOutOfBounds, EventStream, StreamHeader, UnsortedInput, make_events, make_triggers
from evfuse.labels import iou, read_labels_json
from evfuse.sync import (CustomWindow, read_exposures_csv, read_windows_csv, triggers_to_exposures, windows,
                         write_windows_csv)
from evfuse.synth import SceneSpec

GOLDEN_SUMMARY = Path(__file__).with_name("golden_pipeline_summary.json")

SUBCOMMANDS = [
    "decode",
    "encode",
    "info",
    "validate",
    "sync",
    "accumulate",
    "calibrate",
    "verify",
    "rate",
    "erc",
    "optics",
    "synth",
    "label-transfer",
    "pipeline",
]


def run(argv):
    """Invoke the CLI in-process, normalizing SystemExit to an exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    return code


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """One synthetic scene pair (base + 5px-translated view), built via the CLI."""
    root = tmp_path_factory.mktemp("cliscene")
    a, b = root / "a", root / "b"
    code = run(
        ["synth", "-d", str(a), "--translate", "5,0", "--warped-dir", str(b), "-o", str(root / "synth.json")]
    )
    assert code == 0
    return root


def test_every_subcommand_has_help(capsys):
    for name in SUBCOMMANDS:
        assert run([name, "--help"]) == 0, name
        out = capsys.readouterr().out
        assert "usage:" in out


# one bad option value per subcommand, rejected by the parser before any input is read
BAD_OPTION = {
    "decode": ["decode", "a.esf", "--csv"],
    "encode": ["encode", "--csv", "a.csv", "--width", "0", "--height", "5", "-o", "b.esf"],
    "info": ["info", "a.esf", "-o"],
    "validate": ["validate", "a.esf", "-o"],
    "sync": ["sync", "a.esf", "--channel", "16"],
    "accumulate": ["accumulate", "a.esf", "-d", "out", "--mode", "heat"],
    "calibrate": ["calibrate", "--points", "p.csv", "--confidence", "1.5"],
    "verify": ["verify", "a.pgm", "b.pgm", "--radius", "-1"],
    "rate": ["rate", "a.esf", "--bin-us", "0"],
    "erc": ["erc", "a.esf", "-o", "b.esf", "--cap-evps", "0"],
    "optics": ["optics", "--fov", "--size", "0x5"],
    "synth": ["synth", "-d", "out", "--pattern", "blob"],
    "label-transfer": ["label-transfer", "--labels", "a.json", "--homography", "h.json", "-o", "b.json",
                       "--clip", "0x5"],
    "pipeline": ["pipeline", "--events", "a.esf", "-d", "out", "--jobs", "0"],
}


def _parsed(parser, argv):
    """``(exit status, stdout, stderr)`` of a parse that exits, as for help or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_lazy_parser_is_the_full_parser(name):
    lazy = cli.build_parser(name)
    assert _parsed(lazy, [name, "--help"]) == _parsed(cli.build_parser(), [name, "--help"])
    usage = _parsed(lazy, BAD_OPTION[name])
    assert usage == _parsed(cli.build_parser(), BAD_OPTION[name]) and usage[0] == cli.USAGE_ERROR
    other = next(n for n in SUBCOMMANDS if n != name)  # the lazy parser builds no other subcommand
    assert "invalid choice" in _parsed(lazy, [other, "--help"])[2]


@pytest.mark.parametrize("first", [None, "frobnicate", "-h", "--version"])
def test_parser_without_a_subcommand_first_lists_every_name(first):
    parser = cli.build_parser(first)
    status, listing, _ = _parsed(parser, ["-h", "pipeline"])
    assert status == 0 and listing == cli.build_parser().format_help()
    assert re.findall(r"^    (\S+)", listing, re.M) == SUBCOMMANDS
    status, _, err = _parsed(parser, ["frobnicate"])
    assert status == cli.USAGE_ERROR and all(repr(name) in err for name in SUBCOMMANDS)


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "evfuse" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    assert run([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_missing_input_file_is_data_error(capsys, tmp_path):
    assert run(["decode", str(tmp_path / "nope.esf")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    rec = json.loads(err[-1])
    assert rec["level"] == "error"


def test_corrupt_esf_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.esf"
    bad.write_bytes(b"NOPE" + bytes(40))
    assert run(["decode", str(bad)]) == 2
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["kind"] == "BadMagic"


def test_bad_flag_value_is_usage_error(scene):
    esf = str(scene / "a" / "events.esf")
    assert run(["sync", esf, "--method", "m9"]) == 1


def test_decode_encode_round_trip_is_byte_identical(scene, tmp_path, capsys):
    esf = scene / "a" / "events.esf"
    csv = tmp_path / "dump.csv"
    out = tmp_path / "back.esf"
    assert run(["decode", str(esf), "--csv", str(csv)]) == 0
    assert run(["info", str(esf)]) == 0
    info = json.loads(capsys.readouterr().out)
    size = ["--width", str(info["width"]), "--height", str(info["height"])]
    assert run(["encode", "--csv", str(csv)] + size + ["-o", str(out)]) == 0
    assert out.read_bytes() == esf.read_bytes()
    # the esf1 mean counts every byte of the file over the report's own duration
    assert run(["rate", str(esf), "--encoding", "esf1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mean_Bps"] == info["file_bytes"] * 1_000_000 / report["duration_us"]


def test_info_reports_geometry_and_counts(scene, capsys):
    assert run(["info", str(scene / "a" / "events.esf")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["width"] == 240 and doc["height"] == 180
    assert doc["n_events"] > 0 and doc["n_triggers"] == 14


def test_info_on_an_out_of_order_stream_is_a_data_error_naming_the_item(tmp_path, capsys):
    # the second event's TIME_LOW is below the first's, so last - first would wrap as uint64 (a RuntimeWarning)
    esf = tmp_path / "backwards.esf"
    esf.write_bytes(_esf(8, 8, [(codec.TYPE_TIME_LOW, 100), (codec.TYPE_CD_Y, 1), (codec.TYPE_CD_X, 1),
                                (codec.TYPE_TIME_LOW, 50), (codec.TYPE_CD_X, 2)]))
    assert run(["info", str(esf)]) == 2
    captured = capsys.readouterr()
    diags = [json.loads(line) for line in captured.err.splitlines()]  # stderr holds JSON records only
    assert captured.out == "" and diags[-1]["kind"] == "UnsortedInput" and "item 1 " in diags[-1]["msg"], diags


def test_validate_clean_stream_exits_zero(scene, capsys):
    assert run(["validate", str(scene / "a" / "events.esf")]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_validate_stream_with_findings_is_data_error(tmp_path, capsys):
    # two rising edges and no falling one: both are unpaired, and the stream still encodes
    stream = EventStream(StreamHeader(32, 24), make_events([1, 2], [1, 2], [1, 2], [1, -1]),
                         make_triggers([3, 4], [1, 1], [0, 0]))
    esf = tmp_path / "open.esf"
    codec.write_esf(str(esf), stream)
    assert run(["validate", str(esf)]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is False and [f["kind"] for f in report["findings"]] == ["unpaired_trigger"] * 2
    assert json.loads(captured.err) == {"level": "error", "msg": "stream has structural findings",
                                        "counts": {"unpaired_trigger": 2}}


def test_sync_writes_windows_csv(scene, tmp_path, capsys):
    out = tmp_path / "win.csv"
    assert run(["sync", str(scene / "a" / "events.esf"), "--method", "m4", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "frame_id,t0_us,t1_us"
    assert len(lines) == 8  # 7 frames + header


def test_sync_method_takes_a_custom_window(scene, tmp_path):
    esf = scene / "a" / "events.esf"
    out = tmp_path / "win.csv"
    assert run(["sync", str(esf), "--method", "midpoint:5000:5000", "-o", str(out)]) == 0
    exposures = triggers_to_exposures(read_esf(str(esf)).triggers).exposures
    assert out.read_text() == write_windows_csv(windows(exposures, CustomWindow("midpoint", 5000, 5000)))


def test_sync_exposures_out_holds_the_pairing(scene, tmp_path):
    esf = scene / "a" / "events.esf"
    table = tmp_path / "exposures.csv"
    assert run(["sync", str(esf), "--exposures-out", str(table), "-o", str(tmp_path / "win.csv")]) == 0
    pairing = triggers_to_exposures(read_esf(str(esf)).triggers, channel=0)
    assert len(pairing.exposures) == 7
    assert read_exposures_csv(table.read_text()) == pairing.exposures


def test_accumulate_writes_frame_files(scene, tmp_path, capsys):
    out_dir = tmp_path / "acc"
    assert run(["accumulate", str(scene / "a" / "events.esf"), "--method", "m3", "-d", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["frames"]) == 7
    for entry in doc["frames"]:
        assert (out_dir / f"frame_{entry['frame_id']}.pgm").exists()


PLANTED_H = np.array([[1.0, 0.01, 4.0], [-0.02, 1.0, 7.0], [0.0, 0.0, 1.0]])


def _planted_points(path, h=PLANTED_H, n=40):
    """Write ``n`` exact correspondences ``dst = h(src)`` as a points CSV."""
    src = np.random.default_rng(3).uniform(10, 400, size=(n, 2))
    q = np.hstack([src, np.ones((n, 1))]) @ h.T
    dst = q[:, :2] / q[:, 2:]
    rows = ["src_x,src_y,dst_x,dst_y"] + [f"{a[0]},{a[1]},{b[0]},{b[1]}" for a, b in zip(src, dst)]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_calibrate_fits_planted_homography(tmp_path, capsys):
    pts = _planted_points(tmp_path / "pts.csv")
    hout = tmp_path / "H.json"
    assert run(["calibrate", "--points", str(pts), "-o", str(hout)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["max_px"] < 1e-6
    fitted = np.asarray(json.loads(hout.read_text())["h"])
    assert np.allclose(fitted / fitted[2, 2], PLANTED_H, atol=1e-6)


def test_calibrate_no_ransac_writes_report_file(tmp_path, capsys):
    pts = _planted_points(tmp_path / "pts.csv")
    report = tmp_path / "report.json"
    assert run(["calibrate", "--points", str(pts), "--no-ransac", "--report-out", str(report)]) == 0
    assert capsys.readouterr().out == ""  # the report went to the file
    doc = json.loads(report.read_text())
    assert doc["report"]["max_px"] < 1e-6
    assert doc["report"]["inliers"] == doc["report"]["total"] == 40  # no consensus mask: every point counts
    fitted = np.asarray(doc["homography"])
    assert np.allclose(fitted / fitted[2, 2], PLANTED_H, atol=1e-6)


def test_calibrate_points_csv_with_no_rows_is_too_few_points(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("# no correspondences yet\nsrc_x,src_y,dst_x,dst_y\n")
    assert run(["calibrate", "--points", str(pts)]) == 2
    assert _last_diag(capsys)["kind"] == "TooFewPoints"


def test_verify_reports_planted_shift(scene, capsys):
    ref = str(scene / "a" / "frames" / "frame_3.pgm")
    tgt = str(scene / "b" / "frames" / "frame_3.pgm")
    assert run(["verify", ref, tgt, "--mode", "edges"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dx"] == pytest.approx(5.0, abs=0.25)
    assert doc["dy"] == pytest.approx(0.0, abs=0.25)


def test_rate_report_and_series(scene, tmp_path, capsys):
    series = tmp_path / "series.csv"
    assert run(["rate", str(scene / "a" / "events.esf"), "--encoding", "fixed8", "--series-out", str(series)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["encoding"] == "fixed8"
    assert doc["peak_evps"] >= doc["mean_evps"]
    lines = series.read_text().strip().splitlines()
    assert lines[0] == "bin_start_us,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == doc["n_events"]
    # one row per bin from the first event's bin to the last's, empty ones too, plus the header
    t = read_esf(str(scene / "a" / "events.esf")).events["t"]
    assert len(lines) == int(t[-1]) // 1000 - int(t[0]) // 1000 + 2


def test_rate_warns_once_counting_the_saturated_bins(scene, capsys):
    assert run(["rate", str(scene / "a" / "events.esf"), "--saturation-evps", "1000"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert len(doc["saturated_bins"]) > 1
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"level": "warning", "msg": "stream exceeds the saturation rate in some bins", "n_bins": len(doc["saturated_bins"])}]


def test_erc_thins_and_output_decodes(scene, tmp_path, capsys):
    out = tmp_path / "thin.esf"
    assert run(["erc", str(scene / "a" / "events.esf"), "--cap-evps", "50000", "-o", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_out"] < doc["n_in"]
    thinned = read_esf(str(out))
    assert len(thinned.events) == doc["n_out"]
    assert len(thinned.triggers) == 14  # triggers pass through untouched


def _encode_csv(tmp_path, name, lines):
    (tmp_path / f"{name}.csv").write_text("".join(f"{line}\n" for line in lines))
    assert run(["encode", "--csv", str(tmp_path / f"{name}.csv"), "--width", "8", "--height", "8",
                "-o", str(tmp_path / f"{name}.esf")]) == 0
    return tmp_path / f"{name}.esf"


def test_erc_that_drops_nothing_gives_the_input_bytes(tmp_path, capsys):
    # triggers tied with the events after them: their place must survive the rate controller
    esf = _encode_csv(tmp_path, "in", ["trig,10,r,0", "cd,10,1,1,+1", "cd,10,2,1,+1", "trig,20,f,0", "cd,20,3,1,-1"])
    # so must a cap whose budget per period is far more than the input: it is never built at that size
    for cap in ([], ["--cap-evps", "1000000000000000"], ["--cap-evps", str(10**30), "--period-us", "1000000"]):
        assert run(["erc", str(esf), "-o", str(tmp_path / "out.esf")] + cap) == 0
        assert json.loads(capsys.readouterr().out)["n_dropped"] == 0
        assert (tmp_path / "out.esf").read_bytes() == esf.read_bytes()


def test_erc_drops_only_the_thinned_events_and_keeps_every_trigger_in_place(tmp_path, capsys):
    # a budget of 2 per 1 ms period keeps events 0 and 2 of the 4 in period 0 (round(i * 4 / 2))
    lines = ["trig,10,r,0", "cd,10,1,1,+1", "cd,10,2,1,+1", "trig,10,f,0", "cd,10,3,1,-1", "cd,10,4,1,-1",
             "trig,1500,r,1", "cd,1500,5,5,+1", "trig,1500,f,1"]
    esf = _encode_csv(tmp_path, "in", lines)
    assert run(["erc", str(esf), "--cap-evps", "2000", "--period-us", "1000", "-o", str(tmp_path / "out.esf")]) == 0
    assert json.loads(capsys.readouterr().out)["n_dropped"] == 2
    kept = _encode_csv(tmp_path, "kept", [line for line in lines if line not in ("cd,10,2,1,+1", "cd,10,4,1,-1")])
    assert (tmp_path / "out.esf").read_bytes() == kept.read_bytes()


def test_optics_extent_string(capsys):
    assert run(["optics", "--object-m", "0.30", "--distance-m", "100", "--focal-mm", "8", "--sensor", "evk4"]) == 0
    assert capsys.readouterr().out == "4.94 px\n"


def test_optics_detectability_warning(capsys):
    assert run(["optics", "--object-m", "0.02", "--distance-m", "200", "--focal-mm", "8", "--sensor", "evk4"]) == 0
    captured = capsys.readouterr()
    rec = json.loads(captured.err.strip().splitlines()[-1])
    assert rec["level"] == "warning" and rec["min_px"] == 3.0


def test_optics_unknown_sensor_is_usage_error(capsys):
    assert run(["optics", "--object-m", "1", "--distance-m", "10", "--focal-mm", "8", "--sensor", "gopro"]) == 1


@pytest.mark.parametrize(
    "argv, names",
    [(["--object-m", "1", "--sensor", "evk4"], ("--distance-m", "--focal-mm")),
     (["--crop", "--sensor", "evk4", "--reference", "nope"], ("unknown sensor preset 'nope'",))],
    ids=["extent without distance and focal length", "crop against an unknown reference"],
)
def test_optics_usage_error_names_what_is_missing_or_unknown(capsys, tmp_path, argv, names):
    out = tmp_path / "out.json"
    assert run(["optics", "-o", str(out)] + argv) == 1
    captured = capsys.readouterr()
    diag = json.loads(captured.err.splitlines()[-1])
    assert diag["kind"] == "usage" and all(name in diag["msg"] for name in names), diag
    assert captured.out == "" and not out.exists()


def test_optics_no_mode_is_usage_error():
    assert run(["optics", "--sensor", "evk4"]) == 1


@pytest.mark.parametrize("sensor", [["--sensor", "evk4"], ["--pitch-um", "4.86", "--size", "1280x720"]])
def test_optics_fov_of_a_preset_or_custom_sensor(capsys, sensor):
    assert run(["optics", "--fov", "--focal-mm", "8"] + sensor) == 0
    doc = json.loads(capsys.readouterr().out)
    half_width_mm = 4.86 * 1280 / 2000.0  # the EVK4 grid either way
    assert doc["horizontal_deg"] == pytest.approx(2 * np.degrees(np.arctan(half_width_mm / 8.0)), rel=1e-12)
    assert doc == optics.field_of_view(optics.get_sensor("evk4"), 8.0).to_json()


def test_optics_crop_with_focal_length(capsys):
    assert run(["optics", "--crop", "--sensor", "evk4", "--focal-mm", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ref, evk4 = optics.get_sensor("ximea"), optics.get_sensor("evk4")
    ratio = np.hypot(ref.width, ref.height) * ref.pitch_um / (np.hypot(evk4.width, evk4.height) * evk4.pitch_um)
    assert doc["reference"] == "ximea" and doc["target"] == "evk4" and doc["focal_mm"] == 8.0
    assert doc["crop_factor"] == pytest.approx(ratio, abs=5e-5)
    assert doc["effective_focal_mm"] == pytest.approx(8.0 * ratio, abs=5e-3)


def test_optics_list_dumps_the_presets(capsys):
    assert run(["optics", "--list"]) == 0
    assert json.loads(capsys.readouterr().out) == optics.load_presets()


def test_synth_pattern_choices_match_generator(tmp_path):
    base = ["synth", "--duration-s", "0.1", "-o", str(tmp_path / "out.json")]
    assert run(base + ["-d", str(tmp_path / "r"), "--pattern", "rectangle"]) == 0
    assert run(base + ["-d", str(tmp_path / "x"), "--pattern", "rect"]) == 1


def test_label_transfer_round_trip(scene, tmp_path, capsys):
    out = tmp_path / "moved.json"
    code = run(
        [
            "label-transfer",
            "--labels", str(scene / "a" / "labels.json"),
            "--homography", str(scene / "b" / "homography.json"),
            "-o", str(out),
        ]
    )
    assert code == 0
    moved = read_labels_json(str(out))
    truth = {b.frame_id: b for b in read_labels_json(str(scene / "b" / "labels.json"))}
    assert moved and all(iou(b, truth[b.frame_id]) > 0.99 for b in moved)


def test_label_transfer_inverts_and_clips(tmp_path, capsys):
    h_json = tmp_path / "H.json"
    h_json.write_text(json.dumps({"h": [[1.0, 0.0, 100.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
    boxes = tmp_path / "boxes.json"
    boxes.write_text(json.dumps([{"frame_id": i, "class": "disk", "x": x, "y": y, "w": 20, "h": 20}
                                 for i, (x, y) in enumerate([(110, 10), (150, 40), (10, 10)])]))
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(boxes), "--homography", str(h_json), "--invert", "--clip", "64x48",
            "-o", str(out)]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"n_in": 3, "n_out": 2, "out": str(out)}
    # the inverse moves boxes 100 px left: the second is cut at the canvas edge, the third falls off it
    assert [(b.frame_id, b.x, b.y, b.w, b.h) for b in read_labels_json(str(out))] == [(0, 10, 10, 20, 20),
                                                                                    (1, 50, 40, 14, 8)]
    assert json.loads(captured.err) == {"level": "warning", "msg": "boxes fell entirely outside the target canvas",
                                        "n_dropped": 1}


def test_pipeline_summary_schema_and_deviation(scene, tmp_path, capsys):
    out_dir = tmp_path / "pipe"
    code = run(
        [
            "pipeline",
            "--events", str(scene / "a" / "events.esf"),
            "--frames-dir", str(scene / "b" / "frames"),
            "-d", str(out_dir),
            "--no-meta",
        ]
    )
    assert code == 0
    doc = json.loads((out_dir / "summary.json").read_text())
    assert set(doc) >= {"frames", "rate"}
    assert "meta" not in doc
    assert len(doc["frames"]) == 7
    for entry in doc["frames"]:
        assert {"frame_id", "window", "n_events", "labels_out"} <= set(entry)
        assert entry["window"]["t0"] < entry["window"]["t1"]
    # planted 5 px translation, median over frames
    assert doc["deviation_median_px"] == pytest.approx(5.0, abs=0.25)
    for entry in doc["frames"]:
        assert (out_dir / "frames" / f"frame_{entry['frame_id']}.pgm").exists()


def test_pipeline_no_meta_is_byte_identical(scene, tmp_path):
    args = ["pipeline", "--events", str(scene / "a" / "events.esf"),
            "--frames-dir", str(scene / "b" / "frames"), "--no-meta"]
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    assert run(args + ["-d", str(d1)]) == 0
    assert run(args + ["-d", str(d2)]) == 0
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()
    # Same bytes as the committed reference run of this scene.
    assert (d1 / "summary.json").read_bytes() == GOLDEN_SUMMARY.read_bytes()


def test_pipeline_meta_present_by_default(scene, tmp_path):
    out_dir = tmp_path / "pm"
    assert run(["pipeline", "--events", str(scene / "a" / "events.esf"), "-d", str(out_dir)]) == 0
    doc = json.loads((out_dir / "summary.json").read_text())
    assert doc["meta"]["tool"].startswith("evfuse ")


def test_pipeline_parallel_matches_serial(scene, tmp_path):
    base = ["pipeline", "--events", str(scene / "a" / "events.esf"),
            "--frames-dir", str(scene / "b" / "frames"), "--no-meta"]
    d1, d2 = tmp_path / "s", tmp_path / "m"
    assert run(base + ["-d", str(d1), "--jobs", "1"]) == 0
    assert run(base + ["-d", str(d2), "--jobs", "4"]) == 0
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


@pytest.mark.parametrize("kept", [range(0, 7, 2), range(0)], ids=["every other RGB frame", "no RGB frame"])
def test_pipeline_warnings_come_out_in_frame_order_at_any_jobs(scene, tmp_path, capsys, kept):
    rgb = tmp_path / "rgb"
    rgb.mkdir()
    for i in kept:
        (rgb / f"frame_{i}.pgm").write_bytes((scene / "b" / "frames" / f"frame_{i}.pgm").read_bytes())
    argv = ["pipeline", "--events", str(scene / "a" / "events.esf"), "--frames-dir", str(rgb),
            "-d", str(tmp_path / "out"), "--no-meta"]
    assert run(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().err
    ids = [json.loads(line)["frame_id"] for line in serial.splitlines()]
    assert ids == [i for i in range(7) if i not in kept]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that writes from the workers would interleave
    try:
        for _ in range(3):
            assert run(argv + ["--jobs", "4"]) == 0
            assert capsys.readouterr().err == serial
    finally:
        sys.setswitchinterval(switch)


def test_pipeline_labels_through_homography(scene, tmp_path):
    out_dir = tmp_path / "pl"
    code = run(
        [
            "pipeline",
            "--events", str(scene / "a" / "events.esf"),
            "--labels", str(scene / "b" / "labels.json"),
            "--homography", str(scene / "b" / "homography.json"),
            "--invert-homography",  # file stores event->RGB; pipeline wants RGB->event
            "-d", str(out_dir),
            "--no-meta",
        ]
    )
    assert code == 0
    moved = read_labels_json(str(out_dir / "labels.json"))
    truth = {b.frame_id: b for b in read_labels_json(str(scene / "a" / "labels.json"))}
    assert moved and all(iou(b, truth[b.frame_id]) > 0.99 for b in moved)


def test_pipeline_labels_with_no_boxes_writes_an_empty_labels_file(scene, tmp_path, capsys):
    empty = tmp_path / "none.json"
    empty.write_text("[]")
    h = ["--labels", str(empty), "--homography", str(scene / "b" / "homography.json")]
    events = str(scene / "a" / "events.esf")
    assert run(["pipeline", "--events", events, "-d", str(tmp_path / "pl"), "--no-meta", *h]) == 0
    assert run(["label-transfer", *h, "-o", str(tmp_path / "moved.json")]) == 0
    assert (tmp_path / "pl" / "labels.json").read_text() == (tmp_path / "moved.json").read_text() == "[]\n"


def test_pipeline_points_matches_calibrate_then_homography(scene, tmp_path, capsys):
    # correspondences from RGB coordinates to event coordinates: undo the planted 5 px shift
    shift = np.array([[1.0, 0.0, -5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    pts = _planted_points(tmp_path / "pts.csv", h=shift)
    h_json = tmp_path / "H.json"
    assert run(["calibrate", "--points", str(pts), "-o", str(h_json)]) == 0
    calibrated = json.loads(capsys.readouterr().out)
    base = ["pipeline", "--events", str(scene / "a" / "events.esf"),
            "--frames-dir", str(scene / "b" / "frames"), "--no-meta"]
    assert run(base + ["--points", str(pts), "-d", str(tmp_path / "pp")]) == 0
    assert run(base + ["--homography", str(h_json), "-d", str(tmp_path / "ph")]) == 0
    by_points = json.loads((tmp_path / "pp" / "summary.json").read_text())
    by_h = json.loads((tmp_path / "ph" / "summary.json").read_text())
    assert by_points["calibration"] == calibrated["report"]
    assert "calibration" not in by_h
    assert by_points["frames"] == by_h["frames"]
    assert by_points["deviation_median_px"] < 0.25  # the fitted homography undoes the shift


def test_pipeline_labels_without_homography_is_usage_error(scene, tmp_path):
    code = run(
        [
            "pipeline",
            "--events", str(scene / "a" / "events.esf"),
            "--labels", str(scene / "b" / "labels.json"),
            "-d", str(tmp_path / "px"),
        ]
    )
    assert code == 1


def test_pipeline_config_file_and_flag_override(scene, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "m1", "jobs": 2}))
    out_dir = tmp_path / "pc"
    # flag --method m3 must beat the config's m1
    code = run(
        [
            "pipeline",
            "--events", str(scene / "a" / "events.esf"),
            "--config", str(cfg),
            "--method", "m3",
            "-d", str(out_dir),
            "--no-meta",
        ]
    )
    assert code == 0
    doc = json.loads((out_dir / "summary.json").read_text())
    # m3 (centered) windows span a frame period; m1 windows would span 5000 us
    w = doc["frames"][1]["window"]
    assert w["t1"] - w["t0"] == 50_000


def test_pipeline_flag_method_beats_a_config_custom_window(scene, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "start:0:1000"}))
    base = ["pipeline", "--events", str(scene / "a" / "events.esf"), "--config", str(cfg), "--no-meta"]
    exposures = read_exposures_csv((scene / "a" / "exposures.csv").read_text())
    for flags, bounds in [([], [(e.start, e.start + 1000) for e in exposures]),
                          (["--method", "m1"], [(e.start, e.end) for e in exposures])]:  # m1: 5000 us exposures
        out_dir = tmp_path / "-".join(["o"] + flags)
        assert run(base + flags + ["-d", str(out_dir)]) == 0
        doc = json.loads((out_dir / "summary.json").read_text())
        assert [(f["window"]["t0"], f["window"]["t1"]) for f in doc["frames"]] == bounds
    assert {e.end - e.start for e in exposures} == {5000}


def test_pipeline_erc_cap_thins_events_before_the_rate_report(scene, tmp_path, capsys):
    esf = str(scene / "a" / "events.esf")
    cap = ["--cap-evps", "50000", "--period-us", "2000"]
    assert run(["erc", esf] + cap + ["-o", str(tmp_path / "thin.esf")]) == 0
    erc = json.loads(capsys.readouterr().out)
    out_dir = tmp_path / "o"
    assert run(["pipeline", "--events", esf, "--erc-cap-evps", "50000", "--erc-period-us", "2000",
                "-d", str(out_dir), "--no-meta"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {"level": "warning", "msg": "rate controller dropped events", "n_dropped": erc["n_dropped"],
            "cap_evps": 50000} in records
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["rate"]["n_events"] == erc["n_out"] < erc["n_in"]
    # a budget per period far beyond the input, never built at that size, keeps every event
    assert run(["pipeline", "--events", esf, "--erc-cap-evps", "1000000000000000", "-d", str(out_dir), "--no-meta"]) == 0
    assert "rate controller dropped events" not in capsys.readouterr().err
    assert json.loads((out_dir / "summary.json").read_text())["rate"]["n_events"] == erc["n_in"]


def test_pipeline_unknown_config_key_is_usage_error(scene, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methd": "m1"}))
    code = run(
        ["pipeline", "--events", str(scene / "a" / "events.esf"), "--config", str(cfg), "-d", str(tmp_path / "o")]
    )
    assert code == 1


BAD_SEARCH_FLAGS = [["--radius", "-1"], ["--radius", "40"], ["--margin", "10"]]


def _last_diag(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("flags", BAD_SEARCH_FLAGS)
def test_pipeline_bad_search_window_is_usage_error(scene, tmp_path, capsys, flags):
    out_dir = tmp_path / "o"
    args = ["pipeline", "--events", str(scene / "a" / "events.esf"),
            "--frames-dir", str(scene / "b" / "frames"), "-d", str(out_dir)]
    assert run(args + flags) == 1
    assert _last_diag(capsys)["kind"] == "usage"
    assert not out_dir.exists()  # rejected before any frame work


@pytest.mark.parametrize("config", [{"radius": -1}, {"radius": 20, "margin": 10}])
def test_pipeline_bad_search_window_in_config_is_usage_error(scene, tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "o"
    args = ["pipeline", "--events", str(scene / "a" / "events.esf"),
            "--frames-dir", str(scene / "b" / "frames"), "--config", str(cfg), "-d", str(out_dir)]
    assert run(args) == 1
    assert _last_diag(capsys)["kind"] == "usage"
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", BAD_SEARCH_FLAGS)
def test_verify_bad_search_window_is_usage_error(scene, capsys, flags):
    ref = str(scene / "a" / "frames" / "frame_3.pgm")
    tgt = str(scene / "b" / "frames" / "frame_3.pgm")
    assert run(["verify", ref, tgt] + flags) == 1
    assert _last_diag(capsys)["kind"] == "usage"


def _pipeline_with_config(scene, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "o"
    args = ["pipeline", "--events", str(scene / "a" / "events.esf"), "--frames-dir", str(scene / "b" / "frames"),
            "--config", str(cfg), "-d", str(out_dir), "--no-meta"]
    return run(args), out_dir


@pytest.mark.parametrize("config", [{"radius": None}, {"method": None}])
def test_pipeline_config_null_keeps_default(scene, tmp_path, config):
    code, out_dir = _pipeline_with_config(scene, tmp_path, config)
    assert code == 0
    assert (out_dir / "summary.json").read_bytes() == GOLDEN_SUMMARY.read_bytes()


@pytest.mark.parametrize(
    "config",
    [{"radius": True}, {"radius": 16.9}, {"mode": "bogus"}, {"encoding": "raw"}, {"invert_homography": "no"}],
)
def test_pipeline_config_value_checked_like_flag(scene, tmp_path, capsys, config):
    code, out_dir = _pipeline_with_config(scene, tmp_path, config)
    assert code == 1
    assert _last_diag(capsys)["kind"] == "usage"
    assert not (out_dir / "summary.json").exists() and not (out_dir / "frames").exists()


def test_pipeline_config_not_an_object_is_data_error(scene, tmp_path, capsys):
    code, out_dir = _pipeline_with_config(scene, tmp_path, [{"radius": 8}])
    assert code == 2
    assert _last_diag(capsys)["kind"] == "InvalidInput"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, config, pair",
    [(["pipeline", "--events", "{a}/events.esf", "-d", "{o}", "--homography", "{b}/homography.json",
       "--points", "{pts}"], None, ("--homography", "--points")),
     (["pipeline", "--events", "{a}/events.esf", "-d", "{o}", "--points", "{pts}"],
      {"homography": "{b}/homography.json", "invert_homography": True}, ("--homography", "--points")),
     (["synth", "-d", "{o}", "--duration-s", "0.1", "--homography", "{b}/homography.json", "--translate", "1,1",
       "--warped-dir", "{o}/rgb"], None, ("--homography", "--translate"))],
    ids=["pipeline flags", "pipeline config", "synth"],
)
def test_options_that_would_override_each_other_are_a_usage_error(scene, tmp_path, capsys, argv, config, pair):
    # from flags or from config, giving both is refused naming both, not settled by a hidden precedence
    fill = {"a": scene / "a", "b": scene / "b", "o": tmp_path / "o", "pts": _planted_points(tmp_path / "pts.csv")}
    argv = [arg.format(**fill) for arg in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v.format(**fill) if isinstance(v, str) else v for k, v in config.items()}))
        argv += ["--config", str(cfg)]
    assert run(argv) == 1
    diag = _last_diag(capsys)
    assert diag["kind"] == "usage" and all(flag in diag["msg"] for flag in pair)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, config, names",
    [(["synth", "-d", "{o}", "--duration-s", "0.1", "--warped-dir", "{o}/rgb"], None,
      ("--warped-dir", "--homography", "--translate")),
     (["synth", "-d", "{o}", "--duration-s", "0.1", "--translate", "1,1"], None, ("--warped-dir", "--translate")),
     (["pipeline", "--events", "{a}/events.esf", "-d", "{o}", "--points", "{pts}", "--invert-homography"], None,
      ("--invert-homography", "--homography")),
     (["pipeline", "--events", "{a}/events.esf", "-d", "{o}", "--points", "{pts}"], {"invert_homography": True},
      ("--invert-homography", "--homography")),
     (["accumulate", "{a}/events.esf", "-d", "{o}", "--windows", "{w}", "--method", "m3"], None,
      ("--windows", "--method")),
     (["accumulate", "{a}/events.esf", "-d", "{o}", "--windows", "{w}", "--channel", "0"], None,
      ("--windows", "--channel")),
     (["pipeline", "--events", "{a}/events.esf", "-d", "{o}", "--windows", "{w}", "--channel", "5"], None,
      ("--windows", "--channel")),
     (["pipeline", "--events", "{a}/events.esf", "-d", "{o}", "--windows", "{w}"], {"method": "m3"},
      ("--windows", "--method"))],
    ids=["synth warped-dir alone", "synth translate alone", "pipeline invert without homography",
         "pipeline invert without homography in config", "accumulate windows and method",
         "accumulate windows and channel", "pipeline windows and channel", "pipeline windows and config method"],
)
def test_options_that_would_be_ignored_are_a_usage_error(scene, tmp_path, capsys, argv, config, names):
    # an option the command would silently drop is refused naming it, before anything is read or written
    fill = {"a": scene / "a", "o": tmp_path / "o", "pts": _planted_points(tmp_path / "pts.csv"),
            "w": tmp_path / "w.csv"}
    assert run(["sync", str(scene / "a" / "events.esf"), "--method", "m1", "-o", str(fill["w"])]) == 0
    argv = [arg.format(**fill) for arg in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert run(argv) == 1
    diag = _last_diag(capsys)
    assert diag["kind"] == "usage" and all(flag in diag["msg"] for flag in names), diag
    assert not (tmp_path / "o").exists()


def test_windows_csv_alone_and_trigger_windows_keep_their_defaults(scene, tmp_path, capsys):
    esf, w1 = str(scene / "a" / "events.esf"), tmp_path / "w1.csv"
    assert run(["sync", esf, "--method", "m1", "-o", str(w1)]) == 0
    assert run(["accumulate", esf, "--windows", str(w1), "-d", str(tmp_path / "by_csv")]) == 0
    by_csv = json.loads(capsys.readouterr().out)
    m1 = read_windows_csv(w1.read_text())
    assert [f["window"] for f in by_csv["frames"]] == [{"t0": w.t0, "t1": w.t1} for w in m1]
    assert run(["accumulate", esf, "-d", str(tmp_path / "default")]) == 0
    default = json.loads(capsys.readouterr().out)
    assert run(["accumulate", esf, "--method", "m3", "--channel", "0", "-d", str(tmp_path / "explicit")]) == 0
    assert json.loads(capsys.readouterr().out)["frames"] == [
        {**f, "path": f["path"].replace("default", "explicit")} for f in default["frames"]]


def test_synth_scene_json_round_trips_and_bad_velocity_is_usage_error(tmp_path):
    out_dir = tmp_path / "s"
    base = ["synth", "--duration-s", "0.1", "-o", str(tmp_path / "out.json")]
    assert run(base + ["-d", str(out_dir), "--pattern", "checker", "--velocity", "10,-20", "--start", "30,40"]) == 0
    doc = json.loads((out_dir / "scene.json").read_text())
    loaded = SceneSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
    assert loaded == SceneSpec(pattern="checker", velocity=(10.0, -20.0), duration_s=0.1, start=(30.0, 40.0))
    assert run(base + ["-d", str(tmp_path / "bad"), "--velocity", "10"]) == 1
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--contrast", "nan"], "contrast"),
        (["--velocity", "nan,0"], "velocity"),
        (["--background", "nan"], "background"),
        (["--pattern-size", "inf"], "pattern_size"),
        (["--start", "inf,0"], "start"),
        # finite, but past what the generator can count or a stream can hold
        (["--contrast", "1e-300"], "contrast"),
        (["--width", "4096", "--height", "8", "--duration-s", "0.1"], "width"),
    ],
)
def test_synth_non_finite_value_is_data_error_naming_the_field(tmp_path, capsys, flags, field):
    out_dir = tmp_path / "s"
    assert run(["synth", "-d", str(out_dir), "-o", str(tmp_path / "out.json")] + flags) == 2
    diag = _last_diag(capsys)
    assert diag["kind"] == "InvalidSpec" and field in diag["msg"]
    assert not out_dir.exists()


def test_diagnostics_are_single_line_json(scene, capsys, tmp_path):
    assert run(["decode", str(scene / "a" / "events.esf"), "--csv", str(tmp_path / "x.csv")]) == 0
    for line in capsys.readouterr().err.strip().splitlines():
        rec = json.loads(line)  # every stderr line must parse alone
        assert "level" in rec and "msg" in rec


# Each bad option value (last in each argv) must be a usage error before any
# input is read: the events path does not exist, so reading it would exit 2.
BAD_OPTION_ARGV = [
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--method", "m9"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--custom", "start:1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--custom", "center:1:1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--method", "start:1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--method", "center:1:1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--jobs", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--bin-us", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--erc-cap-evps", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--erc-period-us", "-1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--erc-period-us", "18446744073709551616"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--bin-us", "18446744073709551616"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--seed", "-1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--smooth-sigma", "1e12"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--clip", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--channel", "16"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--channel", "-1"],
    ["sync", "{missing}", "-o", "{out}", "--channel", "16"],
    ["accumulate", "{missing}", "-d", "{out}", "--channel", "16"],
    ["sync", "{missing}", "-o", "{out}", "--custom", "start:-5:5"],
    ["sync", "{missing}", "-o", "{out}", "--method", "start:-5:5"],
    ["accumulate", "{missing}", "-d", "{out}", "--method", "m9"],
    ["accumulate", "{missing}", "-d", "{out}", "--clip", "0"],
    ["rate", "{missing}", "-o", "{out}", "--bin-us", "0"],
    ["rate", "{missing}", "-o", "{out}", "--bin-us", "18446744073709551616"],
    ["rate", "{missing}", "-o", "{out}", "--saturation-evps", "0"],
    ["rate", "{missing}", "-o", "{out}", "--saturation-evps", "-5"],
    ["rate", "{missing}", "-o", "{out}", "--saturation-evps", "nan"],
    ["erc", "{missing}", "-o", "{out}", "--cap-evps", "0"],
    ["erc", "{missing}", "-o", "{out}", "--period-us", "0"],
    ["erc", "{missing}", "-o", "{out}", "--period-us", "18446744073709551616"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--smooth-sigma", "nan"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--smooth-sigma", "inf"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--smooth-sigma", "-1"],
    ["verify", "{missing}", "{missing}", "-o", "{out}", "--smooth-sigma", "nan"],
    ["verify", "{missing}", "{missing}", "-o", "{out}", "--smooth-sigma", "inf"],
    ["verify", "{missing}", "{missing}", "-o", "{out}", "--smooth-sigma", "-1"],
    ["verify", "{missing}", "{missing}", "-o", "{out}", "--smooth-sigma", "1e12"],
    # a non-finite offset is no translation: refused before the first view is written
    ["synth", "-d", "{out}", "--warped-dir", "{out}_b", "--translate", "nan,0"],
    ["synth", "-d", "{out}", "--warped-dir", "{out}_b", "--translate", "inf,0"],
    ["encode", "--csv", "{missing}", "--height", "4", "-o", "{out}", "--width", "0"],
    ["encode", "--csv", "{missing}", "--height", "4", "-o", "{out}", "--width", "5000"],
    ["encode", "--csv", "{missing}", "--width", "4", "-o", "{out}", "--height", "0"],
    ["encode", "--csv", "{missing}", "--width", "4", "-o", "{out}", "--height", "2049"],
    ["verify", "{missing}", "{missing}", "-o", "{out}", "--radius", "-1"],
    ["verify", "{missing}", "{missing}", "-o", "{out}", "--margin", "-1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--radius", "-1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--margin", "-1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--threshold-px", "nan"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--threshold-px", "0"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--threshold-px", "nan"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--threshold-px", "-1"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--threshold-px", "inf"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--iterations", "0"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--confidence", "1"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--confidence", "0"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--confidence", "nan"],
    ["calibrate", "--points", "{missing}", "-o", "{out}", "--seed", "-1"],
    ["calibrate", "--points", "{missing}", "--min-inliers", "0"],
    # optics reads no input: a bad value must still be a usage error, not a printed result
    ["optics", "--distance-m", "100", "--focal-mm", "8", "--sensor", "evk4", "-o", "{out}", "--object-m", "nan"],
    ["optics", "--distance-m", "100", "--focal-mm", "8", "--sensor", "evk4", "-o", "{out}", "--object-m", "inf"],
    ["optics", "--object-m", "0.3", "--focal-mm", "8", "--sensor", "evk4", "-o", "{out}", "--distance-m", "0"],
    ["optics", "--object-m", "0.3", "--distance-m", "100", "--sensor", "evk4", "-o", "{out}", "--focal-mm", "inf"],
    ["optics", "--object-m", "0.3", "--distance-m", "100", "--focal-mm", "8", "-o", "{out}", "--pitch-um", "nan"],
    ["optics", "--object-m", "0.3", "--distance-m", "100", "--focal-mm", "8", "-o", "{out}", "--pitch-um", "-3"],
    # optics modes and sensor sources are mutually exclusive, not resolved by precedence
    ["optics", "--focal-mm", "8", "--sensor", "evk4", "-o", "{out}", "--fov", "--crop"],
    ["optics", "--object-m", "0.3", "--distance-m", "100", "--focal-mm", "8", "-o", "{out}",
     "--sensor", "evk4", "--pitch-um", "3"],
    # crop and fov measure a whole sensor: a custom one needs --size as well as its pitch
    ["optics", "--crop", "-o", "{out}", "--pitch-um", "4.86"],
    ["optics", "--fov", "--focal-mm", "8", "-o", "{out}", "--pitch-um", "3.45"],
    # an object nearer than the focal length has no real image
    ["optics", "--object-m", "1", "--focal-mm", "8", "--sensor", "evk4", "-o", "{out}", "--distance-m", "0.001"],
]


@pytest.mark.parametrize("argv", BAD_OPTION_ARGV, ids=lambda argv: " ".join(argv[0:1] + argv[-2:]))
def test_bad_option_value_is_usage_error_before_input_is_read(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([a.format(missing=tmp_path / "missing.esf", out=out) for a in argv]) == 1
    diag = _last_diag(capsys)
    assert diag["kind"] == "usage"
    assert argv[-2] in diag["msg"]  # the message names the offending flag
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [{"method": "m9"}, {"method": "start:1"}, {"jobs": 0}, {"bin_us": 0}, {"erc_cap_evps": 0},
     {"erc_period_us": 0}, {"clip": -3}, {"channel": 16},
     {"smooth_sigma": -1.0}, {"smooth_sigma": "inf"}, {"smooth_sigma": float("nan")},
     {"radius": -1}, {"threshold_px": "nan"}, {"seed": -1}, {"bin_us": 2**64}, {"smooth_sigma": 1e12}],
)
def test_bad_config_value_is_usage_error_before_input_is_read(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["pipeline", "--events", str(tmp_path / "missing.esf"), "--config", str(cfg), "-d", str(out)]) == 1
    diag = _last_diag(capsys)
    assert diag["kind"] == "usage"
    (key,) = config
    assert "--" + key.replace("_", "-") in diag["msg"]  # the message names the offending key's flag
    assert not out.exists()


def test_label_transfer_across_the_vanishing_line_is_data_error(scene, tmp_path, capsys):
    # w = 1 - x/100 changes sign inside every box that spans x = 100
    h_json = tmp_path / "H.json"
    h_json.write_text(json.dumps({"h": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.01, 0.0, 1.0]]}))
    boxes = tmp_path / "boxes.json"
    boxes.write_text(json.dumps([{"frame_id": 0, "class": "disk", "x": 50, "y": 10, "w": 100, "h": 20}]))
    out = tmp_path / "moved.json"
    assert run(["label-transfer", "--labels", str(boxes), "--homography", str(h_json), "-o", str(out)]) == 2
    diag = _last_diag(capsys)
    assert diag["kind"] == "PointAtInfinity" and "vanishing line" in diag["msg"]
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("x", float("nan")), ("w", float("inf")), ("score", float("-inf"))])
def test_label_transfer_rejects_non_finite_boxes_naming_file_and_box(scene, tmp_path, capsys, field, value):
    good = {"frame_id": 0, "class": "disk", "x": 10, "y": 10, "w": 20, "h": 20, "score": 0.5}
    bad = tmp_path / "labels.json"
    bad.write_text(json.dumps([good, {**good, field: value}]))  # json writes NaN, Infinity and -Infinity
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(bad), "--homography", str(scene / "b" / "homography.json"), "-o", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic on the box
        assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "InvalidInput" and str(bad) in rec["msg"] and f"box 1: {field} must be finite" in rec["msg"]
    assert not out.exists()


def test_label_transfer_rejects_labels_that_are_not_a_list(scene, tmp_path, capsys):
    bad = tmp_path / "labels.json"
    bad.write_text(json.dumps({"a": 1}))
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(bad), "--homography", str(scene / "b" / "homography.json"), "-o", str(out)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "InvalidInput" and str(bad) in rec["msg"]
    assert not out.exists()


def test_label_transfer_rejects_homography_that_is_not_an_object(scene, tmp_path, capsys):
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(scene / "a" / "labels.json"), "--homography", str(bad), "-o", str(out)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "InvalidInput" and "object" in rec["msg"]
    assert not out.exists()


def test_label_transfer_rejects_homography_without_its_h_field(scene, tmp_path, capsys):
    bad = tmp_path / "h.json"
    bad.write_text("{}")
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(scene / "a" / "labels.json"), "--homography", str(bad), "-o", str(out)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "InvalidInput" and "'h'" in rec["msg"]
    assert not out.exists()


def test_key_error_inside_a_subcommand_escapes_main(monkeypatch):
    # no input reaches a bare KeyError, so one is a bug in evfuse, not bad input data (exit 2)
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_info", broken)
    with pytest.raises(KeyError):
        cli.main(["info", "events.esf"])


def test_value_error_inside_a_subcommand_escapes_main(monkeypatch):
    # bad input raises an EvfuseError, so a bare ValueError is a bug in evfuse, not bad input data (exit 2)
    def broken(args):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "cmd_info", broken)
    with pytest.raises(ValueError, match="bug"):
        cli.main(["info", "events.esf"])


def test_memory_error_inside_a_subcommand_is_one_record_with_status_3(monkeypatch, capsys):
    # an allocation the machine cannot hold is neither bad usage (1) nor bad data (2); NumPy's
    # failed allocations are MemoryError subclasses
    def exhausted(args):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(cli, "cmd_info", exhausted)
    assert cli.main(["info", "events.esf"]) == cli.MEMORY_ERROR == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    rec = json.loads(err[0])
    assert rec == {"level": "error", "kind": "MemoryError", "msg": "Unable to allocate 16.0 TiB for an array"}


def test_pipeline_rejects_windows_csv_with_repeated_frame_id(scene, tmp_path, capsys):
    windows_csv = tmp_path / "windows.csv"
    windows_csv.write_text("frame_id,t0_us,t1_us\n0,0,50000\n1,50000,100000\n# again\n0,100000,150000\n")
    out_dir = tmp_path / "o"
    argv = ["pipeline", "--events", str(scene / "a" / "events.esf"), "--windows", str(windows_csv), "-d", str(out_dir)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "MalformedLine" and "line 5" in rec["msg"] and "line 2" in rec["msg"]
    assert not out_dir.exists()


@pytest.mark.parametrize("rows, line, bad", [("0,-5000,20000\n1,20000,60000", 2, "0,-5000,20000"),
                                             ("0,0,20000\n1,90000,60000", 3, "1,90000,60000")])
def test_pipeline_rejects_windows_csv_with_bad_bounds(scene, tmp_path, capsys, rows, line, bad):
    windows_csv = tmp_path / "windows.csv"
    windows_csv.write_text(f"frame_id,t0_us,t1_us\n{rows}\n")
    out_dir = tmp_path / "o"
    argv = ["pipeline", "--events", str(scene / "a" / "events.esf"), "--windows", str(windows_csv), "-d", str(out_dir)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "MalformedLine" and f"line {line}" in rec["msg"] and bad in rec["msg"]
    assert not out_dir.exists()


PAST_U64 = "99999999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [["pipeline", "--events", "{a}/events.esf", "--windows", "{d}/windows.csv", "-d", "{d}/o"],
     ["pipeline", "--events", "{a}/events.esf", "--method", f"midpoint:0:{PAST_U64}", "-d", "{d}/o"],
     ["sync", "{a}/events.esf", "--method", f"midpoint:0:{2**64}", "-o", "{d}/windows_out.csv"]],
    ids=["pipeline windows CSV", "pipeline custom", "sync custom"],
)
def test_window_bound_past_u64_is_clamped(scene, tmp_path, argv):
    (tmp_path / "windows.csv").write_text(f"frame_id,t0_us,t1_us\n0,0,{PAST_U64}\n")
    assert run([arg.format(a=scene / "a", d=tmp_path) for arg in argv]) == 0


def _read_points(text, tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(text)
    return cli._read_points_csv(str(path))


# format: (read(text, tmp_path), rows read, header, two good rows, a bad row that holds numbers)
CSV_FORMATS = {
    "events": (lambda text, _: parse_csv(text, 16, 16), lambda s: s.n_items,
               "kind,t,x,y,p", ["cd,1,2,3,+1", "trig,2,r,0"], "cd,1,x,3,+1"),
    "window": (lambda text, _: read_windows_csv(text), len, "frame_id,t0_us,t1_us", ["0,0,10", "1,10,20"], "2,abc,30"),
    "exposure": (lambda text, _: read_exposures_csv(text), len,
                 "frame_id,start_us,end_us", ["0,0,10", "1,10,20"], "2,20,x"),
    "points": (_read_points, lambda pts: pts[0].shape[0], "src_x,src_y,dst_x,dst_y", ["1,2,3,4", "5,6,7,8"],
               "1,2,abc,4"),
}


@pytest.mark.parametrize("what", sorted(CSV_FORMATS))
def test_csv_inputs_share_one_header_rule(tmp_path, what):
    read, n_rows, header, (row1, row2), bad = CSV_FORMATS[what]
    # a header, comments and blank lines are accepted
    assert n_rows(read(f"# made by hand\n\n{header}\n{row1}\n\n# more\n{row2}\n", tmp_path)) == 2
    assert n_rows(read(f"{row1}\n{row2}\n", tmp_path)) == 2

    def rejects(text, line_no):
        with pytest.raises(MalformedLine) as exc:
            read(text, tmp_path)
        assert exc.value.line_no == line_no and f"{what} CSV line {line_no}" in str(exc.value)
        return exc.value

    # line numbers count comment and blank lines
    assert rejects(f"# made by hand\n\n{header}\n{row1}\n\n# bad\n{bad}\n", 7).content == bad
    # a header-like line after the first data line is data, and fails at its own line
    assert rejects(f"{header}\n{row1}\n# again\n{header}\n", 4).content == header
    # a corrupt first data row that holds a number is not taken for a header
    assert rejects(f"# made by hand\n{bad}\n{row1}\n", 2).content == bad


@pytest.mark.parametrize(
    "text, error, line",
    [
        ("cd,1,2,3,+1\n# c\ncd,2,40,3,+1\n", CoordinateOutOfBounds, 3),
        ("cd,5,1,1,+1\n\ncd,4,1,1,+1\n", UnsortedInput, 3),
        ("kind,t,x,y,p\ntrig,1,r,0\ncd,1,2,3,+1\n\ncd,2,2,30,+1\n", CoordinateOutOfBounds, 5),
        ("trig,5,r,0\n# late\ntrig,3,f,0\n", UnsortedInput, 3),
    ],
)
def test_events_csv_rule_break_names_its_line(text, error, line):
    with pytest.raises(error) as exc:
        parse_csv(text, 32, 24)
    assert str(exc.value).startswith(f"events CSV line {line}: ")


def test_importing_the_cli_loads_no_scipy():
    # SciPy is most of the import time; only alignment and resampling load it, on first use
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, evfuse.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# -- every bad input is a typed data error (exit 2) that names the input ------------


def _esf(width, height, words):
    """ESF-1 bytes: a header, then ``(word type, payload)`` words."""
    return codec.make_header(width, height) + np.array([kind << 12 | v for kind, v in words], dtype="<u2").tobytes()


HAS_PILLOW = importlib.util.find_spec("PIL") is not None


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """One file or directory per way an input can be bad."""
    d = tmp_path_factory.mktemp("bad")
    assert run(["synth", "-d", str(d / "tiny"), "--width", "60", "--height", "50", "--duration-s", "0.1",
                "--translate", "0,0", "--warped-dir", str(d / "tiny_rgb"), "-o", str(d / "tiny.json")]) == 0
    for name in ("small.pgm", "small_frames/frame_0.pgm"):
        (d / name).parent.mkdir(exist_ok=True)
        frames.write_pgm(str(d / name), np.zeros((50, 60), dtype=np.uint8))
    files = {
        "trunc_frames/frame_0.pgm": b"P5\n240 180\n255\n" + bytes(100),
        "p2.pgm": "P2\n2 2\n255\n1 2 3 4\n",
        "empty.pgm": "P5\n0 0\n255\n",
        "text.txt": "not JSON\n",
        "binary": b"\x00\xff\xfe binary",
        "config_list.json": "[1]",
        "h_abc.json": '{"h": "abc"}',
        "singular.json": '{"h": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}',
        "labels_inf.json": '[{"frame_id": 1e400, "class": "disk", "x": 1, "y": 1, "w": 1, "h": 1}]',
        "points_nan.csv": "src_x,src_y,dst_x,dst_y\n1,1,nan,1\n2,4,2,2\n3,9,3,3\n4,16,4,4\n",
        "points_huge.csv": "".join(f"1e308,-1e308,{i},{i * i}\n" for i in range(1, 7)),
        "t_past_u64.csv": "cd,1,1,1,+1\ncd,18446744073709551616,1,1,+1\n",
        "x_past_u16.csv": "cd,1,1,1,+1\ncd,1,70000,1,+1\n",
        "y_past_u16.csv": "cd,1,1,1,+1\ncd,1,1,70000,+1\n",
        "no_triggers.esf": _esf(32, 24, [(codec.TYPE_CD_Y, 1), (codec.TYPE_CD_X, 1)]),
        # the falling trigger edge's TIME_LOW is below the rising edge's
        "backwards.esf": _esf(32, 24, [(codec.TYPE_TIME_LOW, 100), (codec.TYPE_EXT_TRIGGER, 1),
                                       (codec.TYPE_TIME_LOW, 50), (codec.TYPE_EXT_TRIGGER, 0)]),
    }
    for name, content in files.items():
        (d / name).parent.mkdir(exist_ok=True)
        (d / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return d


def _needs_no_pillow(*args, id):
    return pytest.param(*args, id=id, marks=pytest.mark.skipif(HAS_PILLOW, reason="Pillow reads and writes PNG"))


def _label_transfer(labels="{a}/labels.json", homography="{b}/homography.json"):
    return ["label-transfer", "--labels", labels, "--homography", homography, "-o", "{o}"]


# (argv, kind, what the message names); {a} and {b} are the scene's two views,
# {d} holds the bad inputs and {o} is an output path
PIPELINE = ["pipeline", "--events", "{a}/events.esf", "-d", "{o}"]
BAD_INPUTS = [
    pytest.param(["verify", "{a}/frames/frame_3.pgm", "{d}/small.pgm"], "InvalidInput", "reference and target",
                 id="verify images of different sizes"),
    pytest.param(PIPELINE + ["--frames-dir", "{d}/small_frames"], "InvalidInput", "{d}/small_frames/frame_0.pgm",
                 id="pipeline RGB frame of another size"),
    pytest.param(["pipeline", "--events", "{d}/tiny/events.esf", "--frames-dir", "{d}/tiny_rgb/frames", "-d", "{o}"],
                 "InvalidInput", "margin 32", id="pipeline sensor too small for the margin"),
    pytest.param(["sync", "{d}/backwards.esf", "-o", "{o}"], "InvalidInput", "exposure 0", id="sync backwards triggers"),
    pytest.param(["sync", "{d}/no_triggers.esf", "-o", "{o}"], "TooFewExposures", "at least 2 exposures",
                 id="sync stream without triggers"),
    pytest.param(["pipeline", "--events", "{d}/backwards.esf", "-d", "{o}"], "InvalidInput", "exposure 0",
                 id="pipeline backwards triggers"),
    pytest.param(_label_transfer(labels="{d}/text.txt"), "InvalidInput", "{d}/text.txt",
                 id="labels not JSON"),
    pytest.param(_label_transfer(homography="{d}/text.txt"), "InvalidInput", "{d}/text.txt",
                 id="homography not JSON"),
    pytest.param(PIPELINE + ["--config", "{d}/text.txt"], "InvalidInput", "{d}/text.txt", id="config not JSON"),
    pytest.param(["encode", "--csv", "{d}/binary", "--width", "4", "--height", "4", "-o", "{o}"], "InvalidInput",
                 "{d}/binary", id="events CSV binary"),
    pytest.param(PIPELINE + ["--windows", "{d}/binary"], "InvalidInput", "{d}/binary", id="windows CSV binary"),
    pytest.param(["calibrate", "--points", "{d}/binary"], "InvalidInput", "{d}/binary", id="points CSV binary"),
    pytest.param(_label_transfer(labels="{d}/binary"), "InvalidInput", "{d}/binary",
                 id="labels binary"),
    pytest.param(_label_transfer(homography="{d}/binary"), "InvalidInput", "{d}/binary",
                 id="homography binary"),
    pytest.param(PIPELINE + ["--config", "{d}/binary"], "InvalidInput", "{d}/binary", id="config binary"),
    pytest.param(PIPELINE + ["--config", "{d}/config_list.json"], "InvalidInput", "{d}/config_list.json",
                 id="config not an object"),
    pytest.param(_label_transfer(homography="{d}/h_abc.json"), "InvalidInput", "{d}/h_abc.json",
                 id="homography field not a matrix"),
    pytest.param(["verify", "{d}/p2.pgm", "{d}/p2.pgm"], "InvalidInput", "{d}/p2.pgm", id="verify ASCII PGM"),
    pytest.param(PIPELINE + ["--frames-dir", "{d}/trunc_frames"], "InvalidInput", "{d}/trunc_frames/frame_0.pgm",
                 id="pipeline truncated RGB frame"),
    pytest.param(PIPELINE + ["--frames-dir", "{d}/no_such_dir"], "InvalidInput", "{d}/no_such_dir",
                 id="pipeline frames dir missing"),
    pytest.param(PIPELINE + ["--frames-dir", "{a}/events.esf"], "InvalidInput", "{a}/events.esf",
                 id="pipeline frames dir is a file"),
    pytest.param(_label_transfer(homography="{d}/singular.json") + ["--invert"], "InvalidInput",
                 "{d}/singular.json", id="label-transfer singular homography"),
    pytest.param(PIPELINE + ["--homography", "{d}/singular.json"], "InvalidInput", "{d}/singular.json",
                 id="pipeline singular homography"),
    pytest.param(["synth", "-d", "{o}", "--duration-s", "0.1", "--homography", "{d}/singular.json",
                  "--warped-dir", "{o}_warped"], "InvalidInput", "{d}/singular.json", id="synth singular homography"),
    _needs_no_pillow(["accumulate", "{a}/events.esf", "--format", "png", "-d", "{o}"], "InvalidInput",
                     "{o}/frame_0.png", id="accumulate PNG without Pillow"),
    _needs_no_pillow(["verify", "{d}/x.png", "{d}/x.png"], "InvalidInput", "{d}/x.png", id="verify PNG without Pillow"),
    # beyond the rows above: a non-finite point, points that overflow, an empty image, a label past int range
    pytest.param(["calibrate", "--points", "{d}/points_nan.csv"], "MalformedLine", "points CSV line 2",
                 id="points not finite"),
    pytest.param(["calibrate", "--points", "{d}/points_huge.csv", "--no-ransac"], "DegenerateConfiguration",
                 "overflow", id="points overflow"),
    pytest.param(["verify", "{d}/empty.pgm", "{d}/empty.pgm"], "InvalidInput", "{d}/empty.pgm", id="verify empty PGM"),
    pytest.param(_label_transfer(labels="{d}/labels_inf.json"), "InvalidInput",
                 "{d}/labels_inf.json", id="labels frame_id overflows"),
    pytest.param(["encode", "--csv", "{d}/t_past_u64.csv", "--width", "4", "--height", "4", "-o", "{o}"],
                 "MalformedLine", "events CSV line 2", id="events CSV time past u64"),
    pytest.param(["encode", "--csv", "{d}/x_past_u16.csv", "--width", "4", "--height", "4", "-o", "{o}"],
                 "MalformedLine", "events CSV line 2: coordinate 70000", id="events CSV x past u16"),
    pytest.param(["encode", "--csv", "{d}/y_past_u16.csv", "--width", "4", "--height", "4", "-o", "{o}"],
                 "MalformedLine", "events CSV line 2: coordinate 70000", id="events CSV y past u16"),
]


@pytest.mark.parametrize("argv, kind, names", BAD_INPUTS)
def test_bad_input_is_a_typed_data_error_naming_it(scene, bad_inputs, tmp_path, capsys, argv, kind, names):
    where = {"a": scene / "a", "b": scene / "b", "d": bad_inputs, "o": tmp_path / "out"}
    assert run([arg.format(**where) for arg in argv]) == 2
    diag = _last_diag(capsys)
    assert diag["kind"] == kind and names.format(**where) in diag["msg"], diag


@pytest.mark.parametrize(
    "h",
    [{}, [[1, 2], [3]], [[1, "x", 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]],
     [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]]],
    ids=["dict", "ragged", "non-numeric", "2x2", "NaN", "singular"],
)
def test_homography_is_checked_once_at_load(scene, tmp_path, capsys, h):
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps({"h": h}))
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(scene / "a" / "labels.json"), "--homography", str(bad), "-o", str(out)]
    assert run(argv) == 2
    diag = _last_diag(capsys)
    assert diag["kind"] == "InvalidInput" and str(bad) in diag["msg"] and "'h'" in diag["msg"]
    assert not out.exists()


def _kinds(cls):
    """The names of ``cls`` and of every subclass of it."""
    return {cls.__name__}.union(*map(_kinds, cls.__subclasses__()))


@st.composite
def _encoded_streams(draw):
    """ESF-1 bytes of a small sorted stream: triggers may lie outside the event
    span, windows may be empty, one exposure may be all there is, and jitter
    may make exposures overlap."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    t = sorted(draw(st.lists(st.integers(0, 20_000), max_size=30)))
    coords = st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, height - 1), st.sampled_from([-1, 1])),
                      min_size=len(t), max_size=len(t))
    events = make_events(t, *zip(*draw(coords))) if t else make_events([], [], [], [])
    period, offset = draw(st.integers(1, 5_000)), draw(st.integers(0, 30_000))
    exposure = draw(st.integers(0, 2 * period))
    starts = [max(0, offset + k * period + j) for k, j in enumerate(draw(st.lists(st.integers(-period, period), max_size=6)))]
    edges = sorted([(s, 1) for s in starts] + [(s + exposure, 0) for s in starts])
    triggers = make_triggers([e[0] for e in edges], [e[1] for e in edges], [0] * len(edges))
    return codec.encode_esf(EventStream(StreamHeader(width, height), events, triggers))


# Word sequences in items: a time word, an event, a lone trigger edge, or an
# exposure's two edges, each after its own TIME_LOW, so that trigger times may
# run backwards and rows and columns may leave the sensor.
_RAW_ITEM = st.one_of(
    st.tuples(st.sampled_from([codec.TYPE_TIME_HIGH, codec.TYPE_TIME_LOW]), st.integers(0, 0xFFF)).map(lambda w: [w]),
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([0, 1 << 11])).map(
        lambda e: [(codec.TYPE_CD_Y, e[0]), (codec.TYPE_CD_X, e[2] | e[1])]),
    st.tuples(st.just(codec.TYPE_EXT_TRIGGER), st.integers(0, 1)).map(lambda w: [w]),
    st.tuples(st.integers(0, 0xFFF), st.integers(0, 0xFFF)).map(
        lambda ab: [(codec.TYPE_TIME_LOW, ab[0]), (codec.TYPE_EXT_TRIGGER, 1),
                    (codec.TYPE_TIME_LOW, ab[1]), (codec.TYPE_EXT_TRIGGER, 0)]),
)
_RAW_STREAMS = st.builds(_esf, st.integers(4, 8), st.integers(4, 8),
                         st.lists(_RAW_ITEM, max_size=16).map(lambda items: [w for item in items for w in item]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(esf=st.one_of(_encoded_streams(), _RAW_STREAMS), method=st.sampled_from(["m1", "m2", "m3", "m4"]))
def test_pipeline_on_any_stream_exits_0_or_a_typed_data_error(fuzz_dir, esf, method):
    (fuzz_dir / "events.esf").write_bytes(esf)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["pipeline", "--events", str(fuzz_dir / "events.esf"), "-d", str(fuzz_dir / "out"),
                         "--method", method, "--no-meta"])
    assert code in (0, 2)
    if code == 2:
        assert json.loads(err.getvalue().splitlines()[-1])["kind"] in _kinds(EvfuseError) | _kinds(OSError)


# -- checks that once ran only as CI steps through the installed script ----------------


def test_checker_scene_under_a_projective_homography(tmp_path):
    h_json = tmp_path / "H.json"
    h_json.write_text(json.dumps({"h": [[1.02, 0.01, 3.0], [-0.01, 0.99, 2.0], [1e-4, -5e-5, 1.0]]}))
    views, summary = [tmp_path / "chk", tmp_path / "chk_rgb"], tmp_path / "chk.json"
    assert run(["synth", "-d", str(views[0]), "--pattern", "checker", "--velocity", "80,-60",
                "--homography", str(h_json), "--warped-dir", str(views[1]), "-o", str(summary)]) == 0
    for view in views:
        assert run(["validate", str(view / "events.esf")]) == 0
    # one ground-truth label per frame in each view
    doc = json.loads(summary.read_text())
    assert len(doc) == 2 and all(v["n_labels"] == v["n_frames"] > 0 for v in doc.values())


def test_rate_report_memory_follows_events_not_a_2_31_us_span(tmp_path):
    csv, esf, report = tmp_path / "span.csv", tmp_path / "span.esf", tmp_path / "rate.json"
    csv.write_text("cd,0,0,0,+1\ncd,2147483648,1,1,-1\n")
    assert run(["encode", "--csv", str(csv), "--width", "2", "--height", "2", "-o", str(esf)]) == 0
    tracemalloc.start()  # 2^31 one-µs bins: the report's memory must follow its two events
    try:
        code = run(["rate", str(esf), "--bin-us", "1", "-o", str(report)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 50 * 2**20
    assert json.loads(report.read_text())["n_events"] == 2


def test_pipeline_homography_whose_inverse_vanishes_on_the_sensor_names_file_and_pixel(scene, tmp_path, capsys):
    # H^-1 sends sensor pixel (x, y) to w = 1 - x/100: all 180 pixels of column 100 pull back to infinity
    h_json = tmp_path / "H.json"
    h_json.write_text(json.dumps({"h": [[1, 0, 0], [0, 1, 0], [0.01, 0, 1]]}))
    argv = ["pipeline", "--events", str(scene / "a" / "events.esf"), "--frames-dir", str(scene / "b" / "frames"),
            "--homography", str(h_json), "-d", str(tmp_path / "out"), "--no-meta"]
    assert run(argv) == 2
    diag = _last_diag(capsys)
    assert diag["kind"] == "PointAtInfinity"
    assert f"--homography {str(h_json)!r}" in diag["msg"] and "the first at (x=100, y=0)" in diag["msg"], diag


def test_synth_homography_whose_inverse_vanishes_on_the_sensor_names_file_and_sensor(tmp_path, capsys):
    # the same H as above, through synth's second view on its default 240x180 sensor
    h_json = tmp_path / "H.json"
    h_json.write_text(json.dumps({"h": [[1, 0, 0], [0, 1, 0], [0.01, 0, 1]]}))
    argv = ["synth", "-d", str(tmp_path / "c"), "--homography", str(h_json), "--warped-dir", str(tmp_path / "d"),
            "--duration-s", "0.1"]
    assert run(argv) == 2
    diag = _last_diag(capsys)
    assert diag["kind"] == "PointAtInfinity"
    assert f"--homography {str(h_json)!r} on the 240x180 sensor: " in diag["msg"], diag
    assert "the first at (x=100, y=0)" in diag["msg"], diag
    assert not (tmp_path / "d").exists()
