"""Command-line interface: exit codes, output contracts, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from evfuse import cli
from evfuse.codec import read_esf
from evfuse.labels import iou, read_labels_json
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


def test_decode_encode_round_trip_is_byte_identical(scene, tmp_path):
    esf = scene / "a" / "events.esf"
    csv = tmp_path / "dump.csv"
    out = tmp_path / "back.esf"
    assert run(["decode", str(esf), "--csv", str(csv)]) == 0
    assert run(["encode", "--csv", str(csv), "--width", "240", "--height", "180", "-o", str(out)]) == 0
    assert out.read_bytes() == esf.read_bytes()


def test_info_reports_geometry_and_counts(scene, capsys):
    assert run(["info", str(scene / "a" / "events.esf")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["width"] == 240 and doc["height"] == 180
    assert doc["n_events"] > 0 and doc["n_triggers"] == 14


def test_validate_clean_stream_exits_zero(scene, capsys):
    assert run(["validate", str(scene / "a" / "events.esf")]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_sync_writes_windows_csv(scene, tmp_path, capsys):
    out = tmp_path / "win.csv"
    assert run(["sync", str(scene / "a" / "events.esf"), "--method", "m4", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "frame_id,t0_us,t1_us"
    assert len(lines) == 8  # 7 frames + header


def test_accumulate_writes_frame_files(scene, tmp_path, capsys):
    out_dir = tmp_path / "acc"
    assert run(["accumulate", str(scene / "a" / "events.esf"), "--method", "m3", "-d", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["frames"]) == 7
    for entry in doc["frames"]:
        assert (out_dir / f"frame_{entry['frame_id']}.pgm").exists()


def test_calibrate_fits_planted_homography(tmp_path, capsys):
    rng = np.random.default_rng(3)
    h = np.array([[1.0, 0.01, 4.0], [-0.02, 1.0, 7.0], [0.0, 0.0, 1.0]])
    src = rng.uniform(10, 400, size=(40, 2))
    q = np.hstack([src, np.ones((40, 1))]) @ h.T
    dst = q[:, :2] / q[:, 2:]
    pts = tmp_path / "pts.csv"
    rows = ["src_x,src_y,dst_x,dst_y"] + [f"{a[0]},{a[1]},{b[0]},{b[1]}" for a, b in zip(src, dst)]
    pts.write_text("\n".join(rows) + "\n")
    hout = tmp_path / "H.json"
    assert run(["calibrate", "--points", str(pts), "-o", str(hout)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["max_px"] < 1e-6
    fitted = np.asarray(json.loads(hout.read_text())["h"])
    assert np.allclose(fitted / fitted[2, 2], h, atol=1e-6)


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


def test_erc_thins_and_output_decodes(scene, tmp_path, capsys):
    out = tmp_path / "thin.esf"
    assert run(["erc", str(scene / "a" / "events.esf"), "--cap-evps", "50000", "-o", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_out"] < doc["n_in"]
    thinned = read_esf(str(out))
    assert thinned.events.shape[0] == doc["n_out"]
    assert thinned.triggers.shape[0] == 14  # triggers pass through untouched


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


def test_optics_no_mode_is_usage_error():
    assert run(["optics", "--sensor", "evk4"]) == 1


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
    assert _last_diag(capsys)["kind"] == "ValueError"
    assert not out_dir.exists()


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
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--jobs", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--bin-us", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--erc-cap-evps", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--erc-period-us", "-1"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--clip", "0"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--channel", "16"],
    ["pipeline", "--events", "{missing}", "-d", "{out}", "--channel", "-1"],
    ["sync", "{missing}", "-o", "{out}", "--channel", "16"],
    ["accumulate", "{missing}", "-d", "{out}", "--channel", "16"],
    ["sync", "{missing}", "-o", "{out}", "--custom", "start:-5:5"],
    ["accumulate", "{missing}", "-d", "{out}", "--method", "m9"],
    ["accumulate", "{missing}", "-d", "{out}", "--clip", "0"],
    ["rate", "{missing}", "-o", "{out}", "--bin-us", "0"],
    ["rate", "{missing}", "-o", "{out}", "--saturation-evps", "0"],
    ["rate", "{missing}", "-o", "{out}", "--saturation-evps", "-5"],
    ["rate", "{missing}", "-o", "{out}", "--saturation-evps", "nan"],
    ["erc", "{missing}", "-o", "{out}", "--cap-evps", "0"],
    ["erc", "{missing}", "-o", "{out}", "--period-us", "0"],
]


@pytest.mark.parametrize("argv", BAD_OPTION_ARGV, ids=lambda argv: " ".join(argv[0:1] + argv[-2:]))
def test_bad_option_value_is_usage_error_before_input_is_read(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([a.format(missing=tmp_path / "missing.esf", out=out) for a in argv]) == 1
    assert _last_diag(capsys)["kind"] == "usage"
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [{"method": "m9"}, {"custom": "start:1"}, {"jobs": 0}, {"bin_us": 0}, {"erc_cap_evps": 0},
     {"erc_period_us": 0}, {"clip": -3}, {"channel": 16}],
)
def test_bad_config_value_is_usage_error_before_input_is_read(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["pipeline", "--events", str(tmp_path / "missing.esf"), "--config", str(cfg), "-d", str(out)]) == 1
    assert _last_diag(capsys)["kind"] == "usage"
    assert not out.exists()


def test_label_transfer_rejects_labels_that_are_not_a_list(scene, tmp_path, capsys):
    bad = tmp_path / "labels.json"
    bad.write_text(json.dumps({"a": 1}))
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(bad), "--homography", str(scene / "b" / "homography.json"), "-o", str(out)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "ValueError" and str(bad) in rec["msg"]
    assert not out.exists()


def test_label_transfer_rejects_homography_that_is_not_an_object(scene, tmp_path, capsys):
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    out = tmp_path / "moved.json"
    argv = ["label-transfer", "--labels", str(scene / "a" / "labels.json"), "--homography", str(bad), "-o", str(out)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "ValueError" and "object" in rec["msg"]
    assert not out.exists()


def test_pipeline_rejects_windows_csv_with_repeated_frame_id(scene, tmp_path, capsys):
    windows_csv = tmp_path / "windows.csv"
    windows_csv.write_text("frame_id,t0_us,t1_us\n0,0,50000\n1,50000,100000\n# again\n0,100000,150000\n")
    out_dir = tmp_path / "o"
    argv = ["pipeline", "--events", str(scene / "a" / "events.esf"), "--windows", str(windows_csv), "-d", str(out_dir)]
    assert run(argv) == 2
    rec = _last_diag(capsys)
    assert rec["kind"] == "ValueError" and "line 5" in rec["msg"] and "line 2" in rec["msg"]
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
    assert rec["kind"] == "ValueError" and f"line {line}" in rec["msg"] and bad in rec["msg"]
    assert not out_dir.exists()
