"""End-to-end CLI tests: the gen-data -> train -> calibrate -> eval ->
detect -> bench chain, exit codes, and byte-level reproducibility."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowad.checkpoint import load_checkpoint, save_checkpoint
from flowad.cli import main
from flowad.config import build_config
from flowad.data import WindowingConfig, load_records, manifest_path, save_records
from flowad.detection import CalibrationStats, StreamDetector, Verdict
from flowad.errors import InputError
from flowad.evaluation import evaluate, per_type_auroc, roc_curve, score_records
from flowad.fastpath import ScoringRuntime
from flowad.model import ModelConfig
from flowad.stream import _write_verdicts, frame_blocks
from flowad.synth import SynthConfig
from flowad.training import TrainConfig

CONFIG = {
    "windowing": {"window_len": 40, "stride": 20},
    "model": {
        "hidden_size": 8,
        "latent_size": 6,
        "flow_layers": 1,
        "made_hidden": 8,
        "disc_widths": [8],
    },
    "train": {"epochs": 2, "batch_size": 8, "seed": 5},
    "synth": {"n_signals": 4, "n_frames": 100, "seed": 9},
}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """One artifact chain shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    train_csv = root / "train.csv"
    test_csv = root / "test.csv"
    ckpt = root / "model.ckpt"
    ckpt_uncal = root / "model-uncal.ckpt"
    ckpt_sample = root / "model-sample.ckpt"
    sample_cfg = root / "sample.json"
    sample_cfg.write_text(json.dumps({**CONFIG, "detect": {"eps_mode": "sample"}}))
    assert main(["gen-data", "--config", str(cfg), "--num-normal", "10",
                 "--out", str(train_csv)]) == 0
    assert main(["gen-data", "--config", str(cfg), "--seed", "21", "--num-normal", "6",
                 "--num-anomalous", "6", "--out", str(test_csv)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(train_csv),
                 "--out", str(ckpt)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(train_csv),
                 "--out", str(ckpt_uncal)]) == 0
    assert main(["calibrate", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--data", str(train_csv)]) == 0
    assert main(["calibrate", "--config", str(sample_cfg), "--checkpoint", str(ckpt_uncal),
                 "--data", str(train_csv), "--out", str(ckpt_sample)]) == 0
    return {
        "root": root,
        "cfg": str(cfg),
        "train_csv": train_csv,
        "test_csv": test_csv,
        "ckpt": str(ckpt),
        "ckpt_uncal": str(ckpt_uncal),
        "ckpt_sample": str(ckpt_sample),
    }


def _overflowing_csv(src, path):
    """src with one cell of its first normal record set to 1e39: finite in
    float64, so the CSV loads, but out of the float32 scoring range.
    Returns the new CSV and that record's sample_id."""
    records = load_records(src)
    rec = next(r for r in records if r.label == "normal")
    rec.frames[50, 1] = 1e39
    save_records(records, path)
    return path, rec.sample_id


def _frames_file(env, path, n_signals=4, rows=None, record_idx=0):
    records = load_records(env["test_csv"])
    frames = records[record_idx].frames if rows is None else rows
    lines = []
    for i, frame in enumerate(frames):
        lines.append(",".join([str(i)] + [repr(float(v)) for v in frame[:n_signals]]))
    path.write_text("\n".join(lines) + "\n")
    return path


# Header edits that leave the JSON well formed but contradict the payload
# or carry values no model can use.
_HEADER_EDITS = {
    "flow_layers": lambda h: h["model_config"].update(flow_layers=5),
    "hidden_size": lambda h: h["model_config"].update(hidden_size=9),  # arrays have 8 units
    "n_signals_missing": lambda h: h["model_config"].pop("n_signals"),
    "n_signals_float": lambda h: h["model_config"].update(
        n_signals=float(h["model_config"]["n_signals"])),
    "window_len_float": lambda h: h["model_config"].update(
        window_len=float(h["model_config"]["window_len"])),
    "alpha_const_nan": lambda h: h["model_config"].update(alpha_const=float("nan")),
    "array_renamed": lambda h: h["arrays"][0].update(name="lstm_v"),
    "norm_mean_missing": lambda h: h["norm_stats"]["mean"].pop(),
    "norm_std_nan": lambda h: h["norm_stats"]["std"].__setitem__(0, float("nan")),
    "norm_std_zero": lambda h: h["norm_stats"]["std"].__setitem__(0, 0.0),
    "meta_list": lambda h: h.update(meta=[1]),
    "resolved_config_string": lambda h: h["meta"].update(resolved_config="x"),
    "windowing_list": lambda h: h["meta"]["resolved_config"].update(windowing=[1]),
    "stride_float": lambda h: h["meta"]["resolved_config"]["windowing"].update(stride=50.0),
}


class TestGenData:
    def test_csv_and_manifest_written(self, env):
        records = load_records(env["train_csv"])
        assert len(records) == 10
        assert all(r.label == "normal" for r in records)
        assert records[0].frames.shape == (100, 4)
        doc = json.loads(manifest_path(env["train_csv"]).read_text())
        assert doc["n_signals"] == 4 and doc["num_records"] == 10
        assert doc["resolved_config"]["synth"]["seed"] == 9

    def test_labeled_set_cycles_anomaly_kinds(self, env):
        records = load_records(env["test_csv"])
        kinds = [r.anomaly_type for r in records if r.label == "anomalous"]
        assert kinds == ["spike", "drift", "dropout", "spike", "drift", "dropout"]

    def test_byte_identical_reruns(self, env, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["gen-data", "--config", env["cfg"], "--num-normal", "10",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_synth_key_exits_2(self, env, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synth": {"n_signals": 4, "wiggle": 3}}))
        code = main(["gen-data", "--config", str(bad), "--num-normal", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "synth config" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_and_log(self, env):
        ckpt = load_checkpoint(env["ckpt_uncal"])
        assert ckpt.config.n_signals == 4
        assert ckpt.config.window_len == 40
        assert ckpt.config.latent_size == 6
        assert ckpt.calibration is None
        assert ckpt.meta["resolved_config"]["train"]["epochs"] == 2
        log_lines = (env["root"] / "model-uncal.ckpt.log.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in log_lines]
        assert [e["epoch"] for e in entries] == [0, 1]

    def test_byte_identical_reruns(self, env, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert main(["train", "--config", env["cfg"], "--data",
                         str(env["train_csv"]), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_weights(self, env, tmp_path):
        out = tmp_path / "s.ckpt"
        assert main(["train", "--config", env["cfg"], "--data", str(env["train_csv"]),
                     "--out", str(out), "--seed", "99"]) == 0
        base = load_checkpoint(env["ckpt_uncal"]).generator["lstm_w"]
        other = load_checkpoint(str(out)).generator["lstm_w"]
        assert not np.array_equal(base, other)

    def test_ablation_no_flow(self, env, tmp_path):
        out = tmp_path / "nf.ckpt"
        assert main(["train", "--config", env["cfg"], "--data", str(env["train_csv"]),
                     "--out", str(out), "--ablation", "no-flow"]) == 0
        cfg = load_checkpoint(str(out)).config
        assert cfg.flow_layers == 0 and cfg.use_flow is False
        assert cfg.latent_size == 6 and cfg.disc_widths == (8,)  # widths kept

    def test_ablation_no_sparsity(self, env, tmp_path):
        out = tmp_path / "ns.ckpt"
        assert main(["train", "--config", env["cfg"], "--data", str(env["train_csv"]),
                     "--out", str(out), "--ablation", "no-sparsity"]) == 0
        ckpt = load_checkpoint(str(out))
        assert ckpt.config.use_sparsity is False
        assert ckpt.config.latent_size == 2  # compressed to N // 2
        assert ckpt.meta["resolved_config"]["train"]["lam"] == 0.0

    def test_freq_downsample(self, env, tmp_path):
        out = tmp_path / "ds.ckpt"
        assert main(["train", "--config", env["cfg"], "--data", str(env["train_csv"]),
                     "--out", str(out), "--freq-downsample", "2"]) == 0
        meta = load_checkpoint(str(out)).meta["resolved_config"]
        assert meta["freq_downsample"] == 2

    @pytest.mark.parametrize("factor", ["0", "-2"])
    def test_freq_downsample_below_one_exits_2(self, env, tmp_path, capsys, factor):
        out = tmp_path / "ds.ckpt"
        assert main(["train", "--config", env["cfg"], "--data", str(env["train_csv"]),
                     "--out", str(out), "--freq-downsample", factor]) == 2
        assert "--freq-downsample" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_json_exits_2(self, env, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        code = main(["train", "--config", str(bad), "--data", str(env["train_csv"]),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestCalibrate:
    def test_stats_stored(self, env):
        ckpt = load_checkpoint(env["ckpt"])
        assert ckpt.calibration is not None
        assert ckpt.calibration["n_windows"] == 40  # 10 records x 4 windows
        assert ckpt.calibration["sigma"] > 0
        assert ckpt.calibration["eps_mode"] == "zero"
        assert len(ckpt.calibration["scores_sorted"]) == 40

    def test_recalibration_warns(self, env, capsys):
        assert main(["calibrate", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--data", str(env["train_csv"])]) == 0
        assert "already calibrated" in capsys.readouterr().err

    def test_anomalous_data_exits_2(self, env, capsys):
        code = main(["calibrate", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--data", str(env["test_csv"])])
        assert code == 2
        assert "only normal" in capsys.readouterr().err

    def test_overflowing_cell_exits_2(self, env, tmp_path, capsys):
        csv, _ = _overflowing_csv(env["train_csv"], tmp_path / "train.csv")
        out = tmp_path / "out.ckpt"
        code = main(["calibrate", "--config", env["cfg"], "--checkpoint", env["ckpt_uncal"],
                     "--data", str(csv), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        # Row 50 of the first record falls in its windows 1 and 2 (T_W=40, T_S=20).
        assert err.startswith("error: calibration window 1 (counted from 0) has a non-finite")
        assert "Warning" not in err and not out.exists()


def _damaged_csv(env, tmp_path, damage):
    """env's training CSV and manifest, with one cell of row 3 damaged."""
    lines = env["train_csv"].read_bytes().split(b"\n")
    cells = lines[2].split(b",")
    if damage == "non-utf8":
        cells[0] += b"\xff"
    else:  # one byte over the csv module's field size limit
        cells[5] = b"1" + b"0" * 131_072
    lines[2] = b",".join(cells)
    path = tmp_path / "train.csv"
    path.write_bytes(b"\n".join(lines))
    manifest_path(path).write_text(manifest_path(env["train_csv"]).read_text())
    return path


@pytest.mark.parametrize("command", ["train", "calibrate", "eval"])
@pytest.mark.parametrize(
    "damage,message",
    [("non-utf8", "row 3: cell is not valid UTF-8: b'normal_0000\\xff'"),
     ("over-long", "row 3: field larger than field limit (131072)")],
    ids=["non-utf8", "over-long"],
)
def test_undecodable_or_over_long_dataset_cell_exits_2_naming_the_row(
        env, tmp_path, capsys, command, damage, message):
    data = str(_damaged_csv(env, tmp_path, damage))
    out = str(tmp_path / "out")
    args = {
        "train": ["--data", data, "--out", out],
        "calibrate": ["--checkpoint", env["ckpt_uncal"], "--data", data, "--out", out],
        "eval": ["--checkpoint", env["ckpt"], "--data", data, "--out", out],
    }[command]
    assert main([command, "--config", env["cfg"], *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestEval:
    def test_report_and_roc(self, env, tmp_path):
        report_path = tmp_path / "report.json"
        roc_path = tmp_path / "roc.csv"
        assert main(["eval", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--data", str(env["test_csv"]), "--out", str(report_path),
                     "--roc-out", str(roc_path)]) == 0
        report = json.loads(report_path.read_text())
        assert set(report["per_type"]) == {"spike", "drift", "dropout"}
        assert 0.0 <= report["overall_mean"] <= 1.0
        assert report["n_records"] == 12 and report["n_skipped"] == 0
        lines = roc_path.read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        first = [float(c) for c in lines[1].split(",")]
        last = [float(c) for c in lines[-1].split(",")]
        assert first == [0.0, 0.0] and last == [1.0, 1.0]

    def test_roc_matches_report_scores_in_sample_mode(self, env, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(CONFIG, detect={"eps_mode": "sample",
                                                             "eps_seed": 7})))
        ckpt = tmp_path / "sample.ckpt"
        assert main(["calibrate", "--config", str(cfg_path), "--checkpoint", env["ckpt_uncal"],
                     "--data", str(env["train_csv"]), "--out", str(ckpt)]) == 0
        report_path, roc_path = tmp_path / "report.json", tmp_path / "roc.csv"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--data", str(env["test_csv"]), "--out", str(report_path),
                     "--roc-out", str(roc_path)]) == 0
        # Rescore as the report must have: sampled eps with the configured seed.
        loaded = load_checkpoint(ckpt)
        scored, _ = score_records(
            load_records(env["test_csv"]), ScoringRuntime.from_checkpoint(loaded),
            CalibrationStats.from_dict(loaded.calibration),
            WindowingConfig(**CONFIG["windowing"]), 7,
        )
        report = json.loads(report_path.read_text())
        assert report["per_type"] == per_type_auroc(scored)["per_type"]
        points = roc_curve([r.record_score for r in scored], [r.label != "normal" for r in scored])
        want = "fpr,tpr\n" + "".join(f"{float(f)!r},{float(t)!r}\n" for f, t in points)
        assert roc_path.read_text() == want

    def test_corrupt_checkpoint_header_exits_2(self, env, tmp_path, capsys):
        with open(env["ckpt"], "rb") as fh:
            raw = fh.read()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:12] + b"]" + raw[13:])  # the header's opening brace
        code = main(["eval", "--config", env["cfg"], "--checkpoint", str(bad),
                     "--data", str(env["test_csv"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", sorted(_HEADER_EDITS))
    def test_header_that_contradicts_its_payload_exits_2(self, env, tmp_path, capsys, edit):
        # The payload and so its digest stay valid; only the header changes.
        with open(env["ckpt"], "rb") as fh:
            raw = fh.read()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + hlen])
        _HEADER_EDITS[edit](header)
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])
        code = main(["eval", "--config", env["cfg"], "--checkpoint", str(bad),
                     "--data", str(env["test_csv"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: checkpoint" in err
        assert "Error(" not in err  # worded, not an exception's repr

    @pytest.mark.parametrize("damage", ["truncated", "keyless"])
    def test_corrupt_dataset_manifest_exits_2(self, env, tmp_path, capsys, damage):
        data = tmp_path / "test.csv"
        data.write_bytes(env["test_csv"].read_bytes())
        text = manifest_path(env["test_csv"]).read_text()
        if damage == "truncated":
            text = text[: len(text) // 2]
        else:
            doc = json.loads(text)
            del doc["n_signals"]
            text = json.dumps(doc)
        manifest_path(data).write_text(text)
        code = main(["eval", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--data", str(data), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "manifest test.manifest.json" in capsys.readouterr().err

    def test_calibration_without_mu_exits_2(self, env, tmp_path, capsys):
        ckpt = load_checkpoint(env["ckpt"])
        calibration = dict(ckpt.calibration)
        del calibration["mu"]
        bad = tmp_path / "no-mu.ckpt"
        save_checkpoint(bad, dataclasses.replace(ckpt, calibration=calibration))
        code = main(["eval", "--config", env["cfg"], "--checkpoint", str(bad),
                     "--data", str(env["test_csv"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "calibration stats are malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    def test_record_with_wrong_signal_count_exits_2_naming_it(
            self, env, tmp_path, capsys, command):
        records = load_records(env["train_csv"])
        narrow = [dataclasses.replace(r, frames=r.frames[:, :3]) for r in records]
        args = _command_args(env, tmp_path, command)
        args[args.index("--data") + 1] = str(save_records(narrow, tmp_path / "narrow.csv"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"record '{records[0].sample_id}' has 3 signals, checkpoint expects 4" in err

    def test_overflowing_cell_exits_2_naming_the_record(self, env, tmp_path, capsys):
        csv, sample_id = _overflowing_csv(env["test_csv"], tmp_path / "test.csv")
        out = tmp_path / "report.json"
        code = main(["eval", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--data", str(csv), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: record '{sample_id}': window 1 has a non-finite L1")
        assert "Warning" not in err and not out.exists()

    def test_report_byte_identical_reruns(self, env, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["eval", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                         "--data", str(env["test_csv"]), "--out", str(out)]) == 0
        raw_a = a.read_bytes()
        raw_b = b.read_bytes()
        # the stored paths differ; normalize them out before comparing
        assert raw_a.replace(b"a.json", b"") == raw_b.replace(b"b.json", b"")

    def test_uncalibrated_checkpoint_exits_2(self, env, tmp_path, capsys):
        code = main(["eval", "--config", env["cfg"], "--checkpoint", env["ckpt_uncal"],
                     "--data", str(env["test_csv"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "calibrate" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, env, tmp_path):
        code = main(["eval", "--config", env["cfg"], "--checkpoint",
                     str(tmp_path / "ghost.ckpt"), "--data", str(env["test_csv"]),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2


class TestDetect:
    def test_file_input_verdict_stream(self, env, tmp_path, capsys):
        frames = _frames_file(env, tmp_path / "frames.txt")
        assert main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(frames), "--threshold", "3.0"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        verdicts = [json.loads(line) for line in out_lines]
        # 100 frames, T_W=40, T_S=20 -> 4 verdicts
        assert [v["window_start"] for v in verdicts] == [0, 20, 40, 60]
        for v in verdicts:
            assert isinstance(v["is_anomaly"], bool)
            assert v["is_anomaly"] == (v["score"] > 3.0)
            assert v["inference_us"] >= 0.0

    def test_target_fpr_threshold(self, env, tmp_path, capsys):
        frames = _frames_file(env, tmp_path / "frames.txt")
        assert main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(frames), "--target-fpr", "0.1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_stdin_subprocess_round_trip(self, env, tmp_path):
        frames = _frames_file(env, tmp_path / "frames.txt")
        proc = subprocess.run(
            [sys.executable, "-m", "flowad.cli", "detect", "--checkpoint",
             env["ckpt"], "--input", "-", "--threshold", "3.0"],
            input=frames.read_text(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip().splitlines()) == 4

    def test_missing_input_file_exits_2(self, env, tmp_path, capsys):
        missing = tmp_path / "absent" / "frames.txt"
        code = main(["detect", "--checkpoint", env["ckpt"], "--input", str(missing),
                     "--threshold", "3.0"])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_threshold_conflict_exits_2(self, env, tmp_path):
        frames = _frames_file(env, tmp_path / "frames.txt")
        assert main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(frames), "--threshold", "1.0",
                     "--target-fpr", "0.1"]) == 2

    def test_no_threshold_exits_2(self, env, tmp_path, capsys):
        frames = _frames_file(env, tmp_path / "frames.txt")
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(frames)])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_width_mismatch_mid_stream_exits_2_naming_the_line(self, env, tmp_path, capsys):
        records = load_records(env["test_csv"])
        good = records[0].frames[:10]
        path = tmp_path / "broken.txt"
        lines = [",".join([str(i)] + [repr(float(v)) for v in f]) for i, f in enumerate(good)]
        lines.append("10,1.0,2.0,3.0")  # one signal short
        path.write_text("\n".join(lines) + "\n")
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(path), "--threshold", "3.0"])
        assert code == 2
        assert "stream line 11: expected 4 signals, got 3" in capsys.readouterr().err

    def test_unparseable_line_exits_2(self, env, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("0,1.0,2.0,3.0,4.0\nnot,numbers,at,all,x\n")
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(path), "--threshold", "3.0"])
        assert code == 2
        assert "stream line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2(self, env, tmp_path, capsys, cell):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"0,1.0,2.0,3.0,4.0\n1,1.0,{cell},3.0,4.0\n")
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(path), "--threshold", "3.0"])
        assert code == 2
        assert "stream line 2: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("indices,got,want", [((0, 1, 3), 3, 2), ((0, 1, 1), 1, 2)],
                             ids=["gap", "repeat"])
    def test_frame_idx_out_of_order_exits_2(self, env, tmp_path, capsys, indices, got, want):
        path = tmp_path / "frames.txt"
        path.write_text("".join(f"{i},1.0,2.0,3.0,4.0\n" for i in indices))
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(path), "--threshold", "3.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"stream line 3: frame_idx {got} out of order (expected {want})" in err

    def test_uncalibrated_checkpoint_exits_2(self, env, tmp_path):
        frames = _frames_file(env, tmp_path / "frames.txt")
        assert main(["detect", "--config", env["cfg"], "--checkpoint",
                     env["ckpt_uncal"], "--input", str(frames),
                     "--threshold", "3.0"]) == 2

    def test_overflowing_frames_give_null_anomalous_scores(self, env, tmp_path, capsys):
        # 1e39 passes the frame check (finite in float64) but overflows the
        # float32 kernel. NaN is not JSON: the score is null, and anomalous.
        rows = np.full((60, 4), 1e39)
        rows[:20] = load_records(env["test_csv"])[0].frames[:20, :4]
        frames = _frames_file(env, tmp_path / "frames.txt", rows=rows)
        assert main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(frames), "--threshold", "3.0"]) == 0
        out, err = capsys.readouterr()
        verdicts = [json.loads(line, parse_constant=pytest.fail) for line in out.splitlines()]
        assert [(v["window_start"], v["score"], v["is_anomaly"]) for v in verdicts] == [
            (0, None, True), (20, None, True)
        ]
        assert err.splitlines() == [
            f"warning: window_start {s} has a non-finite score; flagged anomalous"
            for s in (0, 20)
        ]

    @pytest.mark.parametrize("period", ["0", "-1", "inf", "nan"])
    def test_non_positive_stride_period_exits_2(self, env, tmp_path, capsys, period):
        frames = _frames_file(env, tmp_path / "frames.txt")
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(frames), "--threshold", "3.0",
                     "--stride-period-s", period])
        assert code == 2
        assert "stride period must be finite and > 0" in capsys.readouterr().err

    def test_metrics_out_counts_the_run_and_leaves_stdout_alone(self, env, tmp_path, capsys):
        frames = _frames_file(env, tmp_path / "frames.txt")
        args = ["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                "--input", str(frames), "--threshold", "3.0"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        metrics = tmp_path / "metrics.json"
        assert main([*args, "--metrics-out", str(metrics), "--stride-period-s", "1e-9"]) == 0
        out = capsys.readouterr().out

        def strip(text):
            return [{k: v for k, v in json.loads(line).items() if k != "inference_us"}
                    for line in text.splitlines()]

        assert strip(out) == strip(plain)
        verdicts = [json.loads(line) for line in out.splitlines()]
        doc = json.loads(metrics.read_text())
        assert doc["frames"] == 100 and doc["verdicts"] == 4 == len(verdicts)
        assert doc["blocks"] == 1  # the whole file came in one read
        assert doc["anomalies"] == sum(v["is_anomaly"] for v in verdicts)
        assert doc["rejected_frames"] == 0
        assert doc["overruns"] == 4  # no stride fits in a nanosecond
        tails = sorted(v["inference_us"] for v in verdicts)
        assert tails[0] <= doc["tail_us"]["p50"] <= doc["tail_us"]["p99"] <= tails[-1]
        # Every frame's push time is its share of its block's, here one block.
        assert 0.0 < doc["push_us"]["p50"] == doc["push_us"]["p99"]
        assert doc["backend"] == "numpy"
        assert set(doc["blas_threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS"}

    def test_metrics_out_counts_the_frame_that_ends_the_stream(self, env, tmp_path):
        path = tmp_path / "frames.txt"
        path.write_text("0,1.0,2.0,3.0,4.0\n1,1.0,2.0\n")
        metrics = tmp_path / "metrics.json"
        assert main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(path), "--threshold", "3.0",
                     "--metrics-out", str(metrics)]) == 2
        doc = json.loads(metrics.read_text())
        assert (doc["frames"], doc["verdicts"], doc["rejected_frames"]) == (1, 0, 1)
        assert doc["blocks"] == 1  # the short line ends the read's block
        assert doc["tail_us"] == {"p50": None, "p99": None}

    @pytest.mark.parametrize("section, flags", [
        ({"threshold": 1.0, "target_fpr": 0.1}, []),
        ({"target_fpr": 0.1}, ["--threshold", "1.0"]),
        ({"threshold": 1.0}, ["--target-fpr", "0.1"]),
    ], ids=["config-both", "config-fpr-flag-threshold", "config-threshold-flag-fpr"])
    def test_a_threshold_and_a_target_fpr_from_anywhere_exit_2_naming_both(
            self, env, tmp_path, capsys, section, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "detect": section}))
        frames = _frames_file(env, tmp_path / "frames.txt")
        assert main(["detect", "--config", str(cfg), "--checkpoint", env["ckpt"],
                     "--input", str(frames), *flags]) == 2
        err = capsys.readouterr().err
        assert "threshold" in err and "target_fpr" in err

    def test_one_write_and_one_flush_per_block_with_verdicts(self, env, tmp_path, monkeypatch):
        # Windows end at frames 39, 59, 79 and 99: of the four reads, the
        # second completes one window and the last three.
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=_Reads(_frame_reads(
            env, tmp_path, (30, 45, 50)))))
        stdout = _CountedStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", "-", "--threshold", "3.0"]) == 0
        assert [text.count("\n") for text in stdout.writes] == [1, 3]
        assert stdout.flushes == 2

    def test_metrics_out_bytes_on_a_fixed_clock(self, env, tmp_path, monkeypatch):
        # Each clock read advances 1 us, which fixes every push and tail
        # time. These are the bytes the detector wrote when it kept its
        # samples in lists of floats.
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=_Reads(_frame_reads(
            env, tmp_path, (30, 45, 50)))))
        ticks = itertools.count(0, 1000)
        monkeypatch.setattr(time, "perf_counter_ns", lambda: next(ticks))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        metrics = tmp_path / "metrics.json"
        assert main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"], "--input",
                     "-", "--threshold", "1e9", "--metrics-out", str(metrics)]) == 0
        assert metrics.read_text() == _FIXED_CLOCK_METRICS

    def test_metrics_out_into_a_directory_exits_2(self, env, tmp_path, capsys):
        frames = _frames_file(env, tmp_path / "frames.txt")
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(frames), "--threshold", "3.0",
                     "--metrics-out", str(tmp_path)])
        assert code == 2
        assert f"cannot write --metrics-out {tmp_path}" in capsys.readouterr().err


# Four reads of 30, 15, 5 and 50 frames: each frame's push time is 4 us over
# its read's frame count, and each tail takes 1 us.
_FIXED_CLOCK_METRICS = (
    '{\n'
    '  "anomalies": 0,\n'
    '  "backend": "numpy",\n'
    '  "blas_threads": {\n'
    '    "MKL_NUM_THREADS": "1",\n'
    '    "OMP_NUM_THREADS": "1",\n'
    '    "OPENBLAS_NUM_THREADS": "1"\n'
    '  },\n'
    '  "blocks": 4,\n'
    '  "frames": 100,\n'
    '  "overruns": 0,\n'
    '  "push_us": {\n'
    '    "p50": 0.10666666666666666,\n'
    '    "p99": 0.8\n'
    '  },\n'
    '  "rejected_frames": 0,\n'
    '  "tail_us": {\n'
    '    "p50": 1.0,\n'
    '    "p99": 1.0\n'
    '  },\n'
    '  "verdicts": 4\n'
    '}\n'
)


def _frame_reads(env, tmp_path, edges):
    """The lines of `_frames_file` cut into reads at the given frames."""
    lines = _frames_file(env, tmp_path / "frames.txt").read_bytes().splitlines(keepends=True)
    bounds = (0, *edges, len(lines))
    return [b"".join(lines[a:b]) for a, b in zip(bounds, bounds[1:])]


class _CountedStdout:
    def __init__(self):
        self.writes, self.flushes = [], 0

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        self.flushes += 1


_SCORES = st.one_of(st.floats(),
                    st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]))


@settings(deadline=None)
@given(st.lists(st.builds(Verdict, st.integers(0, 2**70), _SCORES, st.booleans(),
                          st.floats(0.0, 1e9)), max_size=12))
def test_a_blocks_verdict_lines_are_the_json_dumps_of_their_fields(verdicts):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _write_verdicts(verdicts)
    assert out.getvalue() == "".join(
        json.dumps({"window_start": v.window_start,
                    "score": v.score if math.isfinite(v.score) else None,
                    "is_anomaly": v.is_anomaly, "inference_us": v.inference_us}) + "\n"
        for v in verdicts)
    assert err.getvalue() == "".join(
        f"warning: window_start {v.window_start} has a non-finite score; flagged anomalous\n"
        for v in verdicts if not math.isfinite(v.score))


def _verdicts(stdout: str) -> list[dict]:
    """Verdict lines without `inference_us`, which is a timing."""
    return [{k: v for k, v in json.loads(line).items() if k != "inference_us"}
            for line in stdout.splitlines()]


def _detect_subprocess(args, stdin: bytes | None = None):
    # Strict UTF-8 stdio: what stdin decoding would be under a UTF-8 locale.
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
    return subprocess.run([sys.executable, "-m", "flowad.cli", "detect", *args], input=stdin,
                          capture_output=True, timeout=120, env=env)


@pytest.mark.parametrize("eps_mode", ["zero", "sample"])
def test_file_and_stdin_give_the_verdicts_of_frame_at_a_time_scoring(env, tmp_path, eps_mode):
    cfg, ckpt = env["cfg"], env["ckpt"]
    if eps_mode == "sample":
        cfg = tmp_path / "sample.json"
        cfg.write_text(json.dumps({**CONFIG, "detect": {"eps_mode": "sample", "eps_seed": 3}}))
        ckpt = str(tmp_path / "sample.ckpt")
        assert main(["calibrate", "--config", str(cfg), "--checkpoint", env["ckpt"],
                     "--data", str(env["train_csv"]), "--out", ckpt]) == 0
    # Twelve records back to back: about 100 KB, so several reads and blocks.
    records = load_records(env["test_csv"])
    rows = np.concatenate([r.frames for r in records])
    frames = _frames_file(env, tmp_path / "frames.txt", rows=rows)
    args = ["--config", str(cfg), "--checkpoint", ckpt, "--threshold", "3.0"]
    from_file = _detect_subprocess([*args, "--input", str(frames)])
    from_stdin = _detect_subprocess([*args, "--input", "-"], stdin=frames.read_bytes())
    assert from_file.returncode == from_stdin.returncode == 0, from_stdin.stderr
    assert _verdicts(from_file.stdout.decode()) == _verdicts(from_stdin.stdout.decode())
    loaded = load_checkpoint(ckpt)
    calib = CalibrationStats.from_dict(loaded.calibration)
    assert calib.eps_mode == eps_mode
    det = StreamDetector(ScoringRuntime.from_checkpoint(loaded), calib, theta=3.0,
                         windowing=WindowingConfig(40, 20),
                         eps_seed=3 if eps_mode == "sample" else 0)
    one_at_a_time = [v for frame in rows for v in det.push(frame[None])]
    assert _verdicts(from_file.stdout.decode()) == [
        {"window_start": v.window_start, "score": v.score, "is_anomaly": v.is_anomaly}
        for v in one_at_a_time
    ]  # bitwise: JSON floats round-trip


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_undecodable_bytes_in_a_frame_line_exit_2_naming_the_line(env, tmp_path, via):
    frames = _frames_file(env, tmp_path / "frames.txt")
    clean = _detect_subprocess(["--config", env["cfg"], "--checkpoint", env["ckpt"],
                                "--threshold", "3.0", "--input", str(frames)])
    lines = frames.read_bytes().splitlines(keepends=True)
    lines[83] = b"83,\xff\xfe" + lines[83][3:]
    frames.write_bytes(b"".join(lines))
    proc = _detect_subprocess(["--config", env["cfg"], "--checkpoint", env["ckpt"],
                               "--threshold", "3.0",
                               "--input", str(frames) if via == "file" else "-"],
                              stdin=frames.read_bytes() if via == "stdin" else None)
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert err.startswith("error: stream line 84: expected `frame_idx,sig_0,...`, got '83,"), err
    # The windows that ended before line 84 were still scored.
    assert _verdicts(proc.stdout.decode()) == _verdicts(clean.stdout.decode())[:3]


class _Reads:
    """Binary stdin whose reads return the given chunks in turn, as a pipe
    written in bursts would."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def read1(self, size):
        assert all(len(c) <= size for c in self._chunks)
        return self._chunks.pop(0) if self._chunks else b""


# A bad line at frame k, and the error today's detect gives for it.
_BAD_LINES = {
    "unparseable": (lambda k: f"{k},x,2.0,3.0,4.0",
                    lambda k: (2, f"stream line {k + 1}: expected `frame_idx,sig_0,...`, "
                                  f"got '{k},x,2.0,3.0,4.0'")),
    "non_finite": (lambda k: f"{k},1.0,nan,3.0,4.0",
                   lambda k: (2, f"stream line {k + 1}: non-finite value in "
                                 f"'{k},1.0,nan,3.0,4.0'")),
    "out_of_order": (lambda k: f"{k + 1},1.0,2.0,3.0,4.0",
                     lambda k: (2, f"stream line {k + 1}: frame_idx {k + 1} out of order "
                                   f"(expected {k})")),
    "wrong_width": (lambda k: f"{k},1.0,2.0,3.0",
                    lambda k: (2, f"stream line {k + 1}: expected 4 signals, got 3")),
}
# Reads deliver frames [0, 30), [30, 55) and [55, 100); T_W=40 and T_S=20,
# so frame 79 completes a window in the middle of the last read.
_READ_EDGES = (30, 55)
_POSITIONS = {"first": 30, "middle": 42, "last": 54, "window_end": 79}


@pytest.mark.parametrize("position", list(_POSITIONS))
@pytest.mark.parametrize("kind", list(_BAD_LINES))
def test_bad_line_inside_a_block_ends_the_stream_after_the_frames_before_it(
        env, tmp_path, capsys, monkeypatch, kind, position):
    k = _POSITIONS[position]
    frames = _frames_file(env, tmp_path / "frames.txt")
    args = ["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"], "--threshold", "3.0"]
    assert main([*args, "--input", str(frames)]) == 0
    clean = _verdicts(capsys.readouterr().out)
    bad_line, error = _BAD_LINES[kind]
    lines = frames.read_text().splitlines(keepends=True)
    lines[k] = bad_line(k) + "\n"
    edges = (0, *_READ_EDGES, len(lines))
    chunks = ["".join(lines[a:b]).encode() for a, b in zip(edges, edges[1:])]
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=_Reads(chunks)))
    metrics = tmp_path / "metrics.json"
    code = main([*args, "--input", "-", "--metrics-out", str(metrics)])
    out, err = capsys.readouterr()
    assert (code, err) == (error(k)[0], f"error: {error(k)[1]}\n")
    assert _verdicts(out) == [v for v in clean if v["window_start"] + 40 <= k]
    doc = json.loads(metrics.read_text())
    assert (doc["frames"], doc["rejected_frames"]) == (k, 1)


@pytest.mark.parametrize("case", ["train --data", "calibrate --checkpoint", "eval --checkpoint",
                                  "detect --config", "eval manifest"])
def test_directory_in_place_of_a_file_exits_2_naming_it(env, tmp_path, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    data, ckpt, cfg = str(env["train_csv"]), env["ckpt"], env["cfg"]
    if case == "eval manifest":
        data = str(tmp_path / "train.csv")
        (tmp_path / "train.csv").write_bytes(env["train_csv"].read_bytes())
        folder = manifest_path(data)
        folder.mkdir()
    elif case.endswith("--data"):
        data = str(folder)
    elif case.endswith("--checkpoint"):
        ckpt = str(folder)
    else:
        cfg = str(folder)
    out = str(tmp_path / "out")
    args = {
        "train": ["--data", data, "--out", out],
        "calibrate": ["--checkpoint", ckpt, "--data", data, "--out", out],
        "eval": ["--checkpoint", ckpt, "--data", data, "--out", out],
        "detect": ["--checkpoint", ckpt, "--input", str(env["train_csv"]),
                   "--threshold", "3.0"],
    }[case.split()[0]]
    assert main([case.split()[0], "--config", cfg, *args]) == 2
    assert capsys.readouterr().err.endswith(f"is a directory, not a file: {folder}\n")


_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(alphabet="0123456789+-.eEinfa_ ", max_size=8),
)


@settings(deadline=None)
@given(st.one_of(st.text(st.characters(exclude_characters="\r\n")),
                 st.lists(_CELLS, min_size=1, max_size=6).map(",".join)))
def test_frame_line_parses_to_a_finite_frame_or_input_error(line):
    data, n = line.encode("utf-8", "surrogatepass"), line.count(",")
    try:
        blocks = list(frame_blocks(io.BytesIO(data), n))
    except InputError:
        return
    if not line.strip():
        assert blocks == []
        return
    [block] = blocks
    assert block.dtype == np.float64 and block.shape == (1, n)
    assert np.isfinite(block).all()
    with pytest.raises(InputError, match=f"expected {n + 1} signals, got {n}"):
        list(frame_blocks(io.BytesIO(data), n + 1))


def _whole_text_frames(text: bytes, n: int):
    """The frames of a frame stream read as one text, and the 1-based
    number of the line that ends it early (None if none does)."""
    frames, expected = [], 0
    for no, line in enumerate(text.splitlines(), 1):
        line = line.decode("utf-8", "surrogateescape").strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            idx, values = int(cells[0]), [float(c) for c in cells[1:]]
        except ValueError:
            return frames, no
        if len(values) != n or not all(map(np.isfinite, values)) or idx != expected:
            return frames, no
        frames.append(values)
        expected += 1
    return frames, None


class _CountedReads(_Reads):
    def __init__(self, chunks):
        super().__init__(chunks)
        self.reads = 0

    def read1(self, size):
        self.reads += 1
        return super().read1(size)


_PLAIN_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.floats(-1e3, 1e3).map("{:.3f}".format),
                         st.sampled_from(["1e5", "-0.0", "+3", ".5", "5.", "007"]))
# Cells the bulk parse must hand to the line loop, of its bytes or not;
# " 2 " and "1_0" parse.
_ODD_CELLS = st.one_of(st.sampled_from(["1e999", "-1e999", "", "1e", "--1", "."]),
                       st.sampled_from(["x", "nan", "-inf", " 2 ", "1_0", "\udcff"]))


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 3), data=st.data())
def test_frame_blocks_of_any_reads_are_the_whole_texts_each_line_out_by_its_read_end(n, data):
    count = data.draw(st.integers(0, 16))
    lines = [",".join([str(k), *data.draw(st.lists(_PLAIN_CELLS, min_size=n, max_size=n))])
             for k in range(count)]
    if lines and data.draw(st.booleans()):  # an odd cell, width or index on one line
        k = data.draw(st.integers(0, count - 1))
        head, _, last = lines[k].rpartition(",")
        odd = f"{head},{data.draw(_ODD_CELLS)}"
        lines[k] = data.draw(st.sampled_from([odd, odd, head, f"{lines[k]},{last}",
                                              f"{k + 1},{lines[k].partition(',')[2]}"]))
    for k in sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=4)), reverse=True):
        lines.insert(k, data.draw(st.sampled_from(["", "", "  "])))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends)).encode("utf-8", "surrogateescape")
    if text and data.draw(st.booleans()):
        text = text.rstrip(b"\r\n")  # the last line ends at EOF
    # Few reads of many lines take the bulk parse, many short ones the line loop.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)),
                                     max_size=data.draw(st.sampled_from([0, 1, 2, 8])))))
    chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)]) if b > a]
    source = _CountedReads(chunks)
    blocks, error = [], None
    try:
        for block in frame_blocks(source, n):
            blocks.append((source.reads, block))
    except InputError as e:
        error = str(e)
    want, bad_line = _whole_text_frames(text, n)
    got = np.concatenate([b for _, b in blocks]) if blocks else np.empty((0, n))
    assert got.dtype == np.float64 and got.shape == (len(want), n)
    assert got.tobytes() == np.array(want, dtype=np.float64).reshape(-1, n).tobytes()
    assert (error or "").startswith("" if bad_line is None else f"stream line {bad_line}: ")
    assert (error is None) == (bad_line is None)
    # After read r, every frame whose line ended within reads 1..r is out.
    for r in range(1, len(chunks) + 1):
        done, _ = _whole_text_frames(_ended_lines(b"".join(chunks[:r])), n)
        assert sum(len(b) for reads, b in blocks if reads <= r) >= len(done)


def _ended_lines(text: bytes) -> bytes:
    """The lines of text that a line end closes, with their ends."""
    return text[: max(text.rfind(b"\n"), text.rfind(b"\r")) + 1]


class TestBench:
    def test_report_written(self, env, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--checkpoint", env["ckpt"], "--windows", "40",
                     "--repetitions", "3", "--warmup", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_timed"] == 120
        assert doc["calibrated"] is True
        assert doc["backend"] == "numpy"
        assert set(doc["blas_threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        assert doc["iqr_mean_us"] > 0
        assert doc["q1_us"] <= doc["iqr_mean_us"] <= doc["q3_us"]

    def test_uncalibrated_fallback(self, env, tmp_path, capsys):
        assert main(["bench", "--checkpoint", env["ckpt_uncal"], "--windows", "40",
                     "--repetitions", "3", "--warmup", "5",
                     "--out", str(tmp_path / "b.json")]) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["calibrated"] is False

    def test_too_few_inferences_exits_2(self, env):
        assert main(["bench", "--checkpoint", env["ckpt"], "--windows", "10",
                     "--repetitions", "1"]) == 2

    @pytest.mark.parametrize("flag,value", [("--windows", "0"), ("--windows", "-1"),
                                            ("--warmup", "-1")])
    def test_out_of_range_count_exits_2_naming_the_flag(self, env, capsys, flag, value):
        assert main(["bench", "--checkpoint", env["ckpt"], flag, value]) == 2
        assert f"error: {flag} must be" in capsys.readouterr().err


class TestConfigTypes:
    """Each config value must have its field's JSON type; anything else is
    exit 2 naming the key, never a traceback or a silent coercion."""

    @pytest.mark.parametrize(
        "command,doc,key",
        [
            pytest.param("train", {"train": {"epochs": 2.0}}, "epochs", id="train.epochs"),
            pytest.param("train", {"train": {"batch_size": 8.0}}, "batch_size",
                         id="train.batch_size"),
            pytest.param("train", {"train": {"eta0": float("nan")}}, "eta0",
                         id="train.eta0-nan"),
            pytest.param("train", {"train": {"lam": float("inf")}}, "lam",
                         id="train.lam-inf"),
            pytest.param("train", {"model": {"flow_layers": 1.5}}, "flow_layers",
                         id="model.flow_layers"),
            pytest.param("train", {"model": {"alpha_const": float("inf")}}, "alpha_const",
                         id="model.alpha_const-inf"),
            pytest.param("train", {"model": {"n_signals": "x"}}, "n_signals",
                         id="model.n_signals"),
            pytest.param("train", {"windowing": {"stride": 5.0}}, "stride",
                         id="train-windowing.stride"),
            pytest.param("eval", {"windowing": {"stride": "x"}}, "stride",
                         id="eval-windowing.stride-text"),
            pytest.param("eval", {"windowing": {"stride": "5"}}, "stride",
                         id="eval-windowing.stride-digits"),
            pytest.param("eval", {"detect": {"eps_seed": "seven"}}, "eps_seed",
                         id="detect.eps_seed"),
            pytest.param("detect", {"detect": {"threshold": "abc"}}, "threshold",
                         id="detect.threshold"),
            pytest.param("detect", {"detect": {"target_fpr": [1]}}, "target_fpr",
                         id="detect.target_fpr"),
            *(pytest.param(command, {"detect": {"eps_mod": "sample", "threshold": 2.5}},
                           "eps_mod", id=f"{command}-detect.unknown-key")
              for command in ("calibrate", "eval", "detect")),
            pytest.param("gen-data", {"synth": {"anomaly_features": 3}}, "anomaly_features",
                         id="synth.anomaly_features"),
            pytest.param("gen-data", {"synth": {"n_frames": 50.5}}, "n_frames",
                         id="synth.n_frames"),
        ],
    )
    def test_mistyped_value_exits_2_naming_the_key(self, env, tmp_path, capsys,
                                                   command, doc, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", "--data", str(env["train_csv"]), "--out", out],
            "calibrate": ["calibrate", "--checkpoint", env["ckpt"],
                          "--data", str(env["train_csv"]), "--out", out],
            "eval": ["eval", "--checkpoint", env["ckpt"], "--data", str(env["test_csv"]),
                     "--out", out],
            "detect": ["detect", "--checkpoint", env["ckpt"],
                       "--input", str(_frames_file(env, tmp_path / "frames.txt"))],
            "gen-data": ["gen-data", "--num-normal", "2", "--out", out],
        }[command]
        assert main(argv + ["--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,sec",
        [
            ("train", {"eta0": 1, "milestones": [1, 4], "shuffle": False}),
            ("model", {"n_signals": 4, "window_len": 10, "hidden_size": None,
                       "disc_widths": [3, 2], "alpha_const": 0}),
            ("synth", {"anomaly_kinds": ["drift"], "anomaly_features": [0, 2],
                       "sample_rate_hz": 50}),
        ],
    )
    def test_typed_values_are_accepted(self, name, sec):
        # an int is a number, a list fills a tuple, null fills an optional
        built = build_config(_SECTIONS[name], {name: sec}, name)
        echoed = json.loads(json.dumps(dataclasses.asdict(built)))
        assert all(echoed[k] == v for k, v in sec.items() if v is not None)

    @pytest.mark.parametrize(
        "name,sec,key",
        [
            ("train", {"epochs": True}, "epochs"),
            ("train", {"eta0": "1e-3"}, "eta0"),
            ("train", {"milestones": [1.0]}, "milestones"),
            ("train", {"milestones": 2}, "milestones"),
            ("model", {"n_signals": 4, "window_len": 10, "use_flow": 1}, "use_flow"),
            ("synth", {"anomaly_kinds": "spike"}, "anomaly_kinds"),
            ("windowing", {"window_len": None}, "window_len"),
        ],
    )
    def test_wrong_json_type_is_rejected(self, name, sec, key):
        with pytest.raises(InputError, match=f"bad {name} config: {key} must be"):
            build_config(_SECTIONS[name], {name: sec}, name)


_SECTIONS = {
    "windowing": WindowingConfig,
    "train": TrainConfig,
    "model": ModelConfig,
    "synth": SynthConfig,
}
# a section that would otherwise lack the fields a model needs
_BASE = {"model": {"n_signals": 4, "window_len": 10}}
_FIELDS = [(name, f.name) for name, cls in _SECTIONS.items() for f in dataclasses.fields(cls)]
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)


@settings(deadline=None)
@given(st.sampled_from(_FIELDS), st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4)))
def test_config_value_builds_the_dataclass_or_raises_input_error(field, value):
    name, key = field
    sec = {**_BASE.get(name, {}), key: value}
    try:
        built = build_config(_SECTIONS[name], {name: sec}, name)
    except InputError:
        return
    assert isinstance(built, _SECTIONS[name])


_OUTPUT_FLAGS = [("gen-data", "--out"), ("train", "--out"), ("train", "--log"),
                 ("calibrate", "--out"), ("eval", "--out"), ("eval", "--roc-out"),
                 ("detect", "--metrics-out"), ("bench", "--out")]


def _command_args(env, tmp_path, command):
    """A run of `command` on env's artifacts whose outputs go to tmp_path."""
    cfg, ckpt, data = env["cfg"], env["ckpt"], str(env["train_csv"])
    return [command, *{
        "gen-data": ["--config", cfg, "--num-normal", "2", "--out", str(tmp_path / "g.csv")],
        "train": ["--config", cfg, "--data", data, "--out", str(tmp_path / "t.ckpt")],
        "calibrate": ["--config", cfg, "--checkpoint", env["ckpt_uncal"], "--data", data,
                      "--out", str(tmp_path / "c.ckpt")],
        "eval": ["--config", cfg, "--checkpoint", ckpt, "--data", str(env["test_csv"]),
                 "--out", str(tmp_path / "e.json"), "--roc-out", str(tmp_path / "roc.csv")],
        "detect": ["--config", cfg, "--checkpoint", ckpt, "--input",
                   str(_frames_file(env, tmp_path / "frames.txt")), "--threshold", "3.0"],
        "bench": ["--checkpoint", ckpt, "--windows", "8", "--warmup", "0",
                  "--out", str(tmp_path / "b.json")],
    }[command]]


@pytest.mark.parametrize("command, flag", _OUTPUT_FLAGS)
@pytest.mark.parametrize("bad", ["directory", "missing parent"])
def test_an_output_path_that_cannot_be_a_file_exits_2_before_any_work(
        env, tmp_path, capsys, monkeypatch, command, flag, bad):
    import flowad.cli

    def never(*args, **kwargs):
        raise AssertionError("the command read its inputs")

    monkeypatch.setattr(flowad.cli, "load_checkpoint", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    argv = _command_args(env, tmp_path, command)
    target = tmp_path / "folder" if bad == "directory" else tmp_path / "missing" / "out"
    if bad == "directory":
        target.mkdir()
    argv = argv[: argv.index(flag)] + argv[argv.index(flag) + 2 :] if flag in argv else argv
    before = set(tmp_path.rglob("*"))
    assert main([*argv, flag, str(target)]) == 2
    reason = "Is a directory" if bad == "directory" else "No such file or directory"
    assert capsys.readouterr().err == f"error: cannot write {flag} {target}: {reason}\n"
    assert set(tmp_path.rglob("*")) == before


# An output that is a file the command also reads, here through a second
# name (a hard link): writing it would destroy the input.
_OUTPUT_IS_INPUT = [("detect", "--metrics-out", "--input"), ("eval", "--out", "--data"),
                    ("eval", "--roc-out", "--checkpoint"), ("calibrate", "--out", "--data"),
                    ("train", "--log", "--config")]


@pytest.mark.parametrize("command, out_flag, in_flag", _OUTPUT_IS_INPUT)
def test_an_output_path_that_is_an_input_file_exits_2_before_any_work(
        env, tmp_path, capsys, monkeypatch, command, out_flag, in_flag):
    import flowad.cli

    def never(*args, **kwargs):
        raise AssertionError("the command read its inputs")

    monkeypatch.setattr(flowad.cli, "load_checkpoint", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    argv = _command_args(env, tmp_path, command)
    source, alias = tmp_path / "input", tmp_path / "alias"
    shutil.copyfile(argv[argv.index(in_flag) + 1], source)
    os.link(source, alias)
    argv[argv.index(in_flag) + 1] = str(source)
    if out_flag in argv:
        argv[argv.index(out_flag) + 1] = str(alias)
    else:
        argv += [out_flag, str(alias)]
    before = source.read_bytes()
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: cannot write {out_flag} {alias}: it is the "
                                       f"{in_flag} file, which the command reads\n")
    assert source.read_bytes() == before


# Two outputs of one command that name one path, spelled alike or through
# `..`: the later write would destroy the earlier. Neither file exists yet,
# so the paths are compared resolved.
@pytest.mark.parametrize("command, first, second", [("train", "--out", "--log"),
                                                    ("eval", "--out", "--roc-out")])
@pytest.mark.parametrize("spelling", ["same", "dotdot"])
def test_two_outputs_that_name_one_path_exit_2_before_any_work(
        env, tmp_path, capsys, monkeypatch, command, first, second, spelling):
    import flowad.cli

    def never(*args, **kwargs):
        raise AssertionError("the command read its inputs")

    monkeypatch.setattr(flowad.cli, "load_checkpoint", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    (tmp_path / "sub").mkdir()
    path = tmp_path / "out"
    alias = path if spelling == "same" else tmp_path / "sub" / ".." / "out"
    argv = _command_args(env, tmp_path, command)
    argv[argv.index(first) + 1] = str(path)
    if second in argv:
        argv[argv.index(second) + 1] = str(alias)
    else:
        argv += [second, str(alias)]
    before = set(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: cannot write {second} {alias}: {first} "
                                       "writes it too\n")
    assert set(tmp_path.rglob("*")) == before


def test_calibrate_may_write_its_checkpoint_in_place(env, tmp_path):
    argv = _command_args(env, tmp_path, "calibrate")
    ckpt = tmp_path / "in-place.ckpt"
    shutil.copyfile(env["ckpt_uncal"], ckpt)
    argv[argv.index("--checkpoint") + 1] = argv[argv.index("--out") + 1] = str(ckpt)
    assert main(argv) == 0
    assert load_checkpoint(ckpt).calibration is not None


# Each way a negative seed reaches a command, and the error it gives: a
# flag is named by the flag, a config value by its section.
_NEGATIVE_SEEDS = {
    "train --seed": ("train", ["--seed", "-1"], None, "bad --seed: seed must be >= 0"),
    "train config": ("train", [], {"train": {"seed": -2}}, "bad train config: seed must be >= 0"),
    "gen-data --seed": ("gen-data", ["--seed", "-1"], None, "bad --seed: seed must be >= 0"),
    "bench --seed": ("bench", ["--seed", "-1"], None, "--seed must be >= 0, got -1"),
    **{f"{command} config": (command, [], {"detect": {"eps_seed": -3, "eps_mode": "sample"}},
                             "bad detect config: eps_seed must be >= 0")
       for command in ("calibrate", "eval", "detect")},
}


@pytest.mark.parametrize("case", sorted(_NEGATIVE_SEEDS))
def test_a_negative_seed_exits_2_before_any_work(env, tmp_path, capsys, monkeypatch, case):
    import flowad.cli

    def never(*args, **kwargs):
        raise AssertionError("the command read its inputs")

    command, flags, section, message = _NEGATIVE_SEEDS[case]
    argv = _command_args(env, tmp_path, command) + flags
    if section is not None:
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps({**CONFIG, **section}))
        argv[argv.index("--config") + 1] = str(cfg)
    monkeypatch.setattr(flowad.cli, "load_checkpoint", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    before = set(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert set(tmp_path.rglob("*")) == before


# A bad value is named by where it came from: by its flag, or by the
# config section that holds it (negative seeds: above).
_BAD_VALUES = {
    "detect --threshold nan": ("detect", ["--threshold", "nan"], None,
                               "bad --threshold: threshold must be float | None, got nan"),
    "detect --target-fpr inf": ("detect", ["--target-fpr", "inf"], None,
                                "bad --target-fpr: target_fpr must be float | None, got inf"),
    "detect config": ("detect", [], {"detect": {"target_fpr": math.nan}},
                      "bad detect config: target_fpr must be float | None, got nan"),
    "gen-data --num-normal -1": ("gen-data", ["--num-normal", "-1"], None,
                                 "bad --num-normal: record counts must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(_BAD_VALUES))
def test_a_bad_value_is_named_by_its_flag_or_its_config_section(
        env, tmp_path, capsys, monkeypatch, case):
    import flowad.cli

    def never(*args, **kwargs):
        raise AssertionError("the command read its inputs")

    command, flags, section, message = _BAD_VALUES[case]
    argv = _command_args(env, tmp_path, command) + flags
    if section is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**CONFIG, **section}))
        argv[argv.index("--config") + 1] = str(cfg)
    monkeypatch.setattr(flowad.cli, "load_checkpoint", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_flag_replaces_the_config_value_before_it_is_checked():
    cfg = {"train": {"seed": -2, "epochs": 3}}
    assert build_config(TrainConfig, cfg, "train", flags={"seed": 4}) == TrainConfig(
        seed=4, epochs=3)
    with pytest.raises(InputError, match="^bad train config: seed must be >= 0$"):
        build_config(TrainConfig, cfg, "train", flags={"seed": None})


@pytest.mark.parametrize("command", ["eval", "detect"])
@pytest.mark.parametrize("config_mode, calibrated_mode", [("sample", "zero"), ("zero", "sample")])
def test_a_config_eps_mode_other_than_the_calibrations_exits_2_before_any_frame(
        env, tmp_path, capsys, monkeypatch, command, config_mode, calibrated_mode):
    import flowad.cli
    import flowad.stream

    def never(*args, **kwargs):
        raise AssertionError(f"{command} read its input")

    argv = _command_args(env, tmp_path, command)
    if calibrated_mode == "sample":
        argv[argv.index("--checkpoint") + 1] = env["ckpt_sample"]
    cfg = tmp_path / "detect.json"
    cfg.write_text(json.dumps({**CONFIG, "detect": {"eps_mode": config_mode}}))
    argv[argv.index("--config") + 1] = str(cfg)
    monkeypatch.setattr(flowad.stream, "run", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: config eps_mode '{config_mode}' does not match the checkpoint's "
        f"calibration, made in eps_mode '{calibrated_mode}'\n")


@pytest.mark.parametrize("command", ["eval", "detect"])
@pytest.mark.parametrize("eps_mode", ["zero", "sample"])
def test_without_a_config_eval_and_detect_score_in_the_calibrations_mode(
        env, tmp_path, capsys, command, eps_mode):
    ckpt = env["ckpt"] if eps_mode == "zero" else env["ckpt_sample"]
    argv = _command_args(env, tmp_path, command)
    del argv[1:3]  # --config
    argv[argv.index("--checkpoint") + 1] = ckpt
    capsys.readouterr()
    assert main(argv) == 0
    loaded = load_checkpoint(ckpt)
    calib = CalibrationStats.from_dict(loaded.calibration)
    assert calib.eps_mode == eps_mode
    runtime, windowing = ScoringRuntime.from_checkpoint(loaded), WindowingConfig(40, 20)
    if command == "eval":
        report = json.loads((tmp_path / "e.json").read_text())
        expected = evaluate(load_records(env["test_csv"]), runtime, calib, windowing)
        assert (report["per_type"], report["resolved_config"]["eps_mode"]) == (
            expected["per_type"], eps_mode)
    else:
        det = StreamDetector(runtime, calib, theta=3.0, windowing=windowing)
        frames = load_records(env["test_csv"])[0].frames
        assert _verdicts(capsys.readouterr().out) == [
            {"window_start": v.window_start, "score": v.score, "is_anomaly": v.is_anomaly}
            for v in det.push(frames)]


@pytest.mark.parametrize("command", ["calibrate", "eval", "detect"])
def test_a_windowing_window_len_other_than_the_checkpoints_exits_2_before_any_work(
        env, tmp_path, capsys, monkeypatch, command):
    import flowad.cli
    import flowad.stream

    def never(*args, **kwargs):
        raise AssertionError(f"{command} read its input")

    argv = _command_args(env, tmp_path, command)
    cfg = tmp_path / "short-windows.json"
    cfg.write_text(json.dumps({**CONFIG, "windowing": {"window_len": 30, "stride": 20}}))
    argv[argv.index("--config") + 1] = str(cfg)
    monkeypatch.setattr(flowad.stream, "run", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    before = set(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: config windowing.window_len=30 conflicts with the checkpoint value 40\n")
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", ["train --out", "eval --out", "eval --roc-out",
                                  "gen-data manifest directory", "gen-data --config"])
def test_a_datasets_manifest_is_an_input_of_data_and_an_output_of_gen_data(
        env, tmp_path, capsys, monkeypatch, case):
    import flowad.cli

    def never(*args, **kwargs):
        raise AssertionError("the command did its work")

    command, flag = case.split()[:2]
    argv = _command_args(env, tmp_path, command)
    if command == "gen-data":
        manifest = tmp_path / "g.manifest.json"
        if flag == "manifest":
            manifest.mkdir()
            why = "Is a directory"
        else:
            manifest.write_text(json.dumps(CONFIG))
            argv[argv.index("--config") + 1] = str(manifest)
            why = "it is the --config file, which the command reads"
        opt = "the --out manifest"
        monkeypatch.setattr(flowad.cli, "save_records", never)
    else:
        data = tmp_path / "d.csv"
        save_records(load_records(argv[argv.index("--data") + 1]), data)
        argv[argv.index("--data") + 1] = str(data)
        manifest, opt = manifest_path(data), flag
        argv[argv.index(flag) + 1] = str(manifest)
        why = "it is the --data file's manifest, which the command reads"
        monkeypatch.setattr(flowad.cli, "load_records", never)
    before = {p: None if p.is_dir() else p.read_bytes() for p in tmp_path.rglob("*")}
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {opt} {manifest}: {why}\n"
    assert {p: None if p.is_dir() else p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_eval_says_how_many_records_were_too_short_when_too_few_are_left(
        env, tmp_path, capsys):
    records = [dataclasses.replace(r, frames=r.frames[:30]) for r in load_records(env["test_csv"])]
    data = tmp_path / "short.csv"
    save_records(records, data)
    argv = _command_args(env, tmp_path, "eval")
    argv[argv.index("--data") + 1] = str(data)
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(
        "error: per-type AUROC needs normal records; 12 records shorter than the 40-frame "
        "window were skipped\n")


@pytest.mark.parametrize("command", ["calibrate", "eval", "detect"])
def test_an_unknown_eps_mode_exits_2_before_any_work(env, tmp_path, capsys, monkeypatch,
                                                     command):
    import flowad.cli

    def never(*args, **kwargs):
        raise AssertionError("the command read its inputs")

    argv = _command_args(env, tmp_path, command)
    cfg = tmp_path / "samples.json"
    cfg.write_text(json.dumps({**CONFIG, "detect": {"eps_mode": "samples"}}))
    argv[argv.index("--config") + 1] = str(cfg)
    monkeypatch.setattr(flowad.cli, "load_checkpoint", never)
    monkeypatch.setattr(flowad.cli, "load_records", never)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad detect config: unknown eps_mode 'samples'\n"


@pytest.mark.parametrize("command", ["train", "calibrate", "eval"])
def test_a_short_record_gives_one_warning_naming_it(env, tmp_path, capsys, caplog, command):
    src = env["test_csv"] if command == "eval" else env["train_csv"]
    records = load_records(src)
    records.append(dataclasses.replace(records[0], sample_id="short",
                                       frames=records[0].frames[:20]))
    data = tmp_path / "with-short.csv"
    save_records(records, data)
    argv = _command_args(env, tmp_path, command)
    argv[argv.index("--data") + 1] = str(data)
    assert main(argv) == 0
    naming = [r for r in caplog.records if "'short'" in r.getMessage()]
    assert [(r.name, r.levelname, r.getMessage()) for r in naming] == [(
        "flowad.data", "WARNING",
        "record 'short' has 20 frames, shorter than the window length 40; skipped")]
    assert "short" not in capsys.readouterr().err


# What each offline command must not load: the training stack, the
# evaluation module where the command does not evaluate, and the stream
# module everywhere but `detect`. The scoring commands (zero eps) also
# never load `_hashlib`, which maps OpenSSL's libcrypto: the checkpoint
# digest is CPython's built-in SHA-256. `train` is exempt, since
# numpy.random imports `secrets`, which imports `hmac`.
_NEVER_LOADED = {
    "detect": {"flowad.training", "flowad.losses", "flowad.optim", "flowad.evaluation",
               "flowad.synth", "_hashlib"},
    "calibrate": {"flowad.training", "flowad.losses", "flowad.optim", "flowad.evaluation",
                  "flowad.synth", "flowad.stream", "_hashlib"},
    "eval": {"flowad.training", "flowad.losses", "flowad.optim", "flowad.synth",
             "flowad.stream", "_hashlib"},
    "train": {"flowad.evaluation", "flowad.synth", "flowad.stream"},
}


@pytest.mark.parametrize("command", sorted(_NEVER_LOADED))
def test_a_command_loads_no_module_it_never_runs(env, tmp_path, command):
    script = ("import json, sys\nfrom flowad.cli import main\ncode = main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(sys.modules)]))")
    run = subprocess.run([sys.executable, "-c", script, *_command_args(env, tmp_path, command)],
                         capture_output=True, text=True, timeout=120)
    code, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code == 0, run.stderr
    assert "flowad.fastpath" in loaded
    assert not _NEVER_LOADED[command] & set(loaded)


@pytest.mark.parametrize("name, command", [("train", "train"), ("roc_curve", "eval"),
                                           ("calibrate", "calibrate"), ("load_records", "eval")])
def test_a_name_set_on_the_cli_module_is_what_the_command_calls(
        env, tmp_path, monkeypatch, name, command):
    # The benchmark's tracer wraps functions by setting them on flowad.cli.
    import flowad.cli

    calls, real = [], getattr(flowad.cli, name)

    def recording(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(flowad.cli, name, recording)
    assert main(_command_args(env, tmp_path, command)) == 0
    assert calls == [name]


def test_every_public_name_resolves_on_the_lazy_package():
    import flowad

    namespace = {}
    exec("from flowad import *", namespace)
    assert set(flowad.__all__) <= set(namespace)
    assert all(getattr(flowad, name) is namespace[name] for name in flowad.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        flowad.nope  # noqa: B018
