"""End-to-end CLI tests: the gen-data -> train -> calibrate -> eval ->
detect -> bench chain, exit codes, and byte-level reproducibility."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowad.checkpoint import load_checkpoint, save_checkpoint
from flowad.cli import _config, _frame_lines, main
from flowad.data import WindowingConfig, load_records, manifest_path, save_records
from flowad.detection import CalibrationStats
from flowad.errors import InputError
from flowad.evaluation import per_type_auroc, roc_curve, score_records
from flowad.fastpath import ScoringRuntime
from flowad.model import ModelConfig
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
    return {
        "root": root,
        "cfg": str(cfg),
        "train_csv": train_csv,
        "test_csv": test_csv,
        "ckpt": str(ckpt),
        "ckpt_uncal": str(ckpt_uncal),
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
    "array_renamed": lambda h: h["arrays"][0].update(name="lstm_v"),
    "norm_mean_missing": lambda h: h["norm_stats"]["mean"].pop(),
    "norm_std_nan": lambda h: h["norm_stats"]["std"].__setitem__(0, float("nan")),
    "norm_std_zero": lambda h: h["norm_stats"]["std"].__setitem__(0, 0.0),
    "meta_list": lambda h: h.update(meta=[1]),
    "resolved_config_string": lambda h: h["meta"].update(resolved_config="x"),
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
        base = load_checkpoint(env["ckpt_uncal"]).generator.arrays["lstm_w"]
        other = load_checkpoint(str(out)).generator.arrays["lstm_w"]
        assert not np.array_equal(base, other)

    def test_ablation_no_flow(self, env, tmp_path):
        out = tmp_path / "nf.ckpt"
        assert main(["train", "--config", env["cfg"], "--data", str(env["train_csv"]),
                     "--out", str(out), "--ablation", "no-flow"]) == 0
        cfg = load_checkpoint(str(out)).config
        assert cfg.flow_layers == 0 and cfg.use_flow is False
        assert cfg.latent_size == 6  # widths kept

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
            WindowingConfig(**CONFIG["windowing"]), "sample", 7,
        )
        assert json.loads(report_path.read_text())["per_type"] == per_type_auroc(scored).per_type
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
        assert "error: checkpoint" in capsys.readouterr().err

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
        save_checkpoint(bad, ckpt.config, ckpt.generator, ckpt.discriminator,
                        ckpt.norm_stats, calibration=calibration, meta=ckpt.meta)
        code = main(["eval", "--config", env["cfg"], "--checkpoint", str(bad),
                     "--data", str(env["test_csv"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "calibration stats are malformed" in capsys.readouterr().err

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

    def test_width_mismatch_mid_stream_exits_1(self, env, tmp_path, capsys):
        records = load_records(env["test_csv"])
        good = records[0].frames[:10]
        path = tmp_path / "broken.txt"
        lines = [",".join([str(i)] + [repr(float(v)) for v in f]) for i, f in enumerate(good)]
        lines.append("10,1.0,2.0,3.0")  # one signal short
        path.write_text("\n".join(lines) + "\n")
        code = main(["detect", "--config", env["cfg"], "--checkpoint", env["ckpt"],
                     "--input", str(path), "--threshold", "3.0"])
        assert code == 1
        assert "frame 10" in capsys.readouterr().err

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


_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(alphabet="0123456789+-.eEinfa_ ", max_size=8),
)


@settings(deadline=None)
@given(st.one_of(st.text(), st.lists(_CELLS, min_size=1, max_size=6).map(",".join)))
def test_frame_line_parses_to_a_finite_frame_or_input_error(line):
    try:
        frames = list(_frame_lines([line]))
    except InputError:
        return
    if not line.strip():
        assert frames == []
        return
    [frame] = frames
    assert frame.dtype == np.float64 and frame.ndim == 1
    assert np.isfinite(frame).all()


class TestBench:
    def test_report_written(self, env, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--checkpoint", env["ckpt"], "--windows", "40",
                     "--repetitions", "3", "--warmup", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_timed"] == 120
        assert doc["calibrated"] is True
        assert doc["single_threaded"] is True
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
        built = _config(_SECTIONS[name], {name: sec}, name)
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
            _config(_SECTIONS[name], {name: sec}, name)


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
        built = _config(_SECTIONS[name], {name: sec}, name)
    except InputError:
        return
    assert isinstance(built, _SECTIONS[name])
