"""Command-line entry point.

Commands: gen-data, train, calibrate, eval, detect, bench. A JSON
config file supplies defaults per section (model/windowing/train/
synth/detect); command-line flags override file values; the fully
resolved configuration is echoed into every artifact a command writes.

Exit codes: 0 success, 1 runtime failure, 2 invalid input or config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
import traceback
import types
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    LABEL_NORMAL,
    WindowingConfig,
    downsample,
    frame_blocks,
    load_records,
    record_windows,
    require_file,
    save_records,
    sliding_windows,  # noqa: F401 - perfbench/launcher.py traces it here
)
from .detection import (
    CalibrationStats,
    DetectorConfig,
    StreamDetector,
    calibrate,
    threshold_for_fpr,
)
from .errors import FlowadError, InputError, StreamError
from .evaluation import (
    BLAS_THREAD_VARS,
    ablation_train_config,
    ablation_variants,
    bench_latency,
    evaluate,  # noqa: F401 - perfbench/launcher.py traces it here
    roc_curve,
    score_records,
    summarize,
)
from .fastpath import BACKEND, ScoringRuntime
from .model import ModelConfig
from .synth import SynthConfig, synth_generate
from .training import TrainConfig, train

ABLATIONS = ("none", "no-sparsity", "no-flow")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(require_file(path, "config file").read_text())
    except json.JSONDecodeError as e:
        raise InputError(f"config file is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise InputError("config file must contain a JSON object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise InputError(f"config section '{name}' must be an object")
    return dict(sec)


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type of a field annotated `hint`: an
    int takes no bool or float, a float also takes an int but not the NaN
    or Infinity that `json.loads` accepts, a tuple takes a list of its
    item type, and `X | None` also takes null."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _check_types(name: str, sec: dict, hints: dict) -> dict:
    for key, value in sec.items():
        if key not in hints:
            raise InputError(f"bad {name} config: unknown key '{key}'")
        if not _fits(value, hints[key]):
            expected = re.sub(r"<class '(\w+)'>", r"\1", str(hints[key]))
            raise InputError(f"bad {name} config: {key} must be {expected}, got {value!r}")
    return sec


def _config(cls, cfg: dict, name: str, **flags):
    """The dataclass `cls` built from config section `name`, with every
    flag that was given (not None) replacing the file's value."""
    sec = _section(cfg, name)
    sec.update((k, v) for k, v in flags.items() if v is not None)
    _check_types(name, sec, typing.get_type_hints(cls))
    try:
        return cls(**sec)
    except InputError as e:  # a value cls rejects
        raise InputError(f"bad {name} config: {e}") from None


def _model_config(cfg: dict, n_signals: int, window_len: int) -> ModelConfig:
    sec = _section(cfg, "model")
    for key, value in (("n_signals", n_signals), ("window_len", window_len)):
        if sec.get(key) is not None and sec[key] != value:
            raise InputError(
                f"config model.{key}={sec[key]!r} conflicts with the data/windowing "
                f"value {value}"
            )
    return _config(ModelConfig, cfg, "model", n_signals=n_signals, window_len=window_len)


def _checkpoint_windowing(cfg: dict, ckpt) -> WindowingConfig:
    """The checkpoint's window length with a stride taken from, in order:
    explicit config, the stride recorded in the checkpoint at train
    time, then non-overlapping windows."""
    stored = (ckpt.meta or {}).get("resolved_config", {}).get("windowing", {})
    strides = (_section(cfg, "windowing").get("stride"), stored.get("stride"))
    stride = next((s for s in strides if s is not None), ckpt.config.window_len)
    return _config(
        WindowingConfig, cfg, "windowing", window_len=ckpt.config.window_len, stride=stride
    )


_DETECT_TYPES = {
    "threshold": float | None,
    "target_fpr": float | None,
    "eps_mode": str,
    "eps_seed": int,
}


def _detect_section(cfg: dict, args) -> dict:
    out = {"threshold": None, "target_fpr": None, "eps_mode": "zero", "eps_seed": 0}
    out.update(_check_types("detect", _section(cfg, "detect"), _DETECT_TYPES))
    if getattr(args, "threshold", None) is not None:
        out["threshold"] = args.threshold
    if getattr(args, "target_fpr", None) is not None:
        out["target_fpr"] = args.target_fpr
    return out


def _write_json(path: str | Path, doc: dict):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- commands ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _load_config_file(args.config)
    synth_cfg = _config(
        SynthConfig, cfg, "synth", seed=args.seed, num_normal=args.num_normal,
        num_anomalous=args.num_anomalous,
    )
    records = synth_generate(synth_cfg)
    resolved = {"command": "gen-data", "synth": asdict(synth_cfg)}
    save_records(records, args.out, manifest_extra={"resolved_config": resolved})
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config_file(args.config)
    windowing = _config(WindowingConfig, cfg, "windowing")
    train_cfg = _config(TrainConfig, cfg, "train", seed=args.seed)
    records = load_records(args.data)
    if args.freq_downsample > 1:
        records = [downsample(r, args.freq_downsample) for r in records]
    n_signals = records[0].n_signals
    model_cfg = _model_config(cfg, n_signals, windowing.window_len)
    if args.ablation != "none":
        name = args.ablation.replace("-", "_")
        model_cfg = ablation_variants(model_cfg)[name]
        train_cfg = ablation_train_config(name, train_cfg)

    result = train(records, model_cfg, train_cfg, windowing)

    resolved = {
        "command": "train",
        "data": str(args.data),
        "freq_downsample": args.freq_downsample,
        "ablation": args.ablation,
        "model": asdict(model_cfg),
        "train": asdict(train_cfg),
        "windowing": asdict(windowing),
    }
    save_checkpoint(
        args.out,
        model_cfg,
        result.generator,
        result.discriminator,
        result.norm_stats,
        calibration=None,
        meta={"resolved_config": resolved},
    )
    log_path = args.log if args.log else str(args.out) + ".log.jsonl"
    with open(log_path, "w") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    last = result.log[-1]
    print(
        f"trained {train_cfg.epochs} epochs; final mean_L_mse="
        f"{last['mean_L_mse']:.4f}; checkpoint -> {args.out}"
    )
    return 0


def _require_all_normal(records, what: str):
    for r in records:
        if r.label != LABEL_NORMAL:
            raise InputError(
                f"{what} must contain only normal records; '{r.sample_id}' is "
                f"labeled '{r.label}'"
            )


def cmd_calibrate(args) -> int:
    cfg = _load_config_file(args.config)
    ckpt = load_checkpoint(args.checkpoint)
    detect_sec = _detect_section(cfg, args)
    records = load_records(args.data)
    _require_all_normal(records, "calibration data")
    windowing = _checkpoint_windowing(cfg, ckpt)
    for r in records:
        if r.n_signals != ckpt.config.n_signals:
            raise InputError(
                f"record '{r.sample_id}' has {r.n_signals} signals, checkpoint "
                f"expects {ckpt.config.n_signals}"
            )

    def warn_short(r):
        print(
            f"warning: record '{r.sample_id}' is shorter than one window; skipped",
            file=sys.stderr,
        )

    if ckpt.calibration is not None:
        print("warning: checkpoint is already calibrated; overwriting", file=sys.stderr)
    runtime = ScoringRuntime.from_checkpoint(ckpt)
    stats = calibrate(
        runtime,
        (w for _, ws in record_windows(records, windowing, warn_short) for w in ws),
        eps_mode=detect_sec["eps_mode"],
        eps_seed=detect_sec["eps_seed"],
    )
    meta = dict(ckpt.meta or {})
    meta["calibration_config"] = {
        "command": "calibrate",
        "data": str(args.data),
        "eps_mode": detect_sec["eps_mode"],
        "eps_seed": detect_sec["eps_seed"],
        "stride": windowing.stride,
    }
    out = args.out if args.out else args.checkpoint
    save_checkpoint(
        out,
        ckpt.config,
        ckpt.generator,
        ckpt.discriminator,
        ckpt.norm_stats,
        calibration=stats,
        meta=meta,
    )
    print(
        f"calibrated on {stats.n_windows} windows: mu={stats.mu:.6g} "
        f"sigma={stats.sigma:.6g} -> {out}"
    )
    return 0


def _loaded_calibration(ckpt: Checkpoint) -> CalibrationStats:
    if ckpt.calibration is None:
        raise InputError(
            "checkpoint has no calibration stats; run `flowad calibrate` first"
        )
    return CalibrationStats.from_dict(ckpt.calibration)


def cmd_eval(args) -> int:
    cfg = _load_config_file(args.config)
    ckpt = load_checkpoint(args.checkpoint)
    calib = _loaded_calibration(ckpt)
    records = load_records(args.data)
    windowing = _checkpoint_windowing(cfg, ckpt)
    runtime = ScoringRuntime.from_checkpoint(ckpt)
    # One scoring pass serves both the report and the ROC points.
    scored, skipped = score_records(
        records, runtime, calib, windowing, eps_mode=calib.eps_mode,
        eps_seed=_detect_section(cfg, args)["eps_seed"],
    )
    report = summarize(scored, skipped)
    report["resolved_config"] = {
        "command": "eval",
        "checkpoint": str(args.checkpoint),
        "data": str(args.data),
        "eps_mode": calib.eps_mode,
        "model": asdict(ckpt.config),
        "windowing": asdict(windowing),
    }
    if args.roc_out:
        scores = np.array([r.record_score for r in scored])
        labels = np.array([r.label != LABEL_NORMAL for r in scored])
        points = roc_curve(scores, labels)
        with open(args.roc_out, "w") as fh:
            fh.write("fpr,tpr\n")
            for fpr, tpr in points:
                fh.write(f"{float(fpr)!r},{float(tpr)!r}\n")
    _write_json(args.out, report)
    print(
        f"overall AUROC {report['overall_mean']:.4f} +/- {report['overall_std']:.4f} "
        f"over {len(report['per_type'])} types -> {args.out}"
    )
    return 0


def cmd_detect(args) -> int:
    cfg = _load_config_file(args.config)
    ckpt = load_checkpoint(args.checkpoint)
    calib = _loaded_calibration(ckpt)
    detect_sec = _detect_section(cfg, args)
    if detect_sec["threshold"] is not None and args.target_fpr is not None:
        raise InputError("give either --threshold or --target-fpr, not both")
    if detect_sec["threshold"] is not None:
        theta = float(detect_sec["threshold"])
    elif detect_sec["target_fpr"] is not None:
        theta = threshold_for_fpr(calib, float(detect_sec["target_fpr"]))
    else:
        raise InputError("a decision threshold is required: --threshold or --target-fpr")
    windowing = _checkpoint_windowing(cfg, ckpt)
    det_cfg = DetectorConfig(
        theta=theta,
        windowing=windowing,
        eps_mode=detect_sec["eps_mode"],
        eps_seed=detect_sec["eps_seed"],
        stride_period_s=args.stride_period_s,
    )
    runtime = ScoringRuntime.from_checkpoint(ckpt)
    detector = StreamDetector(runtime, calib, det_cfg)
    try:
        source = sys.stdin.buffer if args.input == "-" else open(args.input, "rb")
    except OSError as e:
        raise InputError(f"cannot open stream input {args.input}: {e.strerror}") from None
    try:
        metrics_fh = None if args.metrics_out is None else open(args.metrics_out, "w")
    except OSError as e:
        if args.input != "-":
            source.close()
        raise InputError(f"cannot write --metrics-out {args.metrics_out}: {e.strerror}") \
            from None
    # With --metrics-out, each frame's share of its push and each tail are kept.
    push_us, tail_us = [], []
    blocks = anomalies = rejected = 0
    try:
        for frames in frame_blocks(source):
            blocks += 1
            t0 = time.perf_counter_ns()
            verdicts = detector.push(frames)
            if metrics_fh is not None:
                push_us += [(time.perf_counter_ns() - t0) / 1000.0 / len(frames)] * len(frames)
                tail_us.extend(v.inference_us for v in verdicts)
                anomalies += sum(v.is_anomaly for v in verdicts)
            for verdict in verdicts:
                _print_verdict(verdict)
            if verdicts:
                sys.stdout.flush()
    except (InputError, StreamError):
        rejected = 1  # a frame that cannot be parsed or scored ends the stream
        raise
    finally:
        if args.input != "-":
            source.close()
        if metrics_fh is not None:
            with metrics_fh:
                json.dump({
                    "frames": detector.frames_seen,
                    "blocks": blocks,
                    "verdicts": len(tail_us),
                    "anomalies": anomalies,
                    "rejected_frames": rejected,
                    "overruns": detector.overruns,
                    "tail_us": _p50_p99(tail_us),
                    "push_us": _p50_p99(push_us),
                    "backend": BACKEND,
                    "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
                }, metrics_fh, indent=2, sort_keys=True)
                metrics_fh.write("\n")
    return 0


def _print_verdict(verdict):
    # NaN and Infinity are not JSON: such a score is written as null, and
    # the verdict stays anomalous (`classify`).
    score = verdict.score if math.isfinite(verdict.score) else None
    if score is None:
        print(
            f"warning: window_start {verdict.window_start} has a non-finite "
            "score; flagged anomalous",
            file=sys.stderr,
        )
    print(json.dumps({"window_start": verdict.window_start, "score": score,
                      "is_anomaly": verdict.is_anomaly, "inference_us": verdict.inference_us}))


def _p50_p99(samples_us) -> dict:
    if not samples_us:
        return {"p50": None, "p99": None}
    p50, p99 = np.percentile(samples_us, [50, 99])
    return {"p50": float(p50), "p99": float(p99)}


def cmd_bench(args) -> int:
    if args.windows < 1:
        raise InputError(f"--windows must be >= 1, got {args.windows}")
    if args.warmup < 0:
        raise InputError(f"--warmup must be >= 0, got {args.warmup}")
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.calibration is not None:
        calib = CalibrationStats.from_dict(ckpt.calibration)
        calibrated = True
    else:
        calib = CalibrationStats(mu=0.0, sigma=1.0)
        calibrated = False
    cfg = ckpt.config
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    raw = ckpt.norm_stats.mean + ckpt.norm_stats.std * rng.standard_normal(
        (args.windows, cfg.window_len, cfg.n_signals)
    )
    runtime = ScoringRuntime.from_checkpoint(ckpt)
    report = bench_latency(
        runtime, calib, list(raw), repetitions=args.repetitions, warmup=args.warmup
    )
    doc = report.to_dict()
    doc["calibrated"] = calibrated
    doc["resolved_config"] = {
        "command": "bench",
        "checkpoint": str(args.checkpoint),
        "windows": args.windows,
        "repetitions": args.repetitions,
        "model": asdict(cfg),
    }
    if args.out:
        _write_json(args.out, doc)
    print(
        f"IQR-mean latency {report.iqr_mean_us:.1f} us over "
        f"{len(report.timings_us)} inferences (Q1 {report.q1_us:.1f}, "
        f"Q3 {report.q3_us:.1f})"
    )
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowad",
        description="Streaming multivariate time-series anomaly detection "
        "with a flow-transformed adversarial autoencoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV + manifest")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--num-normal", type=int, default=None)
    p.add_argument("--num-anomalous", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on normal records")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True, help="training CSV (all-normal)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--freq-downsample", type=int, default=1, metavar="N",
                   help="keep every N-th frame before windowing")
    p.add_argument("--ablation", choices=ABLATIONS, default="none")
    p.add_argument("--log", default=None, help="training log path (JSON-lines)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit normal-error statistics")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="normal CSV, typically the training file")
    p.add_argument("--out", default=None, help="output checkpoint (default: in place)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval", help="evaluate AUROC on a labeled test set")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--roc-out", default=None, help="optional ROC points CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="stream frames and emit verdicts")
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", default="-", help="frame-line file, or - for stdin")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--target-fpr", type=float, default=None)
    p.add_argument("--stride-period-s", type=float, default=None,
                   help="real-time budget per stride: its frames' steps plus the "
                   "verdict; overruns warn")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="on exit, write counts, push and verdict-tail latency "
                   "percentiles, the kernel backend and the BLAS thread variables as JSON")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="measure single-window inference latency")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--windows", type=int, default=128)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--warmup", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="optional report JSON path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FlowadError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer closed the pipe; hand stdout a sink so the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
