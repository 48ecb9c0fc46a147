"""Command-line entry point.

Commands: gen-data, train, calibrate, eval, detect, bench. A JSON
config file supplies defaults per section (model/windowing/train/
synth/detect); command-line flags override file values; the fully
resolved configuration is echoed into every artifact a command writes.

Exit codes: 0 success, 1 runtime failure, 2 invalid input or config.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import build_config, config_section, load_config_file
from .data import (
    LABEL_NORMAL,
    WindowingConfig,
    downsample,
    load_records,
    manifest_path,
    record_windows,
    save_records,
    sliding_windows,  # noqa: F401 - perfbench/launcher.py traces it here
)
from .detection import CalibrationStats, DetectSection, StreamDetector, calibrate
from .errors import FlowadError, InputError
from .fastpath import ScoringRuntime
from .model import ModelConfig

ABLATIONS = ("none", "no-sparsity", "no-flow")

# Names that perfbench/launcher.py patches on this module but whose modules
# `detect` never runs: each is taken from the lazy package on first access,
# and commands read it as an attribute of this module, so a patched name is
# what runs.
_ON_ACCESS = ("train", "evaluate", "roc_curve")


def __getattr__(name: str):
    if name not in _ON_ACCESS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _build_fixed(cls, cfg: dict, name: str, source: str, **values):
    """`build_config` with `values` fixed by `source`: the config section
    may repeat one of them but not contradict it."""
    sec = config_section(cfg, name)
    for key, value in values.items():
        if sec.get(key) is not None and sec[key] != value:
            raise InputError(
                f"config {name}.{key}={sec[key]!r} conflicts with the {source} value {value}")
    return build_config(cls, cfg, name, **values)


def _checkpoint_windowing(cfg: dict, ckpt) -> WindowingConfig:
    """The checkpoint's window length with a stride taken from, in order:
    explicit config, the stride recorded in the checkpoint at train
    time, then non-overlapping windows."""
    stored = ckpt.meta.get("resolved_config", {}).get("windowing", {})
    strides = (config_section(cfg, "windowing").get("stride"), stored.get("stride"))
    stride = next((s for s in strides if s is not None), ckpt.config.window_len)
    return _build_fixed(WindowingConfig, cfg, "windowing", "checkpoint",
                        window_len=ckpt.config.window_len, stride=stride)


def _log_path(args) -> str:
    return args.log if args.log else str(args.out) + ".log.jsonl"


def _same_file(path: str, source: str | None) -> bool:
    """Whether an input flag's value names the file `path`: the same file,
    or, while the input does not exist (a CSV's absent manifest), the
    same resolved path."""
    if source in (None, "-"):
        return False
    try:
        return os.path.samefile(path, source)
    except OSError:  # either one is missing
        return not os.path.exists(source) and os.path.realpath(path) == os.path.realpath(source)


def _check_outputs(args):
    """Exit 2, before a command loads anything, on an output path that
    cannot become a file: a directory, one whose directory is missing, a
    file the command reads, which writing would destroy, or the path of
    another output, which would overwrite it. A dataset's manifest counts
    with its CSV: read with `--data`, written by `gen-data`. `calibrate`
    may write its checkpoint in place."""
    reads = {f"--{src} file": getattr(args, src, None)
             for src in ("data", "input", "checkpoint", "config")}
    if getattr(args, "data", None):
        reads["--data file's manifest"] = manifest_path(args.data)
    outputs = {f"--{flag.replace('_', '-')}": getattr(args, flag, None)
               for flag in ("out", "log", "roc_out", "metrics_out")}
    if args.command == "train":
        outputs["--log"] = _log_path(args)  # the default too: train writes it last
    elif args.command == "gen-data":
        outputs["the --out manifest"] = manifest_path(args.out)
    written = {}  # resolved output path -> its flag; neither file need exist yet
    for opt, path in outputs.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if os.path.isdir(path):
            why = os.strerror(errno.EISDIR)
        elif not os.path.isdir(os.path.dirname(path) or "."):
            why = os.strerror(errno.ENOENT)
        elif read := [src for src, source in reads.items() if _same_file(path, source) and
                      (args.command, opt, src) != ("calibrate", "--out", "--checkpoint file")]:
            why = f"it is the {read[0]}, which the command reads"
        elif real in written:
            why = f"{written[real]} writes it too"
        else:
            written[real] = opt
            continue
        raise InputError(f"cannot write {opt} {path}: {why}")


def _write_json(path: str | Path, doc: dict):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- commands ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    from .synth import SynthConfig, synth_generate

    cfg = load_config_file(args.config)
    synth_cfg = build_config(SynthConfig, cfg, "synth", flags={
        "seed": args.seed, "num_normal": args.num_normal, "num_anomalous": args.num_anomalous})
    records = synth_generate(synth_cfg)
    resolved = {"command": "gen-data", "synth": asdict(synth_cfg)}
    save_records(records, args.out, manifest_extra={"resolved_config": resolved})
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .training import TrainConfig

    if args.freq_downsample < 1:
        raise InputError(f"--freq-downsample must be >= 1, got {args.freq_downsample}")
    cfg = load_config_file(args.config)
    windowing = build_config(WindowingConfig, cfg, "windowing")
    train_cfg = build_config(TrainConfig, cfg, "train", flags={"seed": args.seed})
    records = load_records(args.data)
    if args.freq_downsample > 1:
        records = [downsample(r, args.freq_downsample) for r in records]
    model_cfg = _build_fixed(ModelConfig, cfg, "model", "data/windowing",
                             n_signals=records[0].n_signals, window_len=windowing.window_len)
    if args.ablation != "none":
        from .evaluation import ablation_train_config, ablation_variants

        name = args.ablation.replace("-", "_")
        model_cfg = ablation_variants(model_cfg)[name]
        train_cfg = ablation_train_config(name, train_cfg)

    result = sys.modules[__name__].train(records, model_cfg, train_cfg, windowing)

    resolved = {
        "command": "train",
        "data": str(args.data),
        "freq_downsample": args.freq_downsample,
        "ablation": args.ablation,
        "model": asdict(model_cfg),
        "train": asdict(train_cfg),
        "windowing": asdict(windowing),
    }
    save_checkpoint(args.out, Checkpoint(model_cfg, result.generator, result.discriminator,
                                         result.norm_stats, meta={"resolved_config": resolved}))
    Path(_log_path(args)).write_text(
        "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in result.log))
    print(
        f"trained {train_cfg.epochs} epochs; final mean_L_mse="
        f"{result.log[-1]['mean_L_mse']:.4f}; checkpoint -> {args.out}"
    )
    return 0


def _require_signals(records, ckpt: Checkpoint):
    for r in records:
        if r.n_signals != ckpt.config.n_signals:
            raise InputError(
                f"record '{r.sample_id}' has {r.n_signals} signals, checkpoint "
                f"expects {ckpt.config.n_signals}"
            )


def cmd_calibrate(args) -> int:
    cfg = load_config_file(args.config)
    detect_sec = build_config(DetectSection, cfg, "detect")
    ckpt = load_checkpoint(args.checkpoint)
    windowing = _checkpoint_windowing(cfg, ckpt)
    records = load_records(args.data)
    if bad := [r for r in records if r.label != LABEL_NORMAL]:
        raise InputError(f"calibration data must contain only normal records; "
                         f"'{bad[0].sample_id}' is labeled '{bad[0].label}'")
    _require_signals(records, ckpt)
    if ckpt.calibration is not None:
        print("warning: checkpoint is already calibrated; overwriting", file=sys.stderr)
    stats = calibrate(
        ScoringRuntime.from_checkpoint(ckpt),
        (w for _, ws in record_windows(records, windowing) for w in ws),
        eps_mode=detect_sec.eps_mode or "zero",  # the mode every later scoring draws by
        eps_seed=detect_sec.eps_seed,
    )
    meta = dict(ckpt.meta)
    meta["calibration_config"] = {
        "command": "calibrate",
        "data": str(args.data),
        "eps_mode": stats.eps_mode,
        "eps_seed": detect_sec.eps_seed,
        "stride": windowing.stride,
    }
    out = args.out if args.out else args.checkpoint
    save_checkpoint(out, replace(ckpt, calibration=stats.to_dict(), meta=meta))
    print(
        f"calibrated on {stats.n_windows} windows: mu={stats.mu:.6g} "
        f"sigma={stats.sigma:.6g} -> {out}"
    )
    return 0


def _scoring_setup(args, flags=None, fallback=None):
    """What `eval`, `detect` and `bench` score with, each part checked before
    any data or frame is read: the config's detect section, the checkpoint,
    its calibration (`fallback` if it has none, which is an error without
    one), whose eps mode a config eps_mode may only repeat, the windowing
    and the runtime."""
    cfg = load_config_file(getattr(args, "config", None))
    detect_sec = build_config(DetectSection, cfg, "detect", flags=flags)
    ckpt = load_checkpoint(args.checkpoint)
    calib = fallback if ckpt.calibration is None else CalibrationStats.from_dict(ckpt.calibration)
    if calib is None:
        raise InputError("checkpoint has no calibration stats; run `flowad calibrate` first")
    if detect_sec.eps_mode not in (None, calib.eps_mode):
        raise InputError(f"config eps_mode '{detect_sec.eps_mode}' does not match the "
                         f"checkpoint's calibration, made in eps_mode '{calib.eps_mode}'")
    windowing = _checkpoint_windowing(cfg, ckpt)
    return detect_sec, ckpt, calib, windowing, ScoringRuntime.from_checkpoint(ckpt)


def cmd_eval(args) -> int:
    from .evaluation import score_records, summarize

    detect_sec, ckpt, calib, windowing, runtime = _scoring_setup(args)
    records = load_records(args.data)
    _require_signals(records, ckpt)
    # One scoring pass serves both the report and the ROC points.
    scored, skipped = score_records(records, runtime, calib, windowing, detect_sec.eps_seed)
    try:
        report = summarize(scored, skipped)
    except InputError as e:  # too few records: say how many were too short to score
        if skipped:
            raise InputError(f"{e}; {skipped} records shorter than the "
                             f"{windowing.window_len}-frame window were skipped") from None
        raise
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
        points = sys.modules[__name__].roc_curve(scores, labels)
        Path(args.roc_out).write_text(
            "fpr,tpr\n" + "".join(f"{float(fpr)!r},{float(tpr)!r}\n" for fpr, tpr in points))
    _write_json(args.out, report)
    print(
        f"overall AUROC {report['overall_mean']:.4f} +/- {report['overall_std']:.4f} "
        f"over {len(report['per_type'])} types -> {args.out}"
    )
    return 0


def cmd_detect(args) -> int:
    from .stream import run

    detect_sec, _, calib, windowing, runtime = _scoring_setup(args, flags={
        "threshold": args.threshold, "target_fpr": args.target_fpr})
    detector = StreamDetector(runtime, calib, theta=detect_sec.theta(calib),
                              windowing=windowing, eps_seed=detect_sec.eps_seed,
                              stride_period_s=args.stride_period_s)
    run(detector, args.input, args.metrics_out)
    return 0


def cmd_bench(args) -> int:
    for flag, low in (("windows", 1), ("warmup", 0), ("seed", 0)):
        if getattr(args, flag) < low:
            raise InputError(f"--{flag} must be >= {low}, got {getattr(args, flag)}")
    from .evaluation import bench_latency

    _, ckpt, calib, _, runtime = _scoring_setup(
        args, fallback=CalibrationStats(mu=0.0, sigma=1.0))
    cfg = ckpt.config
    rng = np.random.default_rng(args.seed)
    raw = ckpt.norm_stats.mean + ckpt.norm_stats.std * rng.standard_normal(
        (args.windows, cfg.window_len, cfg.n_signals)
    )
    report = bench_latency(
        runtime, calib, list(raw), repetitions=args.repetitions, warmup=args.warmup
    )
    doc = report.to_dict()
    doc["calibrated"] = ckpt.calibration is not None
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional report JSON path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except FlowadError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, InputError) else 1
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
