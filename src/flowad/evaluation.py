"""Record scoring, ROC/AUROC, per-type aggregation, latency benchmarks,
and the ablation comparison harness.

A record's score is the maximum anomaly score over its windows. AUROC
is computed by the tied-rank (pairwise probability) formula; roc_curve
groups equal scores at one threshold, and its trapezoidal area agrees
with the pairwise value to within floating-point error.
"""

from __future__ import annotations

import logging
import os
import platform
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    LABEL_NORMAL,
    Record,
    WindowingConfig,
    record_windows,
    sliding_windows,  # noqa: F401 - perfbench/launcher.py traces it here
)
from .detection import CalibrationStats, calibrate, score_from_l1, score_windows
from .errors import InputError
from .fastpath import BACKEND, BLAS_THREAD_VARS, ScoringRuntime
from .model import ModelConfig

if TYPE_CHECKING:
    from .training import TrainConfig, TrainResult

log = logging.getLogger(__name__)


@dataclass
class ScoredRecord:
    sample_id: str
    label: str
    anomaly_type: str
    window_scores: np.ndarray
    record_score: float


@dataclass
class TypeAurocReport:
    per_type: dict[str, float]
    mean: float
    std: float


@dataclass
class LatencyReport:
    timings_us: np.ndarray
    iqr_mean_us: float
    q1_us: float
    q3_us: float
    n_warmup: int
    window_len: int
    n_signals: int
    hardware: str
    backend: str
    blas_threads: dict[str, str | None]  # each BLAS_THREAD_VARS value, None if unset

    def to_dict(self) -> dict:
        return {
            "iqr_mean_us": self.iqr_mean_us,
            "q1_us": self.q1_us,
            "q3_us": self.q3_us,
            "n_timed": int(len(self.timings_us)),
            "n_warmup": self.n_warmup,
            "window_len": self.window_len,
            "n_signals": self.n_signals,
            "hardware": self.hardware,
            "backend": self.backend,
            "blas_threads": self.blas_threads,
        }


def score_records(
    records: list[Record],
    runtime: ScoringRuntime,
    calib: CalibrationStats,
    windowing: WindowingConfig,
    eps_mode: str = "zero",
    eps_seed: int = 0,
) -> tuple[list[ScoredRecord], int]:
    """Score every record; record_score is the max over its windows.

    Records too short for one window are skipped with a warning and
    counted in the returned skip total. Windows are scored in blocks
    that may span records.
    """
    if calib is None:
        raise InputError("scoring requires calibration stats")

    def warn(r: Record):
        log.warning(
            "record '%s' has %d frames, shorter than one window; skipped",
            r.sample_id,
            r.n_frames,
        )

    kept = list(record_windows(records, windowing, warn))
    errors = score_windows(
        runtime, (w for _, ws in kept for w in ws), eps_mode, eps_seed
    )
    per_record = np.split(errors, np.cumsum([len(ws) for _, ws in kept])[:-1])
    scored: list[ScoredRecord] = []
    for (r, _), errs in zip(kept, per_record):
        bad = np.flatnonzero(~np.isfinite(errs))
        if len(bad):
            raise InputError(
                f"record '{r.sample_id}': window {bad[0]} has a non-finite L1 error; "
                "a value may be out of the scoring dtype's range"
            )
        scores = score_from_l1(errs, calib)
        scored.append(
            ScoredRecord(
                sample_id=r.sample_id,
                label=r.label,
                anomaly_type=r.anomaly_type,
                window_scores=scores,
                record_score=float(scores.max()),
            )
        )
    return scored, len(records) - len(kept)


def _check_two_classes(labels: np.ndarray):
    if labels.all() or not labels.any():
        raise InputError("auroc needs both classes present")


def auroc(scores, labels) -> float:
    """P(random anomalous score > random normal score), ties as 1/2.

    Computed by the tied-rank formula, which matches the pairwise
    definition exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be equal-length vectors")
    _check_two_classes(labels)
    uniq, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    below = np.concatenate(([0], np.cumsum(counts)))[:-1]
    avg_rank = below + (counts + 1) / 2.0  # 1-based average ranks
    ranks = avg_rank[inv]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_curve(scores, labels) -> np.ndarray:
    """(FPR, TPR) points from (0,0) to (1,1), one per distinct score
    threshold (ties grouped), thresholds descending."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    _check_two_classes(labels)
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        tp += int(y[i : j + 1].sum())
        fp += (j - i + 1) - int(y[i : j + 1].sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j + 1
    return np.array(points)


def trapezoid_auc(points: np.ndarray) -> float:
    x = points[:, 0]
    y = points[:, 1]
    return float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) * 0.5))


def per_type_auroc(scored: list[ScoredRecord]) -> TypeAurocReport:
    """Per-type AUROC over (that type's records + all normals);
    overall = unweighted mean across types, std across types."""
    normals = [r.record_score for r in scored if r.label == LABEL_NORMAL]
    if not normals:
        raise InputError("per-type AUROC needs normal records")
    by_type: dict[str, list[float]] = {}
    for r in scored:
        if r.label != LABEL_NORMAL:
            by_type.setdefault(r.anomaly_type, []).append(r.record_score)
    if not by_type:
        raise InputError("per-type AUROC needs at least one anomaly type")
    per_type: dict[str, float] = {}
    for atype in sorted(by_type):
        pos = by_type[atype]
        s = np.array(normals + pos)
        y = np.array([0] * len(normals) + [1] * len(pos), dtype=bool)
        per_type[atype] = auroc(s, y)
    vals = np.array(list(per_type.values()))
    return TypeAurocReport(
        per_type=per_type, mean=float(vals.mean()), std=float(vals.std())
    )


def iqr_mean(values: np.ndarray) -> tuple[float, float, float]:
    """Mean of values within [Q1, Q3]; quartiles by inclusive linear
    interpolation. Returns (iqr_mean, q1, q3)."""
    values = np.asarray(values, dtype=np.float64)
    q1, q3 = np.percentile(values, [25.0, 75.0])
    inside = values[(values >= q1) & (values <= q3)]
    return float(inside.mean()), float(q1), float(q3)


def bench_latency(
    runtime: ScoringRuntime,
    calib: CalibrationStats,
    windows,
    repetitions: int = 1,
    warmup: int = 20,
) -> LatencyReport:
    """Time one full inference (normalize -> forward -> score) per raw
    (T_W, N) window array, single-threaded; at least 100 timed
    inferences required."""
    windows = list(windows)
    if not windows:
        raise InputError("bench_latency needs at least one window")
    n_timed = len(windows) * repetitions
    if n_timed < 100:
        raise InputError(
            f"need >= 100 timed inferences, got {len(windows)} windows x "
            f"{repetitions} repetitions = {n_timed}"
        )
    runtime.warm_up()
    for w in windows[:warmup]:
        score_from_l1(runtime.l1_error(w), calib)
    timings = np.empty(n_timed)
    k = 0
    for _ in range(repetitions):
        for w in windows:
            t0 = time.perf_counter_ns()
            score_from_l1(runtime.l1_error(w), calib)
            timings[k] = (time.perf_counter_ns() - t0) / 1000.0
            k += 1
    mean_us, q1, q3 = iqr_mean(timings)
    return LatencyReport(
        timings_us=timings,
        iqr_mean_us=mean_us,
        q1_us=q1,
        q3_us=q3,
        n_warmup=warmup,
        window_len=runtime.config.window_len,
        n_signals=runtime.config.n_signals,
        hardware=platform.platform(),
        backend=BACKEND,
        blas_threads={v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    )


def evaluate(
    test_records: list[Record],
    runtime: ScoringRuntime,
    calib: CalibrationStats,
    windowing: WindowingConfig,
    eps_mode: str = "zero",
    eps_seed: int = 0,
) -> dict:
    """Full evaluation report as a JSON-ready dict."""
    return summarize(
        *score_records(test_records, runtime, calib, windowing, eps_mode, eps_seed)
    )


def summarize(scored: list[ScoredRecord], skipped: int) -> dict:
    """The evaluation report of already scored records."""
    report = per_type_auroc(scored)
    return {
        "per_type": report.per_type,
        "overall_mean": report.mean,
        "overall_std": report.std,
        "n_records": len(scored),
        "n_skipped": skipped,
    }


def ablation_variants(base: ModelConfig) -> dict[str, ModelConfig]:
    """The three ablation configurations sharing N and T_W with base."""
    n = base.n_signals
    compressed = max(1, n // 2)
    return {
        "full": base,
        "no_sparsity": ModelConfig(
            n_signals=n,
            window_len=base.window_len,
            hidden_size=compressed,
            latent_size=compressed,
            flow_layers=base.flow_layers,
            alpha_const=base.alpha_const,
            use_sparsity=False,
            use_flow=True,
        ),
        "no_flow": ModelConfig(
            n_signals=n,
            window_len=base.window_len,
            hidden_size=base.hidden_size,
            latent_size=base.latent_size,
            flow_layers=0,
            alpha_const=base.alpha_const,
            use_sparsity=base.use_sparsity,
            use_flow=False,
        ),
    }


def train_and_evaluate(
    train_records: list[Record],
    test_records: list[Record],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    windowing: WindowingConfig,
) -> tuple[dict, TrainResult]:
    """Train, calibrate on the training windows, evaluate on test."""
    from .training import train

    result = train(train_records, model_cfg, train_cfg, windowing)
    runtime = ScoringRuntime(model_cfg, result.generator.arrays, result.norm_stats)
    calib = calibrate(
        runtime, (w for _, ws in record_windows(train_records, windowing) for w in ws)
    )
    report = evaluate(test_records, runtime, calib, windowing)
    return report, result


def ablation_train_config(name: str, train_cfg: TrainConfig) -> TrainConfig:
    """The train config of ablation variant `name`: no_sparsity also
    switches the L1 penalty off (lam=0)."""
    return replace(train_cfg, lam=0.0) if name == "no_sparsity" else train_cfg


def run_ablation(
    train_records: list[Record],
    test_records: list[Record],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    windowing: WindowingConfig,
) -> dict:
    """Train and evaluate {full, no-sparsity, no-flow} on identical
    data and seed; returns a JSON-ready comparison report."""
    out: dict = {"seed": train_cfg.seed, "variants": {}}
    for name, cfg in ablation_variants(model_cfg).items():
        tcfg = ablation_train_config(name, train_cfg)
        t0 = time.perf_counter()
        report, _ = train_and_evaluate(
            train_records, test_records, cfg, tcfg, windowing
        )
        report["train_eval_s"] = time.perf_counter() - t0
        out["variants"][name] = report
    return out
