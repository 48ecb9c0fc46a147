"""Calibration, anomaly scoring, and the streaming detector.

The anomaly score of a window is its standardized L1 reconstruction
error, AS = (L1 - mu_normal) / sigma_normal, against statistics
calibrated on normal windows. Classification is strict: a window is
anomalous iff AS > theta, and a NaN score is anomalous too.

Scoring always takes raw (unnormalized) windows or frames; the runtime
applies the checkpoint's normalization internally, so calibration, batch
evaluation, and the stream all share one kernel. Calibration and
evaluation score blocks of windows; the stream detector runs the LSTM of
every window a block of frames touches as the block arrives, in waves of
one step over all of them, so each verdict waits only for the kernel's
tail.

`calibrate` is the one place an eps mode is chosen: the statistics record
it, and every later scoring draws epsilon by the mode of the calibration
it is given. `eval` and `detect` refuse a config whose eps_mode names
another.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .data import WindowingConfig
from .errors import InputError
from .fastpath import ScoringRuntime, WindowsInFlight

log = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-8
# Windows per kernel call when every window is known in advance
# (calibration, evaluation); the stream scores one at a time.
BLOCK_WINDOWS = 32
# How epsilon is drawn at scoring: zero, or a seeded standard normal draw.
EPS_MODES = ("zero", "sample")


@dataclass
class CalibrationStats:
    """Normal-error statistics; eps_mode records how epsilon was drawn,
    and scoring against these statistics draws it the same way.
    scores_sorted retains the calibration anomaly scores for
    quantile-based thresholding."""

    mu: float
    sigma: float
    eps_mode: str = "zero"
    n_windows: int = 0
    scores_sorted: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise InputError("mu and sigma must be finite")
        if self.sigma < SIGMA_FLOOR:
            raise InputError(f"sigma must be >= {SIGMA_FLOOR}")
        if self.eps_mode not in EPS_MODES:
            raise InputError(f"unknown eps_mode '{self.eps_mode}'")

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "sigma": self.sigma,
            "eps_mode": self.eps_mode,
            "n_windows": self.n_windows,
            "scores_sorted": None
            if self.scores_sorted is None
            else [float(s) for s in self.scores_sorted],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationStats":
        """Inverse of to_dict; a malformed dict is an InputError."""
        try:
            return cls(
                mu=float(d["mu"]),
                sigma=float(d["sigma"]),
                eps_mode=d.get("eps_mode", "zero"),
                n_windows=int(d.get("n_windows", 0)),
                scores_sorted=None
                if d.get("scores_sorted") is None
                else np.asarray(d["scores_sorted"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"calibration stats are malformed: {e!r}") from None


@dataclass
class Verdict:
    window_start: int
    score: float
    is_anomaly: bool
    inference_us: float  # the wall time of its block's tail call, which it shares


@dataclass(frozen=True)
class DetectSection:
    """The config file's detect section. `detect` takes its threshold from
    `threshold` or `target_fpr` (flags override them). Only `calibrate`
    chooses an eps mode: it draws epsilon by `eps_mode` ("zero" if unset)
    and records it in the calibration, by whose mode `eval` and `detect`
    draw it; they refuse an `eps_mode` that names another. Every scoring
    command seeds it with `eps_seed`."""

    threshold: float | None = None
    target_fpr: float | None = None
    eps_mode: str | None = None
    eps_seed: int = 0

    def __post_init__(self):
        if self.eps_seed < 0:
            raise InputError("eps_seed must be >= 0")
        if self.eps_mode not in (None, *EPS_MODES):
            raise InputError(f"unknown eps_mode '{self.eps_mode}'")

    def theta(self, calib: CalibrationStats) -> float:
        """The decision threshold: `threshold` as given, or the quantile of
        the calibration scores for `target_fpr`; exactly one must be set."""
        if self.threshold is not None and self.target_fpr is not None:
            raise InputError("give either a threshold or a target_fpr, not both (flags and "
                             "the config's detect section together set both)")
        if self.threshold is not None:
            return float(self.threshold)
        if self.target_fpr is None:
            raise InputError("a decision threshold is required: --threshold or --target-fpr")
        return threshold_for_fpr(calib, float(self.target_fpr))


def _eps_stream(runtime: ScoringRuntime, eps_mode: str, eps_seed: int):
    """Epsilon drawer matching the configured mode: draw(B) gives a block's
    (B, D) noise, the same numbers as B draws of one window each."""
    if eps_mode == "zero":
        return lambda count: None
    rng = np.random.default_rng(eps_seed)
    d = runtime.config.latent_size
    return lambda count: rng.standard_normal((count, d))


def score_windows(
    runtime: ScoringRuntime, windows, eps_mode: str = "zero", eps_seed: int = 0
) -> np.ndarray:
    """L1 errors of raw (T_W, N) window arrays, in order, BLOCK_WINDOWS
    per kernel call.

    Epsilon is drawn per window in window order, and a block's rows equal
    one-at-a-time scoring bit for bit, so the blocking changes no result.
    """
    draw = _eps_stream(runtime, eps_mode, eps_seed)
    it = iter(windows)
    errors = []
    while block := list(islice(it, BLOCK_WINDOWS)):
        errors.append(runtime.l1_errors(np.stack(block), draw(len(block))))
    return np.concatenate(errors) if errors else np.empty(0)


def calibrate(
    runtime: ScoringRuntime,
    windows,
    eps_mode: str = "zero",
    eps_seed: int = 0,
) -> CalibrationStats:
    """Population mean/std of L1 errors over raw normal windows.

    By convention the source set is the training windows themselves; a
    held-out normal split works identically. Windows may come from any
    iterable, a generator included; they are scored in blocks.
    """
    errors = score_windows(runtime, windows, eps_mode, eps_seed)
    bad = np.flatnonzero(~np.isfinite(errors))
    if len(bad):
        raise InputError(
            f"calibration window {bad[0]} (counted from 0) has a non-finite L1 error; "
            "a value may be out of the scoring dtype's range"
        )
    if len(errors) < 2:
        raise InputError(f"calibration needs >= 2 windows, got {len(errors)}")
    mu = float(errors.mean())
    sigma = max(float(errors.std()), SIGMA_FLOOR)  # population std
    scores = np.sort((errors - mu) / sigma)
    return CalibrationStats(
        mu=mu,
        sigma=sigma,
        eps_mode=eps_mode,
        n_windows=len(errors),
        scores_sorted=scores,
    )


def score_from_l1(l1: float, calib: CalibrationStats) -> float:
    return (l1 - calib.mu) / calib.sigma


def classify(score: float, theta: float) -> bool:
    """Strict: a score exactly at the threshold is NOT anomalous. A NaN
    score (a window the kernel overflowed on) is anomalous, never normal."""
    return not score <= theta


def threshold_for_fpr(calib: CalibrationStats, target_fpr: float) -> float:
    """Quantile rule: theta such that a target_fpr share of calibration
    scores falls strictly above it (linear-interpolation quantile)."""
    if not 0.0 < target_fpr < 1.0:
        raise InputError("target FPR must lie in (0, 1)")
    if calib.scores_sorted is None or len(calib.scores_sorted) == 0:
        raise InputError("calibration stats carry no retained scores")
    return float(np.quantile(calib.scores_sorted, 1.0 - target_fpr))


class StreamDetector:
    """Windowed detector over an ordered frame stream.

    Feed frames with push() in (F, N) blocks of any size; a Verdict comes
    back every stride frames once the first window has filled. The LSTM
    part of scoring runs as the frames arrive: every window a block touches
    is a row of a `WindowsInFlight`, and one LSTM step per wave advances
    them all, so a block of F frames takes at most min(F, T_W) steps and a
    verdict pays only the kernel's tail (heads, flow, decoder, L1). The
    windows a block completes share one tail call. Streamed scores equal
    `ScoringRuntime.l1_error` on the same frames bit for bit, with the
    same eps draw, however the frames are split into blocks.

    Epsilon is drawn by the calibration's eps_mode, seeded with eps_seed; a
    score above theta is anomalous. A stride whose work takes longer than
    stride_period_s, if given, counts as an overrun and logs a warning.
    """

    def __init__(self, runtime: ScoringRuntime, calib: CalibrationStats, *, theta: float,
                 windowing: WindowingConfig, eps_seed: int = 0,
                 stride_period_s: float | None = None):
        if calib is None:
            raise InputError("detector requires calibration stats")
        if not np.isfinite(theta):
            raise InputError("threshold must be finite")
        if stride_period_s is not None and not (
                np.isfinite(stride_period_s) and stride_period_s > 0):
            raise InputError(f"stride period must be finite and > 0 s, got {stride_period_s}")
        if windowing.window_len != runtime.config.window_len:
            raise InputError("windowing window_len must match the model")
        self.runtime = runtime
        self.calib = calib
        self.theta = theta
        self.stride_period_s = stride_period_s
        self._T = (windowing.window_len, windowing.stride)
        self._rows = WindowsInFlight(runtime, *self._T)
        self._stride_ns = 0.0  # work of the frames since the last stride boundary
        self._draw = _eps_stream(runtime, calib.eps_mode, eps_seed)
        self.overruns = 0
        # pay first-call costs here, not on the first verdict
        runtime.warm_up()

    @property
    def frames_seen(self) -> int:
        return self._rows.count

    def push(self, frames) -> list[Verdict]:
        """Verdicts, in order, of the windows the next raw frames (F, N) complete.

        The block's LSTM runs in waves (`WindowsInFlight.advance`) and its
        verdicts share one tail call, whose wall time every verdict carries
        as `inference_us`. For overruns, a frame's work is its 1/F share of
        the block's work before the tail, and a verdict's its 1/B share of
        the tail."""
        t0 = time.perf_counter_ns()
        frames = np.asarray(frames, dtype=np.float64)
        n, rows = self.runtime.config.n_signals, self._rows
        c0 = rows.count
        if frames.ndim != 2 or frames.shape[1] != n:
            raise InputError(f"frame {c0} has shape {frames.shape[1:]}, expected ({n},)")
        if not np.isfinite(frames).all():
            bad = int(np.isfinite(frames).all(axis=1).argmin())
            raise InputError(f"frame {c0 + bad} has a non-finite value: {frames[bad]}")
        with np.errstate(over="ignore", invalid="ignore"):
            h, windows = rows.advance(frames)
            t1 = time.perf_counter_ns()
            l1 = rows.l1_errors(h, windows, self._draw(len(h))).tolist() if len(h) else ()
        tail_ns = time.perf_counter_ns() - t1
        (T_W, T_S), end, verdicts = self._T, rows.count, []
        share = (t1 - t0) / max(end - c0, 1)
        # Strides end where windows end, counted back to the stream's start.
        prev = c0
        for stop in range(c0 + 1 + (T_W - c0 - 1) % T_S, end + 1, T_S):
            stride_ns, self._stride_ns = self._stride_ns + (stop - prev) * share, 0.0
            prev = stop
            if stop < T_W:
                continue
            # Real time allows one stride period for one stride's frames and
            # the verdict they complete.
            work_s = (stride_ns + tail_ns / len(l1)) * 1e-9
            period = self.stride_period_s
            if period is not None and work_s > period:
                self.overruns += 1
                log.warning("stride work took %.3f ms, exceeding the %.3f ms stride period",
                            work_s * 1000.0, period * 1000.0)
            score = score_from_l1(l1[len(verdicts)], self.calib)
            verdicts.append(Verdict(stop - T_W, score, classify(score, self.theta),
                                    tail_ns / 1000.0))
        self._stride_ns += (end - prev) * share
        return verdicts

