"""Calibration, anomaly scoring, and the streaming detector.

The anomaly score of a window is its standardized L1 reconstruction
error, AS = (L1 - mu_normal) / sigma_normal, against statistics
calibrated on normal windows. Classification is strict: a window is
anomalous iff AS > theta, and a NaN score is anomalous too.

Scoring always takes raw (unnormalized) windows or frames; the runtime
applies the checkpoint's normalization internally, so calibration, batch
evaluation, and the stream all share one kernel. Calibration and
evaluation score blocks of windows; the stream detector runs the LSTM of
every window in flight as blocks of frames arrive, stepping frame by
frame, so each verdict waits only for the kernel's tail.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .data import WindowingConfig
from .errors import InputError, StreamError
from .fastpath import ScoringRuntime, WindowsInFlight

log = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-8
# Windows per kernel call when every window is known in advance
# (calibration, evaluation); the stream scores one at a time.
BLOCK_WINDOWS = 32


@dataclass
class CalibrationStats:
    """Normal-error statistics; eps_mode records how epsilon was drawn
    so detection can refuse a mismatched mode. scores_sorted retains
    the calibration anomaly scores for quantile-based thresholding."""

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
        if self.eps_mode not in ("zero", "sample"):
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
    inference_us: float  # from the window's last frame to the verdict: the tail


@dataclass
class DetectorConfig:
    theta: float
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    eps_mode: str = "zero"
    eps_seed: int = 0
    stride_period_s: float | None = None  # budget per stride; set to get overrun warnings

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise InputError("threshold must be finite")
        if self.eps_mode not in ("zero", "sample"):
            raise InputError(f"unknown eps_mode '{self.eps_mode}'")
        period = self.stride_period_s
        if period is not None and not (np.isfinite(period) and period > 0):
            raise InputError(f"stride period must be finite and > 0 s, got {period}")


def _eps_stream(runtime: ScoringRuntime, eps_mode: str, eps_seed: int):
    """Epsilon drawer matching the configured mode: draw() gives one
    window's (D,) noise, draw(B) a block's (B, D), the same numbers B
    single draws would give."""
    if eps_mode == "zero":
        return lambda *block: None
    rng = np.random.default_rng(eps_seed)
    d = runtime.config.latent_size
    return lambda *block: rng.standard_normal((*block, d))


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
    sigma_floor: float = SIGMA_FLOOR,
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
    sigma = max(float(errors.std()), sigma_floor)  # population std
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
    part of scoring runs as the frames arrive: each of the ceil(T_W / T_S)
    windows in flight owns one row of a `WindowsInFlight`, restarted at
    the window's first frame and advanced by every frame, so a verdict
    pays only the kernel's tail (heads, flow, decoder, L1). Streamed
    scores equal `ScoringRuntime.l1_error` on the same frames bit for bit,
    with the same eps draw.
    """

    def __init__(self, runtime: ScoringRuntime, calib: CalibrationStats, cfg: DetectorConfig):
        if calib is None:
            raise InputError("detector requires calibration stats")
        if cfg.eps_mode != calib.eps_mode:
            raise InputError(
                f"detector eps_mode '{cfg.eps_mode}' does not match calibration "
                f"'{calib.eps_mode}'"
            )
        if cfg.windowing.window_len != runtime.config.window_len:
            raise InputError("windowing window_len must match the model")
        self.runtime = runtime
        self.calib = calib
        self.cfg = cfg
        T_W, T_S = cfg.windowing.window_len, cfg.windowing.stride
        # Window j starts at frame j * T_S and owns row j % slots; the row's
        # previous owner, window j - slots, has ended by then, as
        # slots * T_S >= T_W.
        self._slots = -(-T_W // T_S)
        self._rows = WindowsInFlight(runtime, self._slots)
        # The last T_W frames, normalized, at their frame index mod T_W.
        self._ring = np.zeros((T_W, runtime.config.n_signals), dtype=runtime.dtype)
        self._count = 0
        self._stride_ns = 0  # work of the frames since the last stride boundary
        self._draw = _eps_stream(runtime, cfg.eps_mode, cfg.eps_seed)
        self.overruns = 0
        # pay first-call costs here, not on the first verdict
        runtime.warm_up()

    @property
    def frames_seen(self) -> int:
        return self._count

    def push(self, frames) -> list[Verdict]:
        """Verdicts, in order, of the windows the next raw frames (F, N) complete.
        The work that overruns count for a frame is its LSTM step plus its
        share of the block's checks, normalize and projection."""
        t0 = time.perf_counter_ns()
        frames = np.asarray(frames, dtype=np.float64)
        n = self.runtime.config.n_signals
        if frames.ndim != 2 or frames.shape[1] != n:
            raise StreamError(
                f"frame {self._count} has shape {frames.shape[1:]}, expected ({n},)"
            )
        if not np.isfinite(frames).all():
            bad = int(np.isfinite(frames).all(axis=1).argmin())
            raise StreamError(f"frame {self._count + bad} has a non-finite value: {frames[bad]}")
        T_W, T_S = self.cfg.windowing.window_len, self.cfg.windowing.stride
        rows, ring, verdicts = self._rows, self._ring, []
        with np.errstate(over="ignore", invalid="ignore"):
            xs, xps = rows.project(frames)
            t1 = time.perf_counter_ns()
            share = (t1 - t0) // max(len(frames), 1)
            for f in range(len(frames)):
                count = self._count
                if count % T_S == 0:
                    rows.restart(count // T_S % self._slots)
                rows.step(xps[f])
                ring[count % T_W] = xs[f]
                self._count = count = count + 1
                t0, t1 = t1, time.perf_counter_ns()
                self._stride_ns += t1 - t0 + share
                # Strides end where windows end, counted back to the stream's start.
                if (count - T_W) % T_S != 0:
                    continue
                stride_ns, self._stride_ns = self._stride_ns, 0
                if count < T_W:
                    continue
                window = np.concatenate((ring[count % T_W :], ring[: count % T_W]))
                row = (count - T_W) // T_S % self._slots
                score = score_from_l1(rows.l1(row, window, self._draw()), self.calib)
                tail_ns = time.perf_counter_ns() - t1
                # Real time allows one stride period for one stride's frames and
                # the verdict they complete.
                work_s = (stride_ns + tail_ns) * 1e-9
                if self.cfg.stride_period_s is not None and work_s > self.cfg.stride_period_s:
                    self.overruns += 1
                    log.warning("stride work took %.3f ms, exceeding the %.3f ms stride period",
                                work_s * 1000.0, self.cfg.stride_period_s * 1000.0)
                verdicts.append(Verdict(count - T_W, score, classify(score, self.cfg.theta),
                                        inference_us=tail_ns / 1000.0))
                t1 = time.perf_counter_ns()
        return verdicts


def stream_detect(frames, runtime: ScoringRuntime, calib: CalibrationStats, cfg: DetectorConfig):
    """Run a StreamDetector over an iterable of frames, yielding Verdicts."""
    det = StreamDetector(runtime, calib, cfg)
    for frame in frames:
        yield from det.push(np.asarray(frame)[None])
