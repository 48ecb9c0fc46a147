"""Synthetic dataset generator for pipeline tests and benchmarks.

Normal records are sums of per-feature sinusoids: feature j carries a
fundamental plus a weaker second harmonic, with frequency, amplitude
and phase fixed by a deterministic formula of j alone so that every
dataset drawn for a given N shares one signal family. Records differ
through a task-level phase jitter shared by all features and through
i.i.d. Gaussian noise. Anomalous records take a normal base and apply
one of three injections: an additive spike burst, a linear drift, or a
segment dropout that replaces the signal with noise.

All draws come from one seeded Generator in a fixed order, so equal
configs produce bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LABEL_ANOMALOUS, LABEL_NORMAL, Record
from .errors import InputError

ANOMALY_KINDS = ("spike", "drift", "dropout")


@dataclass(frozen=True)
class SynthConfig:
    num_normal: int = 0
    num_anomalous: int = 0
    n_frames: int = 300
    n_signals: int = 12
    sample_rate_hz: float = 100.0
    anomaly_kinds: tuple[str, ...] = ANOMALY_KINDS
    seed: int = 0
    noise_std: float = 0.03
    jitter_std: float = 0.15
    harmonic_ratio: float = 0.2
    spike_scale: float = 6.0  # spike peak, in units of the feature's own std
    drift_scale: float = 4.0  # drift endpoint, same units
    dropout_frac: float = 0.3  # dropped segment length as a fraction of n_frames
    anomaly_features: tuple[int, ...] | None = None  # None: drawn per record

    def __post_init__(self):
        if self.num_normal < 0 or self.num_anomalous < 0:
            raise InputError("record counts must be non-negative")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.n_frames < 2 or self.n_signals < 1:
            raise InputError("need n_frames >= 2 and n_signals >= 1")
        if self.num_anomalous > 0 and not self.anomaly_kinds:
            raise InputError("anomaly_kinds must not be empty when anomalies are requested")
        for k in self.anomaly_kinds:
            if k not in ANOMALY_KINDS:
                raise InputError(f"unknown anomaly kind '{k}'")
        if self.anomaly_features is not None:
            for j in self.anomaly_features:
                if not 0 <= j < self.n_signals:
                    raise InputError(f"anomaly feature index {j} out of range")
        object.__setattr__(self, "anomaly_kinds", tuple(self.anomaly_kinds))
        if self.anomaly_features is not None:
            object.__setattr__(self, "anomaly_features", tuple(self.anomaly_features))


def feature_bank(n_signals: int):
    """Deterministic per-feature (frequency Hz, amplitude, phase rad)."""
    j = np.arange(n_signals, dtype=np.float64)
    freqs = 0.8 + 0.17 * j
    amps = 1.0 + 0.1 * ((3.0 * j) % 4.0)
    phases = 2.0 * np.pi * 0.37 * j
    return freqs, amps, phases


def _base_record(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    freqs, amps, phases = feature_bank(cfg.n_signals)
    t = np.arange(cfg.n_frames, dtype=np.float64)[:, None] / cfg.sample_rate_hz
    jitter = rng.normal(0.0, cfg.jitter_std)
    arg = 2.0 * np.pi * freqs[None, :] * t + phases[None, :] + jitter
    clean = amps[None, :] * (np.sin(arg) + cfg.harmonic_ratio * np.sin(2.0 * arg))
    noise = rng.normal(0.0, cfg.noise_std, size=clean.shape)
    return clean + noise


def _pick_features(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.anomaly_features is not None:
        return np.asarray(cfg.anomaly_features, dtype=np.intp)
    k = int(rng.integers(3, min(7, cfg.n_signals + 1)))
    return rng.choice(cfg.n_signals, size=k, replace=False)


def _inject(frames: np.ndarray, kind: str, cfg: SynthConfig, rng: np.random.Generator):
    T = frames.shape[0]
    feats = _pick_features(cfg, rng)
    scale = frames.std(axis=0)  # per-feature std of this record
    if kind == "spike":
        width = max(5, T // 10)
        t0 = int(rng.integers(0, T - width + 1))
        bump = np.sin(np.pi * np.arange(width) / (width - 1))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        for j in feats:
            frames[t0 : t0 + width, j] += sign * cfg.spike_scale * scale[j] * bump
    elif kind == "drift":
        t0 = int(rng.integers(0, T // 2))
        ramp = np.linspace(0.0, 1.0, T - t0)
        for j in feats:
            frames[t0:, j] += cfg.drift_scale * scale[j] * ramp
    elif kind == "dropout":
        width = max(2, int(round(cfg.dropout_frac * T)))
        t0 = int(rng.integers(0, T - width + 1))
        frames[t0 : t0 + width, feats] = rng.normal(
            0.0, cfg.noise_std, size=(width, len(feats))
        )
    else:
        raise InputError(f"unknown anomaly kind '{kind}'")


def synth_generate(cfg: SynthConfig) -> list[Record]:
    """Generate normal records followed by anomalous ones.

    Anomaly kinds cycle through cfg.anomaly_kinds so types come out
    balanced; placement and affected features are drawn from the rng.
    """
    rng = np.random.default_rng(cfg.seed)
    records: list[Record] = []
    for i in range(cfg.num_normal):
        records.append(
            Record(
                sample_id=f"normal_{i:04d}",
                frames=_base_record(cfg, rng),
                label=LABEL_NORMAL,
                sample_rate_hz=cfg.sample_rate_hz,
            )
        )
    for i in range(cfg.num_anomalous):
        kind = cfg.anomaly_kinds[i % len(cfg.anomaly_kinds)]
        frames = _base_record(cfg, rng)
        _inject(frames, kind, cfg, rng)
        records.append(
            Record(
                sample_id=f"anomalous_{i:04d}",
                frames=frames,
                label=LABEL_ANOMALOUS,
                anomaly_type=kind,
                sample_rate_hz=cfg.sample_rate_hz,
            )
        )
    return records
