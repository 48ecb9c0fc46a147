"""Two-network training loop.

Per batch of records: window every record, run one batched generator
pass over all windows, compute the window-mean generator loss and the
window-mean discriminator loss (against a frozen copy of z_K and fresh
prior draws), then apply exactly one AdamW step per network - the
generator first, both losses having been computed before either update.
Each batch's z_K vectors enter the prior buffer only after the updates,
so prior samples always come from strictly earlier steps.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .autodiff import value_and_grad
from .data import (
    LABEL_NORMAL,
    NormStats,
    Record,
    WindowingConfig,
    apply_normalization,
    fit_normalization,
    record_windows,
    sliding_windows,  # noqa: F401 - perfbench/launcher.py traces it here
)
from .errors import InputError
from .losses import GeneratorLossParts, loss_discriminator, loss_generator
from .model import (
    DiscriminatorParams,
    GeneratorParams,
    ModelConfig,
    build_flow_masks,
    generator_forward,
    init_discriminator,
    init_generator,
)
from .optim import adamw_init, adamw_step

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 8
    eta0: float = 8e-3
    gamma: float = 0.6
    milestones: tuple[int, ...] = (2, 12)
    lam: float = 1e-4
    beta_max: float = 1.0
    weight_decay: float = 0.01
    seed: int = 0
    prior_capacity: int = 4096
    sparsity_covers_flow: bool = False
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        if self.lam < 0:
            raise InputError("lambda must be >= 0")
        if self.beta_max < 0:
            raise InputError("beta_max must be >= 0")
        if self.prior_capacity < 1:
            raise InputError("prior_capacity must be >= 1")
        if self.eta0 <= 0:
            raise InputError("eta0 must be positive")
        if not 0 < self.gamma <= 1:
            raise InputError("gamma must lie in (0, 1]")
        ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise InputError("milestones must be strictly increasing")
        object.__setattr__(self, "milestones", ms)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: eta0 * gamma^(number of milestones at or before epoch)."""
    if epoch < 0:
        raise InputError("epoch must be non-negative")
    passed = sum(1 for m in cfg.milestones if m <= epoch)
    return cfg.eta0 * cfg.gamma**passed


def beta_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> beta_max across the run; a one-epoch run stays
    at 0 (reconstruction has priority at the start by construction)."""
    if not 0 <= epoch < cfg.epochs:
        raise InputError(f"epoch {epoch} outside 0..{cfg.epochs - 1}")
    if cfg.epochs == 1:
        return 0.0
    return cfg.beta_max * epoch / (cfg.epochs - 1)


class PriorBuffer:
    """Bounded FIFO of latent vectors from earlier generator passes."""

    def __init__(self, capacity: int, latent_size: int):
        if capacity < 1:
            raise InputError("capacity must be >= 1")
        self.latent_size = latent_size
        self._buf: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._buf)

    def push(self, z_batch: np.ndarray):
        z = np.atleast_2d(np.asarray(z_batch, dtype=np.float64))
        if z.shape[1] != self.latent_size:
            raise InputError(
                f"latent length {z.shape[1]} does not match buffer ({self.latent_size})"
            )
        for row in z:
            self._buf.append(row.copy())

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform draws with replacement; an empty buffer bootstraps
        from the standard normal."""
        if not self._buf:
            return rng.standard_normal((count, self.latent_size))
        idx = rng.integers(0, len(self._buf), size=count)
        return np.stack([self._buf[i] for i in idx])


@dataclass
class TrainResult:
    generator: GeneratorParams
    discriminator: DiscriminatorParams
    norm_stats: NormStats
    log: list[dict] = field(default_factory=list)


def _bias_names(arrays: dict) -> frozenset[str]:
    return frozenset(n for n in arrays if n.endswith("_b"))


def train(
    records: list[Record],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    windowing: WindowingConfig,
) -> TrainResult:
    """Run the full optimization; returns parameters, stats, and the
    per-epoch log (one dict per epoch, JSON-ready)."""
    for r in records:
        if r.label != LABEL_NORMAL:
            raise InputError(
                f"training data must be all-normal; record '{r.sample_id}' is labeled "
                f"'{r.label}'"
            )
        if r.n_signals != model_cfg.n_signals:
            raise InputError(
                f"record '{r.sample_id}' has {r.n_signals} signals, model expects "
                f"{model_cfg.n_signals}"
            )
    if windowing.window_len != model_cfg.window_len:
        raise InputError("windowing window_len must match the model's window_len")

    norm_stats = fit_normalization(records)

    def warn_short(r: Record):
        log.warning(
            "record '%s' is shorter than one window (%d frames); skipped",
            r.sample_id,
            r.n_frames,
        )

    rec_windows = [
        np.ascontiguousarray(view)
        for _, view in record_windows(
            (apply_normalization(r, norm_stats) for r in records), windowing, warn_short
        )
    ]
    if not rec_windows:
        raise InputError("no record is long enough to fill a single window")

    ss = np.random.SeedSequence(train_cfg.seed)
    init_rng, eps_rng, prior_rng, shuffle_rng = (
        np.random.default_rng(s) for s in ss.spawn(4)
    )
    gen = init_generator(model_cfg, init_rng)
    disc = init_discriminator(model_cfg, init_rng)
    masks = build_flow_masks(model_cfg) if model_cfg.flow_layers > 0 else None

    opt_g = adamw_init(
        gen.arrays,
        lr=train_cfg.eta0,
        weight_decay=train_cfg.weight_decay,
        decay_exempt=_bias_names(gen.arrays),
    )
    opt_d = adamw_init(
        disc.arrays,
        lr=train_cfg.eta0,
        weight_decay=train_cfg.weight_decay,
        decay_exempt=_bias_names(disc.arrays),
    )
    buffer = PriorBuffer(train_cfg.prior_capacity, model_cfg.latent_size)

    n_rec = len(rec_windows)
    epoch_log: list[dict] = []
    for epoch in range(train_cfg.epochs):
        t_start = time.perf_counter()
        eta = lr_schedule(epoch, train_cfg)
        opt_g.lr = eta
        opt_d.lr = eta
        beta = beta_schedule(epoch, train_cfg)
        order = (
            shuffle_rng.permutation(n_rec) if train_cfg.shuffle else np.arange(n_rec)
        )

        sum_mse = sum_l1 = sum_bce = sum_d = 0.0
        n_windows = 0
        for b0 in range(0, n_rec, train_cfg.batch_size):
            chunk = order[b0 : b0 + train_cfg.batch_size]
            wins = np.concatenate([rec_windows[i] for i in chunk], axis=0)
            bsz = wins.shape[0]
            eps = eps_rng.standard_normal((bsz, model_cfg.latent_size))

            def gen_loss_fn(p):
                lp = generator_forward(wins, p, masks, model_cfg, eps)
                total, parts = loss_generator(
                    lp, wins, p, disc.arrays, model_cfg, train_cfg.lam, beta,
                    sparsity_covers_flow=train_cfg.sparsity_covers_flow,
                )
                return total, {"zk": np.asarray(lp.zk.data), "parts": parts}

            (_, aux), g_grads = value_and_grad(gen_loss_fn, gen.arrays, has_aux=True)
            zk_frozen = aux["zk"]
            parts: GeneratorLossParts = aux["parts"]
            z_prior = buffer.sample(bsz, prior_rng)

            def disc_loss_fn(p):
                return loss_discriminator(z_prior, zk_frozen, p, model_cfg)

            d_loss, d_grads = value_and_grad(disc_loss_fn, disc.arrays)

            # Both losses are computed; generator updates first.
            adamw_step(gen.arrays, g_grads, opt_g)
            adamw_step(disc.arrays, d_grads, opt_d)
            buffer.push(zk_frozen)

            sum_mse += parts.mse * bsz
            sum_l1 += parts.sparsity * bsz
            sum_bce += parts.adversarial * bsz
            sum_d += d_loss * bsz
            n_windows += bsz

        epoch_log.append(
            {
                "epoch": epoch,
                "mean_L_mse": sum_mse / n_windows,
                "mean_L_l1": sum_l1 / n_windows,
                "mean_L_bce": sum_bce / n_windows,
                "mean_L_D": sum_d / n_windows,
                "eta": eta,
                "beta": beta,
                "wall_time_s": time.perf_counter() - t_start,
            }
        )

    return TrainResult(
        generator=gen,
        discriminator=disc,
        norm_stats=norm_stats,
        log=epoch_log,
    )
