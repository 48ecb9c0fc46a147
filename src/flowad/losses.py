"""Generator and discriminator losses.

The generator total is reconstruction + sparsity + adversarial:
  L_G = sum((W - W')^2) + lambda * sum|w_encoder| + beta * BCE(D(z_K), 1)
and the discriminator sees a frozen z_K:
  L_D = 1/2 [ BCE(D(z_prior), 1) + BCE(D(z_K), 0) ].
Probabilities are clamped to [P_MIN, 1 - P_MIN] inside every BCE.

All loss functions take batches: windows (B, T_W, N) and latent vectors
(B, D). They return the per-window mean, except loss_mse, which is the
plain sum its definition calls for - callers that want the batch mean
divide by the window count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import InputError
from .model import ENCODER_PARAM_NAMES, ModelConfig, discriminate

P_MIN = 1e-7


@dataclass
class GeneratorLossParts:
    """Float values of the three generator terms (per-window means)."""

    mse: float
    sparsity: float
    adversarial: float


def loss_mse(window, reconstruction):
    """Sum of squared differences over all entries (no averaging), one
    `sum_squares` node over the difference, which is all it keeps."""
    w = np.asarray(window, dtype=np.float64)
    if w.shape != reconstruction.shape:
        raise InputError(
            f"shape mismatch: window {w.shape} vs reconstruction "
            f"{reconstruction.shape}"
        )
    d = ad.sub(reconstruction, w)
    return ad.sum_squares(d)


def loss_sparsity(params: Mapping, lam: float, include_flow: bool = False):
    """lambda * sum of |w| over encoder parameters (LSTM + heads).

    include_flow widens coverage to the MADE parameters.
    """
    if lam < 0:
        raise InputError("lambda must be non-negative")
    if lam == 0:
        return 0.0
    names = list(ENCODER_PARAM_NAMES)
    if include_flow:
        names += [n for n in params if n.startswith("flow")]
    total = None
    for name in names:
        s = ad.sum_all(ad.absolute(params[name]))
        total = s if total is None else ad.add(total, s)
    return ad.mul(total, lam)


def _bce_against(p, target_one: bool):
    """Mean of -ln(p) or -ln(1-p) over the batch, with clamped p."""
    pc = ad.clip(p, P_MIN, 1.0 - P_MIN)
    inner = pc if target_one else ad.sub(1.0, pc)
    return ad.mul(ad.neg(ad.sum_all(ad.log(inner))), 1.0 / inner.shape[0])


def loss_adversarial_g(z_k, disc_params: Mapping, cfg: ModelConfig, beta: float):
    """beta * BCE(D(z_K), 1), averaged over the batch."""
    if beta < 0:
        raise InputError("beta must be non-negative")
    p = discriminate(z_k, disc_params, cfg)
    return ad.mul(_bce_against(p, target_one=True), beta)


def loss_generator(
    latent_pass,
    window,
    gen_params: Mapping,
    disc_params: Mapping,
    cfg: ModelConfig,
    lam: float,
    beta: float,
    sparsity_covers_flow: bool = False,
):
    """Total generator loss, the mean over the batch's windows.

    Returns (total, parts); parts carries the detached float values of
    the three terms for logging. disc_params should be plain arrays so
    no gradient flows into the discriminator here.
    """
    w = np.asarray(window, dtype=np.float64)
    b = w.shape[0]
    lam_eff = lam if cfg.use_sparsity else 0.0
    mse = ad.mul(loss_mse(w, latent_pass.reconstruction), 1.0 / b)
    sp = loss_sparsity(gen_params, lam_eff, include_flow=sparsity_covers_flow)
    adv = loss_adversarial_g(latent_pass.zk, disc_params, cfg, beta)
    total = ad.add(ad.add(mse, sp), adv)
    parts = GeneratorLossParts(
        mse=float(mse.data if isinstance(mse, ad.Tensor) else mse),
        sparsity=float(sp.data if isinstance(sp, ad.Tensor) else sp),
        adversarial=float(adv.data if isinstance(adv, ad.Tensor) else adv),
    )
    return total, parts


def loss_discriminator(z_prior, z_k_frozen, disc_params: Mapping, cfg: ModelConfig):
    """1/2 [BCE(D(z_prior), 1) + BCE(D(z_K), 0)]; z_K must be plain
    arrays (frozen), so the generator receives no gradient from this."""
    z_k_frozen = np.asarray(z_k_frozen, dtype=np.float64)
    p_prior = discriminate(np.asarray(z_prior, dtype=np.float64), disc_params, cfg)
    p_fake = discriminate(z_k_frozen, disc_params, cfg)
    real_term = _bce_against(p_prior, target_one=True)
    fake_term = _bce_against(p_fake, target_one=False)
    return ad.mul(ad.add(real_term, fake_term), 0.5)
