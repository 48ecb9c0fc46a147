"""The window model: LSTM encoder with distribution heads, reparameterized
base latent, masked autoregressive flow stack, linear decoder, and the MLP
discriminator.

Every forward function is written against the dispatching ops in
`autodiff`, so one code path serves both differentiable training (params
given as Tensors) and plain numpy execution (params given as ndarrays).
Inputs are batches: windows (B, T_W, N) and latent vectors (B, D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import InputError
from .masks import build_masks


@dataclass(frozen=True)
class ModelConfig:
    n_signals: int
    window_len: int
    hidden_size: int | None = None  # default 2*n_signals
    latent_size: int | None = None  # default 2*n_signals
    flow_layers: int = 3
    made_hidden: int | None = None  # default 2*latent_size
    disc_widths: tuple[int, ...] | None = None  # default (2*latent, 2*latent)
    alpha_const: float = 0.0
    use_sparsity: bool = True
    use_flow: bool = True

    def __post_init__(self):
        if self.n_signals < 1 or self.window_len < 1:
            raise InputError("n_signals and window_len must be >= 1")
        if self.flow_layers < 0:
            raise InputError("flow_layers must be >= 0")
        if self.alpha_const < 0:
            raise InputError("alpha_const must be non-negative")
        hid = self.hidden_size if self.hidden_size is not None else 2 * self.n_signals
        lat = self.latent_size if self.latent_size is not None else 2 * self.n_signals
        made = self.made_hidden if self.made_hidden is not None else 2 * lat
        disc = self.disc_widths if self.disc_widths is not None else (2 * lat, 2 * lat)
        disc = tuple(int(w) for w in disc)
        if hid < 1 or lat < 1 or made < 1 or any(w < 1 for w in disc):
            raise InputError("all layer sizes must be >= 1")
        object.__setattr__(self, "hidden_size", int(hid))
        object.__setattr__(self, "latent_size", int(lat))
        object.__setattr__(self, "made_hidden", int(made))
        object.__setattr__(self, "disc_widths", disc)


# Encoder-side parameter names: the sparsity penalty covers these.
ENCODER_PARAM_NAMES = ("lstm_w", "lstm_b", "mu_w", "mu_b", "logvar_w", "logvar_b")


@dataclass
class LatentPass:
    """Every intermediate the losses need, batched along axis 0."""

    mu: object
    logvar: object
    z0: object
    zk: object
    reconstruction: object


def generator_array_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every generator array, in checkpoint order."""
    n, H, D, M = cfg.n_signals, cfg.hidden_size, cfg.latent_size, cfg.made_hidden
    shapes = {"lstm_w": (n + H, 4 * H), "lstm_b": (4 * H,), "mu_w": (H, D), "mu_b": (D,),
              "logvar_w": (H, D), "logvar_b": (D,)}
    for k in range(cfg.flow_layers):
        shapes |= {f"flow{k}_enc_w": (D, M), f"flow{k}_enc_b": (M,),
                   f"flow{k}_dec_w": (M, D), f"flow{k}_dec_b": (D,)}
    TN = cfg.window_len * n
    return shapes | {"dec1_w": (D, H), "dec1_b": (H,), "dec2_w": (H, TN), "dec2_b": (TN,)}


def discriminator_array_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every discriminator array, in checkpoint order."""
    shapes, prev = {}, cfg.latent_size
    for i, w in enumerate(cfg.disc_widths):
        shapes |= {f"disc{i}_w": (prev, w), f"disc{i}_b": (w,)}
        prev = w
    return shapes | {"disc_out_w": (prev, 1), "disc_out_b": (1,)}


def _init_uniform(shapes: dict, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws in `shapes` order; a
    bias takes the fan-in of the weight matrix before it."""
    arrays = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            fan_in = shape[0]
        bound = 1.0 / math.sqrt(fan_in)
        arrays[name] = rng.uniform(-bound, bound, size=shape)
    return arrays


def init_generator(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return _init_uniform(generator_array_shapes(cfg), rng)


def init_discriminator(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return _init_uniform(discriminator_array_shapes(cfg), rng)


def build_flow_masks(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """One validated mask pair; every flow layer shares the same structure."""
    return build_masks(cfg.latent_size, cfg.made_hidden)


# -- forward passes --------------------------------------------------------


def encode(window, params: Mapping, cfg: ModelConfig):
    """LSTM over T_W steps of (B, T_W, N) windows; the final hidden state
    feeds the mu/logvar heads, each (B, D)."""
    x = np.asarray(window, dtype=np.float64)
    if x.shape[1:] != (cfg.window_len, cfg.n_signals):
        raise InputError(
            f"windows must be (B, {cfg.window_len}, {cfg.n_signals}), got shape {x.shape}"
        )
    h = ad.lstm(x, params["lstm_w"], params["lstm_b"], cfg.hidden_size)
    mu = ad.affine(h, params["mu_w"], params["mu_b"])
    logvar = ad.affine(h, params["logvar_w"], params["logvar_b"])
    return mu, logvar


def reparameterize(mu, logvar, eps=None):
    """z_0 = mu + exp(logvar/2) * eps; eps=None means the zero vector."""
    if eps is None:
        return mu
    sigma = ad.exp(ad.mul(logvar, 0.5))
    return ad.add(mu, ad.mul(sigma, np.asarray(eps, dtype=np.float64)))


def made_forward(z, enc_w, enc_b, dec_w, dec_b, m_enc, m_dec):
    """Masked single-hidden-layer network on (B, D); output i sees only
    inputs < i."""
    hidden = ad.relu(ad.affine(z, ad.mul(enc_w, m_enc), enc_b))
    return ad.affine(hidden, ad.mul(dec_w, m_dec), dec_b)


def maf_forward(z0, params: Mapping, masks, cfg: ModelConfig):
    """z_k = z_{k-1} * exp(alpha) + mu_k(z_{k-1}) for k = 1..K, on (B, D)."""
    z = z0
    if not cfg.use_flow or cfg.flow_layers == 0:
        return z
    m_enc, m_dec = masks
    scale = math.exp(cfg.alpha_const)
    for k in range(cfg.flow_layers):
        mu_k = made_forward(
            z,
            params[f"flow{k}_enc_w"],
            params[f"flow{k}_enc_b"],
            params[f"flow{k}_dec_w"],
            params[f"flow{k}_dec_b"],
            m_enc,
            m_dec,
        )
        z = ad.add(ad.mul(z, scale), mu_k)
    return z


def maf_inverse(z_k, params: Mapping, masks, cfg: ModelConfig) -> np.ndarray:
    """Coordinate-by-coordinate inverse of maf_forward on (B, D); numpy only."""
    z = np.array(z_k, dtype=np.float64)
    if not cfg.use_flow or cfg.flow_layers == 0:
        return z
    m_enc, m_dec = masks
    scale = math.exp(cfg.alpha_const)
    for k in reversed(range(cfg.flow_layers)):
        layer = [np.asarray(params[f"flow{k}_{part}"], dtype=np.float64)
                 for part in ("enc_w", "enc_b", "dec_w", "dec_b")]
        x = np.zeros_like(z)
        for i in range(z.shape[1]):
            # mu[:, i] depends only on x[:, :i], which are already solved.
            mu = made_forward(x, *layer, m_enc, m_dec)
            x[:, i] = (z[:, i] - mu[:, i]) / scale
        z = x
    return z


def decode(z_k, params: Mapping, cfg: ModelConfig):
    """z_K (B, D) -> linear(hidden_size) -> relu -> linear(T_W*N) -> (B, T_W, N)."""
    if z_k.shape[1:] != (cfg.latent_size,):
        raise InputError(f"latents must be (B, {cfg.latent_size}), got shape {z_k.shape}")
    h = ad.relu(ad.affine(z_k, params["dec1_w"], params["dec1_b"]))
    flat = ad.affine(h, params["dec2_w"], params["dec2_b"])
    return ad.reshape(flat, (z_k.shape[0], cfg.window_len, cfg.n_signals))


def generator_forward(window, params: Mapping, masks, cfg: ModelConfig, eps=None) -> LatentPass:
    """encode -> reparameterize -> flow -> decode, keeping intermediates."""
    mu, logvar = encode(window, params, cfg)
    z0 = reparameterize(mu, logvar, eps)
    zk = maf_forward(z0, params, masks, cfg)
    recon = decode(zk, params, cfg)
    return LatentPass(mu=mu, logvar=logvar, z0=z0, zk=zk, reconstruction=recon)


def discriminate(z, params: Mapping, cfg: ModelConfig):
    """MLP on (B, D) with rectifier hiddens and sigmoid output; returns
    (B, 1) probs."""
    h = z
    for i in range(len(cfg.disc_widths)):
        h = ad.relu(ad.affine(h, params[f"disc{i}_w"], params[f"disc{i}_b"]))
    return ad.sigmoid(ad.affine(h, params["disc_out_w"], params["disc_out_b"]))
